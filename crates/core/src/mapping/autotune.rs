//! The **mapping autotuner**: a closed-form rule picks each shape's
//! mapping, and plan compilation compiles only that one.
//!
//! The paper maps every softmax one way — two words per row, restoring
//! division, greedy capacity-filling shard partition (Fig. 5). Under
//! the simulator's cost model two other choices are cheaper, and the
//! rule takes them wherever they apply:
//!
//! * **One word per row.** AP ops are row-parallel, so a step costs its
//!   bit-serial passes whatever the row count. Packed two words per row,
//!   the sixteen-step dataflow runs once per half over `L/2` rows;
//!   unpacked it runs once over `L` rows, which roughly halves a
//!   vector's cycles. The extra rows cost only tiles.
//! * **Equal-length shards.** Resident shards of one length replay in
//!   SIMD lockstep: only the first shard of each distinct length pays
//!   the dataflow's cycles. A partition with one shard length costs
//!   about one tile's dataflow plus the reduction network, while the
//!   greedy split's tail shard is a second leader.
//!
//! # The rule
//!
//! For a vector of `len` elements, given the configured [`Layout`],
//! whether [`ApSoftmax::with_layout`] pinned it, and the device's tile
//! grid:
//!
//! 1. **Layout:** one word per row when the layout is not pinned, the
//!    configured layout would pack this length, and one word per row
//!    fits it on the tile grid in one wave; otherwise the configured
//!    layout.
//! 2. **Whole vector:** when that layout fits the vector in one tile.
//! 3. **Shards:** otherwise, the fewest shards `k` in
//!    `k_min ..= min(k_min + 2, tiles)` that split the vector into
//!    equal shards under that layout (reported as the greedy split when
//!    the two are identical); failing that, the greedy split.
//!
//! The rule never falls back to a packed equal split when one word per
//! row has none. That split's second half costs about as much as the
//! greedy tail's second leader — they differ by a few data-dependent
//! passes (variable shifts, the divider's restore) — and up to 40,000
//! scores the search picked it only where it saved at most 0.17% of a
//! vector's cycles.
//!
//! Division style, optimization level and residency are never chosen:
//! only the configured divider is bit-exact (the controller-reciprocal
//! one is within 1 ULP), cost is non-increasing along
//! [`softmap_ap::OptLevel::ladder`], and residency follows the
//! per-vector rule of every sharded plan.
//!
//! The rule *is* the mapping: `ApSoftmax::map_into` returns the
//! layout and partition every caller uses — cached and direct-issue
//! execution, the plan key, serving admission and
//! [`ApSoftmax::mapping_choice`] — the rule's when autotuning is
//! enabled (the default; see [`ApSoftmax::with_autotune`]), the
//! configured layout and greedy split otherwise. A tuned shape
//! therefore compiles, is keyed and replays like any other: one compile
//! per shape, on the caller's tile, which executes that vector.
//!
//! # The oracle
//!
//! The rule replaced a search that compiled every candidate mapping —
//! both layouts × the greedy and the balanced `k_min ..= k_min + 2`
//! partitions, up to eight compiles per shape — and kept the
//! statically cheapest by (cycles, critical path, cell events), the
//! default winning ties. That search survives in this module's tests
//! as the rule's oracle. On every benchmark shape, the `softmap_eval
//! autotune` lengths, pinned layouts, a small tile grid, lengths past
//! one wave, and a seeded sample of lengths up to 40,000, the rule must
//! return the search's [`MappingChoice`] at the search's cost wherever
//! the vector fits one tile or the rule finds equal shards. Where it
//! takes the greedy split it must cost no more than the configured
//! default and at most 0.5% more than the search's winner. A
//! cost-model change that moves a winner — such as charging lockstep
//! followers their own cell events — fails that test instead of
//! silently leaving the rule behind the cheapest mapping.
//!
//! # Contracts
//!
//! * `static == simulated` holds for a tuned shape because its plan is
//!   an ordinary compiled plan. Its outputs are bit-exact against the
//!   default mapping (every mapping is; the tuned-vs-default proptests
//!   check it).
//! * `with_autotune(false)` compiles the configured mapping
//!   byte-identically. Toggling autotuning starts a fresh plan cache,
//!   so within one cache a partition is a function of the length and
//!   the layout in the plan key.
//! * Tile *occupancy* is deliberately not weighed: a one-word-per-row
//!   mapping may use twice the shards. The deployment-level throughput
//!   model accounts for waves, and a deployment that wants the paper's
//!   occupancy pins the layout.

use super::{ApSoftmax, CoreError, Layout};
use crate::plan::MappingChoice;

/// How far past the minimum shard count the rule looks for an equal
/// split (`k_min ..= k_min + EQUAL_SPREAD`, capped at the tile grid).
const EQUAL_SPREAD: usize = 2;

/// Words per row of a layout.
fn words_per_row(layout: Layout) -> usize {
    match layout {
        Layout::TwoWordsPerRow => 2,
        Layout::OneWordPerRow => 1,
    }
}

impl ApSoftmax {
    /// The mapping of a vector of `len` elements: returns the layout it
    /// executes under and writes its shard partition into `ranges`
    /// (the one shard `(0, len)` when it fits one tile) — the rule's
    /// (see the module docs) when autotuning, the configured layout and
    /// the device's greedy split otherwise. Allocation-free once
    /// `ranges` has capacity.
    pub(super) fn map_into(
        &self,
        len: usize,
        ranges: &mut Vec<(usize, usize)>,
    ) -> Result<Layout, CoreError> {
        ranges.clear();
        let whole = |layout| Self::packing_of(layout, len).1 <= self.device.rows_per_tile;
        // Two words per row packs an even vector, and the even greedy
        // shards of an odd one too long for one tile.
        let packs = self.layout == Layout::TwoWordsPerRow
            && (len.is_multiple_of(2) || !whole(Layout::TwoWordsPerRow));
        // Shards past the grid run re-staged in waves, without lockstep.
        let one_wave = len <= self.device.tiles * self.device.shard_capacity(1);
        let layout = if self.autotune && !self.layout_pinned && packs && one_wave {
            Layout::OneWordPerRow
        } else {
            self.layout
        };
        if whole(layout) {
            ranges.push((0, len));
            return Ok(layout);
        }
        let wpr = words_per_row(layout);
        self.device.partition_into(len, wpr, ranges)?;
        if self.autotune {
            self.equal_split_into(len, wpr, ranges);
        }
        Ok(layout)
    }

    /// Overwrites `ranges` with the split of `len` elements into the
    /// fewest equal shards `k` in `k_min ..= min(k_min + EQUAL_SPREAD,
    /// tiles)` at `wpr` words per row — every shard a whole number of
    /// rows, so packed shards are even — and leaves it alone when no
    /// such `k` divides `len`.
    fn equal_split_into(&self, len: usize, wpr: usize, ranges: &mut Vec<(usize, usize)>) {
        let k_min = len.div_ceil(self.device.shard_capacity(wpr));
        let k_max = (k_min + EQUAL_SPREAD).min(self.device.tiles.max(1));
        let equal =
            (k_min..=k_max).find(|&k| len.is_multiple_of(k) && (len / k).is_multiple_of(wpr));
        if let Some(k) = equal {
            let shard = len / k;
            ranges.clear();
            ranges.extend((0..k).map(|i| (i * shard, (i + 1) * shard)));
        }
    }

    /// Whether `ranges`, a partition of `len` elements under `layout`,
    /// differs from the device's greedy split.
    pub(super) fn balanced(&self, len: usize, layout: Layout, ranges: &[(usize, usize)]) -> bool {
        let mut greedy = Vec::new();
        let split = self
            .device
            .partition_into(len, words_per_row(layout), &mut greedy);
        split.is_ok() && greedy != ranges
    }

    /// The mapping vectors of `len` elements execute under — layout,
    /// shard count, whether the partition is balanced (differs from the
    /// greedy split) and whether it runs resident — computed from the
    /// rule without compiling anything. Its cost is
    /// [`ApSoftmax::static_vector_cost`]; its compile time is
    /// [`ApSoftmax::plan`]'s or [`ApSoftmax::sharded_plan`]'s.
    ///
    /// # Errors
    ///
    /// [`CoreError::EmptyInput`] for a zero length;
    /// [`CoreError::Ap`] for a tile grid that cannot partition it.
    pub fn mapping_choice(&self, len: usize) -> Result<MappingChoice, CoreError> {
        if len == 0 {
            return Err(CoreError::EmptyInput);
        }
        let mut ranges = Vec::new();
        let layout = self.map_into(len, &mut ranges)?;
        let shards = ranges.len();
        Ok(MappingChoice {
            layout,
            div: self.div_style,
            opt: self.opt_level,
            resident: shards > 1 && self.resident_for(shards),
            shards,
            balanced: self.balanced(len, layout, &ranges),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::{ApSoftmaxRun, TileState, VectorCost};
    use softmap_ap::{DeviceConfig, ExecBackend};
    use softmap_softmax::PrecisionConfig;

    /// The search the rule replaced, kept as its oracle: compiles every
    /// candidate mapping of `len` from the representative input, each on
    /// a fresh autotune-off mapping pinned to its layout, and returns the
    /// statically cheapest by (cycles, critical path, cell events), the
    /// configured default — scored first — winning ties.
    fn search(m: &ApSoftmax, len: usize) -> (MappingChoice, VectorCost) {
        let mut candidates = vec![(m.layout, None)];
        for layout in [Layout::TwoWordsPerRow, Layout::OneWordPerRow] {
            if m.layout_pinned && layout != m.layout {
                continue;
            }
            if layout != m.layout {
                candidates.push((layout, None));
            }
            if ApSoftmax::packing_of(layout, len).1 <= m.device.rows_per_tile {
                continue;
            }
            let wpr = words_per_row(layout);
            let mut greedy = Vec::new();
            m.device.partition_into(len, wpr, &mut greedy).unwrap();
            let k_min = len.div_ceil(m.device.shard_capacity(wpr));
            for k in k_min..=(k_min + EQUAL_SPREAD).min(m.device.tiles.max(1)) {
                let mut balanced = Vec::new();
                let ok = m.device.balanced_partition_into(len, wpr, k, &mut balanced);
                if ok.is_ok() && balanced != greedy {
                    candidates.push((layout, Some(balanced)));
                }
            }
        }
        let codes = m.sm.quantize(&ApSoftmax::representative_scores(len));
        let score = |c: &VectorCost| (c.total.cycles(), c.latency_cycles, c.total.cell_events());
        let mut best: Option<(MappingChoice, VectorCost)> = None;
        for (layout, partition) in candidates {
            let balanced = partition.is_some();
            let view = m.clone().with_layout(layout).with_autotune(false);
            let (mut state, mut run) = (TileState::new(), ApSoftmaxRun::default());
            let entry = match &partition {
                Some(ranges) => {
                    let resident = view.resident_for(ranges.len());
                    view.compile_sharded(&mut state, &codes, &mut run, layout, ranges, resident)
                }
                None => view.resolve_vector_entry(len),
            };
            let Ok(entry) = entry else {
                continue; // a geometry the grid rejects is pruned
            };
            let cost = ApSoftmax::entry_vector_cost(&entry);
            if best.as_ref().is_none_or(|(_, b)| score(&cost) < score(b)) {
                let choice = MappingChoice {
                    layout,
                    div: m.div_style,
                    opt: m.opt_level,
                    resident: entry.resident,
                    shards: cost.shards,
                    balanced,
                };
                best = Some((choice, cost));
            }
        }
        best.expect("the default mapping compiles")
    }

    /// Checks the rule against the oracle at every length and returns
    /// the lengths where they disagree. They must agree exactly when
    /// the rule's plan is a whole vector or has equal shards; elsewhere
    /// the rule must cost no more than the configured default and at
    /// most 0.5% more than the search's winner.
    fn disagreements(m: &ApSoftmax, lengths: impl IntoIterator<Item = usize>) -> Vec<usize> {
        let untuned = m.clone().with_autotune(false);
        let mut misses = Vec::new();
        for len in lengths {
            let rule = m.mapping_choice(len).unwrap();
            let rule_cost = m.static_vector_cost(len).unwrap();
            let (best, best_cost) = search(m, len);
            if (rule, rule_cost) == (best, best_cost) {
                continue;
            }
            // A whole vector or an equal split must be the search's.
            let mut ranges = Vec::new();
            m.map_into(len, &mut ranges).unwrap();
            let exact = ranges.iter().all(|&(s, e)| e - s == len / ranges.len());
            assert!(
                !exact,
                "len {len}: rule [{rule}] {rule_cost:?} vs search [{best}] {best_cost:?}"
            );
            let (cycles, best_cycles) = (rule_cost.total.cycles(), best_cost.total.cycles());
            let default = untuned.static_vector_cost(len).unwrap().total.cycles();
            assert!(
                cycles <= default,
                "len {len}: rule {cycles} vs default {default}"
            );
            assert!(
                cycles as f64 <= best_cycles as f64 * 1.005,
                "len {len}: rule [{rule}] {cycles} vs search [{best}] {best_cycles}"
            );
            eprintln!("len {len}: rule [{rule}] {cycles} vs search [{best}] {best_cycles} cycles");
            misses.push(len);
        }
        misses
    }

    fn mapping() -> ApSoftmax {
        ApSoftmax::new(PrecisionConfig::paper_best())
            .unwrap()
            .with_backend(ExecBackend::FastWord)
    }

    #[test]
    fn rule_matches_the_search_on_benchmark_and_eval_shapes() {
        // e2e_bench's long-context lengths, its serve-mixed pattern, its
        // decode-grow lengths, and the `softmap_eval autotune` sweep.
        let long = [
            4096, 5000, 6000, 7168, 8192, 10000, 12000, 14336, 16384, 20000, 24576, 28000, 32768,
        ];
        let serve = [64, 256, 1024, 4096, 8192, 16384];
        let eval = [64, 256, 1024, 4096, 6000, 8192, 16384, 32768];
        let lengths = long.into_iter().chain(serve).chain(eval).chain(64..=512);
        assert_eq!(disagreements(&mapping(), lengths), Vec::<usize>::new());
    }

    #[test]
    fn rule_matches_the_search_with_a_pinned_layout() {
        let lengths = [
            2, 63, 64, 4095, 4096, 4098, 6000, 8192, 8193, 12000, 16384, 20001,
        ];
        for layout in [Layout::TwoWordsPerRow, Layout::OneWordPerRow] {
            let pinned = mapping().with_layout(layout);
            assert_eq!(disagreements(&pinned, lengths), Vec::<usize>::new());
        }
        // A small grid caps the shard counts the rule may try.
        let small = mapping().with_device(DeviceConfig::new(4, 512));
        assert_eq!(
            disagreements(&small, [1000, 1536, 2047, 2048, 3000]),
            Vec::<usize>::new()
        );
    }

    #[test]
    fn rule_keeps_the_configured_layout_past_one_wave() {
        // One word per row fits 48 x 2048 = 98,304 scores in one wave;
        // past that its shards would re-stage, at 11-18x the cost.
        let lengths = [98304, 98306, 110001, 150000, 262144];
        assert_eq!(disagreements(&mapping(), lengths), Vec::<usize>::new());
    }

    #[test]
    fn rule_stays_within_the_search_on_seeded_lengths() {
        // 160 lengths in 2..=40,000 from a fixed xorshift stream, then
        // lengths where a rule that fell back to packed equal shards
        // missed the search's mapping (by 2% at 18438), and the rule's
        // widest miss up to 40,000 (9224, 0.17%).
        let mut x = 0x9E37_79B9_7F4A_7C15_u64;
        let seeded = (0..160).map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            2 + (x % 39_999) as usize
        });
        let known = [10250, 12290, 16394, 18438, 24588, 28674, 28780, 36872, 9224];
        let misses = disagreements(&mapping(), seeded.chain(known));
        eprintln!("seeded lengths where the rule and the search disagree: {misses:?}");
    }
}
