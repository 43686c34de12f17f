//! The static-cost-driven **mapping autotuner**: plan compilation as a
//! search over candidate mappings instead of a transcription of the
//! configured one.
//!
//! The paper fixes one mapping — two words per row, restoring
//! division, greedy capacity-filling shard partition. Our stack's
//! static-cost contract (`static == simulated`, exact for the compile
//! input) makes a stronger primitive available: any candidate mapping
//! can be compiled once and scored *exactly*, without a roofline
//! approximation and without executing it ever again. When autotuning
//! is enabled (the default; see [`AUTOTUNE_ENV`] /
//! [`ApSoftmax::with_autotune`]), the first vector of each cached
//! shape compiles every candidate, scores them lexicographically by
//! `(total work cycles, device critical path, cell events)`, and
//! installs the winner as a [`TunedPlan`] — further vectors replay the
//! winner with the same zero-allocation steady state as an untuned
//! plan.
//!
//! # Search space and pruning
//!
//! | axis | candidates | why |
//! |---|---|---|
//! | [`Layout`] | both, unless pinned via [`ApSoftmax::with_layout`] | both layouts are bit-exact; they trade rows for per-step passes |
//! | shard partition | greedy default + balanced splits at `k_min ..= min(k_min + 2, tiles)` shards | balanced equal-length shards maximize resident SIMD-lockstep sharing |
//! | [`DivStyle`] | configured style only | the controller-reciprocal divider is ≤ 1 ULP, **not** bit-exact — searching it would break the exactness contract |
//! | `OptLevel` | configured level only | cost is non-increasing along [`softmap_ap::OptLevel::ladder`], so the configured level dominates |
//! | residency | resident-whenever-legal (the existing per-vector rule) | the resident plan is never costlier than re-staging on the same partition |
//!
//! The pruning rule bounds the search at `2 layouts × (1 default + 3
//! balanced partitions) = 8` compiles per shape — O(tens), paid once
//! per shape and amortized by the plan cache like any other compile.
//!
//! # Contracts
//!
//! * Every candidate must reproduce the configured default mapping's
//!   outputs bit-for-bit on the compile input; a candidate that does
//!   not (impossible by construction, checked anyway) is discarded.
//! * The default mapping is always candidate zero and wins ties, so
//!   the winner's static cost is **never worse** than the default's.
//! * `static == simulated` holds for the winner because the winner
//!   *is* an ordinary compiled plan — the tuned entry just wraps it.
//! * `SOFTMAP_AUTOTUNE=0` / `with_autotune(false)` restores the
//!   untuned compile paths byte-identically (tuned entries live under
//!   their own [`PlanKey`] axis and never shadow untuned ones).
//!
//! Scoring is per-vector: total work first, then critical path, then
//! cell events. Tile *occupancy* (a one-word-per-row winner may use
//! twice the shards) is deliberately not scored — the deployment-level
//! throughput model already accounts for waves, and a deployment that
//! wants the paper's occupancy pins the layout.

use std::sync::Arc;

use super::{
    words_per_row, ApSoftmax, ApSoftmaxRun, CoreError, Layout, PlanMode, TileState, VectorCost,
};
use crate::plan::{CachedPlan, CandidateScore, MappingChoice, TunedPlan};

/// Environment variable enabling/disabling the mapping autotuner:
/// `0`/`false` compiles the configured mapping exactly as before the
/// autotuner existed, `1`/`true` (the default) searches candidate
/// mappings per shape and installs the statically cheapest bit-exact
/// winner. Invalid values warn once and keep the default.
pub const AUTOTUNE_ENV: &str = "SOFTMAP_AUTOTUNE";

/// Reads [`AUTOTUNE_ENV`]; invalid values fail loudly (one warning per
/// process) instead of silently falling back.
pub(crate) fn autotune_from_env() -> bool {
    let Ok(raw) = std::env::var(AUTOTUNE_ENV) else {
        return true;
    };
    match raw.trim().to_ascii_lowercase().as_str() {
        "0" | "false" => false,
        "1" | "true" => true,
        _ => {
            static WARN: std::sync::Once = std::sync::Once::new();
            WARN.call_once(|| {
                eprintln!(
                    "softmap: invalid {AUTOTUNE_ENV}={raw:?}; accepted values are \
                     0/false/1/true — keeping the default (1)"
                );
            });
            true
        }
    }
}

/// One enumerated candidate: a layout plus an optional explicit shard
/// partition (`None` = whatever the untuned path derives — the whole
/// vector if it fits one tile, the greedy default partition
/// otherwise).
struct Candidate {
    layout: Layout,
    partition: Option<Arc<Vec<(usize, usize)>>>,
    balanced: bool,
}

/// How far past the minimum shard count the balanced-partition axis
/// searches (`k_min ..= k_min + BALANCED_SPREAD`, capped at the tile
/// grid).
const BALANCED_SPREAD: usize = 2;

impl ApSoftmax {
    /// Compiles and scores every candidate mapping for this input,
    /// returning the winner wrapped in a [`TunedPlan`] (the tuned
    /// entry's compile step in [`ApSoftmax::lookup`], counted in the
    /// autotune statistics). Candidates execute on throwaway views
    /// (fresh scratch cache each, so the main cache sees exactly one
    /// insert per tuned shape) against the *actual* input, which both
    /// anchors the winner's static cost to it and verifies
    /// bit-exactness against the default mapping.
    pub(super) fn search_mappings(&self, codes: &[i64]) -> Result<CachedPlan, CoreError> {
        let started = std::time::Instant::now();
        let len = codes.len();
        let candidates = self.enumerate_candidates(len);
        let mut scratch_state = TileState::new();
        let mut scores = Vec::with_capacity(candidates.len());
        let mut default_cost: Option<VectorCost> = None;
        let mut reference: Option<(Vec<u64>, Vec<u64>, u64)> = None;
        let mut best: Option<(VectorCost, MappingChoice, CachedPlan)> = None;
        for cand in &candidates {
            let view = self.candidate_view(cand);
            let mut crun = ApSoftmaxRun::default();
            let state = &mut scratch_state;
            if let Err(e) = view.execute_codes_mode(state, codes, &mut crun, PlanMode::Cached, None)
            {
                if default_cost.is_none() {
                    // The default mapping (candidate zero) must work;
                    // its failure is the caller's error, exactly as
                    // without the autotuner.
                    return Err(e);
                }
                // An alternative candidate that cannot execute (e.g. a
                // geometry the tile grid rejects) is merely pruned.
                continue;
            }
            // Exactness guard: a candidate that does not reproduce the
            // default mapping's outputs bit-for-bit is discarded.
            match &reference {
                None => reference = Some((crun.codes.clone(), crun.vapprox.clone(), crun.sum)),
                Some((rc, rv, rs)) => {
                    if crun.codes != *rc || crun.vapprox != *rv || crun.sum != *rs {
                        debug_assert!(false, "candidate mapping is not bit-exact");
                        continue;
                    }
                }
            }
            let vkey = view.cached_key(len)?;
            let entry = view
                .plans
                .peek(&vkey)
                .ok_or_else(|| CoreError::BadWorkload("candidate compile did not cache".into()))?;
            let cost = Self::entry_vector_cost(&entry);
            let resident = matches!(&entry, CachedPlan::Sharded(p) if p.resident);
            let choice = MappingChoice {
                layout: cand.layout,
                div: self.div_style,
                opt: self.opt_level,
                resident,
                shards: cost.shards,
                balanced: cand.balanced,
            };
            scores.push(CandidateScore {
                choice,
                cycles: cost.total.cycles(),
                latency_cycles: cost.latency_cycles,
                cell_events: cost.total.cell_events(),
            });
            if default_cost.is_none() {
                default_cost = Some(cost);
            }
            // Strict comparison: the default (scored first) wins ties,
            // so the winner is never statically worse than it.
            let better = match &best {
                None => true,
                Some((bc, _, _)) => {
                    (
                        cost.total.cycles(),
                        cost.latency_cycles,
                        cost.total.cell_events(),
                    ) < (bc.total.cycles(), bc.latency_cycles, bc.total.cell_events())
                }
            };
            if better {
                best = Some((cost, choice, entry));
            }
        }
        let (winner_cost, choice, plan) = best
            .ok_or_else(|| CoreError::BadWorkload("autotune search scored no candidate".into()))?;
        let default_cost = default_cost.expect("default candidate scored");
        let tuned = TunedPlan {
            choice,
            plan,
            winner_cost,
            default_cost,
            scores,
            compile_micros: started.elapsed().as_secs_f64() * 1e6,
        };
        self.plans
            .note_autotune(tuned.scores.len() as u64, tuned.improved());
        Ok(CachedPlan::Tuned(Arc::new(tuned)))
    }

    /// Enumerates the candidate mappings for a vector of `len`
    /// elements under the documented pruning rule. The configured
    /// default mapping is always candidate zero.
    fn enumerate_candidates(&self, len: usize) -> Vec<Candidate> {
        let mut out = vec![Candidate {
            layout: self.layout,
            partition: None,
            balanced: false,
        }];
        for layout in [Layout::TwoWordsPerRow, Layout::OneWordPerRow] {
            if self.layout_pinned && layout != self.layout {
                continue;
            }
            if layout != self.layout {
                out.push(Candidate {
                    layout,
                    partition: None,
                    balanced: false,
                });
            }
            let (_, rows) = Self::packing_of(layout, len);
            if rows <= self.device.rows_per_tile {
                continue; // whole-vector under this layout: no partition axis
            }
            let wpr = words_per_row(layout);
            let mut default_ranges = Vec::new();
            if self
                .device
                .partition_into(len, wpr, &mut default_ranges)
                .is_err()
            {
                continue;
            }
            let cap = self.device.shard_capacity(wpr);
            let k_min = len.div_ceil(cap);
            let k_max = (k_min + BALANCED_SPREAD).min(self.device.tiles.max(1));
            let mut balanced = Vec::new();
            for k in k_min..=k_max {
                if self
                    .device
                    .balanced_partition_into(len, wpr, k, &mut balanced)
                    .is_err()
                {
                    continue;
                }
                if balanced == default_ranges {
                    continue;
                }
                out.push(Candidate {
                    layout,
                    partition: Some(Arc::new(balanced.clone())),
                    balanced: true,
                });
            }
        }
        out
    }

    /// A throwaway mapping evaluating one candidate: autotuning off,
    /// the candidate's layout and (optional) partition override, and a
    /// fresh scratch cache so the search never pollutes — or thrashes —
    /// the main cache.
    fn candidate_view(&self, cand: &Candidate) -> ApSoftmax {
        let mut view = self.clone();
        view.autotune = false;
        view.plan_mode = PlanMode::Cached;
        view.layout = cand.layout;
        view.partition_override = cand.partition.clone();
        view.plans = Arc::new(crate::plan::PlanCache::new());
        view
    }
}
