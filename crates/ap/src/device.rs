//! The capacity-bounded device model: a finite tile grid, shard
//! partitioning, wave scheduling, and the cross-tile reduction network.
//!
//! Real SoftmAP hardware is sized, not elastic: the paper deploys
//! fixed 2048-row tiles per attention head (Fig. 4, Section V-B). A
//! softmax vector longer than one tile's capacity must be **sharded**
//! across tiles, and when a vector needs more shards than the grid has
//! free tiles, the shards execute in **waves**. This module is that
//! sizing made explicit:
//!
//! * [`DeviceConfig`] — the grid: `tiles × rows_per_tile`,
//! * [`DeviceConfig::partition_into`] — how a vector of `len` elements
//!   splits into per-tile shards (contiguous, capacity-bounded, with
//!   an even/odd tail rule so packed layouts always fit),
//! * [`wave_makespan`] — the latency of running independent shard jobs
//!   on `tiles` concurrent slots (greedy list scheduling),
//! * [`TileClocks`] — the same greedy policy extended to an open
//!   arrival stream of multi-shard lockstep requests (the serving
//!   layer's continuous-batching admission clock),
//! * [`DeviceConfig::reduction_network`] — the documented cost contract
//!   for combining per-tile scalars (shard minima, partial sums)
//!   across tiles and broadcasting the result back.
//!
//! # The cross-tile reduction cost contract
//!
//! Within a tile, the 2D AP reduces `n` rows in `8·log2(n) + 1` cycles
//! (Table II). The cross-tile reduction network is modeled the same
//! way: combining one `bits`-bit scalar per shard over `s` shards costs
//! `8·ceil(log2(s))` cycles for the combine tree plus `1` cycle to
//! broadcast the result back to all tiles, charged as 2D (network)
//! cycles with `s · bits` cell events (each tile's port drives its
//! word once). The contract is deliberately simple and *deterministic*:
//! the same formula is charged by sharded execution and by the static
//! cost path, so `static == simulated` extends to sharded shapes.
//!
//! # The residency plan
//!
//! When a vector's shards fit the tile grid in a single wave
//! (`shards <= tiles`), the wave schedule pins each shard to one tile
//! for the vector's whole lifetime: the tile is *not* cleared between
//! the min-search, exp, and divide phases, so the phase-boundary
//! `Load`/`Read` staging ops are elided — the exp phase's input planes
//! are the min phase's output planes, still in the arena (the field
//! layout that makes this sound is documented in
//! `softmap_ap::program`'s residency contract). On top of staging
//! elision, same-length resident shards execute the identical phase
//! program in SIMD lockstep across their tiles, so each phase charges
//! the program's full cost once per distinct shard length per wave
//! (the "leader"); the remaining shards ride the shared drivers and
//! pay only their per-tile-distinct input staging
//! (`ReplayCharge::Lockstep`). The cross-tile reductions are
//! unchanged — minima and partial sums still traverse the reduction
//! network above. When the vector needs more than one wave, a tile
//! cannot stay pinned (the next wave's shard evicts it), so execution
//! falls back to the re-staged path automatically, per vector;
//! `ApSoftmax::with_resident(false)` forces that path for differential
//! testing and the re-staged baselines.

use crate::stats::CycleStats;
use crate::ApError;

/// The fixed tile grid one softmax vector may be sharded across.
///
/// # Examples
///
/// ```
/// use softmap_ap::device::DeviceConfig;
///
/// let dev = DeviceConfig::default();
/// assert_eq!((dev.tiles, dev.rows_per_tile), (48, 2048));
/// // 16384 elements at two words per row: four 2048-row shards.
/// let mut shards = Vec::new();
/// dev.partition_into(16384, 2, &mut shards).unwrap();
/// assert_eq!(shards.len(), 4);
/// assert_eq!(shards[0], (0, 4096));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeviceConfig {
    /// Concurrent tiles available to one vector (the paper's
    /// tiles-per-head knob).
    pub tiles: usize,
    /// Rows per tile (2048 in the paper's area tables; sequence length
    /// 4096 at two words per row).
    pub rows_per_tile: usize,
}

impl Default for DeviceConfig {
    fn default() -> Self {
        Self {
            tiles: 48,
            rows_per_tile: 2048,
        }
    }
}

impl DeviceConfig {
    /// A grid of `tiles` tiles with `rows_per_tile` rows each.
    #[must_use]
    pub fn new(tiles: usize, rows_per_tile: usize) -> Self {
        Self {
            tiles,
            rows_per_tile,
        }
    }

    /// Elements one tile holds at `words_per_row` packing.
    #[must_use]
    pub fn shard_capacity(&self, words_per_row: usize) -> usize {
        self.rows_per_tile * words_per_row
    }

    /// Splits a vector of `len` elements into contiguous per-tile
    /// shards, written into `out` (cleared first; reusable so the
    /// steady-state path performs no allocation) as `(start, end)`
    /// element ranges.
    ///
    /// Every shard but the last holds exactly
    /// [`DeviceConfig::shard_capacity`] elements. If the remainder is
    /// odd, longer than `rows_per_tile`, and the layout packs two words
    /// per row (which needs an even length), the tail is split into one
    /// even packed shard and one single-element shard so every shard
    /// fits its tile.
    ///
    /// # Errors
    ///
    /// [`ApError::BadConfig`] for a zero-row grid, zero `words_per_row`
    /// or an empty vector.
    pub fn partition_into(
        &self,
        len: usize,
        words_per_row: usize,
        out: &mut Vec<(usize, usize)>,
    ) -> Result<(), ApError> {
        out.clear();
        if self.rows_per_tile == 0 {
            return Err(ApError::BadConfig("device has zero rows per tile"));
        }
        if !(1..=2).contains(&words_per_row) {
            return Err(ApError::BadConfig("words_per_row must be 1 or 2"));
        }
        if len == 0 {
            return Err(ApError::BadConfig("cannot partition an empty vector"));
        }
        let cap = self.shard_capacity(words_per_row);
        let mut pos = 0;
        while len - pos > cap {
            out.push((pos, pos + cap));
            pos += cap;
        }
        let rem = len - pos;
        if words_per_row == 2 && rem % 2 == 1 && rem > self.rows_per_tile {
            // An odd tail longer than the row count cannot run unpacked;
            // peel one element into a final single-row shard.
            out.push((pos, len - 1));
            out.push((len - 1, len));
        } else {
            out.push((pos, len));
        }
        Ok(())
    }

    /// Splits a vector of `len` elements into exactly `shards`
    /// contiguous, **near-equal** shards, written into `out` (cleared
    /// first) as `(start, end)` element ranges.
    ///
    /// [`DeviceConfig::partition_into`] greedily fills tiles to
    /// capacity, which can leave one short tail shard; this variant
    /// balances the lengths instead (every shard within one element —
    /// or one packing pair — of the others), which maximizes SIMD
    /// lockstep sharing on the resident plan: equal-length shards
    /// replay one leader program. For `words_per_row == 2` every shard
    /// but the last is rounded up to an even length so it runs packed.
    ///
    /// # Errors
    ///
    /// [`ApError::BadConfig`] for the degenerate inputs
    /// [`DeviceConfig::partition_into`] rejects, for `shards == 0` or
    /// `shards > len`, and when any resulting shard exceeds the tile's
    /// row capacity (too few shards requested).
    pub fn balanced_partition_into(
        &self,
        len: usize,
        words_per_row: usize,
        shards: usize,
        out: &mut Vec<(usize, usize)>,
    ) -> Result<(), ApError> {
        out.clear();
        if self.rows_per_tile == 0 {
            return Err(ApError::BadConfig("device has zero rows per tile"));
        }
        if !(1..=2).contains(&words_per_row) {
            return Err(ApError::BadConfig("words_per_row must be 1 or 2"));
        }
        if len == 0 {
            return Err(ApError::BadConfig("cannot partition an empty vector"));
        }
        if shards == 0 || shards > len {
            return Err(ApError::BadConfig(
                "balanced partition needs 1..=len shards",
            ));
        }
        let mut pos = 0;
        for i in 0..shards {
            let remaining = len - pos;
            let slots = shards - i;
            let mut take = remaining.div_ceil(slots);
            // Non-final shards of a packed layout must be even so they
            // pack two words per row.
            if words_per_row == 2 && slots > 1 && take % 2 == 1 {
                take += 1;
            }
            // Leave at least one element for every remaining shard.
            take = take.min(remaining - (slots - 1));
            let rows = if words_per_row == 2 && take.is_multiple_of(2) {
                take / 2
            } else {
                take
            };
            if rows > self.rows_per_tile {
                return Err(ApError::BadConfig(
                    "balanced shard exceeds tile rows (too few shards)",
                ));
            }
            out.push((pos, pos + take));
            pos += take;
        }
        debug_assert_eq!(pos, len);
        Ok(())
    }

    /// Number of sequential waves `shards` shard jobs need on this
    /// grid (at least 1).
    #[must_use]
    pub fn waves(&self, shards: usize) -> u64 {
        let tiles = self.tiles.max(1);
        (shards.max(1)).div_ceil(tiles) as u64
    }

    /// Cost of the cross-tile reduction network combining one
    /// `bits`-bit scalar per shard and broadcasting the result back;
    /// see the module-level contract.
    #[must_use]
    pub fn reduction_network(&self, shards: usize, bits: u32) -> CycleStats {
        let mut s = CycleStats::default();
        let levels = crate::cost::ceil_log2(shards as u64);
        s.charge_2d(8 * levels + 1, shards as u64 * u64::from(bits));
        s
    }
}

/// Makespan of `jobs` independent per-shard cycle counts on `tiles`
/// concurrent slots: greedy list scheduling in arrival order (each job
/// goes to the least-loaded tile), the natural policy for a stream of
/// near-identical shards. `loads` is reusable scratch (cleared first).
///
/// With fewer jobs than tiles this degenerates to `max(jobs)`, the
/// unbounded-grid makespan.
///
/// # Examples
///
/// ```
/// use softmap_ap::device::wave_makespan;
///
/// let mut loads = Vec::new();
/// // 4 equal shards on 2 tiles: two waves.
/// assert_eq!(wave_makespan(&[10, 10, 10, 10], 2, &mut loads), 20);
/// // 3 shards on 4 tiles: one wave.
/// assert_eq!(wave_makespan(&[10, 7, 9], 4, &mut loads), 10);
/// ```
#[must_use]
pub fn wave_makespan(jobs: &[u64], tiles: usize, loads: &mut Vec<u64>) -> u64 {
    let tiles = tiles.max(1).min(jobs.len().max(1));
    loads.clear();
    loads.resize(tiles, 0);
    for &c in jobs {
        let slot = loads
            .iter()
            .enumerate()
            .min_by_key(|&(_, &l)| l)
            .map(|(i, _)| i)
            .expect("at least one tile");
        loads[slot] += c;
    }
    loads.iter().copied().max().unwrap_or(0)
}

/// Per-tile virtual clocks for continuous wave scheduling: the
/// stream-of-requests generalization of [`wave_makespan`].
///
/// Where [`wave_makespan`] schedules one fixed batch of independent
/// shard jobs, `TileClocks` accounts an *open-ended arrival stream* in
/// which each request occupies several tiles **in lockstep** (its
/// shards synchronize twice at the cross-tile min and sum reductions,
/// so they must start together). The scheduling rule is the same
/// greedy least-loaded policy: [`TileClocks::assign`] picks the
/// `shards` tiles with the earliest clocks, starts the request at the
/// latest of them (the lockstep constraint), and advances each chosen
/// clock to `start + cycles`.
///
/// The struct also tracks total busy cycles charged, so a scheduler
/// can report the tile-occupancy ratio
/// `busy / (makespan × tiles)` — the host-invariant saturation metric
/// the serving gate checks.
///
/// # Examples
///
/// ```
/// use softmap_ap::device::TileClocks;
///
/// let mut clocks = TileClocks::new(2);
/// // Two single-shard requests land on distinct tiles: they overlap.
/// assert_eq!(clocks.assign(1, 10), 10);
/// assert_eq!(clocks.assign(1, 4), 4);
/// // A two-shard request needs both tiles; lockstep start at the
/// // later clock (10), finishing at 15.
/// assert_eq!(clocks.assign(2, 5), 15);
/// assert_eq!(clocks.makespan(), 15);
/// assert_eq!(clocks.busy(), 10 + 4 + 2 * 5);
/// ```
#[derive(Debug, Clone)]
pub struct TileClocks {
    clocks: Vec<u64>,
    picked: Vec<usize>,
    busy: u64,
}

impl TileClocks {
    /// A grid of `tiles` idle tiles (clamped to at least one).
    #[must_use]
    pub fn new(tiles: usize) -> Self {
        let tiles = tiles.max(1);
        Self {
            clocks: vec![0; tiles],
            picked: Vec::with_capacity(tiles),
            busy: 0,
        }
    }

    /// Number of tiles in the grid.
    #[must_use]
    pub fn tiles(&self) -> usize {
        self.clocks.len()
    }

    /// Schedules one request occupying `shards` tiles in lockstep for
    /// `cycles` device cycles and returns its completion time.
    ///
    /// Greedy least-loaded: the `shards` earliest clocks are chosen
    /// (clamped to the grid size — a request already folds its own
    /// internal waves into `cycles` via its latency model), the start
    /// is the latest chosen clock, and every chosen clock advances to
    /// `start + cycles`. Performs no allocation in steady state.
    pub fn assign(&mut self, shards: usize, cycles: u64) -> u64 {
        let take = shards.clamp(1, self.clocks.len());
        self.picked.clear();
        let mut start = 0u64;
        for _ in 0..take {
            let (slot, clock) = self
                .clocks
                .iter()
                .enumerate()
                .min_by_key(|&(_, &t)| t)
                .map(|(i, &t)| (i, t))
                .expect("at least one tile");
            start = start.max(clock);
            self.picked.push(slot);
            self.clocks[slot] = u64::MAX; // exclude from this pick round
        }
        let done = start.saturating_add(cycles);
        for &i in &self.picked {
            self.clocks[i] = done;
        }
        self.busy += cycles * take as u64;
        done
    }

    /// Latest clock over all tiles: the schedule's makespan so far.
    #[must_use]
    pub fn makespan(&self) -> u64 {
        self.clocks.iter().copied().max().unwrap_or(0)
    }

    /// Total busy cycles charged across all tiles.
    #[must_use]
    pub fn busy(&self) -> u64 {
        self.busy
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_full_shards_then_tail() {
        let dev = DeviceConfig::new(8, 4);
        let mut out = Vec::new();
        dev.partition_into(20, 2, &mut out).unwrap();
        assert_eq!(out, vec![(0, 8), (8, 16), (16, 20)]);
        dev.partition_into(8, 2, &mut out).unwrap();
        assert_eq!(out, vec![(0, 8)]);
        dev.partition_into(3, 2, &mut out).unwrap();
        assert_eq!(out, vec![(0, 3)]); // odd but <= rows: unpacked fits
    }

    #[test]
    fn partition_peels_odd_oversized_tail() {
        let dev = DeviceConfig::new(8, 4);
        let mut out = Vec::new();
        // tail of 7 elements: odd and > 4 rows, so it cannot run
        // unpacked; peel the last element off.
        dev.partition_into(15, 2, &mut out).unwrap();
        assert_eq!(out, vec![(0, 8), (8, 14), (14, 15)]);
        // every shard fits: even shards packed, the singleton unpacked
        for &(s, e) in &out {
            let n = e - s;
            let rows = if n % 2 == 0 { n / 2 } else { n };
            assert!(rows <= 4, "shard {s}..{e} needs {rows} rows");
        }
    }

    #[test]
    fn partition_one_word_per_row() {
        let dev = DeviceConfig::new(2, 4);
        let mut out = Vec::new();
        dev.partition_into(9, 1, &mut out).unwrap();
        assert_eq!(out, vec![(0, 4), (4, 8), (8, 9)]);
    }

    #[test]
    fn partition_rejects_degenerate_inputs() {
        let mut out = Vec::new();
        assert!(DeviceConfig::new(1, 0)
            .partition_into(4, 2, &mut out)
            .is_err());
        assert!(DeviceConfig::new(1, 4)
            .partition_into(0, 2, &mut out)
            .is_err());
        assert!(DeviceConfig::new(1, 4)
            .partition_into(4, 3, &mut out)
            .is_err());
    }

    #[test]
    fn balanced_partition_equalizes_shard_lengths() {
        let dev = DeviceConfig::default();
        let mut out = Vec::new();
        // The greedy default for 6000 @ 2 words/row is (4096, 1904);
        // balanced over the same two tiles it is (3000, 3000).
        dev.balanced_partition_into(6000, 2, 2, &mut out).unwrap();
        assert_eq!(out, vec![(0, 3000), (3000, 6000)]);
        // Odd interior shards round up to even so they still pack.
        dev.balanced_partition_into(9, 2, 3, &mut out).unwrap();
        assert_eq!(out, vec![(0, 4), (4, 8), (8, 9)]);
        // One word per row has no parity constraint.
        dev.balanced_partition_into(10, 1, 3, &mut out).unwrap();
        assert_eq!(out, vec![(0, 4), (4, 7), (7, 10)]);
        for &(s, e) in &out {
            assert!(e > s);
        }
    }

    #[test]
    fn balanced_partition_rejects_bad_requests() {
        let dev = DeviceConfig::new(2, 4);
        let mut out = Vec::new();
        assert!(dev.balanced_partition_into(9, 2, 0, &mut out).is_err());
        assert!(dev.balanced_partition_into(9, 2, 10, &mut out).is_err());
        // One shard of 9 elements cannot fit a 4-row tile even packed.
        assert!(dev.balanced_partition_into(9, 2, 1, &mut out).is_err());
        assert!(dev.balanced_partition_into(0, 2, 1, &mut out).is_err());
        assert!(DeviceConfig::new(1, 0)
            .balanced_partition_into(4, 2, 1, &mut out)
            .is_err());
        assert!(dev.balanced_partition_into(4, 3, 1, &mut out).is_err());
    }

    #[test]
    fn waves_count_grid_rounds() {
        let dev = DeviceConfig::new(4, 2048);
        assert_eq!(dev.waves(1), 1);
        assert_eq!(dev.waves(4), 1);
        assert_eq!(dev.waves(5), 2);
        assert_eq!(dev.waves(9), 3);
        assert_eq!(DeviceConfig::new(0, 2048).waves(3), 3);
    }

    #[test]
    fn reduction_network_grows_logarithmically() {
        let dev = DeviceConfig::default();
        let r2 = dev.reduction_network(2, 16);
        let r4 = dev.reduction_network(4, 16);
        let r8 = dev.reduction_network(8, 16);
        assert_eq!(r2.cycles(), 9);
        assert_eq!(r4.cycles(), 17);
        assert_eq!(r8.cycles(), 25);
        assert_eq!(r8.cell_events(), 8 * 16);
    }

    #[test]
    fn wave_makespan_schedules_greedily() {
        let mut loads = Vec::new();
        assert_eq!(wave_makespan(&[], 4, &mut loads), 0);
        assert_eq!(wave_makespan(&[5], 4, &mut loads), 5);
        assert_eq!(wave_makespan(&[5, 5, 5], 1, &mut loads), 15);
        // uneven jobs: greedy balances them
        assert_eq!(wave_makespan(&[9, 1, 1, 1], 2, &mut loads), 9);
    }

    /// Greedy list scheduling is bounded below by the critical path
    /// (no schedule beats `max(longest job, ceil(total / tiles))`) and
    /// above by naive sequential execution (`total`).
    fn assert_makespan_bounds(jobs: &[u64], tiles: usize) {
        let mut loads = Vec::new();
        let got = wave_makespan(jobs, tiles, &mut loads);
        let total: u64 = jobs.iter().sum();
        let longest = jobs.iter().copied().max().unwrap_or(0);
        let slots = tiles.max(1).min(jobs.len().max(1)) as u64;
        let critical = longest.max(total.div_ceil(slots.max(1)));
        assert!(
            got >= critical,
            "makespan {got} beats critical path {critical} for {jobs:?} on {tiles} tiles"
        );
        assert!(
            got <= total,
            "makespan {got} worse than sequential {total} for {jobs:?} on {tiles} tiles"
        );
    }

    #[test]
    fn wave_makespan_empty_batch_is_free() {
        let mut loads = Vec::new();
        assert_eq!(wave_makespan(&[], 48, &mut loads), 0);
        assert_eq!(wave_makespan(&[], 0, &mut loads), 0);
        assert_makespan_bounds(&[], 48);
    }

    #[test]
    fn wave_makespan_single_oversized_job_is_its_own_makespan() {
        // One request longer than everything else the grid could do:
        // no amount of tiles shortens a single sequential job.
        let mut loads = Vec::new();
        let huge = 1 << 40;
        assert_eq!(wave_makespan(&[huge], 48, &mut loads), huge);
        assert_eq!(wave_makespan(&[huge, 1, 1, 1], 48, &mut loads), huge);
        assert_makespan_bounds(&[huge, 1, 1, 1], 48);
    }

    #[test]
    fn wave_makespan_identical_lengths_fill_whole_waves() {
        let mut loads = Vec::new();
        // 96 identical jobs on 48 tiles: exactly two full waves.
        let jobs = vec![7u64; 96];
        assert_eq!(wave_makespan(&jobs, 48, &mut loads), 14);
        // 49 jobs: one straggler forces a second wave.
        let jobs = vec![7u64; 49];
        assert_eq!(wave_makespan(&jobs, 48, &mut loads), 14);
        assert_makespan_bounds(&jobs, 48);
    }

    #[test]
    fn wave_makespan_adversarial_mixes_stay_bounded() {
        // Mixes chosen to trip greedy schedulers: descending giants,
        // one giant amid dust, alternating magnitudes, primes.
        let cases: &[(&[u64], usize)] = &[
            (&[100, 90, 80, 70, 60, 50, 40, 30, 20, 10], 3),
            (&[1000, 1, 1, 1, 1, 1, 1, 1], 4),
            (&[1, 64, 2, 32, 4, 16, 8, 8, 16, 4, 32, 2, 64, 1], 5),
            (&[13, 7, 29, 3, 31, 2, 23, 5, 19, 11, 17], 2),
            (&[5, 5, 5, 5], 1000), // more tiles than jobs
        ];
        for &(jobs, tiles) in cases {
            assert_makespan_bounds(jobs, tiles);
        }
        // Spot-check the degenerate grid: zero tiles clamps to one.
        let mut loads = Vec::new();
        assert_eq!(wave_makespan(&[3, 4], 0, &mut loads), 7);
    }

    #[test]
    fn tile_clocks_overlap_independent_requests() {
        let mut clocks = TileClocks::new(4);
        assert_eq!(clocks.tiles(), 4);
        // Four single-shard requests run concurrently.
        for _ in 0..4 {
            assert_eq!(clocks.assign(1, 10), 10);
        }
        assert_eq!(clocks.makespan(), 10);
        // The fifth queues behind the earliest tile.
        assert_eq!(clocks.assign(1, 10), 20);
        assert_eq!(clocks.busy(), 50);
    }

    #[test]
    fn tile_clocks_lockstep_requests_start_at_latest_tile() {
        let mut clocks = TileClocks::new(3);
        clocks.assign(1, 30); // tile busy until 30
        clocks.assign(1, 5); // tile busy until 5
                             // A 3-shard request needs all tiles; lockstep start at 30.
        assert_eq!(clocks.assign(3, 10), 40);
        assert_eq!(clocks.makespan(), 40);
        assert_eq!(clocks.busy(), 30 + 5 + 3 * 10);
    }

    #[test]
    fn tile_clocks_match_wave_makespan_on_single_shard_streams() {
        // On single-shard jobs TileClocks *is* wave_makespan: same
        // greedy least-loaded rule, one tile per job.
        let jobs = [13u64, 7, 29, 3, 31, 2, 23, 5, 19, 11, 17];
        let mut loads = Vec::new();
        let batch = wave_makespan(&jobs, 4, &mut loads);
        let mut clocks = TileClocks::new(4);
        for &j in &jobs {
            clocks.assign(1, j);
        }
        assert_eq!(clocks.makespan(), batch);
        assert_eq!(clocks.busy(), jobs.iter().sum::<u64>());
    }

    #[test]
    fn tile_clocks_clamp_oversized_and_zero_requests() {
        let mut clocks = TileClocks::new(2);
        // More shards than tiles: the request's own latency already
        // folds internal waves in, so it just occupies the whole grid.
        assert_eq!(clocks.assign(5, 8), 8);
        assert_eq!(clocks.makespan(), 8);
        assert_eq!(clocks.busy(), 16);
        // Zero shards clamps to one tile.
        assert_eq!(clocks.assign(0, 4), 12);
        let zero_grid = TileClocks::new(0);
        assert_eq!(zero_grid.tiles(), 1);
    }
}
