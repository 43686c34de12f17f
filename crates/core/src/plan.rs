//! Shape-keyed plan caching for the mapped dataflow.
//!
//! The Fig. 5 dataflow is static per shape: the op sequence depends
//! only on `(vector length, layout, division style)` for a given
//! precision configuration, never on the data. [`crate::ApSoftmax`]
//! therefore *compiles* the dataflow once per shape into a
//! [`softmap_ap::ApProgram`] and replays it for every further vector —
//! this module is the cache those compiled plans live in.
//!
//! Three kinds of entries share the cache:
//!
//! * **whole-vector programs** ([`CompiledPlan`]) for shapes that fit
//!   one tile, plus the per-phase shard programs (min search, exp +
//!   partial sum, divide) sharded execution replays,
//! * **sharded vector plans** ([`ShardedPlan`]) for shapes that exceed
//!   the device's tile capacity: the shard partition, the per-shard
//!   phase programs (as `Arc`s into the same cache), and the cost
//!   metadata (waves, cross-tile reduction charges, critical path)
//!   recorded at compile time so static queries stay execution-free,
//!   and
//! * **tuned vector plans** ([`TunedPlan`]) installed by the mapping
//!   autotuner (`crate::mapping::autotune`): the whole-vector or
//!   sharded plan of the mapping its rule picked, plus the
//!   [`MappingChoice`] it corresponds to. Tuned entries live under
//!   their own `tuned` key axis so a tuned mapping and its pinned
//!   paper-default baseline coexist in the same LRU.
//!
//! Sharing happens at two levels, mirroring the tile pool:
//!
//! * one [`PlanCache`] per `ApSoftmax` (shared by all of its clones via
//!   `Arc`, so every batch worker sees plans compiled by any other
//!   worker), and
//! * a one-entry *slot* inside each [`crate::TileState`], so the
//!   steady-state per-vector path touches no lock at all — the slot is
//!   validated against the cache's identity and the shape key by plain
//!   comparisons.
//!
//! The cache is **bounded**: a small LRU (default
//! [`PlanCache::DEFAULT_CAPACITY`] entries) evicts the least recently
//! used shape once the cap is exceeded, so serving arbitrarily many
//! distinct sequence lengths cannot grow memory without bound. Evicted
//! shapes simply recompile on their next use; `Arc`s held by tile
//! slots or sharded plans keep in-flight programs alive.

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use softmap_ap::{ApProgram, CycleStats, DivStyle, OptLevel, PassReport, RegId};

use crate::mapping::{Layout, StepStats, VectorCost};

/// Which program a cache entry holds: the whole-vector dataflow, one
/// of the three per-shard phase programs, or the vector-level sharded
/// plan (under [`PlanPhase::Vector`], disjoint from whole-vector
/// entries by length).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum PlanPhase {
    /// A vector-level entry: the whole-vector program for lengths that
    /// fit one tile, or the [`ShardedPlan`] for lengths that do not.
    Vector,
    /// Per-shard load + min-search program.
    ShardMin,
    /// Per-shard stabilize + exponential + partial-sum program.
    ShardExp,
    /// Per-shard divide program.
    ShardDiv,
}

/// The shape a compiled plan is valid for. The precision configuration
/// is not part of the key because each `ApSoftmax` (and thus each
/// cache) is built for exactly one configuration; builder methods that
/// change the shape axes swap in a fresh cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct PlanKey {
    /// Vector length — the whole vector for [`PlanPhase::Vector`], the
    /// shard length for the per-shard phases.
    pub len: usize,
    /// Row packing layout.
    pub layout: Layout,
    /// Division microcode style.
    pub div: DivStyle,
    /// Optimization level the plan was compiled at. Part of the key so
    /// optimized and unoptimized plans for the same shape coexist (the
    /// differential-testing baseline never evicts the fast path).
    pub opt: OptLevel,
    /// Which program of the dataflow this entry is.
    pub phase: PlanPhase,
    /// Whether the plan was compiled for resident sharded execution
    /// (shard tiles pinned across phases, staging elided). Part of the
    /// key so resident and re-staged plans for the same shape coexist
    /// in the LRU — the differential baseline never evicts the fast
    /// path. Always `false` for whole-vector entries.
    pub resident: bool,
    /// Whether this is an autotuned vector-level entry (a
    /// [`TunedPlan`] installed by the mapping autotuner). Its own key
    /// axis so a tuned mapping and its `with_autotune(false)` baseline
    /// coexist without evicting each other. Always `false` for shard
    /// phase programs and untuned vector entries.
    pub tuned: bool,
}

/// A compiled dataflow plan: the recorded [`ApProgram`] plus the
/// mapping-level metadata replay needs to assemble an
/// [`crate::ApSoftmaxRun`] without re-deriving anything.
#[derive(Debug, Clone)]
pub struct CompiledPlan {
    program: ApProgram,
    result_reg: RegId,
    rows: usize,
    cols_used: usize,
    report: PassReport,
    compile_micros: f64,
}

impl CompiledPlan {
    pub(crate) fn new(
        program: ApProgram,
        result_reg: RegId,
        rows: usize,
        cols_used: usize,
        report: PassReport,
        compile_micros: f64,
    ) -> Self {
        Self {
            program,
            result_reg,
            rows,
            cols_used,
            report,
            compile_micros,
        }
    }

    /// The recorded program.
    #[must_use]
    pub fn program(&self) -> &ApProgram {
        &self.program
    }

    /// The register holding the program's scalar result after replay:
    /// the (pre-clamp) reduction sum for the whole-vector program, the
    /// shard minimum / partial sum for the shard phases.
    pub(crate) fn result_reg(&self) -> RegId {
        self.result_reg
    }

    /// Rows the plan's tile occupies.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Columns used by the field layout (excluding scratch headroom).
    #[must_use]
    pub fn cols_used(&self) -> usize {
        self.cols_used
    }

    /// Per-pass statistics of the optimizer run that produced this
    /// plan's program ([`softmap_ap::PassReport`]; an identity report at
    /// [`softmap_ap::OptLevel::None`]).
    #[must_use]
    pub fn pass_report(&self) -> PassReport {
        self.report
    }

    /// Wall-clock microseconds the compile (record + first execution)
    /// took — the amortized cost replay saves.
    #[must_use]
    pub fn compile_micros(&self) -> f64 {
        self.compile_micros
    }

    /// Region-blocking statistics of the plan's program (regions
    /// formed, ops covered, footprint, strip widths, arena sweeps
    /// elided), or `None` when the plan was compiled with blocking
    /// disabled ([`crate::ApSoftmax::with_blocked`]).
    #[must_use]
    pub fn block_stats(&self) -> Option<softmap_ap::BlockStats> {
        self.program.block_stats()
    }
}

/// A compiled **sharded** vector plan: the shard partition, one phase
/// program triple per shard (`Arc`-shared between same-shape shards),
/// and the device-level cost metadata recorded at compile time.
///
/// The static numbers are exact for the input the plan was compiled
/// from (and any input following the same microcode path) — the same
/// contract as [`CompiledPlan`]'s static cost, extended with the
/// deterministic cross-tile reduction charges and wave scheduling of
/// the device model.
#[derive(Debug)]
pub struct ShardedPlan {
    pub(crate) ranges: Vec<(usize, usize)>,
    pub(crate) min_plans: Vec<Arc<CompiledPlan>>,
    pub(crate) exp_plans: Vec<Arc<CompiledPlan>>,
    pub(crate) div_plans: Vec<Arc<CompiledPlan>>,
    pub(crate) steps: Vec<StepStats>,
    pub(crate) total: CycleStats,
    pub(crate) reduction: CycleStats,
    pub(crate) latency_cycles: u64,
    pub(crate) waves: u64,
    pub(crate) rows: usize,
    pub(crate) cols_used: usize,
    pub(crate) compile_micros: f64,
    pub(crate) resident: bool,
}

impl ShardedPlan {
    /// Number of shards the vector splits into.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.ranges.len()
    }

    /// Whether this plan executes resident: shard tiles pinned across
    /// the three phases, phase-boundary staging elided, same-length
    /// shards after the wave's first charged in lockstep. `false` is
    /// the PR 5 re-staging path (also the automatic fallback when the
    /// vector's shards exceed the tile grid).
    #[must_use]
    pub fn resident(&self) -> bool {
        self.resident
    }

    /// Sequential waves per phase on the device's tile grid.
    #[must_use]
    pub fn waves(&self) -> u64 {
        self.waves
    }

    /// Total work (all shards + cross-tile reductions) recorded at
    /// compile time.
    #[must_use]
    pub fn total(&self) -> CycleStats {
        self.total
    }

    /// The cross-tile reduction-network charges (min + sum combines).
    #[must_use]
    pub fn reduction(&self) -> CycleStats {
        self.reduction
    }

    /// The device critical path: per-phase wave makespans plus the
    /// reduction-network cycles.
    #[must_use]
    pub fn latency_cycles(&self) -> u64 {
        self.latency_cycles
    }

    /// Rows of the largest shard's tile.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Widest column layout across the phase programs.
    #[must_use]
    pub fn cols_used(&self) -> usize {
        self.cols_used
    }

    /// Wall-clock microseconds the sharded compile took.
    #[must_use]
    pub fn compile_micros(&self) -> f64 {
        self.compile_micros
    }

    /// Aggregated region-blocking statistics across the distinct phase
    /// programs (each `Arc`-shared program counted once), or `None`
    /// when the plan was compiled with blocking disabled. `engaged` is
    /// set when any phase program replays strip-mined.
    #[must_use]
    pub fn block_stats(&self) -> Option<softmap_ap::BlockStats> {
        let mut agg: Option<softmap_ap::BlockStats> = None;
        let mut seen: Vec<*const CompiledPlan> = Vec::new();
        for plan in self
            .min_plans
            .iter()
            .chain(&self.exp_plans)
            .chain(&self.div_plans)
        {
            let ptr = Arc::as_ptr(plan);
            if seen.contains(&ptr) {
                continue;
            }
            seen.push(ptr);
            let Some(s) = plan.block_stats() else {
                continue;
            };
            let a = agg.get_or_insert_with(Default::default);
            a.regions += s.regions;
            a.blocked_ops += s.blocked_ops;
            a.max_ops_per_region = a.max_ops_per_region.max(s.max_ops_per_region);
            a.footprint_bytes_max = a.footprint_bytes_max.max(s.footprint_bytes_max);
            a.strip_blocks_min = if a.strip_blocks_min == 0 {
                s.strip_blocks_min
            } else if s.strip_blocks_min == 0 {
                a.strip_blocks_min
            } else {
                a.strip_blocks_min.min(s.strip_blocks_min)
            };
            a.strip_blocks_max = a.strip_blocks_max.max(s.strip_blocks_max);
            a.gathers_elided += s.gathers_elided;
            a.scatters_elided += s.scatters_elided;
            a.engaged |= s.engaged;
        }
        agg
    }
}

/// The mapping an autotuned plan selected: the configuration axes plus
/// the shard geometry of the chosen plan. Returned by
/// [`TunedPlan::choice`] and rendered (via `Display`) in the eval
/// `autotune` table and `examples/backend_profile.rs`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MappingChoice {
    /// Row packing layout of the chosen plan.
    pub layout: Layout,
    /// Division microcode style. Never tuned: only the configured
    /// style preserves the mapping's exactness contract (the
    /// controller-reciprocal divider is within 1 ULP, not bit-exact).
    pub div: DivStyle,
    /// Optimization level. Never tuned: cost is non-increasing along
    /// [`OptLevel::ladder`], so the configured level dominates.
    pub opt: OptLevel,
    /// Whether the chosen plan executes resident (sharded shapes
    /// only; `false` for whole-vector plans).
    pub resident: bool,
    /// Shards the chosen plan splits the vector into (1 =
    /// whole-vector).
    pub shards: usize,
    /// Whether the plan uses a balanced shard partition instead of
    /// the device's greedy capacity-filling default.
    pub balanced: bool,
}

impl fmt::Display for MappingChoice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let layout = match self.layout {
            Layout::TwoWordsPerRow => "two-words/row",
            Layout::OneWordPerRow => "one-word/row",
        };
        let div = match self.div {
            DivStyle::Restoring => "restoring",
            DivStyle::ControllerReciprocal => "reciprocal",
        };
        let opt = match self.opt {
            OptLevel::None => "opt=none",
            OptLevel::Full => "opt=full",
        };
        write!(f, "{layout} {div} {opt}")?;
        if self.shards == 1 {
            write!(f, " 1 shard")
        } else {
            write!(
                f,
                " {} shards ({}, {})",
                self.shards,
                if self.balanced { "balanced" } else { "greedy" },
                if self.resident {
                    "resident"
                } else {
                    "re-staged"
                }
            )
        }
    }
}

/// An autotuned vector-level cache entry: the compiled plan of the
/// mapping the autotuner's rule picked (whole-vector or sharded), the
/// [`MappingChoice`] it realizes, and its static cost.
#[derive(Debug)]
pub struct TunedPlan {
    pub(crate) choice: MappingChoice,
    pub(crate) plan: CachedPlan,
    pub(crate) winner_cost: VectorCost,
    pub(crate) improved: bool,
    pub(crate) compile_micros: f64,
}

impl TunedPlan {
    /// The chosen mapping.
    #[must_use]
    pub fn choice(&self) -> MappingChoice {
        self.choice
    }

    /// Static cost of the chosen plan (exact for the input it was
    /// compiled from; the static == simulated contract carries over
    /// from the plan kind).
    #[must_use]
    pub fn winner_cost(&self) -> &VectorCost {
        &self.winner_cost
    }

    /// Whether the rule mapped this shape differently from the
    /// configured default (another layout or a balanced partition) —
    /// what [`crate::CacheStats::tuned_wins`] counts. The rule's oracle
    /// test checks such a mapping never costs more than the default.
    #[must_use]
    pub fn improved(&self) -> bool {
        self.improved
    }

    /// Wall-clock microseconds the tuned compile took.
    #[must_use]
    pub fn compile_micros(&self) -> f64 {
        self.compile_micros
    }
}

/// One cache entry: a single compiled program, a sharded plan, or an
/// autotuned plan.
#[derive(Debug, Clone)]
pub(crate) enum CachedPlan {
    /// A whole-vector or shard-phase program.
    Program(Arc<CompiledPlan>),
    /// A vector-level sharded plan.
    Sharded(Arc<ShardedPlan>),
    /// A vector-level autotuned plan wrapping its compiled plan.
    Tuned(Arc<TunedPlan>),
}

/// Aggregate counters of a [`PlanCache`]; see
/// [`crate::ApSoftmax::plan_stats`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanStats {
    /// Plans currently cached.
    pub plans: usize,
    /// Shape-miss compilations performed (phase programs and sharded
    /// vector plans each count one).
    pub compiles: u64,
    /// Cache hits (lock-free tile-slot hits included).
    pub hits: u64,
    /// LRU evictions over the cache's lifetime.
    pub evictions: u64,
    /// Total wall-clock microseconds spent compiling over the cache's
    /// lifetime (survives [`PlanCache::clear`] and recompiles).
    pub compile_micros: f64,
}

/// Autotune counters of a [`PlanCache`]; all zero until a mapping with
/// autotuning enabled compiles a shape. See
/// [`crate::ApSoftmax::cache_stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AutotuneStats {
    /// Shapes the autotuner compiled a mapping for.
    pub shapes_tuned: u64,
    /// Mappings the autotuner compiled: one per tuned shape.
    pub candidates_scored: u64,
    /// Tuned shapes mapped differently from the configured default
    /// (see [`TunedPlan::improved`]).
    pub wins: u64,
}

static NEXT_CACHE_ID: AtomicU64 = AtomicU64::new(1);

#[derive(Debug)]
struct Entry {
    plan: CachedPlan,
    used: u64,
}

/// The bounded, shape-keyed store of compiled plans; see the module
/// docs.
///
/// One cache exists per [`crate::ApSoftmax`] and is shared by all of
/// its clones. The cache carries a process-unique identity so tile
/// slots warmed by one mapping are never mistaken for another's.
///
/// # Examples
///
/// ```
/// use softmap::ApSoftmax;
/// use softmap_softmax::PrecisionConfig;
///
/// let mapping = ApSoftmax::new(PrecisionConfig::paper_best())?;
/// mapping.execute_floats(&[0.0, -1.0, -2.0, -3.0])?; // compiles
/// mapping.execute_floats(&[0.0, -0.5, -1.5, -2.5])?; // replays
/// let stats = mapping.plan_stats();
/// assert_eq!((stats.plans, stats.compiles), (1, 1));
/// assert!(stats.hits >= 1);
/// # Ok::<(), softmap::CoreError>(())
/// ```
#[derive(Debug)]
pub struct PlanCache {
    id: u64,
    epoch: AtomicU64,
    capacity: usize,
    tick: AtomicU64,
    plans: Mutex<HashMap<PlanKey, Entry>>,
    /// Serializes compilations so concurrent workers missing the same
    /// shape produce one plan, not one each (the map lock itself is
    /// never held across a compile).
    compiling: Mutex<()>,
    compiles: AtomicU64,
    hits: AtomicU64,
    evictions: AtomicU64,
    /// Total compile time across the cache's lifetime, in nanoseconds
    /// (survives [`PlanCache::clear`] and same-key recompiles, unlike
    /// summing over the currently cached plans).
    compile_nanos: AtomicU64,
    shapes_tuned: AtomicU64,
    candidates_scored: AtomicU64,
    tuned_wins: AtomicU64,
}

impl Default for PlanCache {
    fn default() -> Self {
        Self::new()
    }
}

impl PlanCache {
    /// Default LRU capacity: comfortably above any single workload's
    /// working set (a sharded shape needs at most seven entries per
    /// residency mode — the vector plan plus two shard lengths × three
    /// phases — so fourteen when resident and re-staged plans coexist,
    /// plus one tuned entry per shape when the autotuner is on) while
    /// keeping a long-running server's memory bounded under arbitrary
    /// length mixes.
    pub const DEFAULT_CAPACITY: usize = 64;

    /// Creates an empty cache with a fresh identity and the default
    /// capacity.
    #[must_use]
    pub fn new() -> Self {
        Self::with_capacity(Self::DEFAULT_CAPACITY)
    }

    /// Creates an empty cache holding at most `capacity` plans
    /// (clamped to at least 1).
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            id: NEXT_CACHE_ID.fetch_add(1, Ordering::Relaxed),
            epoch: AtomicU64::new(0),
            capacity: capacity.max(1),
            tick: AtomicU64::new(0),
            plans: Mutex::new(HashMap::new()),
            compiling: Mutex::new(()),
            compiles: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            compile_nanos: AtomicU64::new(0),
            shapes_tuned: AtomicU64::new(0),
            candidates_scored: AtomicU64::new(0),
            tuned_wins: AtomicU64::new(0),
        }
    }

    /// The LRU capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Takes the compile lock: the caller re-checks the map under it
    /// and compiles only if the shape is still missing, so racing
    /// workers converge on a single plan per shape.
    pub(crate) fn lock_for_compile(&self) -> std::sync::MutexGuard<'_, ()> {
        self.compiling.lock().expect("plan compile lock poisoned")
    }

    /// The cache's identity for tile-slot validation: the
    /// process-unique id plus the clear-epoch, so [`PlanCache::clear`]
    /// also invalidates slots warmed before it.
    pub(crate) fn slot_token(&self) -> (u64, u64) {
        (self.id, self.epoch.load(Ordering::Relaxed))
    }

    pub(crate) fn get(&self, key: &PlanKey) -> Option<CachedPlan> {
        let found = self.touch(key);
        if found.is_some() {
            self.note_hit();
        }
        found
    }

    /// Looks a plan up without counting a hit (observer access for
    /// cost queries that just compiled it); still refreshes recency.
    pub(crate) fn peek(&self, key: &PlanKey) -> Option<CachedPlan> {
        self.touch(key)
    }

    fn touch(&self, key: &PlanKey) -> Option<CachedPlan> {
        let now = self.tick.fetch_add(1, Ordering::Relaxed);
        let mut map = self.plans.lock().expect("plan cache poisoned");
        map.get_mut(key).map(|e| {
            e.used = now;
            e.plan.clone()
        })
    }

    pub(crate) fn insert(&self, key: PlanKey, plan: CachedPlan) {
        let micros = match &plan {
            CachedPlan::Program(p) => p.compile_micros(),
            CachedPlan::Sharded(p) => p.compile_micros(),
            CachedPlan::Tuned(p) => p.compile_micros(),
        };
        self.compiles.fetch_add(1, Ordering::Relaxed);
        self.compile_nanos
            .fetch_add((micros * 1e3) as u64, Ordering::Relaxed);
        let now = self.tick.fetch_add(1, Ordering::Relaxed);
        let mut map = self.plans.lock().expect("plan cache poisoned");
        map.insert(key, Entry { plan, used: now });
        while map.len() > self.capacity {
            let Some(victim) = map.iter().min_by_key(|(_, e)| e.used).map(|(k, _)| *k) else {
                break;
            };
            map.remove(&victim);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Counts a lock-free tile-slot hit.
    pub(crate) fn note_hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one tuned shape (one mapping compiled), `win` when it
    /// was mapped differently from the configured default.
    pub(crate) fn note_autotune(&self, win: bool) {
        self.shapes_tuned.fetch_add(1, Ordering::Relaxed);
        self.candidates_scored.fetch_add(1, Ordering::Relaxed);
        if win {
            self.tuned_wins.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Lifetime autotune counters (kept across [`PlanCache::clear`]).
    #[must_use]
    pub fn autotune_stats(&self) -> AutotuneStats {
        AutotuneStats {
            shapes_tuned: self.shapes_tuned.load(Ordering::Relaxed),
            candidates_scored: self.candidates_scored.load(Ordering::Relaxed),
            wins: self.tuned_wins.load(Ordering::Relaxed),
        }
    }

    /// Drops every cached plan and advances the epoch so tile slots
    /// warmed before the clear re-resolve. Counters are kept.
    pub fn clear(&self) {
        self.epoch.fetch_add(1, Ordering::Relaxed);
        self.plans.lock().expect("plan cache poisoned").clear();
    }

    /// Number of currently cached entries compiled for resident
    /// execution (see [`crate::ApSoftmax::cache_stats`]).
    #[must_use]
    pub fn resident_entries(&self) -> usize {
        self.plans
            .lock()
            .expect("plan cache poisoned")
            .keys()
            .filter(|k| k.resident)
            .count()
    }

    /// Current counters.
    #[must_use]
    pub fn stats(&self) -> PlanStats {
        let plans = self.plans.lock().expect("plan cache poisoned").len();
        PlanStats {
            plans,
            compiles: self.compiles.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            compile_micros: self.compile_nanos.load(Ordering::Relaxed) as f64 / 1e3,
        }
    }
}
