//! The Fig. 4/5 dataflow: Algorithm 1 mapped onto the AP.
//!
//! One attention head's softmax vector is packed two words per row (the
//! paper's layout: a vector of length `L` occupies `L/2` rows), and the
//! sixteen dataflow steps of Fig. 5 execute as LUT microcode on the
//! simulated AP. The result is **bit-exact** against the scalar
//! specification in `softmap-softmax` (verified by integration tests and
//! by [`ApSoftmaxRun::codes`] comparisons in this module's tests).
//!
//! # Compile once, replay many
//!
//! The dataflow's op sequence is *static* per shape: it depends only on
//! `(vector length, Layout, PrecisionConfig, DivStyle)`, never on the
//! data (run-time scalars — the min search result, the reduction sum —
//! flow through program registers). [`ApSoftmax`] therefore records the
//! trace once per shape into a [`softmap_ap::ApProgram`], caches it in
//! a shape-keyed [`crate::PlanCache`], and every further vector of that
//! shape executes as load → replay → read with no per-op host dispatch
//! (and zero heap allocations through a warmed [`TileState`]). The
//! compiled program also answers analytic cost queries without touching
//! a CAM: see [`ApSoftmax::static_cost`].
//!
//! # One generator, one executor, one lookup
//!
//! A vector longer than one tile runs **sharded** across the device's
//! tile grid, in three phases per shard — min search, exponential with
//! a partial sum, divide — around two cross-tile reductions (see the
//! `fanout` submodule). One generator issues every program: the
//! whole-vector dataflow and each shard phase, resident (pinned tiles at
//! one union geometry) or re-staged. One sharded executor runs every
//! mode — direct issue, compile, replay — over chunks of shards: one
//! chunk on the calling thread for [`ApSoftmax::execute_codes_into`],
//! one per worker when [`crate::SoftmaxServer`] replays a long request,
//! which idle workers may then help with. One plan lookup
//! (tile slot → shared cache → compile lock → re-check → compile →
//! insert) resolves whole-vector, sharded, and autotuned entries alike.

use std::sync::Arc;

use softmap_ap::batch::{self, BatchStats};
use softmap_ap::device::DeviceConfig;
use softmap_ap::program::{optimizer, ExecIo, ProgramScratch, Recorder};
use softmap_ap::{
    ApConfig, ApCore, ApError, ApProgram, ApTile, CycleStats, DivStyle, ExecBackend, Field,
    OptLevel, Overflow, RegId,
};
use softmap_softmax::{IntSoftmax, PrecisionConfig, SumMode};

use crate::plan::{
    CachedPlan, CompiledPlan, PlanCache, PlanKey, PlanPhase, PlanStats, ShardedPlan, TunedPlan,
};
use crate::CoreError;

pub(crate) mod autotune;
pub(crate) mod fanout;

use fanout::{ShardExec, ShardJob, ShardScratch};

/// How vector elements are packed into AP rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Layout {
    /// Two words per row — the paper's layout (`rows = L/2`); requires
    /// an even vector length. The dataflow executes once per half and
    /// the reduction starts with the pairwise add of the two halves
    /// (the `8M` term of Table II's reduction row).
    #[default]
    TwoWordsPerRow,
    /// One word per row (`rows = L`); used for odd lengths and as an
    /// ablation.
    OneWordPerRow,
}

/// Whether execution goes through the shape-keyed plan cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlanMode {
    /// Compile the dataflow once per shape and replay the cached
    /// program for every further vector (the default).
    #[default]
    Cached,
    /// Re-issue the dataflow op by op for every vector, exactly like
    /// the pre-plan mapping — the differential-testing baseline and,
    /// outside tests, the `fastword-reused` series of
    /// `scripts/bench_ap.sh`'s replay gate.
    DirectIssue,
}

/// Cycle statistics for one dataflow step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepStats {
    /// Step name, matching Fig. 5 (e.g. `"4: multiply+shift (barrett)"`).
    pub name: &'static str,
    /// Cycles and cell events spent in the step.
    pub stats: CycleStats,
}

/// The outcome of executing the mapped dataflow on the AP.
///
/// All buffers are plain `Vec`s so a run can be reused as an output
/// slot by [`ApSoftmax::execute_floats_into`]: repeated executions at
/// the same vector length overwrite in place without reallocating.
#[derive(Debug, Clone, Default)]
pub struct ApSoftmaxRun {
    /// Fixed-point probability codes, in input order (bit-exact vs. the
    /// scalar `IntSoftmax`).
    pub codes: Vec<u64>,
    /// Fraction bits of the codes.
    pub frac_bits: u32,
    /// The `v_approx` intermediates, in input order.
    pub vapprox: Vec<u64>,
    /// The (possibly truncated) sum used as divisor.
    pub sum: u64,
    /// Total cycle statistics.
    pub total: CycleStats,
    /// Per-step breakdown in dataflow order.
    pub steps: Vec<StepStats>,
    /// Rows occupied in the AP tile (the largest shard's tile for a
    /// sharded run).
    pub rows: usize,
    /// Columns used by the field layout (excluding scratch headroom;
    /// the widest phase for a sharded run).
    pub cols_used: usize,
    /// Tiles (shards) the vector occupied — 1 when it fits one tile.
    pub shards: usize,
    /// Sequential waves per phase on the device's tile grid.
    pub waves: u64,
    /// Device critical path in cycles: per-phase wave makespans plus
    /// the cross-tile reduction-network cycles. Equals
    /// `total.cycles()` for an unsharded run.
    pub latency_cycles: u64,
    /// Cross-tile reduction-network charges (zero when unsharded).
    pub reduction: CycleStats,
}

impl ApSoftmaxRun {
    /// Dequantized probabilities (`codes · 2^-frac_bits`).
    #[must_use]
    pub fn probabilities(&self) -> Vec<f64> {
        let scale = f64::from(self.frac_bits).exp2().recip();
        self.codes.iter().map(|&c| c as f64 * scale).collect()
    }
}

/// Executes the integer-only softmax dataflow on a simulated AP tile.
///
/// # Examples
///
/// ```
/// use softmap::ApSoftmax;
/// use softmap_softmax::{IntSoftmax, PrecisionConfig};
///
/// let cfg = PrecisionConfig::paper_best();
/// let scores = [0.0_f64, -1.0, -2.5, -0.3];
/// let scalar = IntSoftmax::new(cfg)?.run_floats(&scores)?;
/// let run = ApSoftmax::new(cfg)?.execute_floats(&scores)?;
/// assert_eq!(run.codes, scalar.codes); // bit-exact
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct ApSoftmax {
    sm: IntSoftmax,
    div_style: DivStyle,
    layout: Layout,
    backend: ExecBackend,
    plan_mode: PlanMode,
    opt_level: OptLevel,
    device: DeviceConfig,
    resident: bool,
    /// Whether compiled plans get a region-blocking plan attached
    /// (strip-mined FastWord execution; see
    /// [`softmap_ap::ApProgram::plan_blocking`]).
    blocked: bool,
    /// Whether cached compilation compiles the mapping the autotuner's
    /// rule picks per shape (see [`crate::mapping::autotune`]).
    autotune: bool,
    /// Set by [`ApSoftmax::with_layout`]: the caller pinned the layout
    /// explicitly, so the autotuner keeps it.
    layout_pinned: bool,
    /// Set on the autotuner's view of a balanced mapping: sharded
    /// execution uses this partition instead of
    /// [`DeviceConfig::partition_into`].
    partition_override: Option<Arc<Vec<(usize, usize)>>>,
    plans: Arc<PlanCache>,
}

/// Aggregate plan-cache counters surfaced as one struct; see
/// [`ApSoftmax::cache_stats`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheStats {
    /// Plans currently cached.
    pub plans: usize,
    /// Shape-miss compilations performed.
    pub compiles: u64,
    /// Cache hits (lock-free tile-slot hits included).
    pub hits: u64,
    /// LRU evictions over the cache's lifetime.
    pub evictions: u64,
    /// Currently cached entries compiled for resident execution.
    pub resident_entries: usize,
    /// Shapes the autotuner compiled a mapping for.
    pub shapes_tuned: u64,
    /// Mappings the autotuner compiled: one per tuned shape.
    pub candidates_scored: u64,
    /// Tuned shapes mapped differently from the configured default
    /// (another layout or a balanced partition; see
    /// [`TunedPlan::improved`]).
    pub tuned_wins: u64,
    /// Requests accepted into the serving queue (zero unless queried
    /// through a [`crate::SoftmaxServer`]).
    pub queued: u64,
    /// Admission passes that dispatched at least one request into a
    /// device wave (zero unless queried through a server).
    pub waves_formed: u64,
    /// Requests packed into a wave beyond each admission pass's first
    /// (zero unless queried through a server).
    pub coalesced: u64,
    /// Submissions that found the queue at its bound — blocked callers
    /// and [`crate::CoreError::QueueFull`] rejections (zero unless
    /// queried through a server).
    pub backpressure: u64,
}

impl std::fmt::Display for CacheStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} plans ({} resident), {} compiles, {} hits, {} evictions, \
             {} shapes tuned ({} candidates, {} wins), \
             {} queued ({} waves, {} coalesced, {} backpressure)",
            self.plans,
            self.resident_entries,
            self.compiles,
            self.hits,
            self.evictions,
            self.shapes_tuned,
            self.candidates_scored,
            self.tuned_wins,
            self.queued,
            self.waves_formed,
            self.coalesced,
            self.backpressure
        )
    }
}

/// Static per-vector cost of one softmax, covering both regimes: a
/// vector that fits one tile (`shards == 1`, `latency_cycles ==
/// total.cycles()`) and a sharded long vector (waves + cross-tile
/// reduction cycles on the device's critical path). Answered from
/// compiled plans without executing anything; see
/// [`ApSoftmax::static_vector_cost`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VectorCost {
    /// Total work: every shard's cycles/cell events plus the
    /// cross-tile reduction charges (the energy-model input).
    pub total: CycleStats,
    /// The device critical path in cycles (the latency-model input).
    pub latency_cycles: u64,
    /// Tiles (shards) the vector occupies.
    pub shards: usize,
    /// Sequential waves per phase on the tile grid.
    pub waves: u64,
    /// Cross-tile reduction-network charges (zero when unsharded).
    pub reduction: CycleStats,
}

/// Reusable per-worker execution state for the pooled path: one
/// persistent simulated tile ([`ApTile`]), the host-side staging
/// buffers (quantized codes, packed half-vectors), the program
/// scratch (registers + reduction sums), the sharded executor's
/// per-host-worker tile pools and buffers, and a one-entry cached-plan
/// slot so steady-state replay touches no lock.
///
/// SoftmAP's deployment model streams many vectors through fixed
/// hardware tiles; this is the host analogue. After a warm-up vector
/// establishes buffer capacities and compiles the shape's plan, every
/// further vector of the same shape *replays* the cached program with
/// **zero heap allocations** (asserted by the counting-allocator
/// regression test in `crates/core/tests`).
///
/// # Examples
///
/// ```
/// use softmap::{ApSoftmax, ApSoftmaxRun, TileState};
/// use softmap_softmax::PrecisionConfig;
///
/// let mapping = ApSoftmax::new(PrecisionConfig::paper_best())?;
/// let mut state = TileState::new();
/// let mut run = ApSoftmaxRun::default();
/// for scores in [[0.0, -1.0, -2.0, -3.0], [0.0, -0.5, -1.5, -2.5]] {
///     mapping.execute_floats_into(&mut state, &scores, &mut run)?;
///     assert_eq!(run.codes.len(), 4);
/// }
/// assert!(state.cached_plan().is_some());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct TileState {
    tile: ApTile,
    codes: Vec<i64>,
    half0: Vec<u64>,
    half1: Vec<u64>,
    scratch: ProgramScratch,
    shard: ShardScratch,
    plan: Option<PlanSlot>,
}

/// The tile-local cached-plan slot: (cache identity token, shape key,
/// plan — whole-vector program, sharded vector plan, or tuned entry).
type PlanSlot = ((u64, u64), PlanKey, CachedPlan);

impl TileState {
    /// Creates an empty state (buffers grow on first use).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// A state whose sharded replays split into up to `chunks` chunks.
    pub(crate) fn with_chunks(chunks: usize) -> Self {
        let mut state = Self::new();
        state.shard.job = Arc::new(ShardJob::new(chunks));
        state
    }

    /// The job a serving owner posts for helpers.
    pub(crate) fn job(&self) -> &Arc<ShardJob> {
        &self.shard.job
    }

    /// The underlying tile slot (observer access).
    #[must_use]
    pub fn tile(&self) -> &ApTile {
        &self.tile
    }

    /// The whole-vector plan cached in this tile's slot, if one has
    /// been resolved (`None` when the slot holds a sharded plan; see
    /// [`TileState::cached_sharded_plan`]). A tuned slot resolves to
    /// its compiled plan.
    #[must_use]
    pub fn cached_plan(&self) -> Option<&CompiledPlan> {
        match self.plan.as_ref() {
            Some((_, _, CachedPlan::Program(p))) => Some(p),
            Some((_, _, CachedPlan::Tuned(t))) => match &t.plan {
                CachedPlan::Program(p) => Some(p),
                _ => None,
            },
            _ => None,
        }
    }

    /// The sharded vector plan cached in this tile's slot, if one has
    /// been resolved. A tuned slot resolves to its compiled plan.
    #[must_use]
    pub fn cached_sharded_plan(&self) -> Option<&ShardedPlan> {
        match self.plan.as_ref() {
            Some((_, _, CachedPlan::Sharded(p))) => Some(p),
            Some((_, _, CachedPlan::Tuned(t))) => match &t.plan {
                CachedPlan::Sharded(p) => Some(p),
                _ => None,
            },
            _ => None,
        }
    }
}

thread_local! {
    /// The per-thread tile pool backing the non-`_into` entry points:
    /// every `execute_floats`/`execute_codes` call on a thread streams
    /// through one persistent tile, exactly like vectors stream through
    /// fixed hardware in the deployed accelerator. The arena is sized
    /// to the largest geometry the thread has executed and lives for
    /// the thread's lifetime.
    static THREAD_TILE: std::cell::RefCell<TileState> =
        std::cell::RefCell::new(TileState::new());
}

/// One half-vector's fields in the dataflow layout (see
/// [`ApSoftmax::phase_widths`]): the exponential sub-dataflow's working
/// fields plus the result column.
#[derive(Clone, Copy)]
struct HalfFields {
    /// Working value: |code|, then `neg_vstable`, then `r`.
    x: Field,
    /// Barrett quotient.
    q: Field,
    /// Wide scratch: products and polynomial.
    work: Field,
    /// Polynomial input `t = v_b - r`.
    t: Field,
    /// `v_approx`.
    vapprox: Field,
    /// The result (the paper's `R` column, `2M + 12` bits).
    res: Field,
}

impl From<[Field; 6]> for HalfFields {
    fn from([x, q, work, t, vapprox, res]: [Field; 6]) -> Self {
        Self {
            x,
            q,
            work,
            t,
            vapprox,
            res,
        }
    }
}

/// Allocates fields of the given widths in order.
fn alloc_fields<const N: usize>(
    ap: &mut ApCore,
    widths: [usize; N],
) -> Result<[Field; N], ApError> {
    let mut fields = [Field::new(0, 0); N];
    for (f, w) in fields.iter_mut().zip(widths) {
        *f = ap.alloc_field(w)?;
    }
    Ok(fields)
}

/// One direct-issue execution of a dataflow program: its cost, the
/// columns its layout uses, the value of its result register (the sum,
/// the shard minimum, or the partial sum), the recorded program with
/// that register when recording, and the per-half fields it ran on.
struct Issued {
    stats: CycleStats,
    cols_used: usize,
    result: u64,
    program: Option<(ApProgram, RegId)>,
    fields: [HalfFields; 2],
}

/// Accumulates one step's cost into the named entry of `steps`
/// (appending on first sight). Per-program step names are unique, so
/// the whole-vector path degenerates to a plain push; sharded runs
/// merge the per-shard repetitions of each phase step into one entry.
fn accumulate_step(steps: &mut Vec<StepStats>, name: &'static str, stats: CycleStats) {
    if let Some(s) = steps.iter_mut().find(|s| s.name == name) {
        s.stats.accumulate(&stats);
    } else {
        steps.push(StepStats { name, stats });
    }
}

/// Words per row of a layout.
fn words_per_row(layout: Layout) -> usize {
    match layout {
        Layout::TwoWordsPerRow => 2,
        Layout::OneWordPerRow => 1,
    }
}

/// Packs the |code| magnitudes of a vector (or shard) into its
/// half-vectors under `layout` — the first `rows` codes into `half0`
/// and, when packed two words per row, the rest into `half1` (the sign
/// is implicit in the paper's non-positive input convention). Returns
/// `(packed, rows)`.
fn pack_halves(
    layout: Layout,
    codes: &[i64],
    half0: &mut Vec<u64>,
    half1: &mut Vec<u64>,
) -> (bool, usize) {
    let (packed, rows) = ApSoftmax::packing_of(layout, codes.len());
    half0.clear();
    half0.extend(codes[..rows].iter().map(|&c| c.unsigned_abs()));
    half1.clear();
    if packed {
        half1.extend(codes[rows..].iter().map(|&c| c.unsigned_abs()));
    }
    (packed, rows)
}

impl ApSoftmax {
    /// Builds the mapping for a precision configuration with the default
    /// layout (two words per row), restoring division, and plan caching
    /// enabled.
    ///
    /// # Errors
    ///
    /// Propagates configuration errors from the scalar pipeline.
    pub fn new(cfg: PrecisionConfig) -> Result<Self, CoreError> {
        Ok(Self {
            sm: IntSoftmax::new(cfg)?,
            div_style: DivStyle::Restoring,
            layout: Layout::TwoWordsPerRow,
            backend: ExecBackend::default(),
            plan_mode: PlanMode::default(),
            opt_level: OptLevel::Full,
            device: DeviceConfig::default(),
            resident: true,
            blocked: true,
            autotune: true,
            layout_pinned: false,
            partition_override: None,
            plans: Arc::new(PlanCache::new()),
        })
    }

    /// Enables or disables the mapping autotuner (the default is on).
    /// Enabled, each cached shape's
    /// first vector compiles the one mapping the `mapping::autotune`
    /// rule picks for its length — one word per row unless the layout
    /// is pinned, equal-length shards where a split within two shards
    /// of the minimum allows — and further vectors replay it. The rule
    /// is checked against the compile-every-candidate search it
    /// replaced. Disabled, compilation uses the configured mapping
    /// exactly as before the autotuner existed — byte-identical plans,
    /// keys, and counters. Tuned entries live under their own key axis,
    /// so toggling keeps the cache. Off is [`crate::ApDeployment`]'s
    /// default, and `softmap_eval`'s ablations, table6 and autotune
    /// experiments call it for the paper's fixed mapping.
    #[must_use]
    pub fn with_autotune(mut self, autotune: bool) -> Self {
        self.autotune = autotune;
        self
    }

    /// Whether the mapping autotuner is enabled.
    #[must_use]
    pub fn autotune(&self) -> bool {
        self.autotune
    }

    /// Enables or disables resident sharded execution. When enabled
    /// (the default), a vector whose
    /// shards fit the tile grid in one wave keeps each shard pinned in
    /// its tile across the three phases — phase-boundary staging is
    /// elided and same-length shards after the wave's first are
    /// charged in lockstep (see the residency contract in the
    /// `softmap_ap` program/device module docs). Disabled, or whenever
    /// shards exceed the grid, execution takes the re-staging path
    /// exactly as before residency existed. Residency is part of the
    /// plan key, so resident and re-staged plans coexist and the cache
    /// is kept. Off is the re-staged baseline of `backend_compare`'s
    /// sharded series (read by `scripts/bench_ap.sh`'s resident and
    /// shard gates) and of `ApDeployment { resident: false }`
    /// (`softmap_eval longseq`).
    #[must_use]
    pub fn with_resident(mut self, resident: bool) -> Self {
        self.resident = resident;
        self
    }

    /// Whether resident sharded execution is enabled (the knob, not
    /// the per-vector fallback decision).
    #[must_use]
    pub fn resident(&self) -> bool {
        self.resident
    }

    /// Enables or disables region-blocked strip-mined execution (the
    /// default is on). Enabled, every compiled program carries a
    /// region-blocking plan and FastWord replays execute row-parallel
    /// op runs strip by strip out of a cache-resident scratch image.
    /// This is a host-execution optimization only: the device cost
    /// contract is untouched — planes, outputs, and `CycleStats` are
    /// bit-identical either way. Disabled, replays take the op-by-op
    /// path exactly as before blocking existed; outside tests only
    /// `backend_compare` disables it, on every series but the blocked
    /// ones, among them the `fastword-optimized` baseline of
    /// `scripts/bench_ap.sh`'s block gate. Already-compiled plans keep
    /// their blocking, so the cache starts fresh.
    #[must_use]
    pub fn with_blocked(mut self, blocked: bool) -> Self {
        self.blocked = blocked;
        self.plans = Arc::new(PlanCache::with_capacity(self.plans.capacity()));
        self
    }

    /// Whether region-blocked strip-mined execution is enabled.
    #[must_use]
    pub fn blocked(&self) -> bool {
        self.blocked
    }

    /// Attaches the region-blocking plan to a freshly compiled program
    /// (after the optimizer pipeline settles — any rewrite drops a
    /// stale plan) when blocking is enabled.
    fn apply_blocking(&self, program: &mut ApProgram) {
        if self.blocked {
            program.plan_blocking(None);
        }
    }

    /// Whether a vector splitting into `shards` shards executes
    /// resident: the knob is on and the whole vector fits the tile
    /// grid in a single wave (a tile can stay pinned only if no later
    /// wave evicts it).
    fn resident_for(&self, shards: usize) -> bool {
        self.resident && shards <= self.device.tiles
    }

    /// Bounds execution by a device geometry (tile grid). Vectors whose
    /// rows exceed `rows_per_tile` execute **sharded** across tiles;
    /// shards beyond `tiles` run in waves. The default is the paper's
    /// deployment ([`DeviceConfig::default`]: 48 × 2048-row tiles).
    /// Shard shapes depend on the geometry, so the plan cache starts
    /// fresh.
    #[must_use]
    pub fn with_device(mut self, device: DeviceConfig) -> Self {
        self.device = device;
        self.plans = Arc::new(PlanCache::with_capacity(self.plans.capacity()));
        self
    }

    /// The device geometry bounding execution.
    #[must_use]
    pub fn device(&self) -> DeviceConfig {
        self.device
    }

    /// Bounds the plan cache to `capacity` entries (LRU eviction; the
    /// default is [`PlanCache::DEFAULT_CAPACITY`]). The cache starts
    /// fresh.
    #[must_use]
    pub fn with_plan_capacity(mut self, capacity: usize) -> Self {
        self.plans = Arc::new(PlanCache::with_capacity(capacity));
        self
    }

    /// Selects the division microcode style. Compiled plans depend on
    /// the style, so the plan cache starts fresh.
    #[must_use]
    pub fn with_div_style(mut self, style: DivStyle) -> Self {
        self.div_style = style;
        self.plans = Arc::new(PlanCache::with_capacity(self.plans.capacity()));
        self
    }

    /// Selects the AP execution backend. `FastWord` produces bit- and
    /// cycle-identical results at a fraction of the simulation time
    /// (the backends share one cost model; see `softmap_ap::backend`).
    /// Compiled plans are backend-agnostic — a program recorded under
    /// one backend replays exactly on the other — so the cache is kept.
    #[must_use]
    pub fn with_backend(mut self, backend: ExecBackend) -> Self {
        self.backend = backend;
        self
    }

    /// The AP execution backend in use.
    #[must_use]
    pub fn backend(&self) -> ExecBackend {
        self.backend
    }

    /// Selects the row packing layout. Compiled plans depend on the
    /// layout, so the plan cache starts fresh. An explicit layout also
    /// **pins** the autotuner's layout axis: a caller who asked for a
    /// layout gets that layout, tuned or not.
    #[must_use]
    pub fn with_layout(mut self, layout: Layout) -> Self {
        self.layout = layout;
        self.layout_pinned = true;
        self.plans = Arc::new(PlanCache::with_capacity(self.plans.capacity()));
        self
    }

    /// Selects whether execution goes through the plan cache
    /// ([`PlanMode::Cached`], the default) or re-issues the dataflow op
    /// by op per vector ([`PlanMode::DirectIssue`]).
    #[must_use]
    pub fn with_plan_mode(mut self, mode: PlanMode) -> Self {
        self.plan_mode = mode;
        self
    }

    /// The plan-cache mode in use.
    #[must_use]
    pub fn plan_mode(&self) -> PlanMode {
        self.plan_mode
    }

    /// Selects the trace-optimization level plans compile at. The
    /// default is [`OptLevel::Full`]; [`OptLevel::None`] replays the
    /// recorded trace byte-for-byte, the baseline of the differential
    /// tests and of `backend_compare`'s unoptimized series (the opt
    /// gate of `scripts/bench_ap.sh` reads their `cycles/fastword/*`
    /// records). The level is part of the plan
    /// key, so plans compiled at different levels coexist and the
    /// cache is kept.
    #[must_use]
    pub fn with_opt_level(mut self, level: OptLevel) -> Self {
        self.opt_level = level;
        self
    }

    /// The trace-optimization level in use.
    #[must_use]
    pub fn opt_level(&self) -> OptLevel {
        self.opt_level
    }

    /// Counters of the shared plan cache (plans, compiles, hits,
    /// compile time).
    #[must_use]
    pub fn plan_stats(&self) -> PlanStats {
        self.plans.stats()
    }

    /// One-stop plan-cache counters (compiles, hits, evictions,
    /// resident entries, autotune activity) — the single query tests
    /// and profiling examples read instead of scattering per-counter
    /// probes.
    #[must_use]
    pub fn cache_stats(&self) -> CacheStats {
        let s = self.plans.stats();
        let a = self.plans.autotune_stats();
        CacheStats {
            plans: s.plans,
            compiles: s.compiles,
            hits: s.hits,
            evictions: s.evictions,
            resident_entries: self.plans.resident_entries(),
            shapes_tuned: a.shapes_tuned,
            candidates_scored: a.candidates_scored,
            tuned_wins: a.wins,
            queued: 0,
            waves_formed: 0,
            coalesced: 0,
            backpressure: 0,
        }
    }

    /// Drops every cached plan (compile-cost benchmarking; tile slots
    /// warmed earlier re-resolve on their next vector).
    pub fn clear_plans(&self) {
        self.plans.clear();
    }

    /// Precompiles the plan for every vector length in `shapes` — the
    /// autotuner's mapping of each, when autotuning is enabled — so the
    /// first real vector of a warmed shape replays instead of paying
    /// the compile on the request path. The serving layer calls this
    /// at startup ([`crate::ServeConfig::warmup_shapes`]); it is also
    /// useful before latency-sensitive benchmarking. Shapes already
    /// cached are skipped; one compile is counted per fresh shape
    /// (`cache_stats().compiles`), none count as cache hits.
    ///
    /// # Errors
    ///
    /// The first failing shape's compile error (e.g.
    /// [`CoreError::EmptyInput`] for a zero length).
    pub fn warmup(&self, shapes: &[usize]) -> Result<(), CoreError> {
        for &len in shapes {
            self.resolve_vector_entry(len)?;
        }
        Ok(())
    }

    /// Tiles a request of `len` elements occupies under the configured
    /// mapping: 1 when the vector fits one tile, the shard partition's
    /// length otherwise (written into the reusable `ranges` scratch).
    /// The serving layer's admission policy claims this many tiles per
    /// request.
    pub(crate) fn shard_count_into(
        &self,
        len: usize,
        ranges: &mut Vec<(usize, usize)>,
    ) -> Result<usize, CoreError> {
        if len == 0 {
            return Err(CoreError::EmptyInput);
        }
        self.partition_into(len, ranges)?;
        Ok(ranges.len().max(1))
    }

    /// The underlying scalar specification.
    #[must_use]
    pub fn spec(&self) -> &IntSoftmax {
        &self.sm
    }

    /// Quantizes scores and executes the dataflow.
    ///
    /// Executes on this thread's pooled tile (see [`TileState`]): the
    /// CAM arena and scratch state persist across calls, so repeated
    /// vectors reallocate nothing but the returned run's buffers. Use
    /// [`ApSoftmax::execute_floats_into`] to also reuse those.
    ///
    /// # Errors
    ///
    /// See [`ApSoftmax::execute_floats_into`].
    pub fn execute_floats(&self, scores: &[f64]) -> Result<ApSoftmaxRun, CoreError> {
        THREAD_TILE.with(|state| {
            let mut state = state.borrow_mut();
            let mut run = ApSoftmaxRun::default();
            self.execute_floats_into(&mut state, scores, &mut run)?;
            Ok(run)
        })
    }

    /// Pooled [`ApSoftmax::execute_floats`]: executes on `state`'s
    /// persistent tile and writes the outcome into `run`, reusing every
    /// buffer. In steady state (same vector shape as the previous call)
    /// this replays the cached plan with zero heap allocations.
    ///
    /// # Errors
    ///
    /// [`CoreError::NonFinite`] for a NaN score or an all-−∞ row (see
    /// [`IntSoftmax::check_scores`]); otherwise see
    /// [`ApSoftmax::execute_codes`].
    pub fn execute_floats_into(
        &self,
        state: &mut TileState,
        scores: &[f64],
        run: &mut ApSoftmaxRun,
    ) -> Result<(), CoreError> {
        if scores.is_empty() {
            return Err(CoreError::EmptyInput);
        }
        self.sm.check_scores(scores)?;
        let mut codes = std::mem::take(&mut state.codes);
        self.sm.quantize_into(scores, &mut codes);
        let result = self.execute_codes_into(state, &codes, run);
        state.codes = codes;
        result
    }

    /// Executes a whole batch of softmax vectors across host threads
    /// with **one persistent simulated tile per worker** (not one tile
    /// allocation per vector) — the multi-tile analogue of
    /// [`ApSoftmax::execute_floats`], matching the deployment model
    /// where vectors stream through fixed hardware. Workers replay
    /// plans from the shared cache: a shape is compiled once per batch,
    /// not once per worker. Results are returned in input order and are
    /// identical to running each vector alone.
    ///
    /// # Errors
    ///
    /// The first (by input order) failing vector's error; see
    /// [`ApSoftmax::execute_floats_into`]. On failure the remaining
    /// vectors are cancelled.
    pub fn execute_batch_floats(&self, batch: &[Vec<f64>]) -> Result<Vec<ApSoftmaxRun>, CoreError> {
        batch::try_parallel_map_with(batch, TileState::new, |state, scores| {
            let mut run = ApSoftmaxRun::default();
            self.execute_floats_into(state, scores, &mut run)?;
            Ok(run)
        })
    }

    /// Batched [`ApSoftmax::execute_codes`] with per-worker tile reuse;
    /// see [`ApSoftmax::execute_batch_floats`].
    ///
    /// # Errors
    ///
    /// The first failing vector's error.
    pub fn execute_batch_codes(&self, batch: &[Vec<i64>]) -> Result<Vec<ApSoftmaxRun>, CoreError> {
        batch::try_parallel_map_with(batch, TileState::new, |state, codes| {
            let mut run = ApSoftmaxRun::default();
            self.execute_codes_into(state, codes, &mut run)?;
            Ok(run)
        })
    }

    /// Aggregate tile statistics for a batch of runs: total work across
    /// tiles plus the concurrent-hardware makespan (one tile per run —
    /// the unbounded-grid view).
    #[must_use]
    pub fn batch_stats(runs: &[ApSoftmaxRun]) -> BatchStats {
        let per_tile: Vec<CycleStats> = runs.iter().map(|r| r.total).collect();
        BatchStats::aggregate(&per_tile)
    }

    /// [`ApSoftmax::batch_stats`] on a **finite** grid of `tiles`
    /// concurrent tiles: runs beyond the grid execute in waves and the
    /// makespan is the wave-scheduled critical path.
    #[must_use]
    pub fn batch_stats_on(runs: &[ApSoftmaxRun], tiles: usize) -> BatchStats {
        let per_tile: Vec<CycleStats> = runs.iter().map(|r| r.total).collect();
        BatchStats::aggregate_on(&per_tile, tiles)
    }

    /// Executes the sixteen-step dataflow of Fig. 5 on quantized codes.
    ///
    /// # Errors
    ///
    /// * [`CoreError::EmptyInput`] for an empty slice,
    /// * [`CoreError::Softmax`] for out-of-range codes,
    /// * [`CoreError::Ap`] if the tile geometry cannot hold the layout.
    pub fn execute_codes(&self, codes: &[i64]) -> Result<ApSoftmaxRun, CoreError> {
        THREAD_TILE.with(|state| {
            let mut state = state.borrow_mut();
            let mut run = ApSoftmaxRun::default();
            self.execute_codes_into(&mut state, codes, &mut run)?;
            Ok(run)
        })
    }

    /// Pooled [`ApSoftmax::execute_codes`]; see
    /// [`ApSoftmax::execute_floats_into`].
    ///
    /// # Errors
    ///
    /// As [`ApSoftmax::execute_codes`].
    pub fn execute_codes_into(
        &self,
        state: &mut TileState,
        codes: &[i64],
        run: &mut ApSoftmaxRun,
    ) -> Result<(), CoreError> {
        self.execute_codes_mode(state, codes, run, self.plan_mode, None)
    }

    /// Whether a vector of `len` elements is packed two words per row
    /// under `layout` (a tuned plan packs by its *chosen* layout, not
    /// the configured one), and the rows it then occupies.
    fn packing_of(layout: Layout, len: usize) -> (bool, usize) {
        let packed = layout == Layout::TwoWordsPerRow && len.is_multiple_of(2) && len >= 2;
        (packed, if packed { len / 2 } else { len })
    }

    /// The shared entry point: validates the codes, then issues the
    /// dataflow op by op ([`PlanMode::DirectIssue`]) or resolves the
    /// vector's cache entry through [`ApSoftmax::lookup`] — compiling
    /// it on a miss, which executes this vector — and replays it. A
    /// vector that fits one tile runs the whole-vector dataflow; a
    /// longer one runs sharded across the tile grid
    /// ([`ApSoftmax::run_sharded`]), its replay open to serving helpers
    /// when `wake` is given.
    fn execute_codes_mode(
        &self,
        state: &mut TileState,
        codes: &[i64],
        run: &mut ApSoftmaxRun,
        mode: PlanMode,
        wake: Option<&dyn Fn()>,
    ) -> Result<(), CoreError> {
        if codes.is_empty() {
            return Err(CoreError::EmptyInput);
        }
        // Validate codes through the scalar spec's range check (cheap:
        // no full trace).
        self.sm.validate_codes(codes)?;
        // The untuned shard partition; a tuned entry carries its own.
        let mut ranges = std::mem::take(&mut state.shard.ranges);
        ranges.clear();
        let result = if mode == PlanMode::Cached && self.autotune {
            Ok(())
        } else {
            self.partition_into(codes.len(), &mut ranges)
        }
        .and_then(|()| self.execute_partitioned(state, codes, run, mode, wake, &ranges));
        state.shard.ranges = ranges;
        result
    }

    /// [`ApSoftmax::execute_codes_mode`] once the untuned partition is
    /// known (`ranges` is empty for a whole vector and for a tuned
    /// lookup).
    fn execute_partitioned(
        &self,
        state: &mut TileState,
        codes: &[i64],
        run: &mut ApSoftmaxRun,
        mode: PlanMode,
        wake: Option<&dyn Fn()>,
        ranges: &[(usize, usize)],
    ) -> Result<(), CoreError> {
        let whole = ranges.is_empty();
        if mode == PlanMode::DirectIssue {
            // Direct issue stays on the re-staging path: residency is a
            // plan-level optimization, and the direct-vs-replay
            // differential baseline keeps characterizing the re-staged
            // contract exactly.
            return if whole {
                self.execute_whole(state, codes, self.layout, None, run, false)
                    .map(drop)
            } else {
                self.run_sharded(
                    &mut state.shard,
                    codes,
                    run,
                    ShardExec::Direct,
                    ranges,
                    false,
                    self.layout,
                    None,
                )
                .map(drop)
            };
        }
        let key = self.vector_key(codes.len(), ranges, self.autotune);
        let (entry, compiled) = self.lookup(state, key, |state| {
            if key.tuned {
                self.compile_tuned(state, codes, run)
            } else if whole {
                self.compile_whole(state, codes, run)
            } else {
                self.compile_sharded(state, codes, run, ranges, key.resident)
            }
        })?;
        if compiled {
            // Compiling executed this vector.
            return Ok(());
        }
        self.replay_entry(&entry, self.layout, state, codes, run, wake)
    }

    /// The one plan lookup behind every cached execution: the tile's
    /// slot (lock-free), then the shared cache, then — under the
    /// compile lock, after a re-check so workers racing on the same
    /// fresh shape converge on one plan — `compile`, whose plan is
    /// inserted. The slot is stamped with the token captured before the
    /// lookup, so a `clear_plans()` racing in after the insert still
    /// invalidates it on its next vector. Returns the entry and whether
    /// `compile` produced it.
    fn lookup(
        &self,
        state: &mut TileState,
        key: PlanKey,
        compile: impl FnOnce(&mut TileState) -> Result<CachedPlan, CoreError>,
    ) -> Result<(CachedPlan, bool), CoreError> {
        let token = self.plans.slot_token();
        if let Some((slot_token, slot_key, plan)) = &state.plan {
            if *slot_token == token && *slot_key == key {
                self.plans.note_hit();
                return Ok((plan.clone(), false));
            }
        }
        let mut compiled = false;
        let plan = match self.plans.get(&key) {
            Some(plan) => plan,
            None => {
                let _compiling = self.plans.lock_for_compile();
                match self.plans.get(&key) {
                    Some(plan) => plan,
                    None => {
                        let plan = compile(state)?;
                        self.plans.insert(key, plan.clone());
                        compiled = true;
                        plan
                    }
                }
            }
        };
        state.plan = Some((token, key, plan.clone()));
        Ok((plan, compiled))
    }

    /// Replays a cache entry: a whole-vector program or a sharded plan
    /// (open to serving helpers given `wake`) packed by `layout`, or a
    /// tuned entry's plan under its chosen layout. Zero-alloc in steady
    /// state.
    fn replay_entry(
        &self,
        entry: &CachedPlan,
        layout: Layout,
        state: &mut TileState,
        codes: &[i64],
        run: &mut ApSoftmaxRun,
        wake: Option<&dyn Fn()>,
    ) -> Result<(), CoreError> {
        match entry {
            CachedPlan::Program(plan) => self
                .execute_whole(state, codes, layout, Some(plan), run, false)
                .map(drop),
            CachedPlan::Sharded(plan) => self
                .run_sharded(
                    &mut state.shard,
                    codes,
                    run,
                    ShardExec::Replay(plan),
                    &plan.ranges,
                    plan.resident,
                    layout,
                    wake,
                )
                .map(drop),
            CachedPlan::Tuned(tuned) => {
                self.replay_entry(&tuned.plan, tuned.choice.layout, state, codes, run, wake)
            }
        }
    }

    /// Executes one whole vector on `state`'s tile, packed by `layout`:
    /// replays `plan` (load → replay → read, no per-op host dispatch;
    /// bit- and cycle-exact versus direct issue by the program-replay
    /// contract) or, without one, issues the dataflow op by op —
    /// recording the trace when `record`. Writes the outcome into
    /// `run`'s reused buffers.
    fn execute_whole(
        &self,
        state: &mut TileState,
        codes: &[i64],
        layout: Layout,
        plan: Option<&CompiledPlan>,
        run: &mut ApSoftmaxRun,
        record: bool,
    ) -> Result<Option<(ApProgram, RegId)>, CoreError> {
        let TileState {
            tile,
            half0,
            half1,
            scratch,
            ..
        } = state;
        let (packed, rows) = pack_halves(layout, codes, half0, half1);
        let halves = [half0.as_slice(), half1.as_slice()];
        let halves = &halves[..1 + usize::from(packed)];
        let ApSoftmaxRun {
            codes: out,
            vapprox,
            steps,
            ..
        } = run;
        out.clear();
        vapprox.clear();
        steps.clear();
        let mut outs = [out, vapprox];
        let io = ExecIo::new(halves, &mut outs);
        let (stats, cols_used, sum, program) = match plan {
            Some(plan) => {
                let ap = tile.acquire(plan.program().config(), self.backend)?;
                plan.program().replay(ap, io, scratch, |name, stats| {
                    steps.push(StepStats { name, stats });
                })?;
                let sum = scratch.reg(plan.result_reg());
                (ap.stats(), plan.cols_used(), sum, None)
            }
            None => {
                let issued = self.issue_phase(
                    PlanPhase::Vector,
                    false,
                    tile,
                    scratch,
                    io,
                    halves.len(),
                    rows,
                    steps,
                    record,
                )?;
                (
                    issued.stats,
                    issued.cols_used,
                    issued.result,
                    issued.program,
                )
            }
        };
        run.frac_bits = self.sm.widths().frac_bits();
        run.sum = sum;
        run.total = stats;
        run.rows = rows;
        run.cols_used = cols_used;
        run.shards = 1;
        run.waves = 1;
        run.latency_cycles = stats.cycles();
        run.reduction = CycleStats::default();
        Ok(program)
    }

    /// Compiles the whole-vector plan for this vector: records the
    /// trace while executing it, runs the optimizer pipeline — when the
    /// pipeline rewrote the trace, one recost execution of the fused
    /// schedule overwrites this vector's run — and attaches the
    /// blocking plan.
    fn compile_whole(
        &self,
        state: &mut TileState,
        codes: &[i64],
        run: &mut ApSoftmaxRun,
    ) -> Result<CachedPlan, CoreError> {
        let started = std::time::Instant::now();
        let (mut program, sum_reg) = self
            .execute_whole(state, codes, self.layout, None, run, true)?
            .expect("recording execution returns a program");
        let report = optimizer::optimize(&mut program, self.opt_level);
        if report.changed() {
            let TileState {
                tile,
                half0,
                half1,
                scratch,
                ..
            } = state;
            let halves = [half0.as_slice(), half1.as_slice()];
            let halves = &halves[..if half1.is_empty() { 1 } else { 2 }];
            let ApSoftmaxRun {
                codes: out,
                vapprox,
                steps,
                ..
            } = run;
            out.clear();
            vapprox.clear();
            steps.clear();
            let mut outs = [out, vapprox];
            let io = ExecIo::new(halves, &mut outs);
            run.total = self.recost(&mut program, tile, scratch, io, &[], steps)?;
            run.sum = scratch.reg(sum_reg);
            run.latency_cycles = run.total.cycles();
        }
        self.apply_blocking(&mut program);
        Ok(CachedPlan::Program(Arc::new(CompiledPlan::new(
            program,
            sum_reg,
            run.rows,
            run.cols_used,
            report,
            started.elapsed().as_secs_f64() * 1e6,
        ))))
    }

    /// Re-executes a freshly optimized program once
    /// ([`ApProgram::recost`]): the recorded per-op costs described the
    /// unoptimized trace, so one execution of the fused schedule
    /// re-anchors the program's static cost; its steps accumulate into
    /// `steps`. A resident shard phase reads planes a previous phase
    /// left in its tile: `prestage` re-creates that pre-phase state on
    /// the recost's cleared tile by loading `(field, data)` pairs first
    /// and then resetting the statistics, so the prestage loads — which
    /// a resident replay never performs — are not charged. The recost
    /// total still matches a resident replay exactly because write
    /// costs are content-independent: charging a program on a
    /// cleared-then-prestaged tile and on a re-armed tile with stale
    /// scratch planes prices identically. Returns the fused schedule's
    /// stats.
    fn recost(
        &self,
        program: &mut ApProgram,
        tile: &mut ApTile,
        scratch: &mut ProgramScratch,
        io: ExecIo<'_, '_>,
        prestage: &[(Field, &[u64])],
        steps: &mut Vec<StepStats>,
    ) -> Result<CycleStats, CoreError> {
        let ap = tile.acquire(program.config(), self.backend)?;
        for &(field, data) in prestage {
            ap.load(field, data)?;
        }
        if !prestage.is_empty() {
            ap.reset_stats();
        }
        program.recost(ap, io, scratch, |name, stats| {
            accumulate_step(steps, name, stats);
        })?;
        Ok(ap.stats())
    }

    fn cfg(&self) -> &PrecisionConfig {
        self.sm.config()
    }

    /// Width of the reduction sum (the divisor).
    fn sum_bits(&self) -> u32 {
        self.sm.constants().effective_sum_bits(self.cfg())
    }

    fn overflow_mode(&self) -> Overflow {
        match self.cfg().sum_mode {
            SumMode::Saturate => Overflow::Saturate,
            SumMode::Wrap => Overflow::Wrap,
            SumMode::Exact => Overflow::Error,
        }
    }

    /// Writes the shard partition a vector of `len` elements executes
    /// with under the configured mapping into `ranges` — empty when the
    /// vector fits one tile: the override when the autotuner compiles a
    /// balanced partition, the device's greedy default otherwise.
    fn partition_into(
        &self,
        len: usize,
        ranges: &mut Vec<(usize, usize)>,
    ) -> Result<(), CoreError> {
        ranges.clear();
        if Self::packing_of(self.layout, len).1 <= self.device.rows_per_tile {
            return Ok(());
        }
        if let Some(ov) = &self.partition_override {
            ranges.extend_from_slice(ov);
            return Ok(());
        }
        self.device
            .partition_into(len, words_per_row(self.layout), ranges)
            .map_err(CoreError::Ap)
    }

    // ---- the dataflow generator -----------------------------------------

    /// The field widths of `phase`'s program, in allocation order: each
    /// half's `[x, q, work, t, vapprox, res]`, the shared
    /// `[op, sumw, den, minf]`, and the scratch headroom past them. The
    /// whole-vector program and every resident shard phase allocate
    /// every field — the **union** geometry, whose column ranges mean
    /// the same thing in every phase, so planes written by one phase
    /// are readable by the next (the residency contract in
    /// `softmap_ap::program`). A re-staged shard phase gives the fields
    /// it never touches zero width, squeezing their columns out, and
    /// reserves only the headroom its own reduction or division needs.
    fn phase_widths(&self, phase: PlanPhase, resident: bool) -> ([usize; 6], [usize; 4], usize) {
        let m = self.cfg().m as usize;
        let w = self.sm.widths();
        let sum = self.sum_bits() as usize;
        let (q, vap, res) = (w.q as usize, w.vapprox as usize, w.result as usize);
        let work = (3 * m + 2).max(w.poly as usize + 1);
        let reduce = sum + 2;
        let divide = sum + 2 + 2 * (res + vap + 2);
        match (phase, resident) {
            (PlanPhase::ShardMin, false) => ([m, 0, 0, 0, 0, 0], [0; 4], 0),
            (PlanPhase::ShardExp, false) => {
                ([m, q, work, m, vap, 0], [2 * m + 1, sum, sum, m], reduce)
            }
            (PlanPhase::ShardDiv, false) => ([0, 0, 0, 0, vap, res], [0, 0, sum, 0], divide),
            _ => (
                [m, q, work, m, vap, res],
                [2 * m + 1, sum, sum, m],
                reduce + divide,
            ),
        }
    }

    /// Issues one program of the dataflow through a [`Recorder`] (which
    /// either just executes it or also captures the trace), with step
    /// costs accumulating into `steps`: the sixteen whole-vector steps
    /// of Fig. 5 ([`PlanPhase::Vector`]), or one phase of the sharded
    /// dataflow (see [`ApSoftmax::run_sharded`]) — the min search, the
    /// exponential with its partial sum (the global minimum is scalar
    /// input 0, `v_approx` output slot 0), or the division (the sum is
    /// scalar input 0, the codes output slot 0). A `resident` shard
    /// phase runs at the union geometry on its pinned tile: the min
    /// phase acquires it and loads the score planes (the only host
    /// staging of the resident lifetime); the exp and divide phases
    /// re-arm it and find their inputs in place. A re-staged phase
    /// acquires a cleared tile at its compact geometry and stages its
    /// inputs (`halves` input slots of `rows` rows).
    #[allow(clippy::too_many_arguments)]
    fn issue_phase(
        &self,
        phase: PlanPhase,
        resident: bool,
        tile: &mut ApTile,
        scratch: &mut ProgramScratch,
        io: ExecIo<'_, '_>,
        halves: usize,
        rows: usize,
        steps: &mut Vec<StepStats>,
        record: bool,
    ) -> Result<Issued, CoreError> {
        let (half, shared, headroom) = self.phase_widths(phase, resident);
        let cols =
            2 + halves * half.iter().sum::<usize>() + shared.iter().sum::<usize>() + headroom;
        let config = ApConfig::new(rows, cols);
        let rearm = resident && matches!(phase, PlanPhase::ShardExp | PlanPhase::ShardDiv);
        let ap = if rearm {
            tile.rearm_resident(config, self.backend)?
        } else {
            tile.acquire(config, self.backend)?
        };
        let mut fields = [HalfFields::from([Field::new(0, 0); 6]); 2];
        for f in fields.iter_mut().take(halves) {
            *f = alloc_fields(ap, half)?.into();
        }
        let [op, sumw, den, minf] = alloc_fields(ap, shared)?;
        let hs = &fields[..halves];
        let mut on_step =
            |name: &'static str, stats: CycleStats| accumulate_step(steps, name, stats);
        let mut rec = Recorder::new(ap, io, scratch, &mut on_step, record);
        let reg = match phase {
            PlanPhase::Vector => {
                // Step 1: write v (as magnitudes |code|).
                Self::issue_loads(&mut rec, hs.iter().map(|f| f.x))?;
                rec.step("1: write v");
                // Step 1b/2: find min |code| (= max v) and subtract it.
                let min = Self::issue_min_search(&mut rec, hs);
                Self::issue_stabilize(&mut rec, hs, minf, min, "2: subtract max")?;
                // Steps 3-13: the integer exponential.
                self.issue_exp_approx(&mut rec, hs, op)?;
                // Step 14: reduction over all rows.
                let sum = self.issue_partial_reduce(&mut rec, hs, sumw, den, "14: reduction")?;
                // Steps 15-16: copy Σ to all rows, divide, and read the
                // codes (slot 0), then `v_approx` (slot 1), in input
                // order (halves are concatenated).
                self.issue_divide(&mut rec, hs, den, sum, "15: copy sum")?;
                for f in hs {
                    rec.read(f.vapprox, 1)?;
                }
                sum
            }
            PlanPhase::ShardMin => {
                Self::issue_loads(&mut rec, hs.iter().map(|f| f.x))?;
                rec.step("shard: write v");
                let min = Self::issue_min_search(&mut rec, hs);
                rec.step("shard: min search");
                min
            }
            PlanPhase::ShardExp => {
                if !rearm {
                    Self::issue_loads(&mut rec, hs.iter().map(|f| f.x))?;
                    rec.step("shard: rewrite v");
                }
                let min = rec.reg_input(0)?;
                Self::issue_stabilize(&mut rec, hs, minf, min, "2: subtract max")?;
                self.issue_exp_approx(&mut rec, hs, op)?;
                let sum =
                    self.issue_partial_reduce(&mut rec, hs, sumw, den, "14: partial reduction")?;
                for f in hs {
                    rec.read(f.vapprox, 0)?;
                }
                sum
            }
            PlanPhase::ShardDiv => {
                let mark = if rearm {
                    "shard: write divisor"
                } else {
                    Self::issue_loads(&mut rec, hs.iter().map(|f| f.vapprox))?;
                    "shard: write v_approx + divisor"
                };
                let sum = rec.reg_input(0)?;
                self.issue_divide(&mut rec, hs, den, sum, mark)?;
                sum
            }
        };
        let program = rec.finish();
        // A whole-vector plan's columns run through the divisor field, a
        // shard phase's through the minimum field.
        let cols_used = if phase == PlanPhase::Vector {
            den.end()
        } else {
            minf.end()
        };
        Ok(Issued {
            stats: ap.stats(),
            cols_used,
            result: scratch.reg(reg),
            program: program.map(|p| (p, reg)),
            fields,
        })
    }

    /// Loads input slot `k` into the `k`-th field.
    fn issue_loads(
        rec: &mut Recorder<'_, '_>,
        fields: impl Iterator<Item = Field>,
    ) -> Result<(), ApError> {
        for (slot, f) in fields.enumerate() {
            rec.load(f, slot)?;
        }
        Ok(())
    }

    /// The bit-serial min search over every half's `x`, folded in
    /// program registers. Returns the register holding the minimum.
    fn issue_min_search(rec: &mut Recorder<'_, '_>, halves: &[HalfFields]) -> RegId {
        let mut min: Option<RegId> = None;
        for f in halves {
            let r = rec.min_search(f.x);
            min = Some(match min {
                Some(prev) => rec.reg_min(prev, r),
                None => r,
            });
        }
        min.expect("at least one half")
    }

    /// Broadcast the (global or per-vector) minimum from `min_reg` and
    /// subtract it from every `x`: `x := neg_vstable = |code| - min`.
    fn issue_stabilize(
        rec: &mut Recorder<'_, '_>,
        halves: &[HalfFields],
        minf: Field,
        min_reg: RegId,
        mark: &'static str,
    ) -> Result<(), ApError> {
        rec.broadcast_reg(minf, min_reg)?;
        for f in halves {
            rec.sub_assert_clean(f.x, minf)?;
        }
        rec.step(mark);
        Ok(())
    }

    /// Steps 3-13 of Fig. 5: Barrett range reduction, the polynomial,
    /// and the variable shift producing `v_approx` — identical between
    /// the whole-vector dataflow and the sharded exp phase.
    fn issue_exp_approx(
        &self,
        rec: &mut Recorder<'_, '_>,
        halves: &[HalfFields],
        op: Field,
    ) -> Result<(), ApError> {
        let consts = *self.sm.constants();
        let w = *self.sm.widths();
        let m = self.cfg().m as usize;

        // Steps 3-4: write µ, Barrett multiply + shift -> q̂.
        rec.broadcast(op, consts.mu)?;
        rec.step("3: write mu");
        for f in halves {
            rec.mul(f.x, op, f.work)?;
            rec.shr_const(f.work, 2 * m)?;
            rec.copy(f.work.sub(0, w.q as usize), f.q)?;
        }
        rec.step("4: multiply+shift (barrett)");

        // Steps 5-6: write vln2, multiply q̂ · vln2.
        rec.broadcast(op, consts.vln2)?;
        rec.step("5: write vln2");
        for f in halves {
            rec.mul(f.q, op.sub(0, w.vln2 as usize), f.work)?;
        }
        rec.step("6: multiply q*vln2");

        // Step 7: subtract -> r = neg_vstable - q̂·vln2 (fits M bits).
        for f in halves {
            rec.sub_assert_clean(f.x, f.work.sub(0, m))?;
        }
        rec.step("7: subtract (vcorr)");

        // Steps 8-9: write vb, add: t = vb - r (saturating at zero).
        for f in halves {
            rec.broadcast(f.t, consts.vb)?;
            rec.saturating_sub_into(f.t, f.x)?;
        }
        rec.step("8-9: write vb, add vcorr");

        // Steps 10-11: copy + multiply -> t².
        for f in halves {
            rec.mul(f.t, f.t, f.work)?;
        }
        rec.step("10-11: copy, square");

        // Steps 12-13: write vc, add, then variable shift by q̂.
        rec.broadcast(op, consts.vc)?;
        rec.step("12: write vc");
        for f in halves {
            rec.add_into(f.work.sub(0, w.poly as usize), op.sub(0, w.vc as usize))?;
            rec.shr_variable(f.work.sub(0, w.poly as usize), f.q)?;
            rec.copy(f.work.sub(0, w.vapprox as usize), f.vapprox)?;
        }
        rec.step("13: add+shift (vapprox)");
        Ok(())
    }

    /// Step 14: pair-add the halves, then tree-reduce all rows. The
    /// first (only) segment's sum lands in the returned register.
    ///
    /// v_approx values provably fit the effective sum width (they are
    /// bounded by vb²+vc < 2^used_bits ≤ 2^sum_bits), so when the
    /// allocated v_approx field is wider than the sum register only
    /// the low bits carry information.
    fn issue_partial_reduce(
        &self,
        rec: &mut Recorder<'_, '_>,
        halves: &[HalfFields],
        sumw: Field,
        den: Field,
        mark: &'static str,
    ) -> Result<RegId, ApError> {
        let w = *self.sm.widths();
        let vap_low = (w.vapprox as usize).min(self.sum_bits() as usize);
        rec.copy(halves[0].vapprox.sub(0, vap_low), sumw)?;
        if let Some(f1) = halves.get(1) {
            rec.add_into(sumw, f1.vapprox.sub(0, vap_low))?;
        }
        let rows = rec.rows();
        let sum_reg = rec.reduce_sum(sumw, den, rows, self.overflow_mode())?;
        rec.step(mark);
        Ok(sum_reg)
    }

    /// Broadcast the divisor — the sum in `sum_reg`, a wrapped zero
    /// clamped to 1 like the scalar divisor clamp — into `den` (step
    /// `mark`), divide every half's `v_approx` by it (step 16), and read
    /// the codes out to output slot 0.
    fn issue_divide(
        &self,
        rec: &mut Recorder<'_, '_>,
        halves: &[HalfFields],
        den: Field,
        sum_reg: RegId,
        mark: &'static str,
    ) -> Result<(), ApError> {
        let den_reg = rec.reg_max1(sum_reg);
        rec.broadcast_reg(den, den_reg)?;
        rec.step(mark);
        let f_bits = self.sm.widths().frac_bits() as usize;
        for f in halves {
            rec.divide(f.vapprox, den, f.res, f_bits, self.div_style)?;
        }
        rec.step("16: divide");
        for f in halves {
            rec.read(f.res, 0)?;
        }
        Ok(())
    }

    // ---- analytic cost queries ------------------------------------------

    /// The deterministic representative input the cost tables compile
    /// plans from: a spread over the clip range exercising write-tag
    /// populations broadly (the formula `softmap_eval`'s latency tables
    /// have always characterized with).
    #[must_use]
    pub fn representative_scores(len: usize) -> Vec<f64> {
        (0..len).map(|i| -((i % 97) as f64) * 7.0 / 97.0).collect()
    }

    /// The cache key a vector of `len` elements executes under, given
    /// its untuned shard partition `ranges` (empty when it fits one
    /// tile, and for a tuned key): sharded entries carry the effective
    /// residency of their partition; whole-vector entries are never
    /// resident (a single tile re-stages by definition); a tuned entry
    /// carries the configured axes plus the `tuned` flag — the chosen
    /// layout, partition, and residency live *inside* the
    /// [`TunedPlan`], so the key stays a pure function of the
    /// configuration.
    fn vector_key(&self, len: usize, ranges: &[(usize, usize)], tuned: bool) -> PlanKey {
        PlanKey {
            len,
            layout: self.layout,
            div: self.div_style,
            opt: self.opt_level,
            phase: PlanPhase::Vector,
            resident: !ranges.is_empty() && self.resident_for(ranges.len()),
            tuned,
        }
    }

    /// The cache key of the `phase` program for shards of `len`
    /// elements.
    fn shard_key(&self, len: usize, phase: PlanPhase, resident: bool) -> PlanKey {
        PlanKey {
            phase,
            resident,
            ..self.vector_key(len, &[], false)
        }
    }

    /// The key a cached vector of `len` elements resolves under.
    fn cached_key(&self, len: usize) -> Result<PlanKey, CoreError> {
        let mut ranges = Vec::new();
        if !self.autotune {
            self.partition_into(len, &mut ranges)?;
        }
        Ok(self.vector_key(len, &ranges, self.autotune))
    }

    /// Resolves the vector-level cache entry for length `len`,
    /// compiling one from [`ApSoftmax::representative_scores`] on this
    /// thread's pooled tile if the shape has not been seen yet.
    fn resolve_vector_entry(&self, len: usize) -> Result<CachedPlan, CoreError> {
        if len == 0 {
            return Err(CoreError::EmptyInput);
        }
        let key = self.cached_key(len)?;
        // Observer lookup: a cost query is not a replay, so it must
        // not count as a cache hit.
        if let Some(plan) = self.plans.peek(&key) {
            return Ok(plan);
        }
        let scores = Self::representative_scores(len);
        THREAD_TILE.with(|state| {
            let mut state = state.borrow_mut();
            let mut run = ApSoftmaxRun::default();
            let mut codes = std::mem::take(&mut state.codes);
            self.sm.quantize_into(&scores, &mut codes);
            let result =
                self.execute_codes_mode(&mut state, &codes, &mut run, PlanMode::Cached, None);
            state.codes = codes;
            result
        })?;
        // Observer fetch of the plan the compile just inserted — not a
        // replay, so it must not count as a cache hit.
        self.plans
            .peek(&key)
            .ok_or_else(|| CoreError::BadWorkload("plan compilation did not cache".into()))
    }

    /// The compiled whole-vector plan for vectors of length `len`,
    /// compiling one from [`ApSoftmax::representative_scores`] on this
    /// thread's pooled tile if the shape has not been seen yet.
    ///
    /// # Errors
    ///
    /// Propagates compilation (execution) errors;
    /// [`CoreError::BadWorkload`] for lengths exceeding one tile (use
    /// [`ApSoftmax::sharded_plan`] or the [`ApSoftmax::static_vector_cost`]
    /// query, which cover both regimes).
    pub fn plan(&self, len: usize) -> Result<Arc<CompiledPlan>, CoreError> {
        let entry = match self.resolve_vector_entry(len)? {
            CachedPlan::Tuned(t) => t.plan.clone(),
            other => other,
        };
        match entry {
            CachedPlan::Program(p) => Ok(p),
            _ => Err(CoreError::BadWorkload(format!(
                "length {len} shards across tiles; query sharded_plan/static_vector_cost instead"
            ))),
        }
    }

    /// The compiled sharded plan for vectors of length `len` (the
    /// capacity-exceeding counterpart of [`ApSoftmax::plan`]).
    ///
    /// # Errors
    ///
    /// Propagates compilation errors; [`CoreError::BadWorkload`] for
    /// lengths that fit one tile.
    pub fn sharded_plan(&self, len: usize) -> Result<Arc<ShardedPlan>, CoreError> {
        let entry = match self.resolve_vector_entry(len)? {
            CachedPlan::Tuned(t) => t.plan.clone(),
            other => other,
        };
        match entry {
            CachedPlan::Sharded(p) => Ok(p),
            _ => Err(CoreError::BadWorkload(format!(
                "length {len} fits one tile; query plan/static_vector_cost instead"
            ))),
        }
    }

    /// The autotuned plan for vectors of length `len` — the chosen
    /// mapping and its static cost — compiling one from
    /// [`ApSoftmax::representative_scores`] if the shape has not been
    /// seen yet.
    ///
    /// # Errors
    ///
    /// Propagates compilation errors; [`CoreError::BadWorkload`] when
    /// autotuning is disabled on this mapping.
    pub fn tuned_plan(&self, len: usize) -> Result<Arc<TunedPlan>, CoreError> {
        match self.resolve_vector_entry(len)? {
            CachedPlan::Tuned(t) => Ok(t),
            _ => Err(CoreError::BadWorkload(
                "mapping has autotuning disabled; no tuned plan exists".into(),
            )),
        }
    }

    /// Cycle/cell-event totals for one vector of length `len`, answered
    /// from the compiled plan **without executing anything** once the
    /// shape's plan exists — [`softmap_ap::ApProgram::static_cost`]
    /// surfaced at the mapping level, extended to sharded shapes (all
    /// shards plus the cross-tile reduction charges). The cost is exact
    /// for the input the plan was compiled from (the cost tables
    /// compile from [`ApSoftmax::representative_scores`], so table
    /// queries are deterministic); see the static-cost contract in the
    /// `softmap_ap` program-module docs.
    ///
    /// # Errors
    ///
    /// Propagates compilation (execution) errors.
    pub fn static_cost(&self, len: usize) -> Result<CycleStats, CoreError> {
        Ok(self.static_vector_cost(len)?.total)
    }

    /// The full static device view for one vector of length `len`:
    /// total work, shard count, waves, reduction charges, and the
    /// device critical path — for both regimes (`shards == 1` when the
    /// vector fits one tile).
    ///
    /// # Errors
    ///
    /// Propagates compilation (execution) errors.
    pub fn static_vector_cost(&self, len: usize) -> Result<VectorCost, CoreError> {
        Ok(Self::entry_vector_cost(&self.resolve_vector_entry(len)?))
    }

    /// The static device view a cache entry answers with (a tuned
    /// entry answers with its plan's recorded cost).
    fn entry_vector_cost(entry: &CachedPlan) -> VectorCost {
        match entry {
            CachedPlan::Program(p) => {
                let total = p.program().static_cost();
                VectorCost {
                    total,
                    latency_cycles: total.cycles(),
                    shards: 1,
                    waves: 1,
                    reduction: CycleStats::default(),
                }
            }
            CachedPlan::Sharded(p) => VectorCost {
                total: p.total(),
                latency_cycles: p.latency_cycles(),
                shards: p.shards(),
                waves: p.waves(),
                reduction: p.reduction(),
            },
            CachedPlan::Tuned(t) => t.winner_cost,
        }
    }

    /// Per-step static costs for one vector of length `len` (the
    /// analytic counterpart of [`ApSoftmaxRun::steps`]; phase-level
    /// aggregated steps for a sharded shape).
    ///
    /// # Errors
    ///
    /// Propagates compilation (execution) errors.
    pub fn static_step_stats(&self, len: usize) -> Result<Vec<StepStats>, CoreError> {
        let entry = match self.resolve_vector_entry(len)? {
            // A tuned entry replays its plan, so its step breakdown is
            // the plan's.
            CachedPlan::Tuned(t) => t.plan.clone(),
            other => other,
        };
        match entry {
            CachedPlan::Program(p) => Ok(p
                .program()
                .static_steps()
                .iter()
                .map(|&(name, stats)| StepStats { name, stats })
                .collect()),
            CachedPlan::Sharded(p) => Ok(p.steps.clone()),
            CachedPlan::Tuned(_) => unreachable!("tuned plans never nest"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use softmap_softmax::IntSoftmax;

    // The four `*_env_*` tests keep their names from when an environment
    // variable could override each default. Each now checks the default
    // set in code and the builder that overrides it; that the former
    // variables change nothing is checked end to end by
    // `crates/eval/tests/cli.rs::the_former_environment_knobs_change_nothing`.

    fn fresh() -> ApSoftmax {
        ApSoftmax::new(PrecisionConfig::paper_best()).unwrap()
    }

    #[test]
    fn resident_env_overrides() {
        assert!(fresh().resident());
        assert!(!fresh().with_resident(false).resident());
    }

    #[test]
    fn blocked_env_overrides_knob() {
        assert!(fresh().blocked());
        assert!(!fresh().with_blocked(false).blocked());
    }

    #[test]
    fn opt_env_selects_mapping_default() {
        assert_eq!(OptLevel::default(), OptLevel::Full);
        assert_eq!(fresh().opt_level(), OptLevel::Full);
        assert_eq!(
            fresh().with_opt_level(OptLevel::None).opt_level(),
            OptLevel::None
        );
    }

    #[test]
    fn autotune_env_overrides() {
        assert!(fresh().autotune());
        assert!(!fresh().with_autotune(false).autotune());
    }

    /// The escape hatch restores the op-by-op replay path with results
    /// and cost identical to the blocked default.
    #[test]
    fn blocked_and_unblocked_runs_are_identical() {
        let cfg = PrecisionConfig::paper_best();
        let scores: Vec<f64> = (0..512).map(|i| -(f64::from(i) * 0.31) % 7.3).collect();
        let blocked = ApSoftmax::new(cfg).unwrap();
        let unblocked = ApSoftmax::new(cfg).unwrap().with_blocked(false);
        for sm in [&blocked, &unblocked] {
            // Warm the cache so the compared runs are pure replays.
            sm.execute_floats(&scores).unwrap();
        }
        let b = blocked.execute_floats(&scores).unwrap();
        let u = unblocked.execute_floats(&scores).unwrap();
        assert_eq!(b.codes, u.codes);
        assert_eq!(b.vapprox, u.vapprox);
        assert_eq!(b.sum, u.sum);
        assert_eq!(b.total, u.total, "blocking must not change the device cost");
        assert_eq!(b.latency_cycles, u.latency_cycles);
    }

    fn assert_bit_exact(cfg: PrecisionConfig, scores: &[f64], layout: Layout) {
        let scalar = IntSoftmax::new(cfg).unwrap().run_floats(scores).unwrap();
        let run = ApSoftmax::new(cfg)
            .unwrap()
            .with_layout(layout)
            .execute_floats(scores)
            .unwrap();
        assert_eq!(run.vapprox, scalar.vapprox, "vapprox mismatch");
        assert_eq!(run.sum, scalar.sum, "sum mismatch");
        assert_eq!(run.codes, scalar.codes, "codes mismatch");
    }

    #[test]
    fn packed_layout_matches_scalar() {
        let scores = [0.0, -0.7, -1.9, -3.2, -0.1, -5.5, -2.2, -6.9];
        assert_bit_exact(
            PrecisionConfig::paper_best(),
            &scores,
            Layout::TwoWordsPerRow,
        );
    }

    #[test]
    fn unpacked_layout_matches_scalar() {
        let scores = [0.0, -0.7, -1.9, -3.2, -0.1, -5.5, -2.2];
        assert_bit_exact(
            PrecisionConfig::paper_best(),
            &scores,
            Layout::OneWordPerRow,
        );
    }

    #[test]
    fn all_paper_precisions_match_scalar() {
        let scores: Vec<f64> = (0..16).map(|i| -(f64::from(i) * 0.47) % 6.8).collect();
        for m in [4, 6, 8] {
            for delta in [0, 1, 2] {
                for n in [8, 16] {
                    let cfg = PrecisionConfig::new(m, delta, n);
                    assert_bit_exact(cfg, &scores, Layout::TwoWordsPerRow);
                }
            }
        }
    }

    #[test]
    fn reciprocal_division_close_to_scalar() {
        let cfg = PrecisionConfig::paper_best();
        let scores = [0.0, -0.5, -1.5, -2.5];
        let scalar = IntSoftmax::new(cfg).unwrap().run_floats(&scores).unwrap();
        let run = ApSoftmax::new(cfg)
            .unwrap()
            .with_div_style(DivStyle::ControllerReciprocal)
            .execute_floats(&scores)
            .unwrap();
        for (got, want) in run.codes.iter().zip(&scalar.codes) {
            assert!(got <= want && want - got <= 1, "got {got}, want {want}");
        }
    }

    #[test]
    fn step_names_follow_fig5() {
        let run = ApSoftmax::new(PrecisionConfig::paper_best())
            .unwrap()
            .execute_floats(&[0.0, -1.0, -2.0, -3.0])
            .unwrap();
        let names: Vec<_> = run.steps.iter().map(|s| s.name).collect();
        assert_eq!(names.first().copied(), Some("1: write v"));
        assert_eq!(names.last().copied(), Some("16: divide"));
        assert_eq!(run.steps.len(), 14);
        // total equals the sum of the steps
        let total: u64 = run.steps.iter().map(|s| s.stats.cycles()).sum();
        assert_eq!(total, run.total.cycles());
    }

    #[test]
    fn division_dominates_runtime() {
        // The restoring divider is the most expensive step — the
        // motivation for the ControllerReciprocal ablation.
        let run = ApSoftmax::new(PrecisionConfig::paper_best())
            .unwrap()
            .execute_floats(&[0.0, -1.0, -2.0, -3.0])
            .unwrap();
        let divide = run
            .steps
            .iter()
            .find(|s| s.name == "16: divide")
            .unwrap()
            .stats
            .cycles();
        assert!(divide * 2 > run.total.cycles());
    }

    #[test]
    fn saturating_sum_matches_scalar_on_long_flat_input() {
        let cfg = PrecisionConfig::new(6, 0, 8);
        let scores = vec![0.0; 1024];
        let scalar = IntSoftmax::new(cfg).unwrap().run_floats(&scores).unwrap();
        assert!(scalar.sum_overflowed);
        let run = ApSoftmax::new(cfg)
            .unwrap()
            .execute_floats(&scores)
            .unwrap();
        assert_eq!(run.sum, scalar.sum);
        assert_eq!(run.codes, scalar.codes);
    }

    #[test]
    fn empty_input_rejected() {
        let apsm = ApSoftmax::new(PrecisionConfig::paper_best()).unwrap();
        assert!(matches!(
            apsm.execute_floats(&[]),
            Err(CoreError::EmptyInput)
        ));
    }

    #[test]
    fn fast_backend_is_bit_and_cycle_identical_end_to_end() {
        let scores: Vec<f64> = (0..96).map(|i| -(f64::from(i) * 0.37) % 6.9).collect();
        for style in [DivStyle::Restoring, DivStyle::ControllerReciprocal] {
            let micro = ApSoftmax::new(PrecisionConfig::paper_best())
                .unwrap()
                .with_div_style(style)
                .execute_floats(&scores)
                .unwrap();
            let fast = ApSoftmax::new(PrecisionConfig::paper_best())
                .unwrap()
                .with_div_style(style)
                .with_backend(softmap_ap::ExecBackend::FastWord)
                .execute_floats(&scores)
                .unwrap();
            assert_eq!(micro.codes, fast.codes);
            assert_eq!(micro.vapprox, fast.vapprox);
            assert_eq!(micro.sum, fast.sum);
            assert_eq!(micro.total, fast.total, "cycle stats must be identical");
            for (m, f) in micro.steps.iter().zip(&fast.steps) {
                assert_eq!(m.stats, f.stats, "step {} diverges", m.name);
            }
        }
    }

    #[test]
    fn batch_matches_individual_runs() {
        let mapping = ApSoftmax::new(PrecisionConfig::paper_best())
            .unwrap()
            .with_backend(softmap_ap::ExecBackend::FastWord);
        let batch: Vec<Vec<f64>> = (0..9)
            .map(|v| {
                (0..32)
                    .map(|i| -((v * 7 + i) as f64 * 0.21) % 6.5)
                    .collect()
            })
            .collect();
        let runs = mapping.execute_batch_floats(&batch).unwrap();
        assert_eq!(runs.len(), batch.len());
        for (run, scores) in runs.iter().zip(&batch) {
            let single = mapping.execute_floats(scores).unwrap();
            assert_eq!(run.codes, single.codes);
            assert_eq!(run.total, single.total);
        }
        let agg = ApSoftmax::batch_stats(&runs);
        assert_eq!(agg.tiles, 9);
        assert!(agg.makespan_cycles > 0);
        assert!(agg.total.cycles() >= agg.makespan_cycles * 9 / 10);
        // One shape across the whole batch: exactly one compile, the
        // rest replays from the shared cache.
        assert_eq!(mapping.plan_stats().compiles, 1);
    }

    #[test]
    fn batch_propagates_errors() {
        let mapping = ApSoftmax::new(PrecisionConfig::paper_best()).unwrap();
        let batch = vec![vec![0.0, -1.0], vec![]];
        assert!(matches!(
            mapping.execute_batch_floats(&batch),
            Err(CoreError::EmptyInput)
        ));
    }

    #[test]
    fn replay_matches_direct_issue_exactly() {
        let cfg = PrecisionConfig::paper_best();
        let warm: Vec<f64> = (0..24).map(|i| -(f64::from(i) * 0.11) % 6.0).collect();
        let scores: Vec<f64> = (0..24).map(|i| -(f64::from(i) * 0.29) % 6.8).collect();
        for layout in [Layout::TwoWordsPerRow, Layout::OneWordPerRow] {
            for style in [DivStyle::Restoring, DivStyle::ControllerReciprocal] {
                let direct = ApSoftmax::new(cfg)
                    .unwrap()
                    .with_layout(layout)
                    .with_div_style(style)
                    .with_plan_mode(PlanMode::DirectIssue)
                    .execute_floats(&scores)
                    .unwrap();
                // OptLevel::None replays the recorded trace
                // byte-for-byte: every number matches direct issue.
                let cached = ApSoftmax::new(cfg)
                    .unwrap()
                    .with_layout(layout)
                    .with_div_style(style)
                    .with_opt_level(OptLevel::None)
                    .unwrap_execute_pair(&warm, &scores);
                assert_eq!(cached.codes, direct.codes);
                assert_eq!(cached.vapprox, direct.vapprox);
                assert_eq!(cached.sum, direct.sum);
                assert_eq!(cached.total, direct.total);
                assert_eq!(cached.steps, direct.steps);
                // The default level stays bit-exact on every output
                // while the fused schedule costs strictly less.
                let optimized = ApSoftmax::new(cfg)
                    .unwrap()
                    .with_layout(layout)
                    .with_div_style(style)
                    .with_opt_level(OptLevel::Full)
                    .unwrap_execute_pair(&warm, &scores);
                assert_eq!(optimized.codes, direct.codes);
                assert_eq!(optimized.vapprox, direct.vapprox);
                assert_eq!(optimized.sum, direct.sum);
                assert!(
                    optimized.total.cycles() < direct.total.cycles(),
                    "{layout:?}/{style:?}: fused schedule must be cheaper"
                );
            }
        }
    }

    #[test]
    fn opt_levels_coexist_in_plan_cache() {
        let scores: Vec<f64> = (0..16).map(|i| -(f64::from(i) * 0.31) % 6.1).collect();
        let optimized = ApSoftmax::new(PrecisionConfig::paper_best())
            .unwrap()
            .with_opt_level(OptLevel::Full);
        // Clones share the cache; the opt level is part of the key.
        let baseline = optimized.clone().with_opt_level(OptLevel::None);
        let fast = optimized.execute_floats(&scores).unwrap();
        let slow = baseline.execute_floats(&scores).unwrap();
        assert_eq!(fast.codes, slow.codes);
        assert!(fast.total.cycles() < slow.total.cycles());
        let stats = optimized.plan_stats();
        assert_eq!(stats.plans, 2, "same shape, two levels: two entries");
        assert_eq!(stats.compiles, 2);
        assert_eq!(stats.evictions, 0);
        // Each level replays its own entry — no eviction confusion, no
        // recompiles.
        optimized.execute_floats(&scores).unwrap();
        baseline.execute_floats(&scores).unwrap();
        let stats = optimized.plan_stats();
        assert_eq!(stats.compiles, 2, "replays must hit, not recompile");
        assert!(stats.hits >= 2);
        assert_eq!(stats.evictions, 0);

        // At capacity 1 the two levels thrash the LRU: each compile
        // evicts the other level's entry and the counter stays exact.
        let tight = ApSoftmax::new(PrecisionConfig::paper_best())
            .unwrap()
            .with_plan_capacity(1)
            .with_opt_level(OptLevel::Full);
        let tight_base = tight.clone().with_opt_level(OptLevel::None);
        tight.execute_floats(&scores).unwrap();
        tight_base.execute_floats(&scores).unwrap();
        tight.execute_floats(&scores).unwrap();
        let stats = tight.plan_stats();
        assert_eq!(stats.plans, 1);
        assert_eq!(stats.compiles, 3, "thrashing recompiles every time");
        assert_eq!(stats.evictions, 2);
    }

    #[test]
    fn static_cost_matches_executed_representative() {
        let mapping = ApSoftmax::new(PrecisionConfig::paper_best()).unwrap();
        let len = 64;
        let cost = mapping.static_cost(len).unwrap();
        let run = mapping
            .execute_floats(&ApSoftmax::representative_scores(len))
            .unwrap();
        assert_eq!(cost, run.total);
        let steps = mapping.static_step_stats(len).unwrap();
        assert_eq!(steps, run.steps);
        assert_eq!(mapping.plan_stats().compiles, 1);
        assert!(mapping.plan(len).unwrap().compile_micros() > 0.0);
    }

    #[test]
    fn clear_plans_invalidates_slots_and_recompiles() {
        let mapping = ApSoftmax::new(PrecisionConfig::paper_best()).unwrap();
        let mut state = TileState::new();
        let mut run = ApSoftmaxRun::default();
        let scores = [0.0, -1.0, -2.0, -3.0];
        mapping
            .execute_floats_into(&mut state, &scores, &mut run)
            .unwrap();
        let first = run.codes.clone();
        assert_eq!(mapping.plan_stats().compiles, 1);
        mapping.clear_plans();
        mapping
            .execute_floats_into(&mut state, &scores, &mut run)
            .unwrap();
        assert_eq!(run.codes, first);
        assert_eq!(
            mapping.plan_stats().compiles,
            2,
            "cleared cache must recompile, not reuse the stale slot"
        );
    }

    impl ApSoftmax {
        /// Test helper: executes `warm` (compiling the plan), then
        /// `scores` (replaying it), returning the second run.
        fn unwrap_execute_pair(&self, warm: &[f64], scores: &[f64]) -> ApSoftmaxRun {
            self.execute_floats(warm).unwrap();
            let run = self.execute_floats(scores).unwrap();
            assert!(self.plan_stats().hits >= 1, "second run must replay");
            run
        }
    }

    // ---- sharded long-sequence execution ---------------------------------

    fn tiny_device() -> DeviceConfig {
        DeviceConfig::new(2, 4)
    }

    #[test]
    fn sharded_execution_matches_scalar_spec() {
        let cfg = PrecisionConfig::paper_best();
        let spec = IntSoftmax::new(cfg).unwrap();
        for backend in [ExecBackend::Microcode, ExecBackend::FastWord] {
            for layout in [Layout::TwoWordsPerRow, Layout::OneWordPerRow] {
                // 9: odd tail; 16: exact shards; 33: odd oversized tail
                // at the packed layout (peeled singleton shard).
                for len in [9usize, 16, 33] {
                    let scores: Vec<f64> = (0..len).map(|i| -((i as f64) * 0.37) % 6.9).collect();
                    let scalar = spec.run_floats(&scores).unwrap();
                    let run = ApSoftmax::new(cfg)
                        .unwrap()
                        .with_layout(layout)
                        .with_backend(backend)
                        .with_device(tiny_device())
                        .execute_floats(&scores)
                        .unwrap();
                    assert!(run.shards > 1, "{backend:?}/{layout:?}/{len} must shard");
                    assert_eq!(run.vapprox, scalar.vapprox, "{backend:?}/{layout:?}/{len}");
                    assert_eq!(run.sum, scalar.sum, "{backend:?}/{layout:?}/{len}");
                    assert_eq!(run.codes, scalar.codes, "{backend:?}/{layout:?}/{len}");
                }
            }
        }
    }

    #[test]
    fn sharded_matches_whole_vector_bit_exact() {
        // The same vector through both regimes: whole (default device,
        // fits one tile) and forced sharding (tiny device).
        let cfg = PrecisionConfig::paper_best();
        let scores: Vec<f64> = (0..64).map(|i| -(f64::from(i) * 0.21) % 6.3).collect();
        for style in [DivStyle::Restoring, DivStyle::ControllerReciprocal] {
            let whole = ApSoftmax::new(cfg)
                .unwrap()
                .with_autotune(false)
                .with_div_style(style)
                .execute_floats(&scores)
                .unwrap();
            assert_eq!(whole.shards, 1);
            assert_eq!(whole.latency_cycles, whole.total.cycles());
            let sharded = ApSoftmax::new(cfg)
                .unwrap()
                .with_autotune(false)
                .with_div_style(style)
                .with_device(DeviceConfig::new(2, 8))
                .execute_floats(&scores)
                .unwrap();
            assert_eq!(sharded.shards, 4);
            assert_eq!(sharded.waves, 2);
            assert_eq!(sharded.codes, whole.codes, "{style:?}");
            assert_eq!(sharded.vapprox, whole.vapprox, "{style:?}");
            assert_eq!(sharded.sum, whole.sum, "{style:?}");
        }
    }

    #[test]
    fn sharded_replay_matches_direct_issue_exactly() {
        let cfg = PrecisionConfig::paper_best();
        let warm: Vec<f64> = (0..24).map(|i| -(f64::from(i) * 0.11) % 6.0).collect();
        let scores: Vec<f64> = (0..24).map(|i| -(f64::from(i) * 0.29) % 6.8).collect();
        for backend in [ExecBackend::Microcode, ExecBackend::FastWord] {
            let direct = ApSoftmax::new(cfg)
                .unwrap()
                .with_backend(backend)
                .with_device(tiny_device())
                .with_plan_mode(PlanMode::DirectIssue)
                .execute_floats(&scores)
                .unwrap();
            let cached = ApSoftmax::new(cfg)
                .unwrap()
                .with_autotune(false)
                .with_backend(backend)
                .with_device(tiny_device())
                .with_opt_level(OptLevel::None)
                .unwrap_execute_pair(&warm, &scores);
            assert!(direct.shards > 1);
            assert_eq!(cached.codes, direct.codes);
            assert_eq!(cached.vapprox, direct.vapprox);
            assert_eq!(cached.sum, direct.sum);
            assert_eq!(cached.total, direct.total, "{backend:?} cycle stats");
            assert_eq!(cached.latency_cycles, direct.latency_cycles);
            assert_eq!(cached.steps, direct.steps);
            // The default level: bit-exact outputs, strictly cheaper
            // (fused phase schedules plus the resident-broadcast
            // discount on every shard after the first).
            let optimized = ApSoftmax::new(cfg)
                .unwrap()
                .with_autotune(false)
                .with_backend(backend)
                .with_device(tiny_device())
                .with_opt_level(OptLevel::Full)
                .unwrap_execute_pair(&warm, &scores);
            assert_eq!(optimized.codes, direct.codes);
            assert_eq!(optimized.vapprox, direct.vapprox);
            assert_eq!(optimized.sum, direct.sum);
            assert!(
                optimized.total.cycles() < direct.total.cycles(),
                "{backend:?}: sharded fused schedule must be cheaper"
            );
            assert!(optimized.latency_cycles < direct.latency_cycles);
        }
    }

    #[test]
    fn sharded_static_vector_cost_matches_simulated() {
        let mapping = ApSoftmax::new(PrecisionConfig::paper_best())
            .unwrap()
            .with_device(tiny_device());
        let len = 40;
        let vc = mapping.static_vector_cost(len).unwrap();
        assert!(vc.shards > 1);
        assert!(vc.reduction.cycles() > 0);
        let run = mapping
            .execute_floats(&ApSoftmax::representative_scores(len))
            .unwrap();
        assert_eq!(vc.total, run.total, "static total != simulated");
        assert_eq!(vc.latency_cycles, run.latency_cycles);
        assert_eq!(vc.shards, run.shards);
        assert_eq!(vc.waves, run.waves);
        assert_eq!(vc.reduction, run.reduction);
        assert_eq!(mapping.static_cost(len).unwrap(), run.total);
        assert_eq!(mapping.static_step_stats(len).unwrap(), run.steps);
        // Step segments account for every cycle, reductions included.
        let step_total: u64 = run.steps.iter().map(|s| s.stats.cycles()).sum();
        assert_eq!(step_total, run.total.cycles());
        // The sharded plan is queryable; the whole-vector query rejects.
        assert_eq!(mapping.sharded_plan(len).unwrap().shards(), vc.shards);
        assert!(matches!(mapping.plan(len), Err(CoreError::BadWorkload(_))));
    }

    #[test]
    fn sharded_latency_beats_single_tile_serialization() {
        // With more tiles, the same shards spread across the grid: the
        // critical path must shrink while total work stays identical.
        // Pinned re-staged: under residency, work is grid-*dependent*
        // by design (a one-tile grid cannot keep four shards pinned),
        // which the resident assertions below characterize.
        let cfg = PrecisionConfig::paper_best();
        let scores: Vec<f64> = (0..64).map(|i| -(f64::from(i) * 0.17) % 5.9).collect();
        let narrow = ApSoftmax::new(cfg)
            .unwrap()
            .with_autotune(false)
            .with_resident(false)
            .with_device(DeviceConfig::new(1, 8))
            .execute_floats(&scores)
            .unwrap();
        let wide = ApSoftmax::new(cfg)
            .unwrap()
            .with_autotune(false)
            .with_resident(false)
            .with_device(DeviceConfig::new(4, 8))
            .execute_floats(&scores)
            .unwrap();
        assert_eq!(narrow.total, wide.total, "work is grid-independent");
        assert!(wide.latency_cycles < narrow.latency_cycles);
        assert_eq!(narrow.waves, 4);
        assert_eq!(wide.waves, 1);

        // Residency: the one-tile grid falls back to re-staging (bit-
        // and cycle-identical to the pinned path above); the wide grid
        // pins its shards and does strictly less work.
        let narrow_res = ApSoftmax::new(cfg)
            .unwrap()
            .with_autotune(false)
            .with_device(DeviceConfig::new(1, 8))
            .execute_floats(&scores)
            .unwrap();
        assert_eq!(narrow_res.codes, narrow.codes);
        assert_eq!(narrow_res.total, narrow.total, "fallback re-stages");
        let wide_res = ApSoftmax::new(cfg)
            .unwrap()
            .with_autotune(false)
            .with_device(DeviceConfig::new(4, 8))
            .execute_floats(&scores)
            .unwrap();
        assert_eq!(wide_res.codes, wide.codes, "residency is bit-exact");
        assert!(
            wide_res.total.cycles() < wide.total.cycles(),
            "resident work {} should undercut re-staged {}",
            wide_res.total.cycles(),
            wide.total.cycles()
        );
    }

    #[test]
    fn sharded_batch_matches_individual_runs() {
        let mapping = ApSoftmax::new(PrecisionConfig::paper_best())
            .unwrap()
            .with_backend(ExecBackend::FastWord)
            .with_device(tiny_device());
        let batch: Vec<Vec<f64>> = (0..6)
            .map(|v| {
                (0..24)
                    .map(|i| -((v * 7 + i) as f64 * 0.21) % 6.5)
                    .collect()
            })
            .collect();
        let runs = mapping.execute_batch_floats(&batch).unwrap();
        for (run, scores) in runs.iter().zip(&batch) {
            let single = mapping.execute_floats(scores).unwrap();
            assert_eq!(run.codes, single.codes);
            assert_eq!(run.total, single.total);
        }
        // One vector shape: one sharded plan + its phase programs, no
        // recompiles across workers.
        let stats = mapping.plan_stats();
        assert!(
            stats.compiles <= 7,
            "one shape must compile at most 1 sharded + 6 phase plans (got {})",
            stats.compiles
        );
    }

    #[test]
    fn plan_cache_eviction_bounds_memory() {
        let mapping = ApSoftmax::new(PrecisionConfig::paper_best())
            .unwrap()
            .with_plan_capacity(2);
        for len in [8usize, 10, 12] {
            let scores: Vec<f64> = (0..len).map(|i| -(i as f64) * 0.3).collect();
            mapping.execute_floats(&scores).unwrap();
        }
        let stats = mapping.plan_stats();
        assert!(
            stats.plans <= 2,
            "LRU cap must hold (plans = {})",
            stats.plans
        );
        assert!(stats.evictions >= 1, "three shapes at cap 2 must evict");
        assert_eq!(stats.compiles, 3);
        // The evicted shape recompiles and still answers correctly.
        let scores: Vec<f64> = (0..8).map(|i| -(f64::from(i)) * 0.3).collect();
        let run = mapping.execute_floats(&scores).unwrap();
        let scalar = IntSoftmax::new(*mapping.spec().config())
            .unwrap()
            .run_floats(&scores)
            .unwrap();
        assert_eq!(run.codes, scalar.codes);
        assert_eq!(mapping.plan_stats().compiles, 4, "evicted shape recompiles");
    }

    #[test]
    fn autotuned_strictly_beats_default_at_4096() {
        // The pinned strict-improvement length: 4096 packed fills one
        // tile exactly; the tuner's one-word-per-row mapping runs the
        // sixteen-step dataflow once (sharded resident in lockstep)
        // instead of once per packed half, roughly halving cycles.
        let tuned = ApSoftmax::new(PrecisionConfig::paper_best()).unwrap();
        assert!(tuned.autotune(), "autotuning is on by default");
        let untuned = tuned.clone().with_autotune(false);
        let scores = ApSoftmax::representative_scores(4096);
        let t = tuned.execute_floats(&scores).unwrap();
        let u = untuned.execute_floats(&scores).unwrap();
        assert_eq!(t.codes, u.codes, "tuned output must stay bit-exact");
        assert_eq!(t.vapprox, u.vapprox);
        assert_eq!(t.sum, u.sum);
        assert!(
            t.total.cycles() < u.total.cycles(),
            "tuned {} must strictly beat default {}",
            t.total.cycles(),
            u.total.cycles()
        );
        // static == simulated for the tuned plan, which beats the
        // untuned mapping's static cost, compiling one mapping.
        let plan = tuned.tuned_plan(4096).unwrap();
        assert!(plan.improved());
        assert_eq!(plan.winner_cost().total, t.total);
        let default = untuned.static_cost(4096).unwrap();
        assert_eq!(default, u.total);
        assert!(plan.winner_cost().total.cycles() < default.cycles());
        assert_eq!(tuned.static_cost(4096).unwrap(), t.total);
        let stats = tuned.cache_stats();
        assert_eq!(stats.shapes_tuned, 1);
        assert_eq!(stats.tuned_wins, 1);
        assert_eq!(stats.candidates_scored, 1);
        // The untuned view never consults the tuner.
        assert!(matches!(
            untuned.tuned_plan(4096),
            Err(CoreError::BadWorkload(_))
        ));
    }

    #[test]
    fn autotuned_pinned_layout_keeps_default_mapping() {
        // with_layout pins the tuner's layout; a whole-vector shape
        // then has no alternative, so the rule compiles the default.
        let tuned = ApSoftmax::new(PrecisionConfig::paper_best())
            .unwrap()
            .with_layout(Layout::TwoWordsPerRow);
        let scores = ApSoftmax::representative_scores(256);
        tuned.execute_floats(&scores).unwrap();
        let plan = tuned.tuned_plan(256).unwrap();
        assert_eq!(tuned.cache_stats().candidates_scored, 1, "one compile");
        assert!(!plan.improved());
        assert_eq!(plan.choice().layout, Layout::TwoWordsPerRow);
        assert_eq!(tuned.cache_stats().tuned_wins, 0);
    }

    #[test]
    fn tuned_and_untuned_keys_coexist_and_thrash_is_counted() {
        // Satellite regression: the tuned axis enlarges the key space,
        // so a tuned and an untuned mapping sharing one cache must (a)
        // coexist without shadowing each other at default capacity and
        // (b) keep the eviction counter honest when the capacity is too
        // small to hold both.
        let cfg = PrecisionConfig::paper_best();
        let scores = ApSoftmax::representative_scores(64);

        // (a) coexistence: one shape, two entries, bit-equal outputs.
        let tuned = ApSoftmax::new(cfg).unwrap();
        let untuned = tuned.clone().with_autotune(false);
        let t = tuned.execute_floats(&scores).unwrap();
        let u = untuned.execute_floats(&scores).unwrap();
        assert_eq!(t.codes, u.codes);
        let stats = tuned.plan_stats();
        assert_eq!(stats.plans, 2, "tuned + untuned entries coexist");
        assert_eq!(stats.evictions, 0);
        // Replays hit their own entries, no recompiles.
        tuned.execute_floats(&scores).unwrap();
        untuned.execute_floats(&scores).unwrap();
        let stats = tuned.plan_stats();
        assert_eq!(stats.compiles, 2);
        assert!(stats.hits >= 2);

        // (b) capacity thrash: cap 1 forces the two keys to evict each
        // other; every eviction is counted and outputs stay correct.
        let tuned = ApSoftmax::new(cfg).unwrap().with_plan_capacity(1);
        let untuned = tuned.clone().with_autotune(false);
        let t1 = tuned.execute_floats(&scores).unwrap();
        let u1 = untuned.execute_floats(&scores).unwrap();
        let t2 = tuned.execute_floats(&scores).unwrap();
        assert_eq!(t1.codes, u1.codes);
        assert_eq!(t1.codes, t2.codes);
        assert_eq!(t1.total, t2.total, "recompiled tuned plan is deterministic");
        let stats = tuned.plan_stats();
        assert_eq!(stats.plans, 1, "cap 1 holds one entry");
        assert_eq!(stats.compiles, 3, "each swap recompiles");
        assert_eq!(stats.evictions, 2, "both swaps must be counted");
    }

    #[test]
    fn sharded_block_stats_report_engagement_from_the_phase_programs() {
        // 2048-row shards clear the 512-row admission floor; 64-row
        // shards stay op-by-op, though their regions are still planned.
        let long = ApSoftmax::new(PrecisionConfig::paper_best())
            .unwrap()
            .with_blocked(true);
        let stats = long.sharded_plan(16384).unwrap().block_stats().unwrap();
        assert!(stats.engaged, "{stats}");
        let tiny = ApSoftmax::new(PrecisionConfig::paper_best())
            .unwrap()
            .with_blocked(true)
            .with_device(DeviceConfig::new(4, 64));
        let stats = tiny.sharded_plan(512).unwrap().block_stats().unwrap();
        assert!(!stats.engaged, "{stats}");
        assert!(stats.regions >= 1, "{stats}");
    }

    #[test]
    fn non_finite_scores_follow_the_spec_on_both_backends() {
        let cfg = PrecisionConfig::paper_best();
        let spec = IntSoftmax::new(cfg).unwrap();
        let (nan, inf) = (f64::NAN, f64::INFINITY);
        for backend in [ExecBackend::Microcode, ExecBackend::FastWord] {
            let m = ApSoftmax::new(cfg).unwrap().with_backend(backend);
            for (row, index) in [
                (vec![0.0, nan, -3.0, -4.0], 1),
                (vec![nan; 4], 0),
                (vec![-inf; 4], 0),
            ] {
                assert_eq!(
                    m.execute_floats(&row).unwrap_err(),
                    CoreError::NonFinite(index)
                );
                let batch = m.execute_batch_floats(&[vec![0.0, -1.0], row]);
                assert_eq!(batch.unwrap_err(), CoreError::NonFinite(index));
            }
            // Infinities that pass keep the spec's results, sharded too.
            let mut long = ApSoftmax::representative_scores(6000);
            long[17] = -inf;
            for row in [vec![inf, 0.0, inf, -3.0], vec![0.0, -inf, -3.0, -4.0], long] {
                let run = m.execute_floats(&row).unwrap();
                let want = spec.run_floats(&row).unwrap();
                assert_eq!(run.codes, want.codes, "{backend:?}");
                assert_eq!(run.sum, want.sum, "{backend:?}");
            }
        }
    }

    #[test]
    fn batch_stats_on_respects_grid() {
        let mapping = ApSoftmax::new(PrecisionConfig::paper_best()).unwrap();
        let batch: Vec<Vec<f64>> = (0..4).map(|_| vec![0.0, -1.0, -2.0, -3.0]).collect();
        let runs = mapping.execute_batch_floats(&batch).unwrap();
        let unbounded = ApSoftmax::batch_stats(&runs);
        let grid = ApSoftmax::batch_stats_on(&runs, 2);
        assert_eq!(unbounded.waves, 1);
        assert_eq!(grid.waves, 2);
        assert_eq!(grid.total, unbounded.total);
        assert!(grid.makespan_cycles >= unbounded.makespan_cycles * 2);
    }
}
