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
//! flow through program registers). [`ApSoftmax`] therefore compiles
//! each shape once into a [`softmap_ap::ApProgram`] — it traces the
//! dataflow without executing it, runs the optimizer passes and plans
//! the blocking, then prices the program by one costing replay of the
//! shape's first vector — caches it in a shape-keyed
//! [`crate::PlanCache`], and every further vector of that shape
//! executes as load → replay → read with no per-op host dispatch (and
//! zero heap allocations through a warmed [`TileState`]). The compiled
//! program also answers analytic cost queries without touching a CAM:
//! see [`ApSoftmax::static_vector_cost`].
//!
//! # One generator, one executor, one lookup
//!
//! Every vector runs as a partition into shards, one per tile. A vector
//! that fits one tile is a partition of one shard, whose one phase is
//! the whole sixteen-step dataflow; a longer vector runs **sharded**
//! across the device's tile grid, in three phases per shard — min
//! search, exponential with a partial sum, divide — around two
//! cross-tile reductions (see the `fanout` submodule). One generator
//! issues every program: the whole dataflow and each shard phase,
//! resident (pinned tiles at one union geometry) or re-staged. One
//! executor runs every vector in every mode — direct issue, compile,
//! replay — over chunks of shards: one chunk on the calling thread for
//! [`ApSoftmax::execute_codes_into`], one per worker when
//! [`crate::SoftmaxServer`] replays a long request, which idle workers
//! may then help with. One mapping function (the autotuner's rule,
//! `mapping::autotune`) gives every vector its layout and partition,
//! and one plan lookup (tile slot → shared cache → compile lock →
//! re-check → compile → insert) resolves every vector's plan.

use std::sync::Arc;

use softmap_ap::batch;
use softmap_ap::device::DeviceConfig;
use softmap_ap::program::{optimizer, ExecIo, ProgramScratch, Recorder};
use softmap_ap::{
    ApConfig, ApCore, ApError, ApProgram, ApTile, CycleStats, DivStyle, ExecBackend, Field,
    OptLevel, Overflow, RegId,
};
use softmap_softmax::{IntSoftmax, PrecisionConfig, SumMode};

use crate::plan::{
    CacheStats, CachedPlan, CompiledPlan, PlanCache, PlanKey, PlanPhase, ShardedPlan,
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
    /// `scripts/bench_ap.sh`'s replay gate and the direct-issue rows of
    /// `examples/backend_profile.rs`.
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
    /// Whether vectors map under the autotuner's rule (see
    /// [`crate::mapping::autotune`]) rather than the configured mapping.
    autotune: bool,
    /// Set by [`ApSoftmax::with_layout`]: the caller pinned the layout
    /// explicitly, so the autotuner keeps it.
    layout_pinned: bool,
    plans: Arc<PlanCache>,
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

/// Reusable per-worker execution state for the pooled path: the
/// quantized codes, the executor's chunks — each with its persistent
/// simulated tiles ([`ApTile`]), staging buffers (packed
/// half-vectors), program scratch (registers + reduction sums) and
/// outputs — and a one-entry cached-plan slot so steady-state replay
/// touches no lock.
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
    codes: Vec<i64>,
    shard: ShardScratch,
    plan: Option<PlanSlot>,
}

/// The tile-local cached-plan slot: (cache identity token, shape key,
/// vector plan).
type PlanSlot = ((u64, u64), PlanKey, Arc<ShardedPlan>);

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

    /// The program of the one-shard plan cached in this tile's slot,
    /// if one has been resolved (`None` when the slot holds a plan of
    /// more shards; see [`TileState::cached_sharded_plan`]).
    #[must_use]
    pub fn cached_plan(&self) -> Option<&CompiledPlan> {
        match self.plan.as_ref() {
            Some((_, _, p)) if p.shards() == 1 => Some(&p.plans[0][0]),
            _ => None,
        }
    }

    /// The plan of more than one shard cached in this tile's slot, if
    /// one has been resolved.
    #[must_use]
    pub fn cached_sharded_plan(&self) -> Option<&ShardedPlan> {
        match self.plan.as_ref() {
            Some((_, _, p)) if p.shards() > 1 => Some(p),
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

/// One dataflow program from the generator: its direct-issue cost (zero
/// when recorded), the columns its layout uses, the register holding
/// its result (the sum, the shard minimum, or the partial sum), and the
/// recorded program when recording.
struct Issued {
    stats: CycleStats,
    cols_used: usize,
    reg: RegId,
    program: Option<ApProgram>,
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
            plans: Arc::new(PlanCache::new()),
        })
    }

    /// Enables or disables the mapping autotuner (the default is on).
    /// Enabled, every vector maps under the `mapping::autotune` rule for
    /// its length — one word per row unless the layout is pinned,
    /// equal-length shards where a split within two shards of the
    /// minimum allows — in every plan mode and at serving admission;
    /// the rule is checked against the compile-every-candidate search
    /// it replaced. Disabled, vectors map under the configured layout
    /// and the device's greedy split, exactly as before the autotuner
    /// existed — byte-identical plans, keys, and counters. Plans depend
    /// on the mapping, so the plan cache starts fresh. Off is
    /// [`crate::ApDeployment`]'s default, and `softmap_eval`'s
    /// ablations, table6 and autotune experiments call it for the
    /// paper's fixed mapping.
    #[must_use]
    pub fn with_autotune(mut self, autotune: bool) -> Self {
        self.autotune = autotune;
        self.plans = Arc::new(PlanCache::with_capacity(self.plans.capacity()));
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
    /// path exactly as before blocking existed; outside tests,
    /// `backend_compare` disables it on every series but the blocked
    /// ones, among them the `fastword-optimized` baseline of
    /// `scripts/bench_ap.sh`'s block gate, and
    /// `examples/backend_profile.rs` on its op-by-op rows.
    /// Already-compiled plans keep their blocking, so the cache starts
    /// fresh.
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
    /// evictions, resident entries, autotune activity, compile time).
    #[must_use]
    pub fn cache_stats(&self) -> CacheStats {
        self.plans.stats()
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
    /// cached are skipped. A fresh shape counts one compile
    /// (`cache_stats().compiles`) for its vector-level plan, plus one
    /// for each shard-phase program a sharded shape is the first to
    /// need; none count as cache hits.
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

    /// Tiles a request of `len` elements occupies under its mapping
    /// (`map_into`): its shard partition's length (written into the
    /// reusable `ranges` scratch), 1 when the vector fits one tile. The
    /// serving layer's admission policy claims this many tiles per
    /// request.
    pub(crate) fn shard_count_into(
        &self,
        len: usize,
        ranges: &mut Vec<(usize, usize)>,
    ) -> Result<usize, CoreError> {
        if len == 0 {
            return Err(CoreError::EmptyInput);
        }
        self.map_into(len, ranges)?;
        Ok(ranges.len())
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
    /// under `layout` (its mapped layout, not necessarily the
    /// configured one), and the rows it then occupies.
    fn packing_of(layout: Layout, len: usize) -> (bool, usize) {
        let packed = layout == Layout::TwoWordsPerRow && len.is_multiple_of(2) && len >= 2;
        (packed, if packed { len / 2 } else { len })
    }

    /// The shared entry point: validates the codes, maps the vector
    /// (`map_into`), then issues the dataflow op by op
    /// ([`PlanMode::DirectIssue`]) or resolves the vector's plan
    /// through [`ApSoftmax::lookup`] — compiling it on a miss, which
    /// executes this vector — and replays it, all through the one
    /// executor ([`ApSoftmax::run_sharded`]); a replay of more than one
    /// shard is open to serving helpers when `wake` is given.
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
        let mut ranges = std::mem::take(&mut state.shard.ranges);
        let result = self
            .map_into(codes.len(), &mut ranges)
            .and_then(|layout| self.execute_mapped(state, codes, run, mode, wake, layout, &ranges));
        state.shard.ranges = ranges;
        result
    }

    /// [`ApSoftmax::execute_codes_mode`] once the vector's `layout` and
    /// partition `ranges` are known.
    #[allow(clippy::too_many_arguments)]
    fn execute_mapped(
        &self,
        state: &mut TileState,
        codes: &[i64],
        run: &mut ApSoftmaxRun,
        mode: PlanMode,
        wake: Option<&dyn Fn()>,
        layout: Layout,
        ranges: &[(usize, usize)],
    ) -> Result<(), CoreError> {
        if mode == PlanMode::DirectIssue {
            // Direct issue stays on the re-staging path: residency is a
            // plan-level optimization, and the direct-vs-replay
            // differential baseline keeps characterizing the re-staged
            // contract exactly.
            let (shard, exec) = (&mut state.shard, ShardExec::Direct);
            return self.run_sharded(shard, codes, run, exec, ranges, false, layout, None);
        }
        let key = self.vector_key(codes.len(), layout, ranges);
        let (plan, compiled) = self.lookup(state, key, |state| {
            let plan = self.compile_sharded(state, codes, run, layout, ranges, key.resident)?;
            if self.autotune {
                let balanced = self.balanced(codes.len(), layout, ranges);
                self.plans.note_autotune(layout != self.layout || balanced);
            }
            Ok(plan)
        })?;
        if compiled {
            // Compiling executed this vector.
            return Ok(());
        }
        self.run_sharded(
            &mut state.shard,
            codes,
            run,
            ShardExec::Replay(&plan),
            &plan.ranges,
            plan.resident,
            layout,
            wake,
        )
    }

    /// The one plan lookup behind every cached execution: the tile's
    /// slot (lock-free), then the shared cache, then — under the
    /// compile lock, after a re-check so workers racing on the same
    /// fresh shape converge on one plan — `compile`, whose plan is
    /// inserted once it succeeded, its costing replay included. The
    /// slot is stamped with the token captured before the lookup, so a
    /// `clear_plans()` racing in after the insert still invalidates it
    /// on its next vector. Returns the plan and whether `compile`
    /// produced it.
    fn lookup(
        &self,
        state: &mut TileState,
        key: PlanKey,
        compile: impl FnOnce(&mut TileState) -> Result<Arc<ShardedPlan>, CoreError>,
    ) -> Result<(Arc<ShardedPlan>, bool), CoreError> {
        let token = self.plans.slot_token();
        if let Some((slot_token, slot_key, plan)) = &state.plan {
            if *slot_token == token && *slot_key == key {
                self.plans.note_hit();
                return Ok((Arc::clone(plan), false));
            }
        }
        let mut compiled = false;
        let plan = match self.plans.get(&key) {
            Some(CachedPlan::Sharded(plan)) => plan,
            _ => {
                let _compiling = self.plans.lock_for_compile();
                match self.plans.get(&key) {
                    Some(CachedPlan::Sharded(plan)) => plan,
                    _ => {
                        let plan = compile(state)?;
                        self.plans
                            .insert(key, CachedPlan::Sharded(Arc::clone(&plan)));
                        compiled = true;
                        plan
                    }
                }
            }
        };
        state.plan = Some((token, key, Arc::clone(&plan)));
        Ok((plan, compiled))
    }

    /// Traces `phase`'s program ([`ApSoftmax::issue_phase`] recording
    /// on `tile`, which executes nothing), runs the optimizer pipeline
    /// on it and attaches the blocking plan: every step of a compile
    /// but the costing replay, which the caller runs on the vector it
    /// compiles from ([`ApProgram::recost`]).
    fn trace_plan(
        &self,
        phase: PlanPhase,
        resident: bool,
        tile: &mut ApTile,
        scratch: &mut ProgramScratch,
        halves: usize,
        rows: usize,
    ) -> Result<CompiledPlan, CoreError> {
        let io = ExecIo::new(&[], &mut []);
        let issued = self.issue_phase(
            phase,
            resident,
            tile,
            scratch,
            io,
            halves,
            rows,
            &mut |_, _| {},
            true,
        )?;
        let mut program = issued.program.expect("recording returns a program");
        let report = optimizer::optimize(&mut program, self.opt_level);
        self.apply_blocking(&mut program);
        Ok(CompiledPlan::new(
            program,
            issued.reg,
            rows,
            issued.cols_used,
            report,
        ))
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

    // ---- the dataflow generator -----------------------------------------

    /// The field widths of `phase`'s program, in allocation order: each
    /// half's `[x, q, work, t, vapprox, res]`, the shared
    /// `[op, sumw, den, minf]`, and the scratch headroom past them. The
    /// whole program ([`PlanPhase::Vector`]) and every resident shard
    /// phase allocate
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

    /// Issues one program of the dataflow through a [`Recorder`] —
    /// executing it, with step costs reported to `on_step`, or, when
    /// `record`, only tracing it on the acquired tile: the sixteen
    /// steps of Fig. 5 on one tile ([`PlanPhase::Vector`]), or one
    /// phase of the sharded dataflow (see [`ApSoftmax::run_sharded`]) —
    /// the min search, the exponential with its partial sum (the global
    /// minimum is scalar input 0, `v_approx` output slot 0), or the
    /// division (the sum is scalar input 0, the codes output slot 0).
    /// A `resident` shard phase runs at the union geometry on its
    /// pinned tile: the min phase acquires it and loads the score planes
    /// (the only host staging of the resident lifetime); the exp and
    /// divide phases re-arm it and find their inputs in place. A
    /// re-staged phase acquires a cleared tile at its compact geometry
    /// and stages its inputs (`halves` input slots of `rows` rows).
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
        on_step: &mut dyn FnMut(&'static str, CycleStats),
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
        let mut rec = Recorder::new(ap, io, scratch, on_step, record);
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
        // The whole program's columns run through the divisor field, a
        // shard phase's through the minimum field.
        let cols_used = if phase == PlanPhase::Vector {
            den.end()
        } else {
            minf.end()
        };
        Ok(Issued {
            stats: ap.stats(),
            cols_used,
            reg,
            program,
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
    /// the whole program and the sharded exp phase.
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
    /// its mapped `layout` and shard partition `ranges`: the effective
    /// residency of the partition, which needs more than one phase to
    /// keep a tile pinned across, so a one-shard plan is never resident.
    /// Within one cache the partition is a function of the length and
    /// the layout.
    fn vector_key(&self, len: usize, layout: Layout, ranges: &[(usize, usize)]) -> PlanKey {
        PlanKey {
            len,
            layout,
            div: self.div_style,
            opt: self.opt_level,
            phase: PlanPhase::Vector,
            resident: ranges.len() > 1 && self.resident_for(ranges.len()),
        }
    }

    /// The cache key of the `phase` program for shards of `len`
    /// elements packed by `layout`.
    fn shard_key(&self, len: usize, layout: Layout, phase: PlanPhase, resident: bool) -> PlanKey {
        PlanKey {
            phase,
            resident,
            ..self.vector_key(len, layout, &[])
        }
    }

    /// The key a cached vector of `len` elements resolves under.
    fn cached_key(&self, len: usize) -> Result<PlanKey, CoreError> {
        let mut ranges = Vec::new();
        let layout = self.map_into(len, &mut ranges)?;
        Ok(self.vector_key(len, layout, &ranges))
    }

    /// Resolves the vector plan for length `len`, compiling one from
    /// [`ApSoftmax::representative_scores`] on this thread's pooled
    /// tile if the shape has not been seen yet.
    fn resolve_vector_entry(&self, len: usize) -> Result<Arc<ShardedPlan>, CoreError> {
        if len == 0 {
            return Err(CoreError::EmptyInput);
        }
        let key = self.cached_key(len)?;
        // Observer lookup: a cost query is not a replay, so it must
        // not count as a cache hit.
        if let Some(CachedPlan::Sharded(plan)) = self.plans.peek(&key) {
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
        match self.plans.peek(&key) {
            Some(CachedPlan::Sharded(plan)) => Ok(plan),
            _ => Err(CoreError::BadWorkload(
                "plan compilation did not cache".into(),
            )),
        }
    }

    /// The program of the one-shard plan for vectors of length `len`
    /// (the whole Fig. 5 dataflow on one tile), compiling the plan from
    /// [`ApSoftmax::representative_scores`] on this thread's pooled
    /// tile if the shape has not been seen yet.
    ///
    /// # Errors
    ///
    /// Propagates compilation (execution) errors;
    /// [`CoreError::BadWorkload`] for lengths exceeding one tile (use
    /// [`ApSoftmax::sharded_plan`] or the [`ApSoftmax::static_vector_cost`]
    /// query, which cover both regimes).
    pub fn plan(&self, len: usize) -> Result<Arc<CompiledPlan>, CoreError> {
        let plan = self.resolve_vector_entry(len)?;
        if plan.shards() > 1 {
            return Err(CoreError::BadWorkload(format!(
                "length {len} shards across tiles; query sharded_plan/static_vector_cost instead"
            )));
        }
        Ok(Arc::clone(&plan.plans[0][0]))
    }

    /// The compiled plan of more than one shard for vectors of length
    /// `len` (the capacity-exceeding counterpart of
    /// [`ApSoftmax::plan`]).
    ///
    /// # Errors
    ///
    /// Propagates compilation errors; [`CoreError::BadWorkload`] for
    /// lengths that fit one tile.
    pub fn sharded_plan(&self, len: usize) -> Result<Arc<ShardedPlan>, CoreError> {
        let plan = self.resolve_vector_entry(len)?;
        if plan.shards() == 1 {
            return Err(CoreError::BadWorkload(format!(
                "length {len} fits one tile; query plan/static_vector_cost instead"
            )));
        }
        Ok(plan)
    }

    /// The static device view of one vector of length `len` — total
    /// work (cycles and cell events), shard count, waves, reduction
    /// charges and the device critical path, for both regimes
    /// (`shards == 1` when the vector fits one tile) — answered from
    /// the compiled plan **without executing anything** once the
    /// shape's plan exists ([`softmap_ap::ApProgram::static_cost`]
    /// surfaced at the mapping level, extended to sharded shapes). The
    /// cost is exact for the input the plan was compiled from (the cost
    /// tables compile from [`ApSoftmax::representative_scores`], so
    /// table queries are deterministic); see the static-cost contract
    /// in the `softmap_ap` program-module docs.
    ///
    /// # Errors
    ///
    /// Propagates compilation (execution) errors.
    pub fn static_vector_cost(&self, len: usize) -> Result<VectorCost, CoreError> {
        let plan = self.resolve_vector_entry(len)?;
        Ok(Self::entry_vector_cost(&plan))
    }

    /// The static device view a vector plan answers with.
    fn entry_vector_cost(p: &ShardedPlan) -> VectorCost {
        VectorCost {
            total: p.total(),
            latency_cycles: p.latency_cycles(),
            shards: p.shards(),
            waves: p.waves(),
            reduction: p.reduction(),
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
        Ok(self.resolve_vector_entry(len)?.steps.clone())
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
                .with_backend(softmap_ap::ExecBackend::Microcode)
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
        // One shape across the whole batch: exactly one compile, the
        // rest replays from the shared cache.
        assert_eq!(mapping.cache_stats().compiles, 1);
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
        let stats = optimized.cache_stats();
        assert_eq!(stats.plans, 2, "same shape, two levels: two entries");
        assert_eq!(stats.compiles, 2);
        assert_eq!(stats.evictions, 0);
        // Each level replays its own entry — no eviction confusion, no
        // recompiles.
        optimized.execute_floats(&scores).unwrap();
        baseline.execute_floats(&scores).unwrap();
        let stats = optimized.cache_stats();
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
        let stats = tight.cache_stats();
        assert_eq!(stats.plans, 1);
        assert_eq!(stats.compiles, 3, "thrashing recompiles every time");
        assert_eq!(stats.evictions, 2);
    }

    #[test]
    fn static_cost_matches_executed_representative() {
        let mapping = ApSoftmax::new(PrecisionConfig::paper_best()).unwrap();
        let len = 64;
        let cost = mapping.static_vector_cost(len).unwrap().total;
        let run = mapping
            .execute_floats(&ApSoftmax::representative_scores(len))
            .unwrap();
        assert_eq!(cost, run.total);
        let steps = mapping.static_step_stats(len).unwrap();
        assert_eq!(steps, run.steps);
        assert_eq!(mapping.cache_stats().compiles, 1);
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
        let compiled = mapping.cache_stats();
        assert_eq!((compiled.plans, compiled.compiles), (1, 1), "{compiled}");
        assert!(compiled.compile_micros > 0.0, "{compiled}");
        mapping
            .execute_floats_into(&mut state, &scores, &mut run)
            .unwrap();
        let replayed = mapping.cache_stats();
        assert_eq!(replayed.hits, compiled.hits + 1, "{replayed}");
        assert_eq!(replayed.compiles, 1, "{replayed}");
        assert_eq!(replayed.compile_micros, compiled.compile_micros);
        mapping.clear_plans();
        let cleared = mapping.cache_stats();
        assert_eq!((cleared.plans, cleared.compiles), (0, 1), "{cleared}");
        assert_eq!(
            cleared.compile_micros, compiled.compile_micros,
            "compile time survives a clear"
        );
        mapping
            .execute_floats_into(&mut state, &scores, &mut run)
            .unwrap();
        assert_eq!(run.codes, first);
        let recompiled = mapping.cache_stats();
        assert_eq!(
            (recompiled.plans, recompiled.compiles),
            (1, 2),
            "cleared cache must recompile, not reuse the stale slot"
        );
        assert!(
            recompiled.compile_micros > compiled.compile_micros,
            "{recompiled}"
        );
    }

    impl ApSoftmax {
        /// Test helper: executes `warm` (compiling the plan), then
        /// `scores` (replaying it), returning the second run.
        fn unwrap_execute_pair(&self, warm: &[f64], scores: &[f64]) -> ApSoftmaxRun {
            self.execute_floats(warm).unwrap();
            let run = self.execute_floats(scores).unwrap();
            assert!(self.cache_stats().hits >= 1, "second run must replay");
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
            // Both sides pinned to the configured mapping.
            let direct = ApSoftmax::new(cfg)
                .unwrap()
                .with_autotune(false)
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
        assert_eq!(mapping.static_vector_cost(len).unwrap().total, run.total);
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
        let stats = mapping.cache_stats();
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
        let stats = mapping.cache_stats();
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
        assert_eq!(
            mapping.cache_stats().compiles,
            4,
            "evicted shape recompiles"
        );
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
        let choice = tuned.mapping_choice(4096).unwrap();
        assert_eq!((choice.layout, choice.shards), (Layout::OneWordPerRow, 2));
        assert!(choice.resident && !choice.balanced, "{choice}");
        let cost = tuned.static_vector_cost(4096).unwrap();
        assert_eq!((cost.total, cost.shards), (t.total, t.shards));
        let default = untuned.static_vector_cost(4096).unwrap().total;
        assert_eq!(default, u.total);
        assert!(cost.total.cycles() < default.cycles());
        let stats = tuned.cache_stats();
        assert_eq!(stats.shapes_tuned, 1);
        assert_eq!(stats.tuned_wins, 1);
        assert_eq!(stats.candidates_scored, stats.shapes_tuned);
        // The untuned mapping is the configured one and never counts.
        let choice = untuned.mapping_choice(4096).unwrap();
        assert_eq!((choice.layout, choice.shards), (Layout::TwoWordsPerRow, 1));
        assert_eq!(untuned.cache_stats().shapes_tuned, 0);
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
        let choice = tuned.mapping_choice(256).unwrap();
        let stats = tuned.cache_stats();
        assert_eq!(stats.candidates_scored, 1, "one compile");
        assert_eq!(stats.candidates_scored, stats.shapes_tuned);
        assert_eq!((choice.layout, choice.shards), (Layout::TwoWordsPerRow, 1));
        assert!(!choice.balanced);
        assert_eq!(stats.tuned_wins, 0);
    }

    #[test]
    fn toggling_autotune_starts_a_fresh_cache() {
        // Each side of the toggle compiles its own mapping into its own
        // cache, of the same capacity, and replays it from there.
        let scores = ApSoftmax::representative_scores(64);
        let tuned = fresh().with_plan_capacity(3);
        let untuned = tuned.clone().with_autotune(false);
        assert_eq!(untuned.plans.capacity(), 3);
        let t = tuned.execute_floats(&scores).unwrap();
        let u = untuned.execute_floats(&scores).unwrap();
        assert_eq!(t.codes, u.codes);
        assert!(t.total.cycles() < u.total.cycles(), "one word per row");
        for (m, first) in [(&tuned, &t), (&untuned, &u)] {
            let again = m.execute_floats(&scores).unwrap();
            assert_eq!(again.total, first.total);
            let stats = m.cache_stats();
            assert_eq!((stats.plans, stats.compiles), (1, 1), "{stats:?}");
            assert!(stats.hits >= 1, "{stats:?}");
        }
    }

    #[test]
    fn direct_issue_and_replay_run_one_mapping() {
        // Both plan modes map through the rule: 20 scores on 8-row
        // tiles run one word per row in four balanced shards of 5, and
        // the unoptimized re-staged replay is cycle-exact against
        // direct issue.
        let scores: Vec<f64> = (0..20).map(|i| -(f64::from(i) * 0.29) % 6.8).collect();
        let cached = fresh()
            .with_device(DeviceConfig::new(8, 8))
            .with_resident(false)
            .with_opt_level(OptLevel::None);
        let direct = cached.clone().with_plan_mode(PlanMode::DirectIssue);
        let choice = cached.mapping_choice(20).unwrap();
        assert_eq!((choice.layout, choice.shards), (Layout::OneWordPerRow, 4));
        assert!(choice.balanced && !choice.resident, "{choice}");
        let d = direct.execute_floats(&scores).unwrap();
        let c = cached.unwrap_execute_pair(&scores, &scores);
        assert_eq!((d.shards, d.rows), (4, 5));
        assert_eq!(c.codes, d.codes);
        assert_eq!(c.total, d.total);
        assert_eq!(c.latency_cycles, d.latency_cycles);
        assert_eq!(c.steps, d.steps);
    }

    #[test]
    fn cache_counters_hold_on_the_default_mapping() {
        // Compile time counts each vector-level compile once: a sharded
        // plan's interval contains its phase programs'.
        for autotune in [true, false] {
            for len in [6000, 16384] {
                let m = fresh()
                    .with_backend(ExecBackend::FastWord)
                    .with_autotune(autotune);
                let started = std::time::Instant::now();
                m.warmup(&[len]).unwrap();
                let wall = started.elapsed().as_secs_f64() * 1e6;
                let counted = m.cache_stats().compile_micros;
                assert!(
                    counted > 0.0 && counted <= wall,
                    "autotune {autotune}, {len}: {counted} us counted in a {wall} us warm-up"
                );
            }
        }
        // The default mapping's plans live in the main cache: 16384
        // scores, one word per row, are eight resident 2048-score
        // shards, so the vector plan and its three phase programs.
        let m = fresh().with_backend(ExecBackend::FastWord);
        m.warmup(&[16384]).unwrap();
        let stats = m.cache_stats();
        assert_eq!((stats.plans, stats.resident_entries), (4, 4), "{stats}");
        // A vector that fits one tile is a one-shard plan: one entry, one
        // compile, never resident, its program cached only in the plan.
        // A replay then hits it and compiles nothing.
        for (len, autotune) in [(64, true), (2048, true), (4096, false)] {
            let m = fresh()
                .with_backend(ExecBackend::FastWord)
                .with_autotune(autotune);
            m.warmup(&[len]).unwrap();
            let stats = m.cache_stats();
            let what = format!("{len} scores, autotune {autotune}: {stats}");
            assert_eq!(
                (stats.plans, stats.compiles, stats.resident_entries),
                (1, 1, 0),
                "{what}"
            );
            m.execute_floats(&ApSoftmax::representative_scores(len))
                .unwrap();
            let replayed = m.cache_stats();
            assert_eq!(
                (replayed.hits, replayed.compiles),
                (stats.hits + 1, 1),
                "{what}"
            );
        }
    }

    #[test]
    fn sharded_block_stats_report_engagement_from_the_phase_programs() {
        // Blocking engages at every tile size, 2048-row and 64-row
        // shards alike; only a mapping with blocking disabled declines,
        // and its phase programs record no plan at all.
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
        assert!(stats.engaged && stats.regions >= 1, "{stats}");
        let declined = tiny.with_blocked(false);
        assert_eq!(declined.sharded_plan(512).unwrap().block_stats(), None);
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
}
