//! The one executor: a vector's phases across its shards, with the
//! shards split into chunks that idle serving workers may help with.
//!
//! Every vector runs as a partition into shards, one per tile, and its
//! plan's phase list depends only on the partition. A vector that fits
//! one tile is the one-shard case: its one phase is the whole Fig. 5
//! program ([`PlanPhase::Vector`]), which crosses no tile, so it charges
//! no reduction network and reports the Fig. 5 step names. A vector
//! whose rows exceed one tile runs **sharded** across the device's tile
//! grid, in three phases around two cross-tile synchronization points
//! (Fig. 5 adapted to a tile grid):
//!
//! 1. **min phase** — every shard loads its slice and runs the
//!    bit-serial min search; the shard minima combine over the
//!    reduction network into the global minimum,
//! 2. **exp phase** — every shard subtracts the global minimum
//!    (arriving as a program *scalar input*), runs the integer
//!    exponential, and tree-reduces its partial sum; the partials
//!    combine over the network (in the scalar spec's overflow mode)
//!    into the divisor,
//! 3. **divide phase** — every shard divides its `v_approx` slice by
//!    the broadcast divisor.
//!
//! Bit-exactness versus the scalar spec holds because the global
//! minimum is the min of shard minima and the saturating/wrapping sum
//! of non-negative values is order-independent. A *re-staged* plan
//! stages each phase's inputs from the host (tiles do not retain state
//! across global synchronization points); a *resident* plan keeps each
//! shard pinned in its tile across the three phases, so the exp and
//! divide phases find their inputs where the previous phase left them.
//! The cost contract charges the shard programs, the deterministic
//! reduction-network formula after each phase that ends at a sync
//! point, and wave scheduling when shards exceed the grid.
//!
//! [`ApSoftmax::run_sharded`] is the one executor for every vector and
//! mode — direct issue, compile (trace, optimize and plan each phase
//! program; a shard shape's phase program is cached once its costing
//! replay of the shard succeeded), and cached replay. The shards split
//! into contiguous chunks, each owning its tiles, buffers, outputs, and
//! accounting and running its shards through the one per-shard body
//! ([`ApSoftmax::shard_phase`]). The thread executing the vector (the
//! *owner*) keeps chunk 0 in its [`TileState`], without a lock; chunks
//! 1 and on live behind one lock each in a [`ShardJob`]. Per phase the
//! owner runs chunk 0, then every chunk still unclaimed, waits only for
//! those a *helper* claimed, and folds the results and accounting once.
//! Inline [`ApSoftmax::execute_codes_into`] is one chunk; a serving
//! worker's replay has one per worker, at most one per shard, and when
//! it was picked while a worker idles, idle workers may claim them
//! ([`ShardJob::claim`] reads the chunk and its phase under one lock).
//! A replay posts its phases and wakes helpers only when it splits into
//! more than one chunk, so a one-shard vector never wakes one. A sync point returns the lowest
//! failing chunk's error (the first failing shard's, as on one chunk)
//! and opens no further phase. Results are bit-exact and cost-identical
//! at every chunk and helper count: the shard programs, replay pricing
//! ([`phase_replay`]), reduction charges, and wave-scheduled latency are
//! the same, and the owner merges the accounting in shard order.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError, RwLock, RwLockWriteGuard};

use softmap_ap::program::{ExecIo, ProgramScratch, ReplayCharge};
use softmap_ap::{device, ApError, ApTile, CycleStats, Overflow, RegId};

use super::{pack_halves, ApSoftmax, ApSoftmaxRun, Layout, StepStats, TileState};
use crate::plan::{CachedPlan, CompiledPlan, PlanPhase, ShardedPlan};
use crate::{lock, wait, CoreError};

/// The phases a plan of `shards` shards runs, in order: the whole
/// Fig. 5 program on its one tile, or the three shard phases.
fn phase_list(shards: usize) -> &'static [PlanPhase] {
    if shards == 1 {
        &[PlanPhase::Vector]
    } else {
        &[
            PlanPhase::ShardMin,
            PlanPhase::ShardExp,
            PlanPhase::ShardDiv,
        ]
    }
}

/// Adds one step's cost into entry `k` of `steps`, appending it the
/// first time: every shard of a phase issues the same step sequence,
/// so the shards' repetitions of a step merge by position.
fn add_step(steps: &mut Vec<StepStats>, k: usize, name: &'static str, stats: CycleStats) {
    match steps.get_mut(k) {
        Some(step) => {
            debug_assert_eq!(step.name, name, "a phase's shards issue one step sequence");
            step.stats.accumulate(&stats);
        }
        None => steps.push(StepStats { name, stats }),
    }
}

/// The executor's reusable state inside a [`TileState`]: the shard
/// partition, a phase's shard cycle counts the wave scheduler
/// consumes, the scheduler's tile-load scratch, the owner's chunk 0,
/// and the [`ShardJob`] holding the chunks helpers may claim. All
/// capacities persist across vectors, so steady-state execution
/// performs zero heap allocations.
#[derive(Debug, Default)]
pub(super) struct ShardScratch {
    pub(super) ranges: Vec<(usize, usize)>,
    cycles: Vec<u64>,
    loads: Vec<u64>,
    /// Chunk 0: only the owner runs it, so it needs no lock.
    first: Chunk,
    pub(super) job: Arc<ShardJob>,
}

impl Clone for ShardScratch {
    /// The clone gets a fresh job of its own, with as many chunks.
    fn clone(&self) -> Self {
        let job = Arc::new(ShardJob::new(self.job.chunks.len() + 1));
        Self {
            job,
            ..Self::default()
        }
    }
}

/// A sharded vector's chunks as tasks (see the module docs), reused
/// across vectors: a posted vector's codes, its control, and its chunks
/// after the owner's chunk 0.
#[derive(Debug)]
pub(crate) struct ShardJob {
    codes: RwLock<Vec<i64>>,
    /// The open phase (see [`Claim`]) and the chunks helpers are running.
    ctl: Mutex<(Claim, usize)>,
    /// A helper finished its chunk.
    done: Condvar,
    /// Chunks `1..`, which helpers may claim.
    chunks: Vec<Mutex<Chunk>>,
}

/// A claimed chunk and its phase; in the job's control, the open phase
/// and next unclaimed chunk (`plan` only set for a posted replay).
#[derive(Debug, Clone, Default)]
pub(crate) struct Claim {
    plan: Option<Arc<ShardedPlan>>,
    layout: Layout,
    /// The phase's index into the plan's phase list.
    p: usize,
    /// The global minimum (exp) or the combined sum (divide).
    scalar: u64,
    chunks: usize,
    chunk: usize,
}

/// One chunk's share of a sharded vector: its tile pool (shard
/// `first + k` pins `tiles[k]` for the vector's lifetime when resident;
/// re-staged shards share `tiles[0]`), buffers, outputs, and accounting
/// — the running phase's steps and shard cycles, per phase the compiled
/// programs; the work, widest layout, shard minimum, partial sum, and
/// first error.
#[derive(Debug, Clone, Default)]
struct Chunk {
    tiles: Vec<ApTile>,
    scratch: ProgramScratch,
    half0: Vec<u64>,
    half1: Vec<u64>,
    codes: Vec<u64>,
    vapprox: Vec<u64>,
    steps: Vec<StepStats>,
    cycles: Vec<u64>,
    plans: [Vec<Arc<CompiledPlan>>; 3],
    total: CycleStats,
    cols: usize,
    min: u64,
    sum: u128,
    err: Option<CoreError>,
}

impl Default for ShardJob {
    fn default() -> Self {
        Self::new(1)
    }
}

impl ShardJob {
    /// A job of `chunks` chunks (at least one, the owner's).
    pub(crate) fn new(chunks: usize) -> Self {
        Self {
            codes: RwLock::default(),
            ctl: Mutex::default(),
            done: Condvar::new(),
            chunks: (1..chunks).map(|_| Mutex::default()).collect(),
        }
    }

    /// Chunk `c`, from 1 on.
    fn chunk(&self, c: usize) -> MutexGuard<'_, Chunk> {
        lock(&self.chunks[c - 1])
    }

    /// The codes a posted vector runs on (a serving owner's request's).
    pub(crate) fn codes(&self) -> RwLockWriteGuard<'_, Vec<i64>> {
        self.codes.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// Claims a chunk of the open phase; a helper claims only a posted
    /// replay's, and counts as helping until it finishes.
    pub(crate) fn claim(&self, helper: bool) -> Option<Claim> {
        let mut ctl = lock(&self.ctl);
        let (open, helping) = &mut *ctl;
        if open.chunk >= open.chunks || (helper && open.plan.is_none()) {
            return None;
        }
        *helping += usize::from(helper);
        let claim = open.clone();
        open.chunk += 1;
        Some(claim)
    }

    /// Runs a helper's claimed chunk. A panic becomes the chunk's
    /// error, so its owner never waits forever.
    pub(crate) fn help(&self, mapping: &ApSoftmax, claim: Claim) {
        let (c, plan) = (claim.chunk, claim.plan.clone().expect("a posted replay"));
        let codes = self.codes.read().unwrap_or_else(PoisonError::into_inner);
        let ctx = PhaseCtx {
            exec: ShardExec::Replay(&plan),
            codes: &codes,
            ranges: &plan.ranges,
            resident: plan.resident,
            claim,
        };
        let mut w = self.chunk(c);
        if catch_unwind(AssertUnwindSafe(|| mapping.chunk_phase(&ctx, c, &mut w))).is_err() {
            w.err = Some(CoreError::Panicked);
        }
        drop((w, codes));
        lock(&self.ctl).1 -= 1;
        self.done.notify_one();
    }

    /// Closes the open phase to claims; waits for the chunks helpers run.
    pub(crate) fn close(&self) {
        let mut ctl = lock(&self.ctl);
        ctl.0.chunk = ctl.0.chunks;
        while ctl.1 > 0 {
            ctl = wait(&self.done, ctl);
        }
    }
}

/// How the executor obtains each shard's phase program.
#[derive(Clone, Copy)]
pub(super) enum ShardExec<'a> {
    /// Issue every op directly (no cache, no recording) — the
    /// differential-testing baseline.
    Direct,
    /// Replay the cached vector plan's phase programs.
    Replay(&'a Arc<ShardedPlan>),
    /// Replay the shard-phase program cached for the shard's shape, or
    /// compile one: trace, optimize and plan it, and cache it once its
    /// costing replay, which executes the shard, succeeded. A one-shard
    /// plan's program is compiled every time and cached only in its
    /// plan.
    Compile,
}

/// What a chunk reads: the vector's shards, how to run them, and the
/// phase running.
struct PhaseCtx<'a> {
    exec: ShardExec<'a>,
    codes: &'a [i64],
    ranges: &'a [(usize, usize)],
    resident: bool,
    claim: Claim,
}

/// Whether shard `i` is a *follower*: every shard after the first
/// occurrence of its shape shares that leader's device-wide drivers.
/// On the re-staging path followers ride the broadcast of
/// shard-invariant operands for free ([`ReplayCharge::Hoisted`]); on
/// the resident path they execute the whole phase in SIMD lockstep and
/// are charged only their input staging ([`ReplayCharge::Lockstep`]).
/// Leaders pay full price (a compile's costing replay is the leader's
/// replay, and anchors the phase program's cost). The rule is a pure
/// function of the partition, so compile-time totals and replay totals
/// agree.
fn shard_follower(ranges: &[(usize, usize)], i: usize) -> bool {
    let len = ranges[i].1 - ranges[i].0;
    ranges[..i].iter().any(|&(s, e)| e - s == len)
}

/// Replay pricing for shard `i` of a partition under a residency mode:
/// full price for leaders (a one-shard plan's shard among them), the
/// hoisted-broadcast discount for re-staged followers, the wave-lockstep
/// discount for resident ones.
fn phase_replay(ranges: &[(usize, usize)], i: usize, resident: bool) -> ReplayCharge {
    match (shard_follower(ranges, i), resident) {
        (false, _) => ReplayCharge::Full,
        (true, false) => ReplayCharge::Hoisted,
        (true, true) => ReplayCharge::Lockstep,
    }
}

/// One run of a compiled plan: a cached plan's replay, priced as the
/// [`ReplayCharge`] says, or a freshly traced plan's costing replay
/// ([`softmap_ap::ApProgram::recost`]), which executes it at full price
/// — a leader's replay — and prices it.
enum Run<'a> {
    Replay(&'a CompiledPlan, ReplayCharge),
    Cost(&'a mut CompiledPlan),
}

impl ApSoftmax {
    /// Serving's entry point: executes the codes in `state`'s job, the
    /// phases of a replay of more than one chunk open to the helpers
    /// `wake` rouses.
    pub(crate) fn execute_posted(
        &self,
        state: &mut TileState,
        run: &mut ApSoftmaxRun,
        wake: Option<&dyn Fn()>,
    ) -> Result<(), CoreError> {
        let job = Arc::clone(&state.shard.job);
        let codes = job.codes.read().unwrap_or_else(PoisonError::into_inner);
        self.execute_codes_mode(state, &codes, run, self.plan_mode, wake)
    }

    /// Compiles the plan for this vector, its shards `ranges` packed by
    /// `layout`, by executing it once in compile mode on the calling
    /// thread.
    pub(super) fn compile_sharded(
        &self,
        state: &mut TileState,
        codes: &[i64],
        run: &mut ApSoftmaxRun,
        layout: Layout,
        ranges: &[(usize, usize)],
        resident: bool,
    ) -> Result<Arc<ShardedPlan>, CoreError> {
        let started = std::time::Instant::now();
        let shard = &mut state.shard;
        let exec = ShardExec::Compile;
        self.run_sharded(shard, codes, run, exec, ranges, resident, layout, None)?;
        Ok(Arc::new(ShardedPlan {
            ranges: ranges.to_vec(),
            // Compile mode runs one chunk, which collected every program.
            plans: std::mem::take(&mut shard.first.plans),
            steps: run.steps.clone(),
            total: run.total,
            reduction: run.reduction,
            latency_cycles: run.latency_cycles,
            waves: run.waves,
            rows: run.rows,
            cols_used: run.cols_used,
            compile_micros: started.elapsed().as_secs_f64() * 1e6,
            resident,
        }))
    }

    /// The executor (see the module docs): the phases of `codes` over
    /// the shards `ranges`. `exec` selects direct issue, compile, or
    /// replay; `resident` the residency plan (shard tiles pinned across
    /// phases, phase-boundary staging elided, followers charged in
    /// lockstep) versus the re-staging path; `layout` the row packing
    /// the vector maps under. A replay splits into the job's chunks (at
    /// most one per shard) and, given `wake` and more than one chunk,
    /// posts each phase to helpers; compile and direct issue run one
    /// chunk, chunk 0, which in compile mode collects the phase
    /// programs, per phase in shard order.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn run_sharded(
        &self,
        shard: &mut ShardScratch,
        codes: &[i64],
        run: &mut ApSoftmaxRun,
        exec: ShardExec<'_>,
        ranges: &[(usize, usize)],
        resident: bool,
        layout: Layout,
        wake: Option<&dyn Fn()>,
    ) -> Result<(), CoreError> {
        let shards = ranges.len();
        // Whoever runs them, a replay's chunks are the same, so every
        // replay warms the chunks a helped one uses.
        let chunks = match exec {
            ShardExec::Replay(_) => (shard.job.chunks.len() + 1).min(shards),
            _ => 1,
        };
        let posted = match exec {
            ShardExec::Replay(plan) if chunks > 1 => wake.zip(Some(plan)),
            _ => None,
        };
        // Chunk 0 is the owner's; helpers claim from chunk 1 on.
        let claim = Claim {
            plan: posted.map(|(_, plan)| Arc::clone(plan)),
            layout,
            chunks,
            chunk: 1,
            ..Claim::default()
        };
        let mut ctx = PhaseCtx {
            exec,
            codes,
            ranges,
            resident,
            claim,
        };
        // Chunk 0 reads its outputs straight into the run's buffers; the
        // other chunks' are appended after the last phase.
        std::mem::swap(&mut shard.first.codes, &mut run.codes);
        std::mem::swap(&mut shard.first.vapprox, &mut run.vapprox);
        let ran = self.run_phases(shard, &mut ctx, run, posted.map(|(wake, _)| wake));
        let (first, job) = (&mut shard.first, &*shard.job);
        for c in 1..chunks {
            let w = job.chunk(c);
            first.codes.extend_from_slice(&w.codes);
            first.vapprox.extend_from_slice(&w.vapprox);
        }
        std::mem::swap(&mut first.codes, &mut run.codes);
        std::mem::swap(&mut first.vapprox, &mut run.vapprox);
        ran?;
        debug_assert_eq!(run.codes.len(), codes.len());
        run.frac_bits = self.sm.widths().frac_bits();
        run.rows = ranges
            .iter()
            .map(|&(s, e)| Self::packing_of(layout, e - s).1)
            .max()
            .unwrap_or(0);
        run.shards = shards;
        run.waves = self.device.waves(shards);
        Ok(())
    }

    /// The owner's side of the phases (see the module docs): each phase
    /// of a posted replay is announced through `wake` to helpers, who
    /// claim chunks from 1 on while the owner runs its chunk 0 and then
    /// claims what is left. After each phase the owner folds the
    /// chunks' results and accounting into `run` in shard order —
    /// identical steps, totals and step order at any chunk count — and
    /// charges the phase's wave makespan and, at a sync point, its
    /// reduction network.
    fn run_phases(
        &self,
        shard: &mut ShardScratch,
        ctx: &mut PhaseCtx<'_>,
        run: &mut ApSoftmaxRun,
        wake: Option<&dyn Fn()>,
    ) -> Result<(), CoreError> {
        let ShardScratch {
            cycles,
            loads,
            first,
            job,
            ..
        } = shard;
        let (shards, chunks) = (ctx.ranges.len(), ctx.claim.chunks);
        run.steps.clear();
        run.reduction = CycleStats::default();
        run.latency_cycles = 0;
        for (p, &phase) in phase_list(shards).iter().enumerate() {
            ctx.claim.p = p;
            if chunks > 1 {
                lock(&job.ctl).0 = ctx.claim.clone();
            }
            if let Some(wake) = wake {
                wake();
            }
            self.chunk_phase(ctx, 0, first);
            if chunks > 1 {
                while let Some(claim) = job.claim(false) {
                    self.chunk_phase(ctx, claim.chunk, &mut job.chunk(claim.chunk));
                }
                job.close();
            }
            let first_step = run.steps.len();
            run.steps.extend_from_slice(&first.steps);
            cycles.clone_from(&first.cycles);
            let (mut min, mut sum, mut err) = (first.min, first.sum, first.err.take());
            for c in 1..chunks {
                let mut w = job.chunk(c);
                for (k, st) in w.steps.iter().enumerate() {
                    add_step(&mut run.steps, first_step + k, st.name, st.stats);
                }
                cycles.extend_from_slice(&w.cycles);
                min = min.min(w.min);
                sum += w.sum;
                err = err.or(w.err.take());
            }
            if let Some(e) = err {
                return Err(e);
            }
            // Device view: critical path = per-phase wave makespans plus
            // the reduction-network cycles. Under residency the
            // followers' per-phase cycles are tiny (input staging only)
            // or zero, so the makespan collapses to the per-wave leader.
            run.latency_cycles += device::wave_makespan(cycles, self.device.tiles, loads);
            // A phase that ends at a sync point combines its shards'
            // scalars over the network and pays for it.
            let network = match phase {
                PlanPhase::ShardMin => {
                    ctx.claim.scalar = min;
                    Some(("device: cross-tile min", self.cfg().m))
                }
                PlanPhase::ShardExp => {
                    ctx.claim.scalar = self.combine_partials(sum)?;
                    Some(("device: cross-tile sum", self.sum_bits()))
                }
                PlanPhase::Vector => {
                    ctx.claim.scalar = self.combine_partials(sum)?;
                    None
                }
                PlanPhase::ShardDiv => None,
            };
            if let Some((name, bits)) = network {
                let red = self.device.reduction_network(shards, bits);
                run.steps.push(StepStats { name, stats: red });
                run.reduction.accumulate(&red);
                run.latency_cycles += red.cycles();
            }
        }
        run.sum = ctx.claim.scalar;
        (run.total, run.cols_used) = (first.total, first.cols);
        for c in 1..chunks {
            let w = job.chunk(c);
            run.total.accumulate(&w.total);
            run.cols_used = run.cols_used.max(w.cols);
        }
        run.total.accumulate(&run.reduction);
        Ok(())
    }

    /// Chunk `c`'s share of the running phase: shards `c·S/n ..
    /// (c+1)·S/n` through the per-shard body. The first phase resets the
    /// chunk for a new vector; a failing shard stops the chunk.
    fn chunk_phase(&self, ctx: &PhaseCtx<'_>, c: usize, w: &mut Chunk) {
        #[cfg(test)]
        tests::inject_panic(ctx.codes.len());
        let shards = ctx.ranges.len();
        let (p, chunks) = (ctx.claim.p, ctx.claim.chunks);
        let (first, end) = (c * shards / chunks, (c + 1) * shards / chunks);
        if p == 0 {
            w.codes.clear();
            w.vapprox.clear();
            w.total = CycleStats::default();
            w.cols = 0;
            // The pool only grows; steady-state execution re-acquires
            // existing arenas with zero allocations.
            let tiles = if ctx.resident { end - first } else { 1 };
            if w.tiles.len() < tiles {
                w.tiles.resize_with(tiles, ApTile::new);
            }
        }
        w.steps.clear();
        w.cycles.clear();
        w.plans[p].clear();
        (w.min, w.sum) = (u64::MAX, 0);
        let base = ctx.ranges[first].0;
        let res = (first..end).try_for_each(|i| self.shard_phase(ctx, w, i, i - first, base));
        w.err = res.err();
    }

    /// One shard's share of one phase — the per-shard body of every
    /// mode and chunk count: pack the shard's inputs, pick its tile,
    /// replay its phase program (or issue the phase directly, or in
    /// compile mode trace its program and cache it once its costing
    /// replay succeeded), and fold the result scalar into the chunk's,
    /// with its cycles and steps. `slot` is the shard's index in the
    /// chunk, whose outputs start at element `base`.
    fn shard_phase(
        &self,
        ctx: &PhaseCtx<'_>,
        w: &mut Chunk,
        i: usize,
        slot: usize,
        base: usize,
    ) -> Result<(), CoreError> {
        let (p, layout) = (ctx.claim.p, ctx.claim.layout);
        let (phase, resident) = (phase_list(ctx.ranges.len())[p], ctx.resident);
        let (s, e) = ctx.ranges[i];
        let (packed, rows) = Self::packing_of(layout, e - s);
        let Chunk {
            tiles,
            scratch,
            half0,
            half1,
            codes,
            vapprox,
            steps,
            cycles,
            plans,
            ..
        } = w;
        let plans = &mut plans[p];
        let tile = &mut tiles[if resident { slot } else { 0 }];
        // A one-shard plan's program has no key of its own: it would be
        // the plan's vector key.
        let key =
            (phase != PlanPhase::Vector).then(|| self.shard_key(e - s, layout, phase, resident));
        let peeked;
        let program = match ctx.exec {
            ShardExec::Direct => None,
            ShardExec::Replay(plan) => Some(&plan.plans[p][i]),
            ShardExec::Compile => {
                peeked = key.and_then(|key| self.plans.peek(&key));
                match &peeked {
                    Some(CachedPlan::Program(p)) => Some(p),
                    _ => None,
                }
            }
        };
        // The phase's I/O. Inputs: a resident exp or divide phase finds
        // them in the pinned tile; a re-staged divide phase stages its
        // `v_approx` slice, every other phase the packed codes. Outputs:
        // the codes and `v_approx` (the whole program), `v_approx` (exp)
        // or the codes (divide).
        let rearm = resident && phase != PlanPhase::ShardMin;
        let (mut one, mut both);
        let (halves, outs): ([&[u64]; 2], &mut [&mut Vec<u64>]) = if phase == PlanPhase::ShardDiv {
            let vap = &vapprox[s - base..e - base];
            one = [codes];
            ([&vap[..rows], &vap[rows.min(vap.len())..]], &mut one)
        } else {
            if !rearm {
                pack_halves(layout, &ctx.codes[s..e], half0, half1);
            }
            both = [codes, vapprox];
            let outs = match phase {
                PlanPhase::Vector => &mut both[..],
                PlanPhase::ShardExp => &mut both[1..],
                _ => &mut both[..0],
            };
            ([half0.as_slice(), half1.as_slice()], outs)
        };
        let halves = &halves[..1 + usize::from(packed)];
        let inputs: &[&[u64]] = if rearm { &[] } else { halves };
        let scalar = [ctx.claim.scalar];
        let scalars: &[u64] = match phase {
            PlanPhase::ShardExp | PlanPhase::ShardDiv => &scalar,
            _ => &[],
        };
        let io = ExecIo::new(inputs, outs).with_scalars(scalars);
        let mut k = 0;
        let mut on_step = |name, stats| {
            add_step(steps, k, name, stats);
            k += 1;
        };
        let (stats, cols, reg) = match (ctx.exec, program) {
            (ShardExec::Direct, _) => {
                let issued = self.issue_phase(
                    phase,
                    resident,
                    tile,
                    scratch,
                    io,
                    halves.len(),
                    rows,
                    &mut on_step,
                    false,
                )?;
                (issued.stats, issued.cols_used, issued.reg)
            }
            (_, Some(plan)) => {
                let run = Run::Replay(plan, phase_replay(ctx.ranges, i, resident));
                let ran = self.run_plan(run, tile, rearm, io, scratch, &mut on_step)?;
                if matches!(ctx.exec, ShardExec::Compile) {
                    plans.push(Arc::clone(plan));
                }
                ran
            }
            (_, None) => {
                // A shape's first shard is its leader, so the costing
                // replay is the full-price replay the leader pays.
                let started = std::time::Instant::now();
                let mut plan =
                    self.trace_plan(phase, resident, tile, scratch, halves.len(), rows)?;
                let run = Run::Cost(&mut plan);
                let ran = self.run_plan(run, tile, rearm, io, scratch, &mut on_step)?;
                plan.compile_micros = started.elapsed().as_secs_f64() * 1e6;
                let plan = Arc::new(plan);
                if let Some(key) = key {
                    self.plans
                        .insert(key, CachedPlan::Program(Arc::clone(&plan)));
                }
                plans.push(plan);
                ran
            }
        };
        let result = scratch.reg(reg);
        match phase {
            PlanPhase::ShardMin => w.min = w.min.min(result),
            PlanPhase::ShardExp | PlanPhase::Vector => w.sum += u128::from(result),
            PlanPhase::ShardDiv => {}
        }
        cycles.push(stats.cycles());
        w.total.accumulate(&stats);
        w.cols = w.cols.max(cols);
        Ok(())
    }

    /// Runs `run` on `tile` — re-armed, keeping its CAM cells, when
    /// `rearm` (a resident phase finds the previous phase's output
    /// planes there as its inputs), acquired cleared otherwise —
    /// reporting steps to `on_step`. Returns the tile's statistics, the
    /// columns the plan's layout uses and the register holding its
    /// result.
    fn run_plan(
        &self,
        run: Run<'_>,
        tile: &mut ApTile,
        rearm: bool,
        io: ExecIo<'_, '_>,
        scratch: &mut ProgramScratch,
        on_step: impl FnMut(&'static str, CycleStats),
    ) -> Result<(CycleStats, usize, RegId), CoreError> {
        let plan = match &run {
            Run::Replay(plan, _) => &**plan,
            Run::Cost(plan) => &**plan,
        };
        let (config, cols, reg) = (plan.program().config(), plan.cols_used(), plan.result_reg());
        let ap = if rearm {
            tile.rearm_resident(config, self.backend)?
        } else {
            tile.acquire(config, self.backend)?
        };
        match run {
            Run::Replay(plan, charge) => plan.program().replay(ap, io, scratch, charge, on_step),
            Run::Cost(plan) => plan.program.recost(ap, io, scratch, on_step),
        }?;
        Ok((ap.stats(), cols, reg))
    }

    /// Combines the exact sum of the per-shard partial sums over the
    /// reduction network in the scalar spec's overflow mode —
    /// bit-identical to the one-tile reduction because
    /// saturating/wrapping addition of non-negative values is
    /// order-independent. A one-shard plan's sum, already in range,
    /// passes unchanged.
    fn combine_partials(&self, exact: u128) -> Result<u64, CoreError> {
        let sum_bits = self.sum_bits();
        let mask: u128 = if sum_bits >= 128 {
            u128::MAX
        } else {
            (1u128 << sum_bits) - 1
        };
        match self.overflow_mode() {
            Overflow::Error => {
                if exact > mask {
                    Err(CoreError::Ap(ApError::WidthOverflow {
                        value: u64::try_from(exact).unwrap_or(u64::MAX),
                        width: sum_bits as usize,
                    }))
                } else {
                    Ok(exact as u64)
                }
            }
            Overflow::Saturate => Ok(exact.min(mask) as u64),
            Overflow::Wrap => Ok((exact & mask) as u64),
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use softmap_ap::{DeviceConfig, ExecBackend};
    use softmap_softmax::{PrecisionConfig, SumMode};
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

    /// Test hooks, one per test that injects a panic: the next chunk of
    /// a vector of a hook's length panics (once).
    pub(crate) static PANIC_LEN: [AtomicUsize; 3] = [const { AtomicUsize::new(0) }; 3];

    pub(super) fn inject_panic(len: usize) {
        let hit = |hook: &AtomicUsize| {
            hook.compare_exchange(len, 0, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
        };
        if PANIC_LEN.iter().any(hit) {
            panic!("injected chunk panic");
        }
    }

    fn scores(len: usize) -> Vec<f64> {
        (0..len).map(|i| -(((i * 7) % 97) as f64) * 0.07).collect()
    }

    fn quantized(sm: &ApSoftmax, len: usize) -> Vec<i64> {
        let mut codes = Vec::new();
        sm.spec().quantize_into(&scores(len), &mut codes);
        codes
    }

    /// Executes `codes` on `state` as a serving owner does (codes moved
    /// into the posted job), while `helpers` threads run the serving
    /// help loop — claim a chunk, help with it — until it returns.
    fn execute_helped(
        sm: &ApSoftmax,
        state: &mut TileState,
        codes: &[i64],
        run: &mut ApSoftmaxRun,
        helpers: usize,
    ) -> Result<(), CoreError> {
        let job = Arc::clone(state.job());
        *job.codes() = codes.to_vec();
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            for _ in 0..helpers {
                s.spawn(|| {
                    while !stop.load(Ordering::Acquire) {
                        match job.claim(true) {
                            Some(claim) => job.help(sm, claim),
                            None => std::thread::yield_now(),
                        }
                    }
                });
            }
            let res = sm.execute_posted(state, run, Some(&|| {}));
            stop.store(true, Ordering::Release);
            res
        })
    }

    /// Field-by-field run equality: bit-exact outputs *and* identical
    /// cost accounting (chunks and helpers merely evaluate the same plan
    /// in pieces).
    fn assert_runs_equal(a: &ApSoftmaxRun, b: &ApSoftmaxRun, what: &str) {
        assert_eq!(a.codes, b.codes, "{what}: codes");
        assert_eq!(a.vapprox, b.vapprox, "{what}: vapprox");
        assert_eq!(a.steps, b.steps, "{what}: steps");
        assert_eq!(a.sum, b.sum, "{what}: sum");
        assert_eq!(a.frac_bits, b.frac_bits, "{what}: frac_bits");
        assert_eq!(a.total, b.total, "{what}: total");
        assert_eq!(a.rows, b.rows, "{what}: rows");
        assert_eq!(a.cols_used, b.cols_used, "{what}: cols_used");
        assert_eq!(a.shards, b.shards, "{what}: shards");
        assert_eq!(a.waves, b.waves, "{what}: waves");
        assert_eq!(a.latency_cycles, b.latency_cycles, "{what}: latency_cycles");
        assert_eq!(a.reduction, b.reduction, "{what}: reduction");
    }

    #[test]
    fn fanout_matches_sequential_replay_bit_and_cost_exact() {
        for resident in [true, false] {
            let sm = ApSoftmax::new(PrecisionConfig::paper_best())
                .unwrap()
                .with_autotune(false)
                .with_backend(ExecBackend::FastWord)
                .with_device(DeviceConfig::new(2, 8))
                .with_resident(resident);
            let codes = quantized(&sm, 48);
            let mut state = TileState::new();
            let mut seq = ApSoftmaxRun::default();
            // First call compiles, second replays: the reference.
            sm.execute_codes_into(&mut state, &codes, &mut seq).unwrap();
            sm.execute_codes_into(&mut state, &codes, &mut seq).unwrap();
            assert!(seq.shards > 1, "48 scores on 8-row tiles must shard");
            // More chunks than shards clamps; odd counts exercise the
            // uneven contiguous chunking. Each state serves every helper
            // count in turn.
            for chunks in [2, 3, 16] {
                let mut fan_state = TileState::with_chunks(chunks);
                for helpers in 0..=2 {
                    let mut out = ApSoftmaxRun::default();
                    execute_helped(&sm, &mut fan_state, &codes, &mut out, helpers).unwrap();
                    let what = format!("resident={resident} chunks={chunks} helpers={helpers}");
                    assert_runs_equal(&out, &seq, &what);
                }
            }
        }
    }

    #[test]
    fn fanout_replays_the_autotuned_sharded_winner() {
        // Default mapping autotunes: helped chunks must resolve the
        // sharded plan of the rule's mapping and replay under its layout.
        let sm = ApSoftmax::new(PrecisionConfig::paper_best())
            .unwrap()
            .with_backend(ExecBackend::FastWord)
            .with_device(DeviceConfig::new(2, 8));
        let codes = quantized(&sm, 48);
        let mut state = TileState::with_chunks(2);
        let mut seq = ApSoftmaxRun::default();
        sm.execute_codes_into(&mut state, &codes, &mut seq).unwrap();
        sm.execute_codes_into(&mut state, &codes, &mut seq).unwrap();
        for helpers in 0..=2 {
            let hits_before = sm.cache_stats().hits;
            let mut out = ApSoftmaxRun::default();
            execute_helped(&sm, &mut state, &codes, &mut out, helpers).unwrap();
            assert_runs_equal(&out, &seq, &format!("tuned winner, helpers={helpers}"));
            assert!(
                sm.cache_stats().hits > hits_before,
                "the helped replay must count as a plan-cache hit"
            );
        }
    }

    #[test]
    fn fanout_matches_sequential_on_the_default_grid() {
        // The acceptance shape: 16384 scores on the paper's 48-tile
        // grid, through the default (autotuned) configuration.
        let sm = ApSoftmax::new(PrecisionConfig::paper_best())
            .unwrap()
            .with_backend(ExecBackend::FastWord);
        let codes = quantized(&sm, 16384);
        let mut state = TileState::with_chunks(4);
        let mut seq = ApSoftmaxRun::default();
        sm.execute_codes_into(&mut state, &codes, &mut seq).unwrap();
        sm.execute_codes_into(&mut state, &codes, &mut seq).unwrap();
        assert!(seq.shards > 1);
        for helpers in 0..=2 {
            let mut out = ApSoftmaxRun::default();
            execute_helped(&sm, &mut state, &codes, &mut out, helpers).unwrap();
            assert_runs_equal(
                &out,
                &seq,
                &format!("default grid 16384, helpers={helpers}"),
            );
        }
    }

    #[test]
    fn fanout_falls_back_when_it_cannot_fan_out() {
        let sm = ApSoftmax::new(PrecisionConfig::paper_best())
            .unwrap()
            .with_autotune(false)
            .with_backend(ExecBackend::FastWord)
            .with_device(DeviceConfig::new(2, 8));
        let codes = quantized(&sm, 48);
        let mut state = TileState::with_chunks(4);

        // First sight of a shape: the owner compiles it on one chunk.
        let mut first = ApSoftmaxRun::default();
        execute_helped(&sm, &mut state, &codes, &mut first, 2).unwrap();
        assert!(
            sm.cache_stats().compiles >= 1,
            "the sequential fallback must compile the shape"
        );
        let mut seq = ApSoftmaxRun::default();
        sm.execute_codes_into(&mut state, &codes, &mut seq).unwrap();
        assert_eq!(first.codes, seq.codes, "compile and replay stay bit-exact");

        // The shape is cached now; a second helped run posts its chunks
        // and matches the sequential replay exactly.
        let mut out = ApSoftmaxRun::default();
        execute_helped(&sm, &mut state, &codes, &mut out, 2).unwrap();
        assert_runs_equal(&out, &seq, "post-compile fan-out");

        // A job of one chunk replays sequentially whatever the helpers.
        let mut one = ApSoftmaxRun::default();
        execute_helped(&sm, &mut TileState::with_chunks(1), &codes, &mut one, 1).unwrap();
        assert_runs_equal(&one, &seq, "one-chunk fallback");

        // An unsharded shape is the one-shard case: neither its compile
        // nor its replay posts a phase or wakes a helper.
        let short = quantized(&sm, 8);
        let wakes = AtomicUsize::new(0);
        let wake = || {
            wakes.fetch_add(1, Ordering::Relaxed);
        };
        *state.job().codes() = short.clone();
        let mut whole = ApSoftmaxRun::default();
        for _ in 0..2 {
            sm.execute_posted(&mut state, &mut whole, Some(&wake))
                .unwrap();
        }
        assert_eq!(
            wakes.load(Ordering::Relaxed),
            0,
            "a one-shard vector woke a helper"
        );
        let mut want = ApSoftmaxRun::default();
        sm.execute_codes_into(&mut TileState::new(), &short, &mut want)
            .unwrap();
        assert_runs_equal(&whole, &want, "one-shard replay");
        assert_eq!(
            (whole.shards, whole.waves),
            (1, 1),
            "8 scores fit one 8-row tile"
        );
        assert_eq!(whole.reduction, CycleStats::default());
        assert_eq!(whole.latency_cycles, whole.total.cycles());

        // Empty input errors identically to the sequential entry point.
        let mut sink = ApSoftmaxRun::default();
        assert!(matches!(
            execute_helped(&sm, &mut state, &[], &mut sink, 2),
            Err(CoreError::EmptyInput)
        ));
    }

    #[test]
    fn failing_shards_error_on_every_worker_count_and_leave_the_state_usable() {
        // A 14-bit exact sum: a flat vector overflows it, a peaked one
        // fits. Both error sites: 8 re-staged shards whose partials fit
        // but whose combine overflows after the second sync point, and
        // 4 resident shards whose partial reduce overflows in a replay.
        let cfg = PrecisionConfig::new(6, 0, 8).with_sum_mode(SumMode::Exact);
        for (device, len, resident) in [
            (DeviceConfig::new(4, 64), 512, false),
            (DeviceConfig::new(4, 512), 2048, true),
        ] {
            let sm = ApSoftmax::new(cfg)
                .unwrap()
                .with_autotune(false)
                .with_backend(ExecBackend::FastWord)
                .with_layout(Layout::OneWordPerRow)
                .with_device(device);
            let peaked: Vec<f64> = (0..len).map(|i| if i == 0 { 0.0 } else { -8.0 }).collect();
            let mut peaked_codes = Vec::new();
            sm.spec().quantize_into(&peaked, &mut peaked_codes);
            let mut flat_codes = Vec::new();
            sm.spec().quantize_into(&vec![0.0; len], &mut flat_codes);
            // Compile the shape with the peaked vector; the reference
            // replays it on a fresh state.
            let mut want = ApSoftmaxRun::default();
            sm.execute_codes_into(&mut TileState::new(), &peaked_codes, &mut want)
                .unwrap();
            sm.execute_codes_into(&mut TileState::new(), &peaked_codes, &mut want)
                .unwrap();
            assert_eq!(want.shards, len / device.rows_per_tile);
            assert_eq!(
                sm.sharded_plan(len).unwrap().resident(),
                resident,
                "{len} scores on {device:?}"
            );
            for (chunks, helpers) in [(1, 0), (2, 1), (3, 2), (3, 0)] {
                let what = format!("{len} scores, {chunks} chunks, {helpers} helpers");
                let mut state = TileState::with_chunks(chunks);
                let mut run = ApSoftmaxRun::default();
                let err =
                    execute_helped(&sm, &mut state, &flat_codes, &mut run, helpers).unwrap_err();
                assert_eq!(
                    err,
                    CoreError::Ap(ApError::WidthOverflow {
                        value: 28672,
                        width: 14
                    }),
                    "{what}"
                );
                execute_helped(&sm, &mut state, &peaked_codes, &mut run, helpers).unwrap();
                assert_runs_equal(&run, &want, &what);
            }
        }
    }

    #[test]
    fn a_failed_compile_caches_no_plan() {
        // The 14-bit exact sum above, with a shape's first vector the
        // flat one: its sum overflows in the costing replay of the
        // one-shard plan's reduction on one tile, and of the exp phase's
        // partial reduce on resident shards. No program of that compile
        // may stay cached, so the peaked vector then compiles and prices
        // every program it lacks.
        let cfg = PrecisionConfig::new(6, 0, 8).with_sum_mode(SumMode::Exact);
        let len = 2048;
        let flat = vec![0.0; len];
        let peaked: Vec<f64> = (0..len).map(|i| if i == 0 { 0.0 } else { -8.0 }).collect();
        for (device, shards) in [(DeviceConfig::default(), 1), (DeviceConfig::new(4, 512), 4)] {
            let sm = ApSoftmax::new(cfg)
                .unwrap()
                .with_autotune(false)
                .with_backend(ExecBackend::FastWord)
                .with_layout(Layout::OneWordPerRow)
                .with_device(device);
            let mut state = TileState::new();
            let mut run = ApSoftmaxRun::default();
            let err = sm
                .execute_floats_into(&mut state, &flat, &mut run)
                .unwrap_err();
            assert!(
                matches!(err, CoreError::Ap(ApError::WidthOverflow { .. })),
                "{device:?}: {err:?}"
            );
            sm.execute_floats_into(&mut state, &peaked, &mut run)
                .unwrap();
            assert_eq!(run.shards, shards, "{device:?}");
            let plan = sm.resolve_vector_entry(len).unwrap();
            if shards == 1 {
                let cost = sm.static_vector_cost(len).unwrap();
                assert_eq!(cost.total, run.total, "{device:?}");
                assert_eq!(cost.latency_cycles, run.latency_cycles, "{device:?}");
            } else {
                assert!(plan.resident(), "{device:?}");
            }
            for program in plan.plans.iter().flatten() {
                assert_ne!(
                    program.program().static_cost(),
                    CycleStats::default(),
                    "{device:?}: an uncosted program was cached"
                );
            }
        }
    }

    #[test]
    fn a_panicking_helped_chunk_fails_its_vector_without_hanging() {
        // The wake hook helps on the owner's thread, so a helper claims
        // chunk 1 of every phase deterministically, before the owner
        // runs its chunk 0; the injected panic hits it in the min phase,
        // and the owner returns the panic as the vector's error at the
        // first sync point.
        let sm = ApSoftmax::new(PrecisionConfig::paper_best())
            .unwrap()
            .with_autotune(false)
            .with_backend(ExecBackend::FastWord)
            .with_device(DeviceConfig::new(2, 8));
        let codes = quantized(&sm, 52);
        let mut want = ApSoftmaxRun::default();
        sm.execute_codes_into(&mut TileState::new(), &codes, &mut want)
            .unwrap();
        sm.execute_codes_into(&mut TileState::new(), &codes, &mut want)
            .unwrap();
        let mut state = TileState::with_chunks(3);
        let job = Arc::clone(state.job());
        *job.codes() = codes.clone();
        let wake = || {
            if let Some(claim) = job.claim(true) {
                job.help(&sm, claim);
            }
        };
        PANIC_LEN[0].store(codes.len(), Ordering::Relaxed);
        let mut run = ApSoftmaxRun::default();
        let err = sm
            .execute_posted(&mut state, &mut run, Some(&wake))
            .unwrap_err();
        assert_eq!(err, CoreError::Panicked);
        assert_eq!(PANIC_LEN[0].load(Ordering::Relaxed), 0, "the hook fired");
        // The helped path itself is sound: the next vector replays
        // bit- and cost-exact on a fresh state.
        let mut fresh = TileState::with_chunks(3);
        let fresh_job = Arc::clone(fresh.job());
        *fresh_job.codes() = codes.clone();
        let wake = || {
            if let Some(claim) = fresh_job.claim(true) {
                fresh_job.help(&sm, claim);
            }
        };
        sm.execute_posted(&mut fresh, &mut run, Some(&wake))
            .unwrap();
        assert_runs_equal(&run, &want, "helped on the owner's thread");
    }
}
