//! The sharded executor: one long vector's three phases across its
//! shards, with the shards fanned over host workers.
//!
//! A vector whose rows exceed one tile runs **sharded** across the
//! device's tile grid. The dataflow has two cross-tile synchronization
//! points (Fig. 5 adapted to a tile grid):
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
//! reduction-network formula, and wave scheduling when shards exceed
//! the grid.
//!
//! [`ApSoftmax::run_sharded`] is the one executor for every mode —
//! direct issue, compile (record, optimize, and cache each shard
//! shape's phase program), and cached replay — and every host-worker
//! count. The shards split into contiguous per-worker chunks; worker
//! `j` owns its chunk's tiles, staging buffers, and output slices, and
//! runs each phase's shards through the one per-shard body
//! ([`ApSoftmax::shard_phase`]). Worker 0 runs on the calling thread,
//! so [`ApSoftmax::execute_codes_into`] executes with one worker and
//! spawns nothing; the serving layer replays with
//! `tile_parallelism(shards)` workers, spawned once per vector. The
//! workers meet at a barrier at each of the two synchronization points,
//! where each combines the shard results every worker deposited. A
//! failing worker raises a shared flag and keeps meeting the barriers
//! without doing further work, so no worker waits for one that
//! stopped, and the lowest-indexed worker's error is returned. Results
//! are bit-exact and cost-identical at every worker count: the shard
//! programs, replay pricing ([`phase_replay`]), reduction charges, and
//! wave-scheduled latency are the same, merely evaluated concurrently,
//! and the calling thread merges the accounting in shard order.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

use softmap_ap::program::{optimizer, ExecIo, ProgramScratch};
use softmap_ap::{batch, device, ApError, ApTile, CycleStats, Field, Overflow};

use super::{accumulate_step, pack_halves, ApSoftmax, ApSoftmaxRun, Layout, StepStats, TileState};
use crate::plan::{CachedPlan, CompiledPlan, PlanPhase, ShardedPlan};
use crate::CoreError;

/// The three shard phases, in order.
const PHASES: [PlanPhase; 3] = [
    PlanPhase::ShardMin,
    PlanPhase::ShardExp,
    PlanPhase::ShardDiv,
];

/// The sharded executor's reusable state inside a [`TileState`]: the
/// shard partition, the per-shard results the two cross-tile
/// reductions combine, the per-phase shard cycle counts the wave
/// scheduler consumes, the scheduler's tile-load scratch, and one
/// [`WorkerScratch`] per host worker. All capacities persist across
/// vectors, so steady-state sharded execution performs zero heap
/// allocations.
#[derive(Debug, Clone, Default)]
pub(super) struct ShardScratch {
    pub(super) ranges: Vec<(usize, usize)>,
    deposits: Deposits,
    phase_cycles: [Vec<u64>; 3],
    loads: Vec<u64>,
    workers: Vec<WorkerScratch>,
}

/// Per-shard result slots — the shard minima, then the partial sums —
/// written by the workers concurrently and read by every worker after
/// the phase barrier.
#[derive(Debug, Default)]
struct Deposits(Vec<AtomicU64>);

impl Clone for Deposits {
    fn clone(&self) -> Self {
        Self(
            self.0
                .iter()
                .map(|d| AtomicU64::new(d.load(Ordering::Relaxed)))
                .collect(),
        )
    }
}

/// One host worker's share of a sharded vector: its tile pool (shard
/// `first + k` of its chunk pins `tiles[k]` for the vector's lifetime
/// when resident; re-staged shards share `tiles[0]`), staging buffers,
/// program scratch, the outputs of its chunk, and its accounting for
/// the calling thread — per phase the steps, shard cycles, and compiled
/// phase programs; the work, the widest layout, and the first error.
#[derive(Debug, Clone, Default)]
struct WorkerScratch {
    tiles: Vec<ApTile>,
    scratch: ProgramScratch,
    half0: Vec<u64>,
    half1: Vec<u64>,
    codes: Vec<u64>,
    vapprox: Vec<u64>,
    steps: [Vec<StepStats>; 3],
    cycles: [Vec<u64>; 3],
    plans: [Vec<Arc<CompiledPlan>>; 3],
    total: CycleStats,
    cols: usize,
    err: Option<CoreError>,
}

/// How the executor obtains each shard's phase program.
#[derive(Clone, Copy)]
pub(super) enum ShardExec<'a> {
    /// Issue every op directly (no cache, no recording) — the
    /// differential-testing baseline.
    Direct,
    /// Replay the cached sharded plan's phase programs.
    Replay(&'a ShardedPlan),
    /// Replay the phase program cached for the shard's shape, or
    /// record, optimize, and cache one while executing.
    Compile,
}

/// What a worker reads: the vector's shards and how to run them, the
/// phase running, and the phase's scalar input.
#[derive(Clone, Copy)]
struct PhaseCtx<'a> {
    exec: ShardExec<'a>,
    /// The running phase's index into [`PHASES`].
    p: usize,
    codes: &'a [i64],
    ranges: &'a [(usize, usize)],
    layout: Layout,
    resident: bool,
    workers: usize,
    /// The min and exp phases' per-shard results, in that order.
    deposits: &'a [AtomicU64],
    /// The phase's scalar input: the global minimum (exp) or the
    /// combined sum (divide).
    scalar: u64,
}

/// Whether shard `i` is a *follower*: every shard after the first
/// occurrence of its shape shares that leader's device-wide drivers.
/// On the re-staging path followers ride the broadcast of
/// shard-invariant operands for free
/// ([`softmap_ap::ApProgram::replay_resident`]); on the resident path
/// they execute the whole phase in SIMD lockstep and are charged only
/// their input staging ([`softmap_ap::ApProgram::replay_lockstep`]).
/// Leaders pay full price (their recording execution anchors the phase
/// program's cost). The rule is a pure function of the partition, so
/// compile-time totals and replay totals agree.
fn shard_follower(ranges: &[(usize, usize)], i: usize) -> bool {
    let len = ranges[i].1 - ranges[i].0;
    ranges[..i].iter().any(|&(s, e)| e - s == len)
}

/// How one shard's phase program replays: full price (leaders), the
/// hoisted-broadcast discount (re-staged followers), or the
/// wave-lockstep discount (resident followers).
#[derive(Clone, Copy, PartialEq, Eq)]
enum PhaseReplay {
    Full,
    Hoisted,
    Lockstep,
}

/// Replay pricing for shard `i` of a partition under a residency mode.
fn phase_replay(ranges: &[(usize, usize)], i: usize, resident: bool) -> PhaseReplay {
    match (shard_follower(ranges, i), resident) {
        (false, _) => PhaseReplay::Full,
        (true, false) => PhaseReplay::Hoisted,
        (true, true) => PhaseReplay::Lockstep,
    }
}

impl ApSoftmax {
    /// [`ApSoftmax::execute_codes_into`] with a sharded vector's
    /// shards fanned across up to `workers` host workers when it
    /// replays a cached plan (compiling, direct issue, and whole
    /// vectors run on the calling thread). One worker is exactly
    /// `execute_codes_into`.
    ///
    /// # Errors
    ///
    /// As [`ApSoftmax::execute_codes_into`]; the lowest-indexed failing
    /// worker's error.
    pub(crate) fn execute_codes_fanout(
        &self,
        state: &mut TileState,
        codes: &[i64],
        run: &mut ApSoftmaxRun,
        workers: usize,
    ) -> Result<(), CoreError> {
        self.execute_codes_mode(state, codes, run, self.plan_mode, workers)
    }

    /// Compiles the sharded plan for this vector by executing it once
    /// in compile mode on the calling thread.
    pub(super) fn compile_sharded(
        &self,
        state: &mut TileState,
        codes: &[i64],
        run: &mut ApSoftmaxRun,
        ranges: &[(usize, usize)],
        resident: bool,
    ) -> Result<CachedPlan, CoreError> {
        let started = std::time::Instant::now();
        let [min_plans, exp_plans, div_plans] = self.run_sharded(
            &mut state.shard,
            codes,
            run,
            ShardExec::Compile,
            ranges,
            resident,
            self.layout,
            1,
        )?;
        Ok(CachedPlan::Sharded(Arc::new(ShardedPlan {
            ranges: ranges.to_vec(),
            min_plans,
            exp_plans,
            div_plans,
            steps: run.steps.clone(),
            total: run.total,
            reduction: run.reduction,
            latency_cycles: run.latency_cycles,
            waves: run.waves,
            rows: run.rows,
            cols_used: run.cols_used,
            compile_micros: started.elapsed().as_secs_f64() * 1e6,
            resident,
        })))
    }

    /// The sharded executor (see the module docs): the three phases of
    /// `codes` over the shards `ranges`, split into `workers`
    /// contiguous chunks (clamped to the shard count) that run
    /// concurrently and meet at the two cross-tile synchronization
    /// points. `exec` selects direct issue, compile, or replay;
    /// `resident` the residency plan (shard tiles pinned across phases,
    /// phase-boundary staging elided, followers charged in lockstep)
    /// versus the re-staging path; `layout` the row packing the shards
    /// stage under (a tuned winner's, on tuned replay). Returns the
    /// phase programs compile mode collected, per phase in shard order
    /// (empty otherwise).
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
        workers: usize,
    ) -> Result<[Vec<Arc<CompiledPlan>>; 3], CoreError> {
        let shards = ranges.len();
        let workers = workers.clamp(1, shards);
        if shard.workers.len() < workers {
            shard.workers.resize_with(workers, WorkerScratch::default);
        }
        if shard.deposits.0.len() < 2 * shards {
            shard.deposits.0.resize_with(2 * shards, AtomicU64::default);
        }
        let pool = &mut shard.workers[..workers];
        // Worker 0 reads its outputs straight into the run's buffers;
        // the other workers' chunks are appended after the last phase.
        std::mem::swap(&mut pool[0].codes, &mut run.codes);
        std::mem::swap(&mut pool[0].vapprox, &mut run.vapprox);
        let ctx = PhaseCtx {
            exec,
            p: 0,
            codes,
            ranges,
            layout,
            resident,
            workers,
            deposits: &shard.deposits.0[..2 * shards],
            scalar: 0,
        };
        let barrier = Barrier::new(workers);
        let failed = AtomicBool::new(false);
        batch::fan_out_with(pool, |j, w| self.run_worker(ctx, j, w, &barrier, &failed));
        let (first, rest) = pool.split_first_mut().expect("at least one worker");
        for w in rest.iter() {
            first.codes.extend_from_slice(&w.codes);
            first.vapprox.extend_from_slice(&w.vapprox);
        }
        std::mem::swap(&mut first.codes, &mut run.codes);
        std::mem::swap(&mut first.vapprox, &mut run.vapprox);
        if let Some(err) = pool.iter_mut().find_map(|w| w.err.take()) {
            return Err(err);
        }
        debug_assert_eq!(run.codes.len(), codes.len());

        // Merge the workers' accounting in shard order, phase by phase
        // with the cross-tile reductions in between: identical step
        // names, totals, and first-appearance order at any worker count.
        let mut compiled: [Vec<Arc<CompiledPlan>>; 3] = Default::default();
        let mut total = CycleStats::default();
        let mut reduction = CycleStats::default();
        let mut latency = 0;
        let mut cols = 0;
        let networks = [
            ("device: cross-tile min", self.cfg().m),
            ("device: cross-tile sum", self.sum_bits()),
        ];
        run.steps.clear();
        for (p, phase_cycles) in shard.phase_cycles.iter_mut().enumerate() {
            phase_cycles.clear();
            for w in pool.iter_mut() {
                for st in &w.steps[p] {
                    accumulate_step(&mut run.steps, st.name, st.stats);
                }
                phase_cycles.extend_from_slice(&w.cycles[p]);
                compiled[p].append(&mut w.plans[p]);
            }
            // Device view: critical path = per-phase wave makespans plus
            // the reduction-network cycles. Under residency the
            // followers' per-phase cycles are tiny (input staging only)
            // or zero, so the makespan collapses to the per-wave leader.
            latency += device::wave_makespan(phase_cycles, self.device.tiles, &mut shard.loads);
            if let Some(&(name, bits)) = networks.get(p) {
                let red = self.device.reduction_network(shards, bits);
                accumulate_step(&mut run.steps, name, red);
                reduction.accumulate(&red);
                latency += red.cycles();
            }
        }
        for w in pool.iter() {
            total.accumulate(&w.total);
            cols = cols.max(w.cols);
        }
        total.accumulate(&reduction);
        let partials = &ctx.deposits[shards..];
        run.frac_bits = self.sm.widths().frac_bits();
        run.sum = self.combine_partials(partials.iter().map(|d| d.load(Ordering::Relaxed)))?;
        run.total = total;
        run.rows = ranges
            .iter()
            .map(|&(s, e)| Self::packing_of(layout, e - s).1)
            .max()
            .unwrap_or(0);
        run.cols_used = cols;
        run.shards = shards;
        run.waves = self.device.waves(shards);
        run.latency_cycles = latency;
        run.reduction = reduction;
        Ok(compiled)
    }

    /// Worker `j`'s share of a vector: its chunk of each phase, shards
    /// `j·S/W .. (j+1)·S/W`. After the min and exp phases every worker
    /// meets the others at the barrier — every shard's result is then
    /// deposited — and combines the deposits itself (the same fold, so
    /// all workers agree). Once any worker has failed, the others skip
    /// their remaining work but still meet every barrier, so no worker
    /// ever waits for one that stopped.
    fn run_worker(
        &self,
        mut ctx: PhaseCtx<'_>,
        j: usize,
        w: &mut WorkerScratch,
        barrier: &Barrier,
        failed: &AtomicBool,
    ) {
        let shards = ctx.ranges.len();
        let (first, end) = (j * shards / ctx.workers, (j + 1) * shards / ctx.workers);
        w.codes.clear();
        w.vapprox.clear();
        w.total = CycleStats::default();
        w.cols = 0;
        w.err = None;
        // The pool only grows; steady-state execution re-acquires
        // existing arenas with zero allocations.
        let tiles = if ctx.resident { end - first } else { 1 };
        if w.tiles.len() < tiles {
            w.tiles.resize_with(tiles, ApTile::new);
        }
        let base = ctx.ranges[first].0;
        // `failed` and the deposits publish nothing but themselves, and
        // the barrier orders every write before every read.
        for (p, &phase) in PHASES.iter().enumerate() {
            ctx.p = p;
            w.steps[p].clear();
            w.cycles[p].clear();
            w.plans[p].clear();
            if !failed.load(Ordering::Relaxed) {
                let chunk =
                    (first..end).try_for_each(|i| self.shard_phase(&ctx, w, i, i - first, base));
                if let Err(e) = chunk {
                    w.err = Some(e);
                    failed.store(true, Ordering::Relaxed);
                }
            }
            if phase == PlanPhase::ShardDiv {
                break;
            }
            barrier.wait();
            if failed.load(Ordering::Relaxed) {
                continue;
            }
            let results = ctx.deposits[p * shards..(p + 1) * shards]
                .iter()
                .map(|d| d.load(Ordering::Relaxed));
            let scalar = if phase == PlanPhase::ShardMin {
                Ok(results.min().expect("shards >= 1"))
            } else {
                self.combine_partials(results)
            };
            match scalar {
                Ok(scalar) => ctx.scalar = scalar,
                Err(e) => {
                    w.err = Some(e);
                    failed.store(true, Ordering::Relaxed);
                }
            }
        }
    }

    /// One shard's share of one phase — the per-shard body of every
    /// mode and worker count: pack the shard's inputs, pick its tile,
    /// replay its phase program (or issue the phase, and in compile
    /// mode record, optimize, and cache its program), and deposit the
    /// result scalar, cycles, and steps. `slot` is the shard's index in
    /// the worker's chunk, whose outputs start at element `base`.
    fn shard_phase(
        &self,
        ctx: &PhaseCtx<'_>,
        w: &mut WorkerScratch,
        i: usize,
        slot: usize,
        base: usize,
    ) -> Result<(), CoreError> {
        let (phase, resident) = (PHASES[ctx.p], ctx.resident);
        let (s, e) = ctx.ranges[i];
        let (packed, rows) = Self::packing_of(ctx.layout, e - s);
        let WorkerScratch {
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
        let (steps, plans) = (&mut steps[ctx.p], &mut plans[ctx.p]);
        let tile = &mut tiles[if resident { slot } else { 0 }];
        let key = self.shard_key(e - s, phase, resident);
        let peeked;
        let program = match ctx.exec {
            ShardExec::Direct => None,
            ShardExec::Replay(plan) => Some(match phase {
                PlanPhase::ShardMin => &plan.min_plans[i],
                PlanPhase::ShardExp => &plan.exp_plans[i],
                _ => &plan.div_plans[i],
            }),
            ShardExec::Compile => {
                peeked = self.plans.peek(&key);
                match &peeked {
                    Some(CachedPlan::Program(p)) => Some(p),
                    _ => None,
                }
            }
        };
        // A resident exp or divide phase finds its inputs in the pinned
        // tile: the host stages them only for a re-staged phase, or to
        // prestage the optimizer's recost of a resident recording.
        let rearm = resident && phase != PlanPhase::ShardMin;
        let (halves, mut out) = if phase == PlanPhase::ShardDiv {
            let vap = &vapprox[s - base..e - base];
            ([&vap[..rows], &vap[rows.min(vap.len())..]], Some(codes))
        } else {
            if !rearm || program.is_none() {
                pack_halves(ctx.layout, &ctx.codes[s..e], half0, half1);
            }
            let out = (phase == PlanPhase::ShardExp).then_some(vapprox);
            ([half0.as_slice(), half1.as_slice()], out)
        };
        let halves = &halves[..1 + usize::from(packed)];
        let inputs: &[&[u64]] = if rearm { &[] } else { halves };
        let scalar = [ctx.scalar];
        let scalars: &[u64] = if phase == PlanPhase::ShardMin {
            &[]
        } else {
            &scalar
        };
        let mark = out.as_ref().map_or(0, |o| o.len());
        let outs = out.as_mut_slice();
        let (stats, cols, result) = if let Some(p) = program {
            let io = ExecIo::new(inputs, outs).with_scalars(scalars);
            let mode = phase_replay(ctx.ranges, i, resident);
            let stats = self.replay_shard_phase(p, tile, scratch, io, steps, mode, rearm)?;
            if matches!(ctx.exec, ShardExec::Compile) {
                plans.push(Arc::clone(p));
            }
            (stats, p.cols_used(), scratch.reg(p.result_reg()))
        } else {
            let record = matches!(ctx.exec, ShardExec::Compile);
            let started = std::time::Instant::now();
            // A recording's steps are kept aside: the optimizer may
            // replace them with the fused schedule's.
            let mut recorded = Vec::new();
            let io = ExecIo::new(inputs, &mut *outs).with_scalars(scalars);
            let target = if record { &mut recorded } else { &mut *steps };
            let issued = self.issue_phase(
                phase,
                resident,
                tile,
                scratch,
                io,
                halves.len(),
                rows,
                target,
                record,
            )?;
            let (mut stats, mut result) = (issued.stats, issued.result);
            if let Some((mut program, reg)) = issued.program {
                let report = optimizer::optimize(&mut program, self.opt_level);
                if report.changed() {
                    // The recording's outputs and steps describe the
                    // unoptimized trace: roll the outputs back and charge
                    // the fused schedule once instead (also re-anchoring
                    // the program's static cost). A resident recost first
                    // re-creates, on its cleared tile, the planes the
                    // previous phase left in the pinned one.
                    for out in outs.iter_mut() {
                        out.truncate(mark);
                    }
                    let mut prestage: [(Field, &[u64]); 2] = [(Field::new(0, 0), &[]); 2];
                    let staged = if rearm { halves.len() } else { 0 };
                    for ((dst, f), &data) in prestage.iter_mut().zip(&issued.fields).zip(halves) {
                        let field = if phase == PlanPhase::ShardExp {
                            f.x
                        } else {
                            f.vapprox
                        };
                        *dst = (field, data);
                    }
                    let io = ExecIo::new(inputs, outs).with_scalars(scalars);
                    let prestage = &prestage[..staged];
                    stats = self.recost(&mut program, tile, scratch, io, prestage, steps)?;
                    result = scratch.reg(reg);
                } else {
                    for st in &recorded {
                        accumulate_step(steps, st.name, st.stats);
                    }
                }
                self.apply_blocking(&mut program);
                let p = Arc::new(CompiledPlan::new(
                    program,
                    reg,
                    rows,
                    issued.cols_used,
                    report,
                    started.elapsed().as_secs_f64() * 1e6,
                ));
                self.plans.insert(key, CachedPlan::Program(Arc::clone(&p)));
                plans.push(p);
            }
            (stats, issued.cols_used, result)
        };
        // The divide phase has no deposit slots.
        if let Some(slot) = ctx.deposits.get(ctx.p * ctx.ranges.len() + i) {
            slot.store(result, Ordering::Relaxed);
        }
        cycles[ctx.p].push(stats.cycles());
        w.total.accumulate(&stats);
        w.cols = w.cols.max(cols);
        Ok(())
    }

    /// Replays one shard-phase program on a tile. `mode` selects the
    /// pricing (see [`phase_replay`]); `rearm` keeps the tile's CAM
    /// cells across the call (resident phases re-arm their pinned tile
    /// instead of clearing it, so the previous phase's output planes
    /// survive as this phase's inputs).
    #[allow(clippy::too_many_arguments)]
    fn replay_shard_phase(
        &self,
        plan: &CompiledPlan,
        tile: &mut ApTile,
        scratch: &mut ProgramScratch,
        io: ExecIo<'_, '_>,
        steps: &mut Vec<StepStats>,
        mode: PhaseReplay,
        rearm: bool,
    ) -> Result<CycleStats, CoreError> {
        let config = plan.program().config();
        let ap = if rearm {
            tile.rearm_resident(config, self.backend)?
        } else {
            tile.acquire(config, self.backend)?
        };
        let on_step = |name: &'static str, stats: CycleStats| accumulate_step(steps, name, stats);
        match mode {
            PhaseReplay::Full => plan.program().replay(ap, io, scratch, on_step)?,
            PhaseReplay::Hoisted => plan.program().replay_resident(ap, io, scratch, on_step)?,
            PhaseReplay::Lockstep => plan.program().replay_lockstep(ap, io, scratch, on_step)?,
        }
        Ok(ap.stats())
    }

    /// Combines per-shard partial sums over the reduction network in
    /// the scalar spec's overflow mode — bit-identical to the
    /// whole-vector reduction because saturating/wrapping addition of
    /// non-negative values is order-independent.
    fn combine_partials(&self, partials: impl Iterator<Item = u64>) -> Result<u64, CoreError> {
        let sum_bits = self.sum_bits();
        let mask: u128 = if sum_bits >= 128 {
            u128::MAX
        } else {
            (1u128 << sum_bits) - 1
        };
        let exact: u128 = partials.map(u128::from).sum();
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
mod tests {
    use super::*;
    use softmap_ap::{DeviceConfig, ExecBackend};
    use softmap_softmax::{PrecisionConfig, SumMode};

    fn scores(len: usize) -> Vec<f64> {
        (0..len).map(|i| -(((i * 7) % 97) as f64) * 0.07).collect()
    }

    fn quantized(sm: &ApSoftmax, len: usize) -> Vec<i64> {
        let mut codes = Vec::new();
        sm.spec().quantize_into(&scores(len), &mut codes);
        codes
    }

    /// Field-by-field run equality: bit-exact outputs *and* identical
    /// cost accounting (the fan-out merely evaluates the same plan
    /// concurrently).
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
            let mut fan_state = TileState::new();
            // More workers than shards clamps; odd counts exercise the
            // uneven contiguous chunking.
            for threads in [2, 3, 16] {
                let mut out = ApSoftmaxRun::default();
                sm.execute_codes_fanout(&mut fan_state, &codes, &mut out, threads)
                    .unwrap();
                assert_runs_equal(
                    &out,
                    &seq,
                    &format!("resident={resident} threads={threads}"),
                );
            }
        }
    }

    #[test]
    fn fanout_replays_the_autotuned_sharded_winner() {
        // Default mapping autotunes: the fan-out must resolve the tuned
        // entry's sharded winner and replay under the winning layout.
        let sm = ApSoftmax::new(PrecisionConfig::paper_best())
            .unwrap()
            .with_backend(ExecBackend::FastWord)
            .with_device(DeviceConfig::new(2, 8));
        let codes = quantized(&sm, 48);
        let mut state = TileState::new();
        let mut seq = ApSoftmaxRun::default();
        sm.execute_codes_into(&mut state, &codes, &mut seq).unwrap();
        sm.execute_codes_into(&mut state, &codes, &mut seq).unwrap();
        let hits_before = sm.plan_stats().hits;
        let mut out = ApSoftmaxRun::default();
        sm.execute_codes_fanout(&mut state, &codes, &mut out, 2)
            .unwrap();
        assert_runs_equal(&out, &seq, "tuned winner");
        assert!(
            sm.plan_stats().hits > hits_before,
            "the fan-out replay must count as a plan-cache hit"
        );
    }

    #[test]
    fn fanout_matches_sequential_on_the_default_grid() {
        // The acceptance shape: 16384 scores on the paper's 48-tile
        // grid, through the default (autotuned) configuration.
        let sm = ApSoftmax::new(PrecisionConfig::paper_best())
            .unwrap()
            .with_backend(ExecBackend::FastWord);
        let codes = quantized(&sm, 16384);
        let mut state = TileState::new();
        let mut seq = ApSoftmaxRun::default();
        sm.execute_codes_into(&mut state, &codes, &mut seq).unwrap();
        sm.execute_codes_into(&mut state, &codes, &mut seq).unwrap();
        assert!(seq.shards > 1);
        let mut out = ApSoftmaxRun::default();
        sm.execute_codes_fanout(&mut state, &codes, &mut out, 4)
            .unwrap();
        assert_runs_equal(&out, &seq, "default grid 16384");
    }

    #[test]
    fn fanout_falls_back_when_it_cannot_fan_out() {
        let sm = ApSoftmax::new(PrecisionConfig::paper_best())
            .unwrap()
            .with_autotune(false)
            .with_backend(ExecBackend::FastWord)
            .with_device(DeviceConfig::new(2, 8));
        let codes = quantized(&sm, 48);
        let mut state = TileState::new();

        // First sight of a shape: the fallback compiles it.
        let mut first = ApSoftmaxRun::default();
        sm.execute_codes_fanout(&mut state, &codes, &mut first, 4)
            .unwrap();
        assert!(
            sm.plan_stats().compiles >= 1,
            "the sequential fallback must compile the shape"
        );
        let mut seq = ApSoftmaxRun::default();
        sm.execute_codes_into(&mut state, &codes, &mut seq).unwrap();
        assert_eq!(first.codes, seq.codes, "compile and replay stay bit-exact");

        // The shape is cached now; a second fan-out takes the parallel
        // path and matches the sequential replay exactly.
        let mut out = ApSoftmaxRun::default();
        sm.execute_codes_fanout(&mut state, &codes, &mut out, 4)
            .unwrap();
        assert_runs_equal(&out, &seq, "post-compile fan-out");

        // A single effective worker replays sequentially.
        let mut one = ApSoftmaxRun::default();
        sm.execute_codes_fanout(&mut state, &codes, &mut one, 1)
            .unwrap();
        assert_runs_equal(&one, &seq, "threads=1 fallback");

        // Unsharded shapes route to the whole-vector path.
        let short = quantized(&sm, 8);
        let mut whole = ApSoftmaxRun::default();
        sm.execute_codes_fanout(&mut state, &short, &mut whole, 4)
            .unwrap();
        assert_eq!(whole.shards, 1, "8 scores fit one 8-row tile");

        // Empty input errors identically to the sequential entry point.
        let mut sink = ApSoftmaxRun::default();
        assert!(matches!(
            sm.execute_codes_fanout(&mut state, &[], &mut sink, 2),
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
            for workers in [1, 2, 3] {
                let what = format!("{len} scores, {workers} workers");
                let mut state = TileState::new();
                let mut run = ApSoftmaxRun::default();
                let err = sm
                    .execute_codes_fanout(&mut state, &flat_codes, &mut run, workers)
                    .unwrap_err();
                assert_eq!(
                    err,
                    CoreError::Ap(ApError::WidthOverflow {
                        value: 28672,
                        width: 14
                    }),
                    "{what}"
                );
                sm.execute_codes_fanout(&mut state, &peaked_codes, &mut run, workers)
                    .unwrap();
                assert_runs_equal(&run, &want, &what);
            }
        }
    }
}
