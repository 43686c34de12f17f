//! Compiler passes over a recorded [`ApOp`] trace.
//!
//! The mapped dataflow is compiled once and replayed forever (see the
//! parent module), which makes it worth optimizing the way real
//! accelerator stacks do: rewrite the trace, then let the plan cache
//! amortize the rewrite over every subsequent vector. Four passes run
//! at [`OptLevel::Full`]; [`OptLevel::None`] runs none:
//!
//! 1. **Shift/copy fusion** — a `ShrConst` whose shifted
//!    field is next consumed by a single in-range `Copy` and then fully
//!    overwritten folds into the copy's source window: the controller
//!    reads the pre-shift columns directly instead of physically moving
//!    every plane.
//! 2. **Constant-multiplier folding** — a
//!    `Broadcast(Const)` feeding `Mul` as the multiplier becomes
//!    [`ApOp::MulConst`]: zero bits of the constant issue no LUT sweep
//!    at all and set bits run ungated, while the gated multiply must
//!    spend full compare cycles per multiplier bit to discover its
//!    gates.
//! 3. **Division fusion and batching** — restoring `Divide`
//!    ops become [`ApOp::FusedDivide`] (per-iteration remainder shifts
//!    replaced by window renaming with one canonicalization sweep), and
//!    adjacent fused divisions sharing a divisor batch into a single
//!    arena pass.
//! 4. **Dead-write elimination** — a backward plane-liveness
//!    scan over field column ranges removes `Broadcast`/`Load`/`Copy`
//!    writes that are fully overwritten before any read. Liveness
//!    starts *full* at the end of the trace, so any plane visible when
//!    the program finishes is preserved bit-for-bit.
//!
//! A final analysis marks **hoistable broadcasts** — broadcasts of
//! compile-time constants or of registers derived only from external
//! scalar inputs ([`ApOp::RegLoad`] chains). These are shard-invariant:
//! in a sharded wave every tile receives the identical broadcast, so
//! the device drives all write drivers in parallel and only the first
//! shard pays the cycles. A replay priced at
//! [`ReplayCharge::Hoisted`](super::ReplayCharge::Hoisted) applies the
//! discount; plane writes always happen.
//!
//! # The two contracts
//!
//! *Bit-exactness*: an optimized replay leaves CAM planes — the
//! reserved carry/flag columns included — identical to the unoptimized
//! replay and to direct issue, on both backends (enforced by
//! `crates/ap/tests/optimizer_diff.rs`).
//!
//! *Static == simulated*: the passes run on a recorded, uncosted trace,
//! and a compile prices only the final schedule: one
//! [`ApProgram::recost`] after the pipeline charges the *fused*
//! schedule and anchors [`ApProgram::static_cost`] /
//! [`ApProgram::static_steps`] to it. Rewriting an already costed
//! program clears its costs, so it is uncosted again until the next
//! `recost`.

use super::{ApOp, ApProgram, Operand, RegId};
use crate::{CycleStats, DivStyle, Field};

/// How aggressively [`optimize`] rewrites a trace. The default is
/// [`OptLevel::Full`]; [`OptLevel::None`] is the escape hatch that
/// keeps the recorded trace byte-for-byte. Outside the differential
/// tests only `backend_compare` sets it: its unoptimized series are the
/// baselines of `scripts/bench_ap.sh`'s opt gate (the
/// `cycles/fastword/*` records) and replay gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub enum OptLevel {
    /// No rewriting: replay the trace exactly as recorded.
    None,
    /// Every pass: shift/copy fusion, constant-multiplier folding,
    /// fused and batched division, dead-write elimination, and
    /// hoistable-broadcast marking.
    #[default]
    Full,
}

impl OptLevel {
    /// The optimization ladder in ascending aggressiveness. Every
    /// level's passes are a superset of the previous level's and each
    /// pass only removes or fuses work, so the static cost of a shape
    /// is non-increasing along the ladder (asserted by the
    /// `fused_schedule_is_cheaper` gates). Mapping autotuners can
    /// therefore prune the opt axis to the single configured level
    /// instead of compiling a candidate per level.
    #[must_use]
    pub const fn ladder() -> [Self; 2] {
        [Self::None, Self::Full]
    }
}

/// Per-pass statistics of one [`optimize`] run, attached to compiled
/// plans so optimizer effectiveness is inspectable without re-running
/// benches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PassReport {
    /// The level the pipeline ran at.
    pub level: OptLevel,
    /// Ops in the trace before any pass (step marks included).
    pub ops_before: usize,
    /// Ops after all passes.
    pub ops_after: usize,
    /// `ShrConst` sweeps folded into their consuming copy's source
    /// window.
    pub shr_fused: usize,
    /// `Broadcast(Const)` + `Mul` pairs folded into [`ApOp::MulConst`].
    pub muls_folded: usize,
    /// Restoring `Divide` ops rewritten to [`ApOp::FusedDivide`].
    pub divides_fused: usize,
    /// Adjacent fused divisions merged into one batched arena pass.
    pub divides_batched: usize,
    /// Dead `Broadcast`/`Load`/`Copy` plane writes removed.
    pub dead_writes: usize,
    /// Broadcasts marked shard-invariant (hoistable at
    /// [`ReplayCharge::Hoisted`](super::ReplayCharge::Hoisted)).
    pub hoisted: usize,
}

impl PassReport {
    /// Whether the pipeline rewrote the trace — if so, any costs the
    /// program carried were cleared and the caller must
    /// [`ApProgram::recost`] before trusting
    /// [`ApProgram::static_cost`].
    #[must_use]
    pub fn changed(&self) -> bool {
        self.ops_before != self.ops_after || self.muls_folded > 0 || self.divides_fused > 0
    }
}

impl core::fmt::Display for PassReport {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "opt={:?} ops {}→{}: shr_fused={} muls_folded={} divides_fused={} \
             (batched={}) dead_writes={} hoisted={}",
            self.level,
            self.ops_before,
            self.ops_after,
            self.shr_fused,
            self.muls_folded,
            self.divides_fused,
            self.divides_batched,
            self.dead_writes,
            self.hoisted,
        )
    }
}

/// Runs the pass pipeline over `program`'s trace at `level` and returns
/// the per-pass statistics.
///
/// When the report says [`PassReport::changed`], the program's per-op
/// costs, static total, and step segments have been cleared — run
/// [`ApProgram::recost`] once to derive them from the fused schedule
/// (the mapping layer's compile path prices every traced program this
/// way after the pipeline, changed or not).
pub fn optimize(program: &mut ApProgram, level: OptLevel) -> PassReport {
    let mut report = PassReport {
        level,
        ops_before: program.ops.len(),
        ops_after: program.ops.len(),
        ..PassReport::default()
    };
    if level == OptLevel::None {
        return report;
    }
    report.shr_fused = fuse_shr_copy(&mut program.ops);
    report.muls_folded = fold_mul_const(&mut program.ops);
    let (fused, batched) = fuse_divides(&mut program.ops);
    report.divides_fused = fused;
    report.divides_batched = batched;
    report.dead_writes = eliminate_dead_writes(&mut program.ops, program.config.cols);
    // Hoist marking runs last so the recorded indices survive every
    // op-removing pass above.
    program.hoisted = mark_hoistable(&program.ops);
    report.hoisted = program.hoisted.len();
    report.ops_after = program.ops.len();
    if report.changed() {
        // Any per-op costs describe the pre-rewrite trace; drop them so
        // a forgotten recost reports an uncosted program instead of
        // stale numbers.
        program.costs.clear();
        program.static_total = CycleStats::default();
        program.static_steps.clear();
        // Any region-blocking plan indexed the pre-rewrite trace;
        // re-plan after the pipeline settles.
        program.blocking = None;
    }
    report
}

// ---- field/op analysis helpers ------------------------------------------

fn contains(outer: Field, inner: Field) -> bool {
    inner.start() >= outer.start() && inner.end() <= outer.end()
}

fn mask(width: usize) -> u64 {
    if width >= 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    }
}

/// Calls `f` for every field whose planes `op` reads. Read-modify-write
/// accumulators count as reads; register-only ops read no planes. With
/// [`for_each_write`], the one per-op footprint table: the passes here
/// and the parent module's region planner (`ApProgram::plan_blocking`,
/// the region preflight) read it. The reserved carry/flag columns are
/// not listed.
pub(crate) fn for_each_read(op: &ApOp, f: &mut dyn FnMut(Field)) {
    match *op {
        ApOp::Copy { src, .. } => f(src),
        ApOp::Mul { a, b, .. } => {
            f(a);
            f(b);
        }
        ApOp::MulConst { a, .. } => f(a),
        ApOp::AddInto { acc, src }
        | ApOp::SubAssertClean { acc, src }
        | ApOp::SaturatingSubInto { acc, src } => {
            f(acc);
            f(src);
        }
        ApOp::ShrConst { field, .. } | ApOp::MinSearch { field, .. } | ApOp::Read { field, .. } => {
            f(field);
        }
        ApOp::ShrVariable { field, amount } => {
            f(field);
            f(amount);
        }
        // The 2D reduction is destructive over both fields; treating
        // them as read+write keeps every earlier write to them alive.
        ApOp::ReduceSum {
            field, sum_field, ..
        } => {
            f(field);
            f(sum_field);
        }
        ApOp::Divide { num, den, .. } => {
            f(num);
            f(den);
        }
        ApOp::FusedDivide {
            den,
            ref channels,
            n_channels,
            ..
        } => {
            f(den);
            for &(num, _) in &channels[..n_channels as usize] {
                f(num);
            }
        }
        ApOp::Load { .. }
        | ApOp::Broadcast { .. }
        | ApOp::RegMin { .. }
        | ApOp::RegMax1 { .. }
        | ApOp::RegLoad { .. }
        | ApOp::Step { .. } => {}
    }
}

/// Calls `f` for every field whose planes `op` writes (fully or
/// partially); see [`for_each_read`].
pub(crate) fn for_each_write(op: &ApOp, f: &mut dyn FnMut(Field)) {
    match *op {
        ApOp::Load { field, .. }
        | ApOp::Broadcast { field, .. }
        | ApOp::ShrConst { field, .. }
        | ApOp::ShrVariable { field, .. } => f(field),
        ApOp::Copy { dst, .. } => f(dst),
        ApOp::Mul { r, .. } | ApOp::MulConst { r, .. } => f(r),
        ApOp::AddInto { acc, .. }
        | ApOp::SubAssertClean { acc, .. }
        | ApOp::SaturatingSubInto { acc, .. } => f(acc),
        ApOp::ReduceSum {
            field, sum_field, ..
        } => {
            f(field);
            f(sum_field);
        }
        ApOp::Divide { quot, .. } => f(quot),
        ApOp::FusedDivide {
            ref channels,
            n_channels,
            ..
        } => {
            for &(_, quot) in &channels[..n_channels as usize] {
                f(quot);
            }
        }
        ApOp::MinSearch { .. }
        | ApOp::RegMin { .. }
        | ApOp::RegMax1 { .. }
        | ApOp::RegLoad { .. }
        | ApOp::Read { .. }
        | ApOp::Step { .. } => {}
    }
}

/// Whether `op` reads or writes any plane overlapping `f`.
fn touches(op: &ApOp, f: Field) -> bool {
    let mut t = false;
    for_each_read(op, &mut |x| t |= x.overlaps(&f));
    for_each_write(op, &mut |x| t |= x.overlaps(&f));
    t
}

/// Whether `op` writes any plane overlapping `f`.
pub(crate) fn writes_touch(op: &ApOp, f: Field) -> bool {
    let mut t = false;
    for_each_write(op, &mut |x| t |= x.overlaps(&f));
    t
}

/// Whether `op` overwrites every plane of `f` with values independent
/// of `f`'s prior content (a *kill*: all pre-cleared full-field write
/// classes qualify, read-modify-write ops never do).
fn kills_fully(op: &ApOp, f: Field) -> bool {
    match *op {
        ApOp::Broadcast { field, .. } | ApOp::Load { field, .. } => contains(field, f),
        ApOp::Copy { src, dst } => contains(dst, f) && !src.overlaps(&f),
        ApOp::Mul { a, b, r } => contains(r, f) && !a.overlaps(&f) && !b.overlaps(&f),
        ApOp::MulConst { a, r, .. } => contains(r, f) && !a.overlaps(&f),
        _ => false,
    }
}

/// Column-granular liveness set over the whole arena (carry/flag and
/// scratch columns included — they are simply never cleared, which
/// keeps every op that touches them alive).
struct ColSet {
    words: Vec<u64>,
}

impl ColSet {
    fn full(cols: usize) -> Self {
        Self {
            words: vec![u64::MAX; cols.div_ceil(64).max(1)],
        }
    }

    fn set_range(&mut self, f: Field) {
        for c in f.start()..f.end() {
            self.words[c / 64] |= 1 << (c % 64);
        }
    }

    fn clear_range(&mut self, f: Field) {
        for c in f.start()..f.end() {
            self.words[c / 64] &= !(1 << (c % 64));
        }
    }

    fn intersects(&self, f: Field) -> bool {
        (f.start()..f.end()).any(|c| self.words[c / 64] >> (c % 64) & 1 == 1)
    }
}

// ---- passes -------------------------------------------------------------

/// Pass 1: fold `ShrConst` into the `Copy` that consumes the shifted
/// field, when the field is fully overwritten before any other read.
/// The copy's source window moves up by the shift amount; the physical
/// plane sweep disappears.
fn fuse_shr_copy(ops: &mut Vec<ApOp>) -> usize {
    let mut fused = 0;
    let mut i = 0;
    while i < ops.len() {
        if let ApOp::ShrConst { field, k } = ops[i] {
            if k > 0 && k < field.width() && try_fuse_shr_at(ops, i, field, k) {
                fused += 1;
                // Re-examine index i: the shift was removed.
                continue;
            }
        }
        i += 1;
    }
    fused
}

fn try_fuse_shr_at(ops: &mut Vec<ApOp>, i: usize, field: Field, k: usize) -> bool {
    // The first op touching the shifted field must be a copy out of it
    // whose source window (shifted up by k) stays inside the field —
    // i.e. it never reads the shift's zero-fill.
    let Some(j) = (i + 1..ops.len()).find(|&j| touches(&ops[j], field)) else {
        return false;
    };
    let ApOp::Copy { src, dst } = ops[j] else {
        return false;
    };
    if !contains(field, src) || dst.overlaps(&field) {
        return false;
    }
    let s = src.start() - field.start();
    if s + src.width() + k > field.width() {
        return false;
    }
    // After the copy, the field's planes differ from the shifted ones,
    // so the next op touching it must overwrite it completely.
    let killed = match (j + 1..ops.len()).find(|&l| touches(&ops[l], field)) {
        Some(l) => kills_fully(&ops[l], field),
        None => false,
    };
    if !killed {
        return false;
    }
    ops[j] = ApOp::Copy {
        src: field.sub(s + k, src.width()),
        dst,
    };
    ops.remove(i);
    true
}

/// Pass 2: fold `Broadcast(Const)` + `Mul` pairs into
/// [`ApOp::MulConst`]. The broadcast itself stays (dead-write
/// elimination removes it if nothing else needs the planes).
fn fold_mul_const(ops: &mut [ApOp]) -> usize {
    let mut folded = 0;
    for i in 0..ops.len() {
        let ApOp::Broadcast {
            field,
            value: Operand::Const(c),
        } = ops[i]
        else {
            continue;
        };
        for op in ops.iter_mut().skip(i + 1) {
            if let ApOp::Mul { a, b, r } = *op {
                if contains(field, b) && !r.overlaps(&field) {
                    let bits = (c >> (b.start() - field.start())) & mask(b.width());
                    *op = ApOp::MulConst {
                        a,
                        r,
                        bits,
                        width: b.width(),
                    };
                    folded += 1;
                    continue;
                }
            }
            // Any write into the broadcast planes invalidates the
            // constant from here on.
            if writes_touch(op, field) {
                break;
            }
        }
    }
    folded
}

/// Pass 3: rewrite restoring `Divide` ops to [`ApOp::FusedDivide`]
/// (window-renamed remainder shifts), then batch adjacent fused
/// divisions sharing a divisor and fraction width into one arena pass.
fn fuse_divides(ops: &mut Vec<ApOp>) -> (usize, usize) {
    let mut fused = 0;
    for op in ops.iter_mut() {
        if let ApOp::Divide {
            num,
            den,
            quot,
            frac_bits,
            style: DivStyle::Restoring,
        } = *op
        {
            *op = ApOp::FusedDivide {
                den,
                frac_bits,
                channels: [(num, quot); 2],
                n_channels: 1,
            };
            fused += 1;
        }
    }
    let mut batched = 0;
    let mut i = 0;
    while i + 1 < ops.len() {
        if let (
            ApOp::FusedDivide {
                den,
                frac_bits,
                channels,
                n_channels: 1,
            },
            ApOp::FusedDivide {
                den: den2,
                frac_bits: frac2,
                channels: channels2,
                n_channels: 1,
            },
        ) = (ops[i], ops[i + 1])
        {
            if den == den2 && frac_bits == frac2 {
                ops[i] = ApOp::FusedDivide {
                    den,
                    frac_bits,
                    channels: [channels[0], channels2[0]],
                    n_channels: 2,
                };
                ops.remove(i + 1);
                batched += 1;
                continue;
            }
        }
        i += 1;
    }
    (fused, batched)
}

/// Pass 4: backward plane-liveness scan. Liveness starts full at the
/// end of the trace (every plane a finished program leaves behind is
/// observable, so final state is preserved bit-for-bit); only the
/// register- and carry-free full-write classes (`Broadcast`, `Load`,
/// `Copy`) are removal candidates, and every other op conservatively
/// only *adds* liveness for its reads.
fn eliminate_dead_writes(ops: &mut Vec<ApOp>, cols: usize) -> usize {
    let mut live = ColSet::full(cols);
    let mut keep = vec![true; ops.len()];
    let mut removed = 0;
    for i in (0..ops.len()).rev() {
        let (dst, src) = match ops[i] {
            ApOp::Broadcast { field, .. } | ApOp::Load { field, .. } => (Some(field), None),
            ApOp::Copy { src, dst } => (Some(dst), Some(src)),
            _ => (None, None),
        };
        if let Some(dst) = dst {
            if live.intersects(dst) {
                live.clear_range(dst);
                if let Some(src) = src {
                    live.set_range(src);
                }
            } else {
                keep[i] = false;
                removed += 1;
            }
        } else {
            for_each_read(&ops[i], &mut |f| live.set_range(f));
        }
    }
    if removed > 0 {
        let mut it = keep.iter();
        ops.retain(|_| *it.next().expect("keep mask parallel to ops"));
    }
    removed
}

/// Final analysis: broadcasts of shard-invariant values — compile-time
/// constants, or registers derived purely from external scalar inputs
/// through controller-side ops. Per-shard quantities (min-search
/// results, reduction sums) poison the derivation.
fn mark_hoistable(ops: &[ApOp]) -> Vec<u32> {
    let mut invariant: Vec<bool> = Vec::new();
    let set = |inv: &mut Vec<bool>, id: RegId, val: bool| {
        let i = id.index();
        if inv.len() <= i {
            inv.resize(i + 1, false);
        }
        inv[i] = val;
    };
    let get = |inv: &[bool], id: RegId| inv.get(id.index()).copied().unwrap_or(false);
    let mut out = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        match *op {
            ApOp::RegLoad { dst, .. } => set(&mut invariant, dst, true),
            ApOp::RegMax1 { dst, src } => {
                let v = get(&invariant, src);
                set(&mut invariant, dst, v);
            }
            ApOp::RegMin { dst, a, b } => {
                let v = get(&invariant, a) && get(&invariant, b);
                set(&mut invariant, dst, v);
            }
            ApOp::MinSearch { dst, .. } | ApOp::ReduceSum { dst, .. } => {
                set(&mut invariant, dst, false);
            }
            ApOp::Broadcast { value, .. } => {
                let inv = match value {
                    Operand::Const(_) => true,
                    Operand::Reg(r) => get(&invariant, r),
                };
                if inv {
                    out.push(u32::try_from(i).expect("trace longer than u32::MAX ops"));
                }
            }
            _ => {}
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{ExecIo, ProgramScratch, Recorder};
    use crate::{ApConfig, ApCore, ExecBackend};

    /// Records the ops `build` issues on fields of `widths`, allocated
    /// in order on a `rows` x `cols` core.
    fn record_with(
        rows: usize,
        cols: usize,
        widths: &[usize],
        build: impl FnOnce(&mut Recorder<'_, '_>, &[Field]),
    ) -> ApProgram {
        let mut core =
            ApCore::with_backend(ApConfig::new(rows, cols), ExecBackend::Microcode).unwrap();
        let fields: Vec<Field> = widths
            .iter()
            .map(|&w| core.alloc_field(w).unwrap())
            .collect();
        let mut scratch = ProgramScratch::default();
        let mut on_step = |_: &'static str, _: CycleStats| {};
        let mut rec = Recorder::new(
            &mut core,
            ExecIo::new(&[], &mut []),
            &mut scratch,
            &mut on_step,
            true,
        );
        build(&mut rec, &fields);
        rec.finish().unwrap()
    }

    #[test]
    fn none_level_is_identity() {
        let mut program = record_with(4, 40, &[8, 8], |rec, f| {
            rec.load(f[0], 0).unwrap();
            rec.broadcast(f[1], 3).unwrap();
            rec.add_into(f[0], f[1]).unwrap();
            rec.read(f[0], 0).unwrap();
        });
        let before = program.ops.clone();
        let report = optimize(&mut program, OptLevel::None);
        assert!(!report.changed());
        assert_eq!(program.ops, before);
        assert!(program.hoisted.is_empty());
    }

    #[test]
    fn shr_copy_fuses_into_source_window() {
        // work = x * k; work >>= 4; q = work[0..8); work fully killed.
        let mut program = record_with(4, 80, &[8, 8, 20, 8], |rec, f| {
            rec.load(f[0], 0).unwrap();
            rec.broadcast(f[1], 37).unwrap();
            rec.mul(f[0], f[1], f[2]).unwrap();
            rec.shr_const(f[2], 4).unwrap();
            rec.copy(f[2].sub(0, 8), f[3]).unwrap();
            rec.broadcast(f[2], 0).unwrap();
            rec.read(f[3], 0).unwrap();
        });
        assert_eq!(fuse_shr_copy(&mut program.ops), 1);
        assert!(!program
            .ops
            .iter()
            .any(|op| matches!(op, ApOp::ShrConst { .. })));
        let copy = program
            .ops
            .iter()
            .find_map(|op| match *op {
                ApOp::Copy { src, dst } => Some((src, dst)),
                _ => None,
            })
            .unwrap();
        // The source window moved up by the shift amount.
        assert_eq!(copy.0.width(), 8);
        assert_eq!(copy.1.width(), 8);
    }

    #[test]
    fn shr_copy_does_not_fuse_when_field_stays_visible() {
        // No kill after the copy: the shifted planes are final state.
        let mut program = record_with(4, 80, &[8, 8, 20, 8], |rec, f| {
            rec.load(f[0], 0).unwrap();
            rec.broadcast(f[1], 37).unwrap();
            rec.mul(f[0], f[1], f[2]).unwrap();
            rec.shr_const(f[2], 4).unwrap();
            rec.copy(f[2].sub(0, 8), f[3]).unwrap();
            rec.read(f[3], 0).unwrap();
        });
        assert_eq!(fuse_shr_copy(&mut program.ops), 0);
        assert!(program
            .ops
            .iter()
            .any(|op| matches!(op, ApOp::ShrConst { .. })));
    }

    #[test]
    fn mul_folds_to_const_with_subfield_extraction() {
        let mut program = record_with(4, 80, &[6, 13, 20], |rec, f| {
            rec.load(f[0], 0).unwrap();
            rec.broadcast(f[1], 1365).unwrap();
            rec.mul(f[0], f[1], f[2]).unwrap();
            rec.read(f[2], 0).unwrap();
        });
        let report = optimize(&mut program, OptLevel::Full);
        assert_eq!(report.muls_folded, 1);
        let (bits, width) = program
            .ops
            .iter()
            .find_map(|op| match *op {
                ApOp::MulConst { bits, width, .. } => Some((bits, width)),
                _ => None,
            })
            .unwrap();
        assert_eq!(bits, 1365);
        assert_eq!(width, 13);
    }

    #[test]
    fn mul_fold_stops_at_intervening_write() {
        // The broadcast planes are overwritten before the multiply, so
        // the constant is stale and the fold must not fire.
        let mut program = record_with(4, 80, &[6, 13, 20], |rec, f| {
            rec.load(f[0], 0).unwrap();
            rec.broadcast(f[1], 1365).unwrap();
            rec.load(f[1], 0).unwrap();
            rec.mul(f[0], f[1], f[2]).unwrap();
            rec.read(f[2], 0).unwrap();
        });
        let report = optimize(&mut program, OptLevel::Full);
        assert_eq!(report.muls_folded, 0);
    }

    #[test]
    fn dead_rebroadcast_is_removed_but_final_state_kept() {
        let mut program = record_with(4, 40, &[8, 8], |rec, f| {
            rec.load(f[0], 0).unwrap();
            rec.broadcast(f[1], 5).unwrap(); // dead: fully re-broadcast
            rec.broadcast(f[1], 9).unwrap(); // live: final state
            rec.add_into(f[0], f[1]).unwrap();
            rec.read(f[0], 0).unwrap();
        });
        assert_eq!(eliminate_dead_writes(&mut program.ops, 40), 1);
        let broadcasts: Vec<u64> = program
            .ops
            .iter()
            .filter_map(|op| match op {
                ApOp::Broadcast {
                    value: Operand::Const(c),
                    ..
                } => Some(*c),
                _ => None,
            })
            .collect();
        assert_eq!(broadcasts, vec![9]);
    }

    #[test]
    fn visible_final_planes_are_never_removed() {
        // A broadcast nothing reads is still final plane state.
        let mut program = record_with(4, 40, &[8, 8], |rec, f| {
            rec.load(f[0], 0).unwrap();
            rec.broadcast(f[1], 5).unwrap();
            rec.read(f[0], 0).unwrap();
        });
        assert_eq!(eliminate_dead_writes(&mut program.ops, 40), 0);
        assert_eq!(program.ops.len(), 3);
    }

    #[test]
    fn adjacent_divides_fuse_and_batch() {
        let mut program = record_with(4, 120, &[8, 6, 12, 8, 12], |rec, f| {
            rec.load(f[0], 0).unwrap();
            rec.broadcast(f[1], 3).unwrap();
            rec.load(f[3], 0).unwrap();
            rec.divide(f[0], f[1], f[2], 2, DivStyle::Restoring)
                .unwrap();
            rec.divide(f[3], f[1], f[4], 2, DivStyle::Restoring)
                .unwrap();
            rec.read(f[2], 0).unwrap();
        });
        let report = optimize(&mut program, OptLevel::Full);
        assert_eq!(report.divides_fused, 2);
        assert_eq!(report.divides_batched, 1);
        let n = program
            .ops
            .iter()
            .find_map(|op| match *op {
                ApOp::FusedDivide { n_channels, .. } => Some(n_channels),
                _ => None,
            })
            .unwrap();
        assert_eq!(n, 2);
        assert!(!program
            .ops
            .iter()
            .any(|op| matches!(op, ApOp::Divide { .. })));
    }

    #[test]
    fn reciprocal_divides_are_left_alone() {
        let mut program = record_with(4, 120, &[8, 6, 12], |rec, f| {
            rec.load(f[0], 0).unwrap();
            rec.broadcast(f[1], 3).unwrap();
            rec.divide(f[0], f[1], f[2], 2, DivStyle::ControllerReciprocal)
                .unwrap();
            rec.read(f[2], 0).unwrap();
        });
        let report = optimize(&mut program, OptLevel::Full);
        assert_eq!(report.divides_fused, 0);
        assert!(program.ops.iter().any(|op| matches!(
            op,
            ApOp::Divide {
                style: DivStyle::ControllerReciprocal,
                ..
            }
        )));
    }

    #[test]
    fn hoist_marks_const_and_scalar_derived_broadcasts_only() {
        let program = record_with(4, 60, &[8, 8, 8], |rec, f| {
            let (x, m, k) = (f[0], f[1], f[2]);
            rec.load(x, 0).unwrap();
            rec.broadcast(k, 7).unwrap(); // const: hoistable
            let ext = rec.reg_input(0).unwrap();
            let clamped = rec.reg_max1(ext);
            rec.broadcast_reg(m, clamped).unwrap(); // scalar-derived: hoistable
            rec.sub_assert_clean(x, m).unwrap();
            let local = rec.min_search(x);
            rec.broadcast_reg(m, local).unwrap(); // per-shard: NOT hoistable
            rec.sub_assert_clean(x, m).unwrap();
            rec.read(x, 0).unwrap();
        });
        let hoisted = mark_hoistable(program.ops());
        assert_eq!(hoisted.len(), 2);
        for &i in &hoisted {
            assert!(matches!(program.ops()[i as usize], ApOp::Broadcast { .. }));
        }
    }
}
