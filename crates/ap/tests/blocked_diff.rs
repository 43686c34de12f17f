//! Differential proptests for the region-blocked strip-mined executor:
//! a blocked replay must leave **bit-identical CAM state** — every
//! column plane, the reserved carry/flag columns included — identical
//! outputs, and **identical `CycleStats`** versus the op-by-op replay
//! and versus direct issue, on both backends, across row counts not
//! divisible by 64 and at sharded lengths. Blocking is a host-execution
//! optimization only: the device cost contract (static == simulated)
//! must keep holding on blocked replays.

use proptest::prelude::*;
use softmap_ap::program::optimizer::{self, OptLevel};
use softmap_ap::program::{ExecIo, ProgramScratch, Recorder, ReplayCharge};
use softmap_ap::{ApConfig, ApCore, ApProgram, CycleStats, DivStyle, ExecBackend, Overflow};

const COLS: usize = 200;

/// One execution's observable outcome: outputs, cost, and the entire
/// arena — every column plane including carry (col 0), flag (col 1),
/// and division scratch.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Outcome {
    outs: [Vec<u64>; 3],
    stats: CycleStats,
    planes: Vec<Vec<u64>>,
}

fn capture_planes(core: &ApCore) -> Vec<Vec<u64>> {
    (0..core.cols())
        .map(|c| core.cam().plane(c).to_vec())
        .collect()
}

struct Inputs<'a> {
    xs: &'a [u64],
    ys: &'a [u64],
    amts: &'a [u64],
    ext: u64,
}

/// Issues the optimizer-diff pipeline: long blockable runs (broadcast,
/// mul, shifts, copies, additions, clean and saturating subtraction)
/// separated by the cross-row boundaries (loads, min-search,
/// reduction, divides, reads) that end regions. The saturating
/// subtraction borrows in some rows and not others, so its clamp
/// writes a data-dependent row count, and one constant shift spans the
/// whole field, which clears it.
fn issue_pipeline(
    rec: &mut Recorder<'_, '_>,
    f: &Fields,
    rows: usize,
    style: DivStyle,
    phase: bool,
) {
    rec.load(f.a, 0).unwrap();
    rec.load(f.b, 1).unwrap();
    rec.load(f.amt, 2).unwrap();
    rec.step("stage-in");
    rec.broadcast(f.k, 1365).unwrap();
    rec.mul(f.a, f.k, f.work).unwrap();
    rec.shr_const(f.work, 5).unwrap();
    rec.copy(f.work.sub(0, 9), f.t).unwrap();
    rec.mul(f.a, f.b, f.work).unwrap();
    rec.shr_variable(f.work, f.amt).unwrap();
    rec.copy(f.work.sub(0, 9), f.t2).unwrap();
    rec.saturating_sub_into(f.t2, f.b).unwrap();
    rec.add_into(f.t, f.b).unwrap();
    let r0 = rec.min_search(f.a);
    rec.broadcast_reg(f.c, r0).unwrap();
    rec.sub_assert_clean(f.a, f.c).unwrap();
    rec.shr_const(f.c, 8).unwrap();
    rec.step("compute");
    let rd = if phase {
        let ext = rec.reg_input(0).unwrap();
        rec.reg_max1(ext)
    } else {
        let rs = rec
            .reduce_sum(f.t, f.sum, rows, Overflow::Saturate)
            .unwrap();
        rec.reg_max1(rs)
    };
    rec.broadcast_reg(f.den, rd).unwrap();
    rec.divide(f.t, f.den, f.q1, 4, style).unwrap();
    rec.divide(f.t2, f.den, f.q2, 4, style).unwrap();
    rec.step("normalize");
    rec.read(f.a, 0).unwrap();
    rec.read(f.q1, 1).unwrap();
    rec.read(f.q2, 2).unwrap();
}

struct Fields {
    a: softmap_ap::Field,
    b: softmap_ap::Field,
    amt: softmap_ap::Field,
    k: softmap_ap::Field,
    work: softmap_ap::Field,
    t: softmap_ap::Field,
    t2: softmap_ap::Field,
    c: softmap_ap::Field,
    sum: softmap_ap::Field,
    den: softmap_ap::Field,
    q1: softmap_ap::Field,
    q2: softmap_ap::Field,
}

fn alloc_fields(core: &mut ApCore) -> Fields {
    Fields {
        a: core.alloc_field(8).unwrap(),
        b: core.alloc_field(8).unwrap(),
        amt: core.alloc_field(3).unwrap(),
        k: core.alloc_field(13).unwrap(),
        work: core.alloc_field(21).unwrap(),
        t: core.alloc_field(9).unwrap(),
        t2: core.alloc_field(9).unwrap(),
        c: core.alloc_field(8).unwrap(),
        sum: core.alloc_field(16).unwrap(),
        den: core.alloc_field(16).unwrap(),
        q1: core.alloc_field(12).unwrap(),
        q2: core.alloc_field(12).unwrap(),
    }
}

/// Direct issue on a fresh core: the oracle.
fn run_direct(
    rows: usize,
    backend: ExecBackend,
    style: DivStyle,
    phase: bool,
    inputs: &Inputs<'_>,
) -> Outcome {
    let mut core = ApCore::with_backend(ApConfig::new(rows, COLS), backend).unwrap();
    let fields = alloc_fields(&mut core);
    let in_slices: [&[u64]; 3] = [inputs.xs, inputs.ys, inputs.amts];
    let scalars = [inputs.ext];
    let mut outs_bufs: [Vec<u64>; 3] = [Vec::new(), Vec::new(), Vec::new()];
    {
        let [o0, o1, o2] = &mut outs_bufs;
        let mut outs: [&mut Vec<u64>; 3] = [o0, o1, o2];
        let mut scratch = ProgramScratch::default();
        let mut on_step = |_: &'static str, _: CycleStats| {};
        let mut rec = Recorder::new(
            &mut core,
            ExecIo::new(&in_slices, &mut outs).with_scalars(&scalars),
            &mut scratch,
            &mut on_step,
            false,
        );
        issue_pipeline(&mut rec, &fields, rows, style, phase);
    }
    Outcome {
        outs: outs_bufs,
        stats: core.stats(),
        planes: capture_planes(&core),
    }
}

/// The pipeline recorded at `rows` rows (uncosted).
fn record(rows: usize, style: DivStyle, phase: bool) -> ApProgram {
    let mut core = ApCore::with_backend(ApConfig::new(rows, COLS), ExecBackend::Microcode).unwrap();
    let fields = alloc_fields(&mut core);
    let mut scratch = ProgramScratch::default();
    let mut on_step = |_: &'static str, _: CycleStats| {};
    let mut rec = Recorder::new(
        &mut core,
        ExecIo::new(&[], &mut []),
        &mut scratch,
        &mut on_step,
        true,
    );
    issue_pipeline(&mut rec, &fields, rows, style, phase);
    rec.finish().expect("recording returns a program")
}

/// Replays (or resident-replays) `program` on a fresh core.
fn run_replay(
    program: &ApProgram,
    backend: ExecBackend,
    inputs: &Inputs<'_>,
    resident: bool,
) -> Outcome {
    let mut core = ApCore::with_backend(program.config(), backend).unwrap();
    let in_slices: [&[u64]; 3] = [inputs.xs, inputs.ys, inputs.amts];
    let scalars = [inputs.ext];
    let mut outs_bufs: [Vec<u64>; 3] = [Vec::new(), Vec::new(), Vec::new()];
    {
        let [o0, o1, o2] = &mut outs_bufs;
        let mut outs: [&mut Vec<u64>; 3] = [o0, o1, o2];
        let mut scratch = ProgramScratch::default();
        let io = ExecIo::new(&in_slices, &mut outs).with_scalars(&scalars);
        let charge = if resident {
            ReplayCharge::Hoisted
        } else {
            ReplayCharge::Full
        };
        program
            .replay(&mut core, io, &mut scratch, charge, |_, _| {})
            .unwrap();
    }
    Outcome {
        outs: outs_bufs,
        stats: core.stats(),
        planes: capture_planes(&core),
    }
}

/// Clones `program` with a region-blocking plan at the given strip
/// override.
fn planned(program: &ApProgram, strip: Option<usize>) -> ApProgram {
    let mut p = program.clone();
    p.plan_blocking(strip);
    p
}

/// Optimizes a clone of `program` at `level` and prices it by a
/// costing replay on a fresh microcode core with the compile inputs.
fn optimized(program: &ApProgram, level: OptLevel, inputs: &Inputs<'_>) -> ApProgram {
    let mut opt = program.clone();
    optimizer::optimize(&mut opt, level);
    let mut core = ApCore::with_backend(opt.config(), ExecBackend::Microcode).unwrap();
    let in_slices: [&[u64]; 3] = [inputs.xs, inputs.ys, inputs.amts];
    let scalars = [inputs.ext];
    let mut o0 = Vec::new();
    let mut o1 = Vec::new();
    let mut o2 = Vec::new();
    let mut outs: [&mut Vec<u64>; 3] = [&mut o0, &mut o1, &mut o2];
    let mut scratch = ProgramScratch::default();
    opt.recost(
        &mut core,
        ExecIo::new(&in_slices, &mut outs).with_scalars(&scalars),
        &mut scratch,
        |_, _| {},
    )
    .unwrap();
    opt
}

fn make_inputs(rows: usize, salt: u64) -> (Vec<u64>, Vec<u64>, Vec<u64>) {
    let xs = (0..rows as u64).map(|i| (i * 7 + salt) % 256).collect();
    let ys = (0..rows as u64)
        .map(|i| (i * 13 + salt + 5) % 256)
        .collect();
    let amts = (0..rows as u64).map(|i| (i + salt) % 8).collect();
    (xs, ys, amts)
}

/// Blocked replay == op-by-op replay of the same program, full outcome
/// (planes, outputs, *and* CycleStats), on both backends, for every
/// strip width in `strips`. With `expect_direct`, the op-by-op replay
/// must also match direct issue exactly (holds for unoptimized traces;
/// an optimizer-fused trace legitimately charges less than direct).
#[allow(clippy::too_many_arguments)]
fn assert_blocked_exact(
    program: &ApProgram,
    rows: usize,
    style: DivStyle,
    phase: bool,
    inputs: &Inputs<'_>,
    strips: &[Option<usize>],
    label: &str,
    expect_direct: bool,
) {
    for backend in [ExecBackend::Microcode, ExecBackend::FastWord] {
        let plain = run_replay(program, backend, inputs, false);
        if expect_direct {
            let direct = run_direct(rows, backend, style, phase, inputs);
            assert_eq!(plain, direct, "{label}: op-by-op replay on {backend:?}");
        }
        for &strip in strips {
            let blocked = run_replay(&planned(program, strip), backend, inputs, false);
            assert_eq!(
                blocked, plain,
                "{label}: blocked replay on {backend:?}, strip {strip:?}"
            );
        }
    }
}

fn data_strategy() -> impl Strategy<Value = (usize, Vec<u64>, Vec<u64>, Vec<u64>, u64)> {
    (
        1usize..200,
        prop::collection::vec(0u64..256, 200..201),
        prop::collection::vec(0u64..256, 200..201),
        prop::collection::vec(0u64..8, 200..201),
        0u64..4096,
    )
        .prop_map(|(rows, mut xs, mut ys, mut amts, ext)| {
            xs.truncate(rows);
            ys.truncate(rows);
            amts.truncate(rows);
            (rows, xs, ys, amts, ext)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn blocked_replay_is_bit_and_cycle_exact(
        data in data_strategy(),
        data2 in data_strategy(),
        style in prop_oneof![Just(DivStyle::Restoring), Just(DivStyle::ControllerReciprocal)],
        phase in any::<bool>(),
    ) {
        let (rows, xs, ys, amts, ext) = data;
        let compile = Inputs { xs: &xs, ys: &ys, amts: &amts, ext };
        let program = record(rows, style, phase);

        // Fresh inputs the plan has never seen, resized to shape.
        let (_, mut xs2, mut ys2, mut amts2, ext2) = data2;
        xs2.resize(rows, 1);
        ys2.resize(rows, 2);
        amts2.resize(rows, 3);
        let fresh = Inputs { xs: &xs2, ys: &ys2, amts: &amts2, ext: ext2 };

        // The pipeline's blockable runs must actually form regions.
        let raw = planned(&program, None);
        let stats = raw.block_stats().expect("plan_blocking records stats");
        prop_assert!(stats.regions >= 2, "regions must form: {stats:?}");
        prop_assert!(stats.blocked_ops >= 6, "ops must be covered: {stats:?}");

        // Strip widths: auto, single-block (maximal partial-strip
        // coverage), and a width that divides nothing evenly.
        let strips = [None, Some(1), Some(3)];
        assert_blocked_exact(&program, rows, style, phase, &fresh, &strips, "raw", true);

        // Same contract on the optimizer-fused trace.
        let opt = optimized(&program, OptLevel::Full, &compile);
        assert_blocked_exact(&opt, rows, style, phase, &fresh, &strips, "optimized", false);

        // Static == simulated must keep holding on a blocked replay:
        // blocking never changes what the device is charged.
        let sim = run_replay(&planned(&opt, None), ExecBackend::FastWord, &compile, false);
        prop_assert_eq!(sim.stats, opt.static_cost(), "static == simulated under blocking");
    }

    #[test]
    fn blocked_resident_replay_matches_op_by_op_resident(
        data in data_strategy(),
    ) {
        // Phase-style program: hoistable broadcasts land inside blocked
        // regions, so the resident discount must survive blocking.
        let (rows, xs, ys, amts, ext) = data;
        let compile = Inputs { xs: &xs, ys: &ys, amts: &amts, ext };
        let program = record(rows, DivStyle::Restoring, true);
        let opt = optimized(&program, OptLevel::Full, &compile);
        let blocked = planned(&opt, None);

        for backend in [ExecBackend::Microcode, ExecBackend::FastWord] {
            let plain = run_replay(&opt, backend, &compile, true);
            let strip = run_replay(&blocked, backend, &compile, true);
            prop_assert_eq!(&strip, &plain, "resident blocked replay on {:?}", backend);
        }
    }
}

/// Row counts straddling the 64-row block boundary (none divisible by
/// 64 except 64 itself) stay exact under narrow strips, where partial
/// last strips and single-block strips are the common case.
#[test]
fn odd_row_counts_stay_exact() {
    for rows in [1usize, 63, 64, 65, 100, 127, 130] {
        let (xs, ys, amts) = make_inputs(rows, 3);
        let inputs = Inputs {
            xs: &xs,
            ys: &ys,
            amts: &amts,
            ext: 77,
        };
        let program = record(rows, DivStyle::Restoring, false);
        assert_blocked_exact(
            &program,
            rows,
            DivStyle::Restoring,
            false,
            &inputs,
            &[None, Some(1), Some(2), Some(1000)],
            &format!("rows={rows}"),
            true,
        );
    }
}

/// Sharded-length arena (4160 rows = 65 blocks): blocked FastWord
/// replay stays exact, strips actually tile the arena, and the plan
/// reports elided arena sweeps.
#[test]
fn sharded_length_blocked_replay_is_exact() {
    let rows = 4160;
    let (xs, ys, amts) = make_inputs(rows, 9);
    let inputs = Inputs {
        xs: &xs,
        ys: &ys,
        amts: &amts,
        ext: 1234,
    };
    let direct = run_direct(
        rows,
        ExecBackend::FastWord,
        DivStyle::Restoring,
        true,
        &inputs,
    );
    let program = record(rows, DivStyle::Restoring, true);
    for strip in [None, Some(8)] {
        let blocked = planned(&program, strip);
        let stats = blocked.block_stats().expect("stats recorded");
        assert!(stats.regions >= 2, "{stats:?}");
        assert!(stats.strip_blocks_min >= 1, "{stats:?}");
        assert!(
            stats.strip_blocks_max <= 65,
            "strips clamp to the arena: {stats:?}"
        );
        assert!(stats.gathers_elided > 0, "{stats:?}");
        assert!(stats.scatters_elided > 0, "{stats:?}");
        if let Some(s) = strip {
            assert_eq!(stats.strip_blocks_max, s, "{stats:?}");
        }
        let run = run_replay(&blocked, ExecBackend::FastWord, &inputs, false);
        assert_eq!(run, direct, "strip {strip:?}");
    }
}

/// The blocking plan's lifecycle: absent until planned, always present
/// after planning (even when no region forms), and invalidated by any
/// optimizer rewrite (the plan indexes the pre-rewrite trace).
#[test]
fn block_plan_lifecycle() {
    let mut program = record(70, DivStyle::Restoring, false);
    assert!(program.block_stats().is_none(), "no plan before planning");

    program.plan_blocking(None);
    let stats = program.block_stats().expect("plan recorded");
    assert!(stats.regions >= 2 && stats.blocked_ops >= 6, "{stats:?}");
    assert!(stats.footprint_bytes_max > 0, "{stats:?}");

    // Any rewrite invalidates the plan.
    let report = optimizer::optimize(&mut program, OptLevel::Full);
    assert!(report.changed(), "pipeline must rewrite this trace");
    assert!(
        program.block_stats().is_none(),
        "optimizer must drop a stale blocking plan"
    );
    program.plan_blocking(Some(2));
    let stats = program.block_stats().expect("re-planned");
    assert_eq!(stats.strip_blocks_max, 2, "override honored: {stats:?}");
}

/// A trace with no blockable run of ≥ 2 ops still records a (empty)
/// plan, so observability always has stats to report.
#[test]
fn boundary_only_trace_records_empty_plan() {
    let mut core = ApCore::with_backend(ApConfig::new(8, 40), ExecBackend::Microcode).unwrap();
    let f = core.alloc_field(8).unwrap();
    let mut scratch = ProgramScratch::default();
    let mut on_step = |_: &'static str, _: CycleStats| {};
    let mut rec = Recorder::new(
        &mut core,
        ExecIo::new(&[], &mut []),
        &mut scratch,
        &mut on_step,
        true,
    );
    rec.load(f, 0).unwrap();
    rec.read(f, 0).unwrap();
    let mut program = rec.finish().expect("recording returns a program");
    program.plan_blocking(None);
    let stats = program.block_stats().expect("empty plan still recorded");
    assert_eq!(stats.regions, 0);
    assert_eq!(stats.blocked_ops, 0);
}

/// Fields wider than 64 bits under blocked replay: an amount bit whose
/// weight reaches the field width clears the field, bit 64 included,
/// and the region's multiply into the 80-bit amount field clears its
/// result like the op-by-op engines.
#[test]
fn wide_shift_amounts_stay_exact_blocked() {
    let rows = 70;
    let mut core = ApCore::with_backend(ApConfig::new(rows, 240), ExecBackend::Microcode).unwrap();
    let f = core.alloc_field(8).unwrap();
    let a = core.alloc_field(40).unwrap();
    let b = core.alloc_field(26).unwrap();
    let amt = core.alloc_field(80).unwrap();
    // Row r's amount is a * b: 2^64 (only bit 64 set) every third row,
    // 2^39 or a small shift elsewhere.
    let xs: Vec<u64> = (0..rows as u64)
        .map(|r| if r % 3 == 2 { r % 7 } else { 1 << 39 })
        .collect();
    let ys: Vec<u64> = (0..rows as u64)
        .map(|r| if r % 3 == 0 { 1 << 25 } else { 1 })
        .collect();
    let fs: Vec<u64> = (0..rows as u64).map(|r| 0xff - r).collect();
    let in_slices: [&[u64]; 3] = [&fs, &xs, &ys];
    let want: Vec<u64> = (0..rows)
        .map(|r| match r % 3 {
            2 => fs[r] >> xs[r],
            _ => 0,
        })
        .collect();
    // Direct issue on Microcode, then the same ops recorded.
    let mut program = None;
    for record in [false, true] {
        let mut core = core.clone();
        let mut out = Vec::new();
        let mut outs: [&mut Vec<u64>; 1] = [&mut out];
        let mut scratch = ProgramScratch::default();
        let mut on_step = |_: &'static str, _: CycleStats| {};
        let mut rec = Recorder::new(
            &mut core,
            ExecIo::new(&in_slices, &mut outs),
            &mut scratch,
            &mut on_step,
            record,
        );
        rec.load(f, 0).unwrap();
        rec.load(a, 1).unwrap();
        rec.load(b, 2).unwrap();
        rec.mul(a, b, amt).unwrap();
        rec.shr_variable(f, amt).unwrap();
        rec.read(f, 0).unwrap();
        program = rec.finish();
        if !record {
            assert_eq!(out, want, "direct issue on Microcode");
        }
    }
    let program = program.expect("recording returns a program");
    let run = |program: &ApProgram, backend| {
        let mut core = ApCore::with_backend(program.config(), backend).unwrap();
        let mut out = Vec::new();
        let mut outs: [&mut Vec<u64>; 1] = [&mut out];
        program
            .replay(
                &mut core,
                ExecIo::new(&in_slices, &mut outs),
                &mut ProgramScratch::default(),
                ReplayCharge::Full,
                |_, _| {},
            )
            .unwrap();
        (out, core.stats(), capture_planes(&core))
    };
    let micro = run(&program, ExecBackend::Microcode);
    assert_eq!(micro.0, want);
    for strip in [None, Some(1)] {
        let blocked = planned(&program, strip);
        assert_eq!(blocked.block_stats().expect("plan recorded").regions, 1);
        assert_eq!(
            run(&blocked, ExecBackend::FastWord),
            micro,
            "strip {strip:?}"
        );
    }
}

/// Column budget of the division proptest: three 16-bit numerators and
/// one copy target, a 40-bit divisor, three 40-bit quotients, the
/// 41-bit remainder scratch and the two reserved columns.
const DIV_COLS: usize = 280;

/// One drawn division workload: field widths, the channel count,
/// whether the divisor is one broadcast value or a per-row load, and
/// raw words that [`div_program`] masks down to the field widths: four
/// runs of `raw.len() / 4` words, the three channels' numerators and
/// then the divisors.
#[derive(Debug, Clone)]
struct DivCase {
    rows: usize,
    nw: usize,
    dw: usize,
    qw: usize,
    frac: usize,
    channels: usize,
    uniform: bool,
    raw: Vec<u64>,
}

impl DivCase {
    /// A non-zero divisor of a drawn bit length up to `dw`, so small
    /// divisors (saturating quotients) and wide ones both occur.
    fn divisor(&self, word: u64) -> u64 {
        let len = 1 + (word >> 56) as usize % self.dw;
        (word & ((1u64 << len) - 1)).max(1)
    }

    /// The words of each input in `raw`.
    fn stride(&self) -> usize {
        self.raw.len() / 4
    }

    /// Inputs 0–2 are the channels' numerators, input 3 the divisors.
    fn inputs(&self) -> Vec<Vec<u64>> {
        let (mask, stride) = ((1u64 << self.nw) - 1, self.stride());
        let mut inputs: Vec<Vec<u64>> = (0..3)
            .map(|c| {
                (0..self.rows)
                    .map(|r| self.raw[c * stride + r] & mask)
                    .collect()
            })
            .collect();
        inputs.push(
            (0..self.rows)
                .map(|r| self.divisor(self.raw[3 * stride + r]))
                .collect(),
        );
        inputs
    }
}

/// Records `copy(raw0 → n0)`, the divisor (loaded per row, or
/// broadcast inside the region), and one restoring division per
/// channel sharing that divisor. The copy keeps the region at two ops
/// or more even with a loaded divisor and feeds channel 0 a numerator
/// written inside the region.
fn div_program(case: &DivCase) -> ApProgram {
    let mut core =
        ApCore::with_backend(ApConfig::new(case.rows, DIV_COLS), ExecBackend::FastWord).unwrap();
    let raw0 = core.alloc_field(case.nw).unwrap();
    let nums: Vec<_> = (0..case.channels)
        .map(|_| core.alloc_field(case.nw).unwrap())
        .collect();
    let den = core.alloc_field(case.dw).unwrap();
    let quots: Vec<_> = (0..case.channels)
        .map(|_| core.alloc_field(case.qw).unwrap())
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
    rec.load(raw0, 0).unwrap();
    for (c, &n) in nums.iter().enumerate().skip(1) {
        rec.load(n, c).unwrap();
    }
    if !case.uniform {
        rec.load(den, 3).unwrap();
    }
    rec.step("stage-in");
    rec.copy(raw0, nums[0]).unwrap();
    if case.uniform {
        rec.broadcast(den, case.divisor(case.raw[3 * case.stride()]))
            .unwrap();
    }
    for (&n, &q) in nums.iter().zip(&quots) {
        rec.divide(n, den, q, case.frac, DivStyle::Restoring)
            .unwrap();
    }
    rec.step("divide");
    for (c, &q) in quots.iter().enumerate() {
        rec.read(q, c).unwrap();
    }
    rec.finish().expect("recording returns a program")
}

/// Replays `program` on a fresh core: outputs, `CycleStats` and every
/// plane (carry, flag and the released remainder scratch included).
fn div_replay(program: &ApProgram, backend: ExecBackend, inputs: &[Vec<u64>]) -> Outcome {
    let mut core = ApCore::with_backend(program.config(), backend).unwrap();
    let in_slices: Vec<&[u64]> = inputs.iter().map(Vec::as_slice).collect();
    let mut bufs = [Vec::new(), Vec::new(), Vec::new()];
    {
        let [o0, o1, o2] = &mut bufs;
        let mut outs: [&mut Vec<u64>; 3] = [o0, o1, o2];
        let mut scratch = ProgramScratch::default();
        program
            .replay(
                &mut core,
                ExecIo::new(&in_slices, &mut outs),
                &mut scratch,
                ReplayCharge::Full,
                |_, _| {},
            )
            .unwrap();
    }
    Outcome {
        outs: bufs,
        stats: core.stats(),
        planes: capture_planes(&core),
    }
}

fn div_case_strategy() -> impl Strategy<Value = DivCase> {
    (
        (1usize..701, 1usize..17, 1usize..41, 1usize..41, 0usize..31),
        (1usize..4, any::<bool>()),
        prop::collection::vec(any::<u64>(), 2800..2801),
    )
        .prop_map(
            |((rows, nw, dw, qw, frac), (channels, uniform), raw)| DivCase {
                rows,
                nw,
                dw,
                qw,
                frac,
                channels,
                uniform,
                raw,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The strip divider across shapes and lane groups: random widths,
    /// 1–700 rows (one, several and partial 4-block lane groups), auto
    /// and pinned strips (multi-strip below the tile width), per-row
    /// and broadcast divisors, plain `Divide` ops and the optimizer's
    /// batched `FusedDivide` (two or three channels fuse into 2 + 1).
    /// Blocked FastWord replay must equal op-by-op FastWord and
    /// Microcode replay in outputs, planes and `CycleStats`.
    #[test]
    fn blocked_division_matches_op_by_op_across_shapes(
        case in div_case_strategy(),
        fused in any::<bool>(),
        strip in prop_oneof![Just(None), (1usize..13).prop_map(Some)],
    ) {
        let mut program = div_program(&case);
        let inputs = case.inputs();
        if fused {
            optimizer::optimize(&mut program, OptLevel::Full);
            let mut core =
                ApCore::with_backend(program.config(), ExecBackend::FastWord).unwrap();
            let in_slices: Vec<&[u64]> = inputs.iter().map(Vec::as_slice).collect();
            let [mut o0, mut o1, mut o2] = [Vec::new(), Vec::new(), Vec::new()];
            let mut outs: [&mut Vec<u64>; 3] = [&mut o0, &mut o1, &mut o2];
            let io = ExecIo::new(&in_slices, &mut outs);
            program
                .recost(&mut core, io, &mut ProgramScratch::default(), |_, _| {})
                .unwrap();
        }
        let blocked = planned(&program, strip);
        let stats = blocked.block_stats().expect("plan recorded");
        prop_assert!(stats.engaged && stats.regions == 1, "{stats:?} for {case:?}");

        let fast = div_replay(&blocked, ExecBackend::FastWord, &inputs);
        let op_by_op = div_replay(&program, ExecBackend::FastWord, &inputs);
        prop_assert_eq!(
            &fast, &op_by_op,
            "blocked vs op-by-op FastWord, strip {:?}, fused {}, {:?}", strip, fused, case
        );
        let micro = div_replay(&program, ExecBackend::Microcode, &inputs);
        prop_assert_eq!(
            &fast, &micro,
            "blocked FastWord vs Microcode, strip {:?}, fused {}, {:?}", strip, fused, case
        );
    }
}

/// A one-channel division with numerator `num(row)` and one broadcast
/// 16-bit divisor (the divisor word's top byte makes
/// [`DivCase::divisor`] keep all 16 bits).
fn broadcast_case(
    rows: usize,
    nw: usize,
    frac: usize,
    divisor: u64,
    num: fn(usize) -> u64,
) -> DivCase {
    let dw = 16;
    let mut raw: Vec<u64> = (0..4 * rows)
        .map(|r| if r < rows { num(r) } else { 0 })
        .collect();
    raw[3 * rows] = ((dw as u64 - 1) << 56) | divisor;
    DivCase {
        rows,
        nw,
        dw,
        qw: 12,
        frac,
        channels: 1,
        uniform: true,
        raw,
    }
}

/// Blocked FastWord replay of `case` at each strip against op-by-op
/// FastWord and Microcode: outputs, planes and `CycleStats`.
fn assert_division_exact(case: &DivCase, strips: &[Option<usize>], label: &str) {
    let program = div_program(case);
    let inputs = case.inputs();
    let op_by_op = div_replay(&program, ExecBackend::FastWord, &inputs);
    assert_eq!(
        op_by_op,
        div_replay(&program, ExecBackend::Microcode, &inputs),
        "{label}: op-by-op FastWord vs Microcode"
    );
    for &strip in strips {
        let blocked = planned(&program, strip);
        assert!(
            blocked.block_stats().expect("plan recorded").engaged,
            "{label}"
        );
        assert_eq!(
            div_replay(&blocked, ExecBackend::FastWord, &inputs),
            op_by_op,
            "{label}: blocked vs op-by-op, strip {strip:?}"
        );
    }
}

/// The strip divider skips a lane group's restoring add when every
/// valid row of the group borrowed. A divisor above every numerator
/// makes most iterations skip; a single row that does not borrow,
/// among rows that always do, must stop the skip for its group
/// wherever it sits: lane 3 of a full group, the last block of a
/// partial group, and the last strip of a multi-strip run.
#[test]
fn division_restore_skip_is_exact() {
    let spread = broadcast_case(300, 10, 8, 50_000, |r| (r as u64 * 37 + 11) % 1024);
    assert_division_exact(
        &spread,
        &[None, Some(1), Some(3)],
        "divisor above every numerator",
    );
    // Row 197 is in block 3: lane 3 of the first group.
    let lane3 = broadcast_case(512, 8, 2, 3, |r| if r == 197 { 255 } else { 0 });
    assert_division_exact(&lane3, &[None, Some(4)], "lane 3 of a full group");
    // 394 rows are 7 blocks; row 391 is in block 6, the third and
    // last block of the partial second group.
    let partial = broadcast_case(394, 8, 2, 3, |r| if r == 391 { 255 } else { 0 });
    assert_division_exact(&partial, &[None], "last block of a partial group");
    // 700 rows are 11 blocks; 3-block strips leave blocks 9 and 10 to
    // the last strip, and row 690 is in block 10.
    let strip = broadcast_case(700, 8, 2, 3, |r| if r == 690 { 255 } else { 0 });
    assert_division_exact(&strip, &[Some(3)], "last strip of a multi-strip run");
}

/// A one-channel division of `num(row)` by a `dw`-bit divisor
/// `den(row)`, loaded per row, or broadcast from row 0's when
/// `uniform`.
fn row_case(
    rows: usize,
    (nw, dw, frac): (usize, usize, usize),
    uniform: bool,
    num: impl Fn(usize) -> u64,
    den: impl Fn(usize) -> u64,
) -> DivCase {
    let mut raw = vec![0u64; 4 * rows];
    for r in 0..rows {
        raw[r] = num(r);
        // A top byte of `dw - 1` makes [`DivCase::divisor`] keep all
        // `dw` bits.
        raw[3 * rows + r] = ((dw as u64 - 1) << 56) | den(r);
    }
    DivCase {
        rows,
        nw,
        dw,
        qw: 16,
        frac,
        channels: 1,
        uniform,
        raw,
    }
}

/// A spread of 12-bit numerators.
fn spread(r: usize) -> u64 {
    (r as u64 * 37 + 11) % 4096
}

/// The strip divider sweeps only the planes below a lane group's
/// remainder height (or its divisor's uniform floor) and folds the
/// planes above in closed form. Its edges: a group whose every
/// iteration is dead, heights that differ between groups, the
/// shortest and the tallest divisor, a per-row divisor whose floor sits
/// above plane 0, partial last groups and multi-strip runs.
#[test]
fn division_live_height_is_exact_at_its_edges() {
    // Rows 256..512 (the middle group at 4-block strips, two whole
    // groups at 2-block strips) divide a zero numerator, so every one
    // of their iterations sweeps nothing. 700 rows are 11 blocks: the
    // last group is partial.
    let dead = row_case(
        700,
        (12, 16, 8),
        true,
        |r| {
            if (256..512).contains(&r) {
                0
            } else {
                spread(r)
            }
        },
        |_| 300,
    );
    assert_division_exact(
        &dead,
        &[None, Some(2), Some(4)],
        "a dead group between live ones",
    );
    // The numerators' top set bit is 1, 6 and 12 in the three groups.
    let top = |r: usize| {
        let len = [1, 6, 12][r / 256];
        spread(r) & ((1 << len) - 1) | 1 << (len - 1)
    };
    let heights = row_case(700, (12, 16, 4), true, top, |_| 1000);
    assert_division_exact(&heights, &[None, Some(3)], "top bits per group, broadcast");
    let per_row = row_case(700, (12, 16, 4), false, top, |r| 1 + spread(r) % 700);
    assert_division_exact(&per_row, &[None, Some(4)], "top bits per group, per row");
    // Divisor 1 leaves a one-plane remainder; a divisor of only the
    // field's top bit lets the remainder reach every plane.
    let one = row_case(300, (12, 16, 2), true, spread, |_| 1);
    assert_division_exact(&one, &[None, Some(1)], "divisor 1");
    let tall = row_case(300, (16, 16, 8), true, |r| spread(r) * 16 + 15, |_| 1 << 15);
    assert_division_exact(&tall, &[None, Some(3)], "divisor of the top bit only");
    // Row 100 (group 0) alone sets divisor plane 13, so group 0's
    // floor is 14 and the others' 0. 600 rows are 10 blocks: the last
    // group is partial.
    let floor = row_case(600, (12, 16, 8), false, spread, |r| {
        if r == 100 {
            0x2155
        } else {
            0x155
        }
    });
    assert_division_exact(&floor, &[None, Some(1), Some(3)], "a per-row floor above 0");
    // A whole 2,048-row tile: 32 blocks, eight lane groups, so strips
    // of more than three groups. Group 4 is dead, the others' top set
    // bits differ; 5-block strips split groups across strips.
    let tile = |r: usize| {
        let len = [1, 3, 6, 8, 0, 10, 11, 12][r / 256];
        match len {
            0 => 0,
            _ => spread(r) & ((1 << len) - 1) | 1 << (len - 1),
        }
    };
    let broadcast = row_case(2048, (12, 16, 4), true, tile, |_| 1000);
    assert_division_exact(&broadcast, &[None, Some(5)], "a 2,048-row tile, broadcast");
    let per_row = row_case(2048, (12, 16, 4), false, tile, |r| 1 + spread(r) % 700);
    assert_division_exact(&per_row, &[None, Some(5)], "a 2,048-row tile, per row");
}

/// Division workloads with short remainders: each channel's numerators
/// in each 256-row span are masked to a drawn bit length `0..=nw`, so
/// dead and short lane groups sit beside full ones, and every divisor
/// (broadcast or per row) is at most `dh` bits, `dh` at most half the
/// divisor field.
fn live_case_strategy() -> impl Strategy<Value = DivCase> {
    (
        div_case_strategy(),
        prop::collection::vec(any::<u64>(), 9..10),
        any::<u64>(),
    )
        .prop_map(|(mut case, lens, dh)| {
            let (dh, stride) = (1 + dh as usize % (case.dw / 2).max(1), case.stride());
            for c in 0..3 {
                for r in 0..case.rows {
                    let len = lens[3 * c + r / 256] as usize % (case.nw + 1);
                    case.raw[c * stride + r] &= (1u64 << len) - 1;
                }
            }
            for w in &mut case.raw[3 * stride..] {
                let len = 1 + (*w >> 56) as usize % dh;
                *w = ((len as u64 - 1) << 56) | (*w & ((1u64 << len) - 1));
            }
            case
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The strip divider at drawn remainder and divisor heights: plain
    /// `Divide` ops and the optimizer's `FusedDivide`, at automatic and
    /// pinned strips. Blocked FastWord replay must equal op-by-op
    /// FastWord and Microcode replay in outputs, planes and
    /// `CycleStats`.
    #[test]
    fn blocked_division_matches_op_by_op_at_drawn_live_heights(
        case in live_case_strategy(),
        fused in any::<bool>(),
        strip in prop_oneof![Just(None), (1usize..13).prop_map(Some)],
    ) {
        let mut program = div_program(&case);
        let inputs = case.inputs();
        if fused {
            optimizer::optimize(&mut program, OptLevel::Full);
            let mut core =
                ApCore::with_backend(program.config(), ExecBackend::FastWord).unwrap();
            let in_slices: Vec<&[u64]> = inputs.iter().map(Vec::as_slice).collect();
            let [mut o0, mut o1, mut o2] = [Vec::new(), Vec::new(), Vec::new()];
            let mut outs: [&mut Vec<u64>; 3] = [&mut o0, &mut o1, &mut o2];
            let io = ExecIo::new(&in_slices, &mut outs);
            program
                .recost(&mut core, io, &mut ProgramScratch::default(), |_, _| {})
                .unwrap();
        }
        let blocked = planned(&program, strip);
        prop_assert!(blocked.block_stats().expect("plan recorded").engaged, "{case:?}");
        let fast = div_replay(&blocked, ExecBackend::FastWord, &inputs);
        for backend in [ExecBackend::FastWord, ExecBackend::Microcode] {
            prop_assert_eq!(
                &fast,
                &div_replay(&program, backend, &inputs),
                "blocked FastWord vs op-by-op {:?}, strip {:?}, fused {}, {:?}",
                backend, strip, fused, case
            );
        }
    }
}
