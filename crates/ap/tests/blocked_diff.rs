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
use softmap_ap::program::{ExecIo, ProgramScratch, Recorder};
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
/// mul, shifts, copies, clean subtraction) separated by the cross-row
/// boundaries (loads, min-search, reduction, divides, reads) that end
/// regions.
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
    let r0 = rec.min_search(f.a);
    rec.broadcast_reg(f.c, r0).unwrap();
    rec.sub_assert_clean(f.a, f.c).unwrap();
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

/// Direct issue (and optionally recording) on a fresh core.
fn run_direct(
    rows: usize,
    backend: ExecBackend,
    style: DivStyle,
    phase: bool,
    inputs: &Inputs<'_>,
    record: bool,
) -> (Outcome, Option<ApProgram>) {
    let mut core = ApCore::with_backend(ApConfig::new(rows, COLS), backend).unwrap();
    let fields = alloc_fields(&mut core);
    let in_slices: [&[u64]; 3] = [inputs.xs, inputs.ys, inputs.amts];
    let scalars = [inputs.ext];
    let mut outs_bufs: [Vec<u64>; 3] = [Vec::new(), Vec::new(), Vec::new()];
    let program;
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
            record,
        );
        issue_pipeline(&mut rec, &fields, rows, style, phase);
        program = rec.finish();
    }
    (
        Outcome {
            outs: outs_bufs,
            stats: core.stats(),
            planes: capture_planes(&core),
        },
        program,
    )
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
        if resident {
            program
                .replay_resident(&mut core, io, &mut scratch, |_, _| {})
                .unwrap();
        } else {
            program
                .replay(&mut core, io, &mut scratch, |_, _| {})
                .unwrap();
        }
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

/// Optimizes a clone of `program` at `level` and recosts it on a fresh
/// microcode core with the compile inputs.
fn optimized(program: &ApProgram, level: OptLevel, inputs: &Inputs<'_>) -> ApProgram {
    let mut opt = program.clone();
    let report = optimizer::optimize(&mut opt, level);
    if report.changed() {
        let mut core = ApCore::new(opt.config()).unwrap();
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
    }
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
            let (direct, _) = run_direct(rows, backend, style, phase, inputs, false);
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
        let (_, program) =
            run_direct(rows, ExecBackend::Microcode, style, phase, &compile, true);
        let program = program.expect("recording returns a program");

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
        let (_, program) = run_direct(
            rows, ExecBackend::Microcode, DivStyle::Restoring, true, &compile, true,
        );
        let program = program.expect("recording returns a program");
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
        let (_, program) = run_direct(
            rows,
            ExecBackend::Microcode,
            DivStyle::Restoring,
            false,
            &inputs,
            true,
        );
        let program = program.expect("recording returns a program");
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
    let (direct, program) = run_direct(
        rows,
        ExecBackend::FastWord,
        DivStyle::Restoring,
        true,
        &inputs,
        true,
    );
    let program = program.expect("recording returns a program");
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
    let rows = 70;
    let (xs, ys, amts) = make_inputs(rows, 1);
    let inputs = Inputs {
        xs: &xs,
        ys: &ys,
        amts: &amts,
        ext: 9,
    };
    let (_, program) = run_direct(
        rows,
        ExecBackend::Microcode,
        DivStyle::Restoring,
        false,
        &inputs,
        true,
    );
    let mut program = program.expect("recording returns a program");
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
    let rows = 8;
    let mut core = ApCore::new(ApConfig::new(rows, 40)).unwrap();
    let f = core.alloc_field(8).unwrap();
    let xs: Vec<u64> = (0..rows as u64).collect();
    let in_slices: [&[u64]; 1] = [&xs];
    let mut out = Vec::new();
    let mut outs: [&mut Vec<u64>; 1] = [&mut out];
    let mut scratch = ProgramScratch::default();
    let mut on_step = |_: &'static str, _: CycleStats| {};
    let mut rec = Recorder::new(
        &mut core,
        ExecIo::new(&in_slices, &mut outs),
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
