//! Differential proptests for the program IR: recording executes
//! nothing, and a recorded [`ApProgram`]'s costing replay and every
//! further replay must be bit- and cycle-exact versus issuing the same
//! ops directly — on both backends, for any input of the recorded shape
//! (including inputs the program has never seen), across odd and even
//! row counts and both division styles.

use proptest::prelude::*;
use softmap_ap::program::{ExecIo, ProgramScratch, Recorder, ReplayCharge};
use softmap_ap::{ApConfig, ApCore, ApProgram, CycleStats, DivStyle, ExecBackend, Field, Overflow};

/// One execution's observable outcome: outputs, cost, steps, and every
/// column plane (carry, flag and division scratch included).
#[derive(Debug, Clone, PartialEq, Eq)]
struct Outcome {
    out_a: Vec<u64>,
    out_acc: Vec<u64>,
    out_q: Vec<u64>,
    stats: CycleStats,
    steps: Vec<(&'static str, CycleStats)>,
    planes: Vec<Vec<u64>>,
}

struct Inputs<'a> {
    xs: &'a [u64],
    ys: &'a [u64],
    amts: &'a [u64],
}

/// Columns of the pipeline's core.
const COLS: usize = 168;

/// The pipeline's fields, in allocation order.
struct Fields {
    a: Field,
    b: Field,
    c: Field,
    acc: Field,
    prod: Field,
    q: Field,
    den: Field,
    sum: Field,
    amt: Field,
}

/// A fresh core with the pipeline's fields allocated.
fn pipeline_core(rows: usize, backend: ExecBackend) -> (ApCore, Fields) {
    let mut core = ApCore::with_backend(ApConfig::new(rows, COLS), backend).unwrap();
    let mut alloc = |w| core.alloc_field(w).unwrap();
    let fields = Fields {
        a: alloc(8),
        b: alloc(8),
        c: alloc(8),
        acc: alloc(9),
        prod: alloc(17),
        q: alloc(12),
        den: alloc(16),
        sum: alloc(16),
        amt: alloc(3),
    };
    (core, fields)
}

fn capture_planes(core: &ApCore) -> Vec<Vec<u64>> {
    (0..core.cols())
        .map(|c| core.cam().plane(c).to_vec())
        .collect()
}

/// Issues a pipeline exercising every op kind (load, broadcast
/// const/reg, min-search compare, copy-free register folds, add, clean
/// and saturating subtract, multiply, constant and variable shifts, 2D
/// reduction, division, read) on `core` through a recorder in the given
/// mode. Returns the outcome as the core, I/O and step callback saw it,
/// plus the recorded program when `record` is set.
fn issue_pipeline(
    core: &mut ApCore,
    f: &Fields,
    style: DivStyle,
    inputs: &Inputs<'_>,
    record: bool,
) -> (Outcome, Option<ApProgram>) {
    let rows = core.rows();
    let in_slices: [&[u64]; 3] = [inputs.xs, inputs.ys, inputs.amts];
    let mut out_a = Vec::new();
    let mut out_acc = Vec::new();
    let mut out_q = Vec::new();
    let mut steps: Vec<(&'static str, CycleStats)> = Vec::new();
    let program;
    {
        let mut outs: [&mut Vec<u64>; 3] = [&mut out_a, &mut out_acc, &mut out_q];
        let mut scratch = ProgramScratch::default();
        let mut on_step = |name: &'static str, s: CycleStats| steps.push((name, s));
        let mut rec = Recorder::new(
            core,
            ExecIo::new(&in_slices, &mut outs),
            &mut scratch,
            &mut on_step,
            record,
        );
        rec.load(f.a, 0).unwrap();
        rec.load(f.b, 1).unwrap();
        rec.load(f.amt, 2).unwrap();
        rec.step("stage-in");
        // Min over both operands via registers; subtracting it from `a`
        // can never underflow.
        let r0 = rec.min_search(f.a);
        let r1 = rec.min_search(f.b);
        let rm = rec.reg_min(r0, r1);
        rec.broadcast_reg(f.c, rm).unwrap();
        rec.sub_assert_clean(f.a, f.c).unwrap();
        rec.broadcast(f.acc, 17).unwrap();
        rec.add_into(f.acc, f.b).unwrap();
        rec.mul(f.a, f.b, f.prod).unwrap();
        rec.shr_const(f.prod, 3).unwrap();
        rec.saturating_sub_into(f.acc, f.a).unwrap();
        rec.shr_variable(f.prod, f.amt).unwrap();
        rec.step("compute");
        let rs = rec
            .reduce_sum(f.acc, f.sum, rows, Overflow::Saturate)
            .unwrap();
        let rd = rec.reg_max1(rs);
        rec.broadcast_reg(f.den, rd).unwrap();
        rec.divide(f.acc, f.den, f.q, 6, style).unwrap();
        rec.step("normalize");
        rec.read(f.a, 0).unwrap();
        rec.read(f.acc, 1).unwrap();
        rec.read(f.q, 2).unwrap();
        program = rec.finish();
    }
    (
        Outcome {
            out_a,
            out_acc,
            out_q,
            stats: core.stats(),
            steps,
            planes: capture_planes(core),
        },
        program,
    )
}

/// Direct issue of the pipeline on a fresh core: the oracle.
fn run_direct(rows: usize, backend: ExecBackend, style: DivStyle, inputs: &Inputs<'_>) -> Outcome {
    let (mut core, fields) = pipeline_core(rows, backend);
    let (outcome, program) = issue_pipeline(&mut core, &fields, style, inputs, false);
    assert!(program.is_none(), "direct issue records nothing");
    outcome
}

/// The pipeline recorded at `rows` rows (uncosted).
fn record(rows: usize, style: DivStyle) -> ApProgram {
    let (mut core, fields) = pipeline_core(rows, ExecBackend::FastWord);
    let no_input = Inputs {
        xs: &[],
        ys: &[],
        amts: &[],
    };
    let (_, program) = issue_pipeline(&mut core, &fields, style, &no_input, true);
    program.expect("recording returns a program")
}

/// Replays `program` on a fresh core — or, with `cost`, prices it by
/// its costing replay there — and returns the outcome.
fn replay_pipeline(
    program: &mut ApProgram,
    backend: ExecBackend,
    inputs: &Inputs<'_>,
    scratch: &mut ProgramScratch,
    cost: bool,
) -> Outcome {
    let mut core = ApCore::with_backend(program.config(), backend).unwrap();
    let in_slices: [&[u64]; 3] = [inputs.xs, inputs.ys, inputs.amts];
    let mut out_a = Vec::new();
    let mut out_acc = Vec::new();
    let mut out_q = Vec::new();
    let mut steps: Vec<(&'static str, CycleStats)> = Vec::new();
    {
        let mut outs: [&mut Vec<u64>; 3] = [&mut out_a, &mut out_acc, &mut out_q];
        let io = ExecIo::new(&in_slices, &mut outs);
        let on_step = |name, s| steps.push((name, s));
        if cost {
            program.recost(&mut core, io, scratch, on_step).unwrap();
        } else {
            program
                .replay(&mut core, io, scratch, ReplayCharge::Full, on_step)
                .unwrap();
        }
    }
    Outcome {
        out_a,
        out_acc,
        out_q,
        stats: core.stats(),
        steps,
        planes: capture_planes(&core),
    }
}

/// (rows, xs, ys, amts): full-length pools truncated to `rows` by the
/// test body (the vendored proptest stub has no `prop_flat_map`).
fn data_strategy() -> impl Strategy<Value = (usize, Vec<u64>, Vec<u64>, Vec<u64>)> {
    (
        1usize..48,
        prop::collection::vec(0u64..256, 48..49),
        prop::collection::vec(0u64..256, 48..49),
        prop::collection::vec(0u64..8, 48..49),
    )
        .prop_map(|(rows, mut xs, mut ys, mut amts)| {
            xs.truncate(rows);
            ys.truncate(rows);
            amts.truncate(rows);
            (rows, xs, ys, amts)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn replay_is_bit_and_cycle_exact_vs_direct_issue(
        data in data_strategy(),
        data2 in data_strategy(),
        style in prop_oneof![Just(DivStyle::Restoring), Just(DivStyle::ControllerReciprocal)],
    ) {
        let (rows, xs, ys, amts) = data;
        let (_, xs2, ys2, amts2) = data2;
        let compile_inputs = Inputs { xs: &xs, ys: &ys, amts: &amts };
        // Direct issue on the microcode (ground-truth) backend.
        let direct = run_direct(rows, ExecBackend::Microcode, style, &compile_inputs);
        let mut program = record(rows, style);
        let mut scratch = ProgramScratch::default();
        let costed =
            replay_pipeline(&mut program, ExecBackend::Microcode, &compile_inputs, &mut scratch, true);
        prop_assert_eq!(&costed, &direct, "costing replay");
        prop_assert_eq!(program.static_cost(), direct.stats,
            "static cost must equal direct issue's stats");

        // Replay with the compile input: identical to direct issue on
        // both backends.
        for backend in [ExecBackend::Microcode, ExecBackend::FastWord] {
            let replayed =
                replay_pipeline(&mut program, backend, &compile_inputs, &mut scratch, false);
            prop_assert_eq!(&replayed, &direct, "compile-input replay on {:?}", backend);
        }

        // Replay with data the program has never seen (resized to the
        // recorded shape): identical to directly issuing the same ops
        // with that data, on both backends.
        let mut xs2 = xs2; xs2.resize(rows, 1);
        let mut ys2 = ys2; ys2.resize(rows, 2);
        let mut amts2 = amts2; amts2.resize(rows, 3);
        let fresh_inputs = Inputs { xs: &xs2, ys: &ys2, amts: &amts2 };
        let direct2 = run_direct(rows, ExecBackend::Microcode, style, &fresh_inputs);
        for backend in [ExecBackend::Microcode, ExecBackend::FastWord] {
            let replayed =
                replay_pipeline(&mut program, backend, &fresh_inputs, &mut scratch, false);
            prop_assert_eq!(&replayed, &direct2, "fresh-input replay on {:?}", backend);
        }
    }

    #[test]
    fn passthrough_recorder_is_invisible(
        data in data_strategy(),
    ) {
        // The pass-through (direct-issue) recorder must behave exactly
        // like the same ops called on the core itself.
        let (rows, xs, ys, amts) = data;
        let inputs = Inputs { xs: &xs, ys: &ys, amts: &amts };
        let passthrough = run_direct(rows, ExecBackend::FastWord, DivStyle::Restoring, &inputs);
        let (mut core, f) = pipeline_core(rows, ExecBackend::FastWord);
        let mut steps = Vec::new();
        let mut mark = core.stats();
        let mut step = |core: &ApCore, name| {
            steps.push((name, core.stats().since(&mark)));
            mark = core.stats();
        };
        core.load(f.a, &xs).unwrap();
        core.load(f.b, &ys).unwrap();
        core.load(f.amt, &amts).unwrap();
        step(&core, "stage-in");
        let min = core.min_search_value(f.a).min(core.min_search_value(f.b));
        core.broadcast(f.c, min).unwrap();
        let _ = core.sub_into_ref(f.a, f.c).unwrap();
        core.broadcast(f.acc, 17).unwrap();
        core.add_into(f.acc, f.b).unwrap();
        core.mul(f.a, f.b, f.prod).unwrap();
        core.shr_const(f.prod, 3).unwrap();
        core.saturating_sub_into(f.acc, f.a).unwrap();
        core.shr_variable(f.prod, f.amt).unwrap();
        step(&core, "compute");
        let mut sums = Vec::new();
        core.reduce_sum_2d_mode_into(f.acc, f.sum, rows, Overflow::Saturate, &mut sums)
            .unwrap();
        core.broadcast(f.den, sums[0].max(1)).unwrap();
        core.divide(f.acc, f.den, f.q, 6, DivStyle::Restoring).unwrap();
        step(&core, "normalize");
        let raw = Outcome {
            out_a: core.read(f.a),
            out_acc: core.read(f.acc),
            out_q: core.read(f.q),
            stats: core.stats(),
            steps,
            planes: capture_planes(&core),
        };
        prop_assert_eq!(passthrough, raw);
    }

    #[test]
    fn recording_executes_nothing(
        data in data_strategy(),
        style in prop_oneof![Just(DivStyle::Restoring), Just(DivStyle::ControllerReciprocal)],
    ) {
        let (rows, xs, ys, amts) = data;
        let inputs = Inputs { xs: &xs, ys: &ys, amts: &amts };
        for backend in [ExecBackend::Microcode, ExecBackend::FastWord] {
            // Record on a core whose every field holds a known pattern.
            let (mut core, fields) = pipeline_core(rows, backend);
            for (k, field) in [fields.a, fields.b, fields.c, fields.acc, fields.prod,
                fields.q, fields.den, fields.sum, fields.amt].into_iter().enumerate()
            {
                let pattern: Vec<u64> = (0..rows as u64)
                    .map(|r| (r * 37 + k as u64 * 11) & field.max_value())
                    .collect();
                core.load(field, &pattern).unwrap();
            }
            let (planes, stats) = (capture_planes(&core), core.stats());
            let (seen, program) = issue_pipeline(&mut core, &fields, style, &inputs, true);
            prop_assert_eq!(&seen.planes, &planes, "recording wrote planes on {:?}", backend);
            prop_assert_eq!(seen.stats, stats, "recording charged on {:?}", backend);
            prop_assert!(seen.out_a.is_empty() && seen.out_acc.is_empty() && seen.out_q.is_empty(),
                "recording appended outputs on {:?}", backend);
            prop_assert!(seen.steps.is_empty(), "recording reported steps on {:?}", backend);
            let mut program = program.expect("recording returns a program");
            prop_assert_eq!(program.static_cost(), CycleStats::default(), "uncosted");

            // The costing replay on a fresh core is direct issue.
            let direct = run_direct(rows, backend, style, &inputs);
            let costed = replay_pipeline(
                &mut program, backend, &inputs, &mut ProgramScratch::default(), true,
            );
            prop_assert_eq!(&costed, &direct, "costing replay on {:?}", backend);
            prop_assert_eq!(program.static_cost(), direct.stats, "static cost on {:?}", backend);
            let steps: Vec<_> = program.static_steps().to_vec();
            prop_assert_eq!(steps, direct.steps, "static steps on {:?}", backend);
        }
    }
}
