//! Differential proptests for the program-IR optimizer: an optimized
//! replay must leave **bit-identical CAM state** — every column plane,
//! the reserved carry/flag columns included — and identical outputs
//! versus the unoptimized replay and versus direct issue, on both
//! backends, for whole-vector-style programs and for sharded
//! phase-style programs (scalar inputs arriving via `RegLoad`). The
//! optimized cost must be *lower* whenever the pipeline reports a
//! rewrite, and static == simulated must hold on the fused schedule.

use proptest::prelude::*;
use softmap_ap::program::optimizer::{self, OptLevel};
use softmap_ap::program::{ApOp, ExecIo, ProgramScratch, Recorder, ReplayCharge};
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
    /// External scalar (phase-style programs only): the value a
    /// cross-tile reduction would feed back into the shard.
    ext: u64,
}

/// Issues a pipeline hitting every optimizer pass: a constant-broadcast
/// multiplier (folds to `MulConst`), a shift consumed by one copy and
/// then overwritten (shift/copy fusion), two adjacent restoring
/// divisions sharing a divisor (fusion + batching), plus min-search,
/// saturating/clean subtraction, variable shift, and 2D reduction for
/// coverage. With `phase` set, the divisor value arrives through a
/// scalar input slot instead of the in-program reduction — the shape of
/// a sharded phase body, making the divisor broadcast hoistable.
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

/// Optimizes a clone of `program` at `level` and prices it by a
/// costing replay on a fresh microcode core with the compile inputs.
fn optimized(
    program: &ApProgram,
    level: OptLevel,
    inputs: &Inputs<'_>,
) -> (ApProgram, optimizer::PassReport) {
    let mut opt = program.clone();
    let report = optimizer::optimize(&mut opt, level);
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
    (opt, report)
}

fn data_strategy() -> impl Strategy<Value = (usize, Vec<u64>, Vec<u64>, Vec<u64>, u64)> {
    (
        1usize..48,
        prop::collection::vec(0u64..256, 48..49),
        prop::collection::vec(0u64..256, 48..49),
        prop::collection::vec(0u64..8, 48..49),
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
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn optimized_replay_is_bit_identical_and_cheaper(
        data in data_strategy(),
        data2 in data_strategy(),
        style in prop_oneof![Just(DivStyle::Restoring), Just(DivStyle::ControllerReciprocal)],
        phase in any::<bool>(),
    ) {
        let (rows, xs, ys, amts, ext) = data;
        let compile = Inputs { xs: &xs, ys: &ys, amts: &amts, ext };
        let program = record(rows, style, phase);
        let unopt_cost = run_direct(rows, ExecBackend::Microcode, style, phase, &compile).stats;

        // Fresh inputs the program has never seen, resized to shape.
        let (_, mut xs2, mut ys2, mut amts2, ext2) = data2;
        xs2.resize(rows, 1);
        ys2.resize(rows, 2);
        amts2.resize(rows, 3);
        let fresh = Inputs { xs: &xs2, ys: &ys2, amts: &amts2, ext: ext2 };

        {
            let level = OptLevel::Full;
            let (opt, report) = optimized(&program, level, &compile);
            prop_assert!(report.shr_fused >= 1, "shift/copy fusion must fire");
            if level == OptLevel::Full {
                prop_assert!(report.muls_folded >= 1, "constant-mul fold must fire");
                if style == DivStyle::Restoring {
                    prop_assert_eq!(report.divides_fused, 2);
                    prop_assert_eq!(report.divides_batched, 1);
                }
            }

            // Static == simulated on the fused schedule: replaying the
            // compile inputs charges exactly the recosted static cost.
            let sim = run_replay(&opt, ExecBackend::Microcode, &compile, false);
            prop_assert_eq!(sim.stats, opt.static_cost(),
                "static == simulated at {:?}", level);
            prop_assert!(opt.static_cost().cycles() < unopt_cost.cycles(),
                "optimized schedule must be strictly cheaper at {:?}", level);

            // Bit-exactness: all planes (carry/flag/scratch included)
            // and outputs match direct issue, on both backends, for
            // inputs the optimizer never saw.
            for backend in [ExecBackend::Microcode, ExecBackend::FastWord] {
                let direct = run_direct(rows, backend, style, phase, &fresh);
                let unopt = run_replay(&program, backend, &fresh, false);
                prop_assert_eq!(&unopt, &direct, "unoptimized replay on {:?}", backend);
                let opt_run = run_replay(&opt, backend, &fresh, false);
                prop_assert_eq!(&opt_run.planes, &direct.planes,
                    "optimized planes on {:?} at {:?}", backend, level);
                prop_assert_eq!(&opt_run.outs, &direct.outs,
                    "optimized outputs on {:?} at {:?}", backend, level);
                prop_assert!(opt_run.stats.cycles() < direct.stats.cycles(),
                    "optimized execution cheaper on {:?} at {:?}", backend, level);
            }
        }
    }

    #[test]
    fn resident_replay_discounts_hoisted_broadcasts_only(
        data in data_strategy(),
    ) {
        // Phase-style program: the divisor arrives via a scalar slot,
        // so its broadcast (and the constant-multiplier broadcast) are
        // shard-invariant and hoistable.
        let (rows, xs, ys, amts, ext) = data;
        let compile = Inputs { xs: &xs, ys: &ys, amts: &amts, ext };
        let program = record(rows, DivStyle::Restoring, true);
        let (opt, report) = optimized(&program, OptLevel::Full, &compile);
        prop_assert!(report.hoisted >= 2, "const + scalar-derived broadcasts hoist");

        for backend in [ExecBackend::Microcode, ExecBackend::FastWord] {
            let normal = run_replay(&opt, backend, &compile, false);
            let resident = run_replay(&opt, backend, &compile, true);
            // Identical planes and outputs — the broadcasts still
            // execute; only their charge is discounted.
            prop_assert_eq!(&resident.planes, &normal.planes, "{:?}", backend);
            prop_assert_eq!(&resident.outs, &normal.outs, "{:?}", backend);
            prop_assert!(resident.stats.cycles() < normal.stats.cycles(),
                "resident replay must charge less on {:?}", backend);
        }
    }
}

/// A cost of `cmp` compare and `wr` write (cycles, cell events).
fn price(cmp: (u64, u64), wr: (u64, u64)) -> CycleStats {
    let mut st = CycleStats::default();
    st.charge_compares_bulk(cmp.0, cmp.1);
    st.charge_writes_bulk(wr.0, wr.1);
    st
}

/// Records `r = a * c` through a broadcast multiplier and `channels`
/// restoring divisions of `nums` sharing the per-row divisors `dens`,
/// optimizes a copy (the multiply folds to `MulConst`, the divisions
/// fuse and batch into one `FusedDivide`), and prices both programs by
/// costing replays on Microcode with the same inputs — the unoptimized
/// one op by op on the LUT engines. Returns both programs.
fn fused_price_programs(
    xs: &[u64],
    nums: &[Vec<u64>; 2],
    dens: &[u64],
    c: u64,
    frac: usize,
    channels: usize,
) -> (ApProgram, ApProgram) {
    let mut core =
        ApCore::with_backend(ApConfig::new(xs.len(), COLS), ExecBackend::Microcode).unwrap();
    let a = core.alloc_field(8).unwrap();
    let k = core.alloc_field(13).unwrap();
    let r = core.alloc_field(21).unwrap();
    let ns = [core.alloc_field(10).unwrap(), core.alloc_field(10).unwrap()];
    let den = core.alloc_field(12).unwrap();
    let qs = [core.alloc_field(14).unwrap(), core.alloc_field(14).unwrap()];
    let in_slices: [&[u64]; 4] = [xs, &nums[0], &nums[1], dens];
    let [mut o0, mut o1, mut o2] = [Vec::new(), Vec::new(), Vec::new()];
    let mut outs: [&mut Vec<u64>; 3] = [&mut o0, &mut o1, &mut o2];
    let mut scratch = ProgramScratch::default();
    let mut on_step = |_: &'static str, _: CycleStats| {};
    let mut rec = Recorder::new(
        &mut core,
        ExecIo::new(&[], &mut []),
        &mut scratch,
        &mut on_step,
        true,
    );
    rec.load(a, 0).unwrap();
    rec.load(ns[0], 1).unwrap();
    rec.load(ns[1], 2).unwrap();
    rec.load(den, 3).unwrap();
    rec.broadcast(k, c).unwrap();
    rec.mul(a, k, r).unwrap();
    for (&n, &q) in ns.iter().zip(&qs).take(channels) {
        rec.divide(n, den, q, frac, DivStyle::Restoring).unwrap();
    }
    rec.read(r, 0).unwrap();
    rec.read(qs[0], 1).unwrap();
    rec.read(qs[1], 2).unwrap();
    let mut program = rec.finish().expect("recording returns a program");
    let mut opt = program.clone();
    optimizer::optimize(&mut opt, OptLevel::Full);
    for p in [&mut program, &mut opt] {
        let mut core = ApCore::with_backend(p.config(), ExecBackend::Microcode).unwrap();
        let io = ExecIo::new(&in_slices, &mut outs);
        p.recost(&mut core, io, &mut scratch, |_, _| {}).unwrap();
    }
    (program, opt)
}

/// Rows of per-row operands for [`fused_price_programs`]: multiplicands,
/// two numerator columns and non-zero divisors.
fn fused_price_data() -> impl Strategy<Value = (Vec<u64>, [Vec<u64>; 2], Vec<u64>)> {
    (
        1usize..48,
        prop::collection::vec(0u64..256, 48..49),
        prop::collection::vec(0u64..1024, 96..97),
        prop::collection::vec(1u64..4096, 48..49),
    )
        .prop_map(|(rows, mut xs, nums, mut dens)| {
            xs.truncate(rows);
            dens.truncate(rows);
            let nums = [nums[..rows].to_vec(), nums[48..48 + rows].to_vec()];
            (xs, nums, dens)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `FusedDivide` and `MulConst` have no LUT implementation: both
    /// backends run the FastWord engine, so the backend and blocked
    /// diffs compare their price with itself. Here each recosted price
    /// must equal a closed form over the Microcode price of the ops it
    /// replaced, on the compile inputs.
    /// - A fused division channel costs its Microcode restoring
    ///   division without the remainder shift copies of its `nw + F`
    ///   iterations (`rem_w - 1` bit copies each), plus one
    ///   canonicalization copy of the `rem_w`-bit remainder.
    /// - `MulConst` costs the Microcode gated multiply by the broadcast
    ///   constant without, per unset multiplier bit, the empty gated
    ///   ripple of `a` into `a + 1` bits (`4a + 2` compares over
    ///   `4a·4 + 2·3` columns, `4a + 3` writes of which only the carry
    ///   clear touches cells), and per set bit the gate column of its
    ///   `4a + 2` compares.
    #[test]
    fn fused_ops_price_as_closed_forms_of_microcode(
        data in fused_price_data(),
        c in prop_oneof![Just(0u64), Just(1), Just(1365), Just(8191), 0u64..8192],
        frac in 0usize..6,
        channels in 1usize..3,
    ) {
        let (xs, nums, dens) = data;
        let (program, opt) = fused_price_programs(&xs, &nums, &dens, c, frac, channels);
        let rows = xs.len() as u64;
        let micro = |want: &dyn Fn(&ApOp) -> bool| {
            let at = program.ops().iter().position(want).expect("op recorded");
            program.op_costs()[at]
        };
        let mut fused = (0, 0);
        for (op, &cost) in opt.ops().iter().zip(opt.op_costs()) {
            match *op {
                ApOp::MulConst { a, r, bits, width } => {
                    let mul = micro(&|op| matches!(*op, ApOp::Mul { a: a2, r: r2, .. } if a2 == a && r2 == r));
                    let (a, set) = (a.width() as u64, u64::from(bits.count_ones()));
                    let unset = width as u64 - set;
                    let saved = price(
                        ((4 * a + 2) * unset, ((16 * a + 6) * unset + (4 * a + 2) * set) * rows),
                        ((4 * a + 3) * unset, rows * unset),
                    );
                    prop_assert_eq!(cost, mul.since(&saved), "MulConst of {:#x}", bits);
                    fused.0 += 1;
                }
                ApOp::FusedDivide { den, frac_bits, channels: pairs, n_channels } => {
                    let rem_w = den.width() as u64 + 1;
                    let mut want = CycleStats::default();
                    for &(num, quot) in &pairs[..usize::from(n_channels)] {
                        let div = micro(&|op| matches!(
                            *op,
                            ApOp::Divide { num: n2, quot: q2, .. } if n2 == num && q2 == quot
                        ));
                        let iters = (num.width() + frac_bits) as u64;
                        let m = rem_w - 1;
                        want.accumulate(&div.since(&price(
                            (2 * m * iters, 2 * m * rows * iters),
                            (2 * m * iters, m * rows * iters),
                        )));
                        want.accumulate(&price(
                            (2 * rem_w, 2 * rem_w * rows),
                            (2 * rem_w, rem_w * rows),
                        ));
                    }
                    prop_assert_eq!(cost, want, "FusedDivide of {} channels", n_channels);
                    fused.1 += usize::from(n_channels);
                }
                _ => {}
            }
        }
        prop_assert_eq!(fused, (1, channels), "the optimizer must fold and fuse");
    }
}
