//! Quick per-primitive timing comparison of the two AP backends, using
//! the pooled tile API (one [`ApTile`] reused across backends, no
//! arena reallocation between programs), the host-side quantizer, plus
//! a compile-vs-replay profile of the full mapped dataflow.
//! Run: `cargo run --release --example backend_profile`

use softmap::{ApSoftmax, ApSoftmaxRun, PlanMode, TileState};
use softmap_ap::program::optimizer::{self, OptLevel};
use softmap_ap::program::{ExecIo, ProgramScratch, Recorder, ReplayCharge};
use softmap_ap::{ApConfig, ApCore, ApProgram, ApTile, DivStyle, ExecBackend, Field, Overflow};
use softmap_softmax::{IntSoftmax, PrecisionConfig};
use std::time::Instant;

/// Timed samples per profile row, after one warm-up sample.
const SAMPLES: usize = 9;

/// Times `f` as [`SAMPLES`] samples of `reps` calls each, after one
/// warm-up sample, and prints the per-call median and quartiles.
/// Returns the median.
fn time<F: FnMut()>(label: &str, reps: u32, mut f: F) -> f64 {
    let mut per = [0f64; SAMPLES + 1];
    for p in &mut per {
        let t = Instant::now();
        for _ in 0..reps {
            f();
        }
        *p = t.elapsed().as_secs_f64() / f64::from(reps);
    }
    report(label, &mut per[1..])
}

/// Prints the median and quartiles of [`SAMPLES`] per-call times in
/// seconds. Returns the median.
fn report(label: &str, s: &mut [f64]) -> f64 {
    s.sort_by(f64::total_cmp);
    let [q1, median, q3] = [SAMPLES / 4, SAMPLES / 2, 3 * SAMPLES / 4].map(|i| s[i] * 1e6);
    println!("  {label:<28} {median:>10.2} us  (q1 {q1:.2}, q3 {q3:.2})");
    s[SAMPLES / 2]
}

/// A peaked attention-logit row: a pseudo-random spread of six units
/// below a peak every 509 scores, so after max subtraction about a
/// third of the row falls under the quantizer clip at -7.
fn peaked_row(len: usize) -> Vec<f64> {
    (0..len as u64)
        .map(|i| {
            let u = (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 11) as f64 / (1u64 << 53) as f64;
            if i % 509 == 7 {
                9.0
            } else {
                6.0 * u
            }
        })
        .collect()
}

/// The dataflow's division (Fig. 5 step 16) of `nums` by one broadcast
/// `divisor`, as the optimizer leaves it: 12-bit numerators over a
/// 22-bit divisor into 24-bit quotients with 23 fraction bits, one
/// `FusedDivide`, one row per numerator.
fn divide_program(nums: &[u64], divisor: u64) -> ApProgram {
    let rows = nums.len();
    let mut core = ApCore::with_backend(ApConfig::new(rows, 120), ExecBackend::FastWord).unwrap();
    let (num, den, quot) = (
        core.alloc_field(12).unwrap(),
        core.alloc_field(22).unwrap(),
        core.alloc_field(24).unwrap(),
    );
    let mut scratch = ProgramScratch::default();
    let mut on_step = |_: &'static str, _| {};
    let io = ExecIo::new(&[], &mut []);
    let mut rec = Recorder::new(&mut core, io, &mut scratch, &mut on_step, true);
    rec.load(num, 0).unwrap();
    rec.broadcast(den, divisor).unwrap();
    rec.divide(num, den, quot, 23, DivStyle::Restoring).unwrap();
    rec.read(quot, 0).unwrap();
    let mut program = rec.finish().unwrap();
    optimizer::optimize(&mut program, OptLevel::Full);
    let inputs: [&[u64]; 1] = [nums];
    let mut out = Vec::new();
    let mut outs: [&mut Vec<u64>; 1] = [&mut out];
    let io = ExecIo::new(&inputs, &mut outs);
    program
        .recost(&mut core, io, &mut scratch, |_, _| {})
        .unwrap();
    program
}

fn main() {
    let rows = 2048usize;
    let xs: Vec<u64> = (0..rows as u64).map(|i| i * 7 % 131071).collect();
    let ys: Vec<u64> = (0..rows as u64).map(|i| (i * 13 + 5) % 131071).collect();
    let ds: Vec<u64> = (0..rows as u64).map(|i| i % 251 + 1).collect();
    let amts: Vec<u64> = (0..rows as u64).map(|i| i % 16).collect();

    // One pooled tile serves both backends: `acquire` clears state but
    // keeps every buffer's capacity (zero steady-state allocations).
    let mut tile = ApTile::new();
    let mut readout: Vec<u64> = Vec::new();
    let mut sums: Vec<u64> = Vec::new();
    for backend in [ExecBackend::Microcode, ExecBackend::FastWord] {
        println!("{backend:?} @ {rows} rows");
        let ap = tile.acquire(ApConfig::new(rows, 160), backend).unwrap();
        let a: Field = ap.alloc_field(17).unwrap();
        let b = ap.alloc_field(17).unwrap();
        let r = ap.alloc_field(36).unwrap();
        let q = ap.alloc_field(24).unwrap();
        let amt = ap.alloc_field(4).unwrap();
        let den = ap.alloc_field(8).unwrap();
        let sum = ap.alloc_field(28).unwrap();
        ap.load(a, &xs).unwrap();
        ap.load(b, &ys).unwrap();
        ap.load(amt, &amts).unwrap();
        ap.load(den, &ds).unwrap();

        time("load 17b", 50, || ap.load(a, &xs).unwrap());
        time("read 17b (pooled)", 50, || {
            readout.clear();
            ap.read_append(a, &mut readout);
        });
        time("copy 17b->24b", 20, || ap.copy(a, q).unwrap());
        time("add_into 17b", 20, || ap.add_into(r.sub(0, 18), a).unwrap());
        time("sub_into 17b", 20, || {
            let _ = ap.sub_into_ref(r.sub(0, 18), a).unwrap();
        });
        time("mul 17x17", 5, || ap.mul(a, b, r).unwrap());
        time("shr_const 17b by 3", 20, || {
            ap.shr_const(r.sub(0, 17), 3).unwrap()
        });
        time("shr_variable 17b", 10, || {
            ap.shr_variable(r.sub(0, 17), amt).unwrap()
        });
        time("divide restoring 17/8 f4", 3, || {
            ap.load(a, &xs).unwrap();
            ap.divide(a, den, q, 4, DivStyle::Restoring).unwrap();
        });
        time("max_search 17b", 20, || {
            let _ = ap.max_search_value(a);
        });
        time("broadcast 17b", 50, || ap.broadcast(b, 12345).unwrap());
        time("reduce_sum_2d 17b", 1000, || {
            ap.reduce_sum_2d_mode_into(a, sum, rows, Overflow::Error, &mut sums)
                .unwrap();
        });
    }

    // Host I/O at the dataflow's 6-, 12- and 24-bit field widths (the
    // last two are `v_approx` and the result codes): the packed
    // transposes share one transpose among 8, 4 and 2 blocks.
    println!("host I/O at the dataflow's field widths");
    for io_rows in [64usize, 512, 2048] {
        let ap = tile
            .acquire(ApConfig::new(io_rows, 48), ExecBackend::FastWord)
            .unwrap();
        let reps = (64 * 1024 / io_rows) as u32;
        for width in [6usize, 12, 24] {
            let f = ap.alloc_field(width).unwrap();
            let words: Vec<u64> = (0..io_rows as u64)
                .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) & f.max_value())
                .collect();
            time(&format!("load {width}b @ {io_rows} rows"), reps, || {
                ap.load(f, &words).unwrap();
            });
            time(&format!("read {width}b @ {io_rows} rows"), reps, || {
                readout.clear();
                ap.read_append(f, &mut readout);
            });
        }
    }

    // The dataflow's division on its own: op-by-op replay runs the
    // fused divider over the whole arena, blocked replay the strip
    // executor's lane-grouped kernel. Two inputs: a synthetic ramp
    // over a large divisor, under which about 60% of lane-group
    // iterations borrow in every row and skip the restoring add, and
    // the `v_approx` codes and sum of a real run on a peaked row, under
    // which 46-56% do.
    println!("dataflow divide 12/22 -> 24 bits, 23 fraction bits");
    let mut state = TileState::new();
    let mut run = ApSoftmaxRun::default();
    let fast = ApSoftmax::new(PrecisionConfig::paper_best())
        .unwrap()
        .with_backend(ExecBackend::FastWord);
    for div_rows in [64usize, 512, 2048] {
        fast.execute_floats_into(&mut state, &peaked_row(div_rows), &mut run)
            .unwrap();
        let ramp: Vec<u64> = (0..div_rows as u64).map(|i| (i * 37 + 11) % 4096).collect();
        for (input, nums, divisor) in [
            ("ramp", &ramp, 3_000_017),
            ("peaked", &run.vapprox, run.sum),
        ] {
            let op_by_op = divide_program(nums, divisor);
            let mut blocked = op_by_op.clone();
            blocked.plan_blocking(None);
            let mut core = ApCore::with_backend(op_by_op.config(), ExecBackend::FastWord).unwrap();
            let mut scratch = ProgramScratch::default();
            let inputs: [&[u64]; 1] = [nums];
            let reps = (64 * 1024 / div_rows) as u32;
            for (label, program) in [("op-by-op", &op_by_op), ("blocked", &blocked)] {
                time(&format!("{label} {input} @ {div_rows} rows"), reps, || {
                    readout.clear();
                    let mut outs: [&mut Vec<u64>; 1] = [&mut readout];
                    let io = ExecIo::new(&inputs, &mut outs);
                    program
                        .replay(&mut core, io, &mut scratch, ReplayCharge::Full, |_, _| {})
                        .unwrap();
                });
            }
        }
    }

    // Host-side quantizer and code-range check at a long-context length.
    println!("quantizer @ 16384 scores");
    let sm = IntSoftmax::new(PrecisionConfig::paper_best()).unwrap();
    let long: Vec<f64> = (0..16384)
        .map(|i| -f64::from((i % 97) as u32) * 0.07)
        .collect();
    let mut codes = Vec::new();
    time("quantize_into", 200, || sm.quantize_into(&long, &mut codes));
    time("validate_codes", 200, || sm.validate_codes(&codes).unwrap());

    // Full dataflow: direct per-vector issue vs cached-plan replay on
    // the pooled execute path (the compile-once/replay-many contract).
    println!("full dataflow @ {rows} rows (len {})", rows * 2);
    let scores: Vec<f64> = (0..rows * 2)
        .map(|i| -f64::from((i % 97) as u32) * 0.07)
        .collect();
    // Autotuning pinned off on both sides: these sections profile the
    // paper's fixed mapping; the autotuner gets its own section below.
    let direct = ApSoftmax::new(PrecisionConfig::paper_best())
        .unwrap()
        .with_autotune(false)
        .with_backend(ExecBackend::FastWord)
        .with_plan_mode(PlanMode::DirectIssue);
    let cached = ApSoftmax::new(PrecisionConfig::paper_best())
        .unwrap()
        .with_autotune(false)
        .with_backend(ExecBackend::FastWord);
    direct
        .execute_floats_into(&mut state, &scores, &mut run)
        .unwrap();
    time("direct issue (per-vector)", 10, || {
        direct
            .execute_floats_into(&mut state, &scores, &mut run)
            .unwrap();
    });
    cached
        .execute_floats_into(&mut state, &scores, &mut run)
        .unwrap(); // compiles
    time("cached-plan replay", 10, || {
        cached
            .execute_floats_into(&mut state, &scores, &mut run)
            .unwrap();
    });
    let plan = cached.plan(rows * 2).unwrap();
    println!(
        "  plan: {} ops, compiled once in {:.1} us, static cost {}",
        plan.program().len(),
        plan.compile_micros(),
        plan.program().static_cost()
    );
    println!("  passes: {}", plan.pass_report());

    // Compile as its own layer, on the default mapping: the wall time a
    // shape's compile took (trace, optimizer passes, blocking plan and
    // the costing replay that executes the shape's first vector), from
    // a fresh mapping per sample, beside a cached replay of the same
    // vector.
    println!("compile vs cached replay (default mapping)");
    for len in [64usize, 512, 2048, 16384] {
        let scores = peaked_row(len);
        let fresh = || {
            ApSoftmax::new(PrecisionConfig::paper_best())
                .unwrap()
                .with_backend(ExecBackend::FastWord)
        };
        let mut compile = [0f64; SAMPLES + 1];
        for c in &mut compile {
            let m = fresh();
            m.execute_floats_into(&mut state, &scores, &mut run)
                .unwrap();
            *c = m.cache_stats().compile_micros / 1e6;
        }
        report(&format!("compile len {len}"), &mut compile[1..]);
        let m = fresh();
        m.execute_floats_into(&mut state, &scores, &mut run)
            .unwrap();
        time(&format!("cached replay len {len}"), 10, || {
            m.execute_floats_into(&mut state, &scores, &mut run)
                .unwrap();
        });
    }

    // Region-blocked strip-mined execution: the blocked replay above is
    // the default at every tile size; compare it against the op-by-op
    // escape hatch and print each plan's blocking summary (host-only
    // optimization — the device cycle contract is unchanged, so the
    // static cost is identical on both paths).
    let unblocked = cached.clone().with_blocked(false);
    for tile_rows in [256usize, rows] {
        println!("region blocking @ {tile_rows} rows");
        let scores = &scores[..tile_rows * 2];
        unblocked
            .execute_floats_into(&mut state, scores, &mut run)
            .unwrap(); // compiles the op-by-op plan
        let op_by_op = time("op-by-op replay", 10, || {
            unblocked
                .execute_floats_into(&mut state, scores, &mut run)
                .unwrap();
        });
        cached
            .execute_floats_into(&mut state, scores, &mut run)
            .unwrap(); // compiles or re-warms the blocked plan
        let blocked_t = time("blocked replay", 10, || {
            cached
                .execute_floats_into(&mut state, scores, &mut run)
                .unwrap();
        });
        match cached.plan(scores.len()).unwrap().block_stats() {
            Some(blocks) => println!("  blocking: {blocks}"),
            None => println!("  blocking: disabled"),
        }
        println!(
            "  blocked/op-by-op wall ratio: {:.2}x",
            blocked_t / op_by_op
        );
    }

    // Sharded residency: replay a 16384-token vector on the default
    // (resident) and re-staged plans, then summarize the plan cache in
    // one line (the single `cache_stats` probe).
    println!("sharded residency @ len 16384");
    let restaged = cached.clone().with_resident(false);
    cached
        .execute_floats_into(&mut state, &long, &mut run)
        .unwrap(); // compiles the resident sharded plan
    time("resident sharded replay", 5, || {
        cached
            .execute_floats_into(&mut state, &long, &mut run)
            .unwrap();
    });
    let resident_cycles = run.total.cycles();
    restaged
        .execute_floats_into(&mut state, &long, &mut run)
        .unwrap();
    time("re-staged sharded replay", 5, || {
        restaged
            .execute_floats_into(&mut state, &long, &mut run)
            .unwrap();
    });
    println!(
        "  simulated work: resident {} cyc vs re-staged {} cyc",
        resident_cycles,
        run.total.cycles()
    );
    println!("  cache: {}", cached.cache_stats());
    println!("  cache (re-staged mapping): {}", restaged.cache_stats());

    // Mapping autotuner: compile the rule's mapping per shape, replay
    // it. Prints the chosen mapping per shape and the tuner's cache
    // statistics.
    println!("mapping autotuner");
    let tuned = ApSoftmax::new(PrecisionConfig::paper_best())
        .unwrap()
        .with_backend(ExecBackend::FastWord);
    for len in [1024usize, 4096, 6000, 16384] {
        let scores: Vec<f64> = (0..len)
            .map(|i| -f64::from((i % 97) as u32) * 0.07)
            .collect();
        tuned
            .execute_floats_into(&mut state, &scores, &mut run)
            .unwrap(); // first vector of the shape compiles the tuned plan
        time(&format!("autotuned replay len {len}"), 5, || {
            tuned
                .execute_floats_into(&mut state, &scores, &mut run)
                .unwrap();
        });
        let choice = tuned.mapping_choice(len).unwrap();
        let compile_us = match choice.shards {
            1 => tuned.plan(len).unwrap().compile_micros(),
            _ => tuned.sharded_plan(len).unwrap().compile_micros(),
        };
        let default = tuned
            .clone()
            .with_autotune(false)
            .static_vector_cost(len)
            .unwrap();
        println!(
            "  len {len}: chose [{choice}] — {} cyc vs default {} cyc (compile {compile_us:.1} us)",
            tuned.static_vector_cost(len).unwrap().total.cycles(),
            default.total.cycles(),
        );
    }
    println!("  cache (tuned mapping): {}", tuned.cache_stats());

    // Serving layer: a mixed burst through the bounded queue — waves
    // coalesce at admission and long vectors fan their shards across
    // the workers. `stats()` holds the serving counters, `cache_stats()`
    // the served mapping's plan cache.
    println!("serving layer (mixed burst)");
    let server = softmap::SoftmaxServer::new(
        ApSoftmax::new(PrecisionConfig::paper_best())
            .unwrap()
            .with_backend(ExecBackend::FastWord),
        softmap::ServeConfig {
            warmup_shapes: vec![64, 1024, 4096, 16384],
            ..softmap::ServeConfig::default()
        },
    )
    .unwrap();
    let burst: Vec<Vec<f64>> = (0..24)
        .map(|r| {
            let len = [64usize, 1024, 4096, 16384][r % 4];
            (0..len)
                .map(|i| -f64::from(((i + r * 31) % 97) as u32) * 0.07)
                .collect()
        })
        .collect();
    let t = Instant::now();
    let served = server.execute_batch(&burst).unwrap();
    let wall = t.elapsed().as_secs_f64();
    let stats = server.stats();
    println!(
        "  {} requests in {:.1} ms ({:.0} req/s wall)",
        served.len(),
        wall * 1e3,
        served.len() as f64 / wall
    );
    println!(
        "  device schedule: makespan {} cyc, occupancy {:.2} over {} tiles",
        stats.makespan_cycles,
        stats.occupancy(),
        stats.tiles
    );
    println!("  serving: {stats}");
    println!("  cache (served mapping): {}", server.cache_stats());
}
