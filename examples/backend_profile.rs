//! Quick per-primitive timing comparison of the two AP backends, using
//! the pooled tile API (one [`ApTile`] reused across backends, no
//! arena reallocation between programs), the host-side quantizer, plus
//! a compile-vs-replay profile of the full mapped dataflow.
//! Run: `cargo run --release --example backend_profile`

use softmap::{ApSoftmax, ApSoftmaxRun, PlanMode, TileState};
use softmap_ap::{ApConfig, ApTile, DivStyle, ExecBackend, Field, Overflow};
use softmap_softmax::{IntSoftmax, PrecisionConfig};
use std::time::Instant;

fn time<F: FnMut()>(label: &str, reps: u32, mut f: F) -> f64 {
    let t = Instant::now();
    for _ in 0..reps {
        f();
    }
    let per = t.elapsed().as_secs_f64() / f64::from(reps);
    println!("  {label:<28} {:>10.1} us", per * 1e6);
    per
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
    let direct = ApSoftmax::new(PrecisionConfig::paper_best())
        .unwrap()
        .with_backend(ExecBackend::FastWord)
        .with_plan_mode(PlanMode::DirectIssue);
    // Autotuning pinned off here: these sections profile the paper's
    // fixed mapping; the autotuner gets its own section below.
    let cached = ApSoftmax::new(PrecisionConfig::paper_best())
        .unwrap()
        .with_autotune(false)
        .with_backend(ExecBackend::FastWord);
    let mut state = TileState::new();
    let mut run = ApSoftmaxRun::default();
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

    // Region-blocked strip-mined execution: the blocked replay above is
    // the default; compare against the op-by-op escape hatch and print
    // the plan's blocking summary (host-only optimization — the device
    // cycle contract is unchanged, so `static cost` above is identical
    // on both paths).
    println!("region blocking @ {rows} rows");
    let unblocked = cached.clone().with_blocked(false);
    unblocked
        .execute_floats_into(&mut state, &scores, &mut run)
        .unwrap(); // compiles the op-by-op plan
    let op_by_op = time("op-by-op replay", 10, || {
        unblocked
            .execute_floats_into(&mut state, &scores, &mut run)
            .unwrap();
    });
    cached
        .execute_floats_into(&mut state, &scores, &mut run)
        .unwrap(); // re-warm the blocked plan's tile slot
    let blocked_t = time("blocked replay", 10, || {
        cached
            .execute_floats_into(&mut state, &scores, &mut run)
            .unwrap();
    });
    match plan.block_stats() {
        Some(blocks) => println!("  blocking: {blocks}"),
        None => println!("  blocking: disabled"),
    }
    println!(
        "  blocked/op-by-op wall ratio: {:.2}x",
        blocked_t / op_by_op
    );

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
        let plan = tuned.tuned_plan(len).unwrap();
        let default = tuned.clone().with_autotune(false).static_cost(len).unwrap();
        println!(
            "  len {len}: chose [{}] — {} cyc vs default {} cyc (compile {:.1} us)",
            plan.choice(),
            plan.winner_cost().total.cycles(),
            default.cycles(),
            plan.compile_micros()
        );
    }
    println!("  cache (tuned mapping): {}", tuned.cache_stats());

    // Serving layer: a mixed burst through the bounded queue — waves
    // coalesce at admission, long vectors fan their shards across the
    // workers, and the cache summary now carries the serving counters.
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
