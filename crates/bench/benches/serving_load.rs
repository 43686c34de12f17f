//! Load generator for the multi-tenant serving layer: mixed 64–16k
//! traffic from a closed-loop client with a bounded outstanding
//! window, versus the sequential one-request-at-a-time baseline on a
//! single `TileState`.
//!
//! Wall-clock records (host-dependent, informational):
//!
//! * `serving/throughput_rps` — served requests per second,
//! * `serving/p50_us` / `serving/p99_us` — per-request latency
//!   percentiles, submission to collection,
//! * `serving/wall_speedup_x1000` — sequential wall time over served
//!   wall time (×1000; ~1000 on a single-core host, where the worker
//!   pool degenerates to one worker),
//! * `serving/idle_p50_us_<len>` / `serving/idle_p90_us_<len>` — the
//!   idle series: lone 8192- and 16384-score requests on an idle
//!   2-worker server, one ticket in flight, submission to collection.
//!   It measures how much an idle worker helping with a long request's
//!   shard chunks buys; the helped-chunk counts print beside it (and,
//!   for the loaded run, in the admission line).
//!
//! Host-invariant records (the `serving` gate in `scripts/bench_ap.sh`
//! runs on these; they are *device-model* quantities — simulated
//! cycles and admission counters — so host speed never enters):
//!
//! * `serving/device_speedup_x1000` — Σ per-request `latency_cycles`
//!   over the continuous-batching schedule's makespan (the grid runs
//!   requests concurrently; sequential device time runs them back to
//!   back),
//! * `serving/occupancy_x1000` — busy tile-cycles over makespan ×
//!   tiles,
//! * `serving/waves_formed` / `serving/coalesced` — admission passes
//!   that formed a wave, and requests packed into an already-forming
//!   wave,
//! * `serving/requests` — workload size (quick mode serves a smaller
//!   workload).
//!
//! The bench also asserts the serving bit-exactness contract's cost
//! half: the served requests' summed device latency must equal the
//! sequential baseline's, cycle for cycle.
//!
//! Run: `scripts/bench_ap.sh` (or
//! `cargo bench -p softmap-bench --bench serving_load`).

use softmap::{ApSoftmax, ApSoftmaxRun, ServeConfig, SoftmaxServer, Ticket, TileState};
use softmap_ap::ExecBackend;
use softmap_softmax::PrecisionConfig;
use std::collections::VecDeque;
use std::time::Instant;

/// One workload period: mostly short attention rows with periodic long
/// contexts (8k spans two shard tiles, 16k four on the default grid).
const PATTERN: [usize; 12] = [64, 256, 64, 1024, 64, 4096, 256, 64, 8192, 1024, 64, 16384];

/// Outstanding requests the closed-loop client keeps in flight.
const WINDOW: usize = 48;

/// The idle series' request lengths: two and four shard tiles on the
/// default grid at the paper's two words per row.
const IDLE_LENS: [usize; 2] = [8192, 16384];

/// Appends a record to the `CRITERION_JSON` stream in the harness's
/// `{"bench":..., "ns_per_iter":...}` shape so `scripts/bench_ap.sh`
/// can assemble and gate the serving section.
fn emit(name: &str, value: u64) {
    use std::io::Write;
    let Ok(path) = std::env::var("CRITERION_JSON") else {
        return;
    };
    if path.is_empty() {
        return;
    }
    if let Ok(mut file) = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
    {
        let _ = writeln!(file, "{{\"bench\":\"{name}\",\"ns_per_iter\":{value}}}");
    }
}

fn row(len: usize, salt: usize) -> Vec<f64> {
    (0..len)
        .map(|i| -f64::from(((i + salt * 31) % 97) as u32) * 0.07)
        .collect()
}

fn mapping() -> ApSoftmax {
    ApSoftmax::new(PrecisionConfig::paper_best())
        .unwrap()
        .with_backend(ExecBackend::FastWord)
}

fn main() {
    // Quick smoke runs (scripts/bench_ap.sh --quick sets a small
    // CRITERION_MEASURE_MS) serve a smaller workload; the gate ratios
    // are scale-free, so they hold at either size.
    let quick = std::env::var("CRITERION_MEASURE_MS")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .is_some_and(|ms| ms <= 100);
    let requests: usize = if quick { 120 } else { 600 };
    let rows: Vec<Vec<f64>> = PATTERN
        .iter()
        .enumerate()
        .map(|(salt, &len)| row(len, salt))
        .collect();
    let mut shapes: Vec<usize> = PATTERN.to_vec();
    shapes.sort_unstable();
    shapes.dedup();

    // Sequential baseline: one persistent TileState executing the same
    // request sequence in arrival order. Warm (compile) each shape
    // first so the timed pass replays, exactly like the warmed server.
    let base = mapping();
    let mut state = TileState::new();
    let mut run = ApSoftmaxRun::default();
    for r in &rows {
        base.execute_floats_into(&mut state, r, &mut run).unwrap();
    }
    let t0 = Instant::now();
    let mut seq_cycles: u64 = 0;
    for i in 0..requests {
        base.execute_floats_into(&mut state, &rows[i % rows.len()], &mut run)
            .unwrap();
        seq_cycles += run.latency_cycles;
    }
    let seq_wall = t0.elapsed().as_secs_f64();

    // Served: a closed-loop client keeping WINDOW requests in flight
    // through the bounded queue.
    let cfg = ServeConfig {
        warmup_shapes: shapes,
        ..ServeConfig::default()
    };
    let window = WINDOW.min(cfg.queue_depth);
    let server = SoftmaxServer::new(mapping(), cfg).unwrap();
    let mut inflight: VecDeque<(Instant, Ticket)> = VecDeque::with_capacity(window);
    let mut lat_us: Vec<f64> = Vec::with_capacity(requests);
    let mut served_cycles: u64 = 0;
    let mut collect = |submitted: Instant, ticket: Ticket, out: &mut ApSoftmaxRun| {
        ticket.wait_into(out).unwrap();
        served_cycles += out.latency_cycles;
        lat_us.push(submitted.elapsed().as_secs_f64() * 1e6);
    };
    let t1 = Instant::now();
    for i in 0..requests {
        while inflight.len() >= window {
            let (submitted, ticket) = inflight.pop_front().unwrap();
            collect(submitted, ticket, &mut run);
        }
        let submitted = Instant::now();
        let ticket = server.submit(&rows[i % rows.len()]).unwrap();
        inflight.push_back((submitted, ticket));
    }
    for (submitted, ticket) in inflight {
        collect(submitted, ticket, &mut run);
    }
    let served_wall = t1.elapsed().as_secs_f64();

    let stats = server.stats();
    assert_eq!(stats.completed, requests as u64, "requests lost: {stats}");
    assert_eq!(
        served_cycles, seq_cycles,
        "served device work must equal the sequential baseline's \
         (bit-exactness contract, cost half)"
    );

    let device_speedup = served_cycles as f64 / stats.makespan_cycles.max(1) as f64;
    let occupancy = stats.occupancy();
    lat_us.sort_by(f64::total_cmp);
    let pct = |p: f64| lat_us[((lat_us.len() - 1) as f64 * p) as usize];
    let (p50, p99) = (pct(0.50), pct(0.99));
    let rps = requests as f64 / served_wall;

    println!(
        "serving_load: {requests} requests (mixed {}..{} scores), window {window}",
        PATTERN.iter().min().unwrap(),
        PATTERN.iter().max().unwrap()
    );
    println!(
        "  wall: {rps:.0} req/s served vs {:.0} req/s sequential \
         ({:.2}x), p50 {p50:.0} us, p99 {p99:.0} us",
        requests as f64 / seq_wall,
        seq_wall / served_wall
    );
    println!(
        "  device: {served_cycles} cyc sequential -> {} cyc makespan \
         ({device_speedup:.1}x, occupancy {occupancy:.2} over {} tiles)",
        stats.makespan_cycles, stats.tiles
    );
    println!("  admission: {stats}");

    emit("serving/requests", requests as u64);
    emit("serving/throughput_rps", rps as u64);
    emit("serving/p50_us", p50 as u64);
    emit("serving/p99_us", p99 as u64);
    emit(
        "serving/wall_speedup_x1000",
        (seq_wall / served_wall * 1000.0) as u64,
    );
    emit(
        "serving/device_speedup_x1000",
        (device_speedup * 1000.0) as u64,
    );
    emit("serving/occupancy_x1000", (occupancy * 1000.0) as u64);
    emit("serving/waves_formed", stats.waves_formed);
    emit("serving/coalesced", stats.coalesced);

    idle_series(if quick { 40 } else { 200 });
}

/// Lone long requests on an idle 2-worker server, one ticket in flight:
/// each length's latency p50 and p90 over `samples` requests, after a
/// few warm ones.
fn idle_series(samples: usize) {
    let server = SoftmaxServer::new(
        mapping(),
        ServeConfig {
            workers: 2,
            queue_depth: 2,
            warmup_shapes: IDLE_LENS.to_vec(),
            shard_parallel: true,
        },
    )
    .unwrap();
    let mut run = ApSoftmaxRun::default();
    for (salt, &len) in IDLE_LENS.iter().enumerate() {
        let r = row(len, salt);
        for _ in 0..5 {
            server.submit(&r).unwrap().wait_into(&mut run).unwrap();
        }
        let helped_before = server.stats().helped_chunks;
        let mut lat_us: Vec<f64> = Vec::with_capacity(samples);
        for _ in 0..samples {
            let submitted = Instant::now();
            server.submit(&r).unwrap().wait_into(&mut run).unwrap();
            lat_us.push(submitted.elapsed().as_secs_f64() * 1e6);
        }
        let helped = server.stats().helped_chunks - helped_before;
        lat_us.sort_by(f64::total_cmp);
        let pct = |p: f64| lat_us[((lat_us.len() - 1) as f64 * p) as usize];
        let (p50, p90) = (pct(0.50), pct(0.90));
        println!(
            "  idle {len}: p50 {p50:.0} us, p90 {p90:.0} us over {samples} lone \
             requests ({} shards), {helped} chunks helped",
            run.shards
        );
        emit(&format!("serving/idle_p50_us_{len}"), p50 as u64);
        emit(&format!("serving/idle_p90_us_{len}"), p90 as u64);
    }
}
