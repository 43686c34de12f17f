//! Serving-layer integration tests: every served request must be
//! **bit-exact** versus the inline (non-serving) execution path, the
//! bounded queue must push back deterministically, warmup must
//! precompile exactly one plan per shape, and the serving counters must
//! add up.

use softmap::{ApSoftmax, ApSoftmaxRun, CoreError, ServeConfig, SoftmaxServer, TileState};
use softmap_ap::ExecBackend;
use softmap_softmax::PrecisionConfig;

fn mapping() -> ApSoftmax {
    ApSoftmax::new(PrecisionConfig::paper_best())
        .unwrap()
        .with_backend(ExecBackend::FastWord)
}

fn scores(len: usize, salt: usize) -> Vec<f64> {
    (0..len)
        .map(|i| -(((i * 7 + salt * 13) % 97) as f64) * 0.07)
        .collect()
}

/// Full-run equality: outputs *and* device-cost accounting, because the
/// serving path replays the same cached plans the inline path replays.
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
fn served_requests_are_bit_exact_versus_inline_execution() {
    // Mixed short/long traffic, including shapes that shard (8200,
    // 16384 on the default 48 × 2048-row grid) and thus take the
    // shard-parallel fan-out inside the workers.
    let lens = [4usize, 64, 257, 1024, 4096, 8200, 16384];
    let server = SoftmaxServer::new(
        mapping(),
        ServeConfig {
            workers: 2,
            queue_depth: 16,
            warmup_shapes: lens.to_vec(),
            shard_parallel: true,
        },
    )
    .unwrap();
    let tickets: Vec<_> = lens
        .iter()
        .enumerate()
        .map(|(salt, &len)| (len, salt, server.submit(&scores(len, salt)).unwrap()))
        .collect();

    // Inline references through a separate, identically-configured
    // mapping; executed twice so the reference is a plan *replay*, like
    // the served (warmed-up) execution.
    let reference = mapping();
    let mut state = TileState::new();
    for (len, salt, ticket) in tickets {
        let got = ticket.wait().unwrap();
        let row = scores(len, salt);
        let mut want = ApSoftmaxRun::default();
        reference
            .execute_floats_into(&mut state, &row, &mut want)
            .unwrap();
        reference
            .execute_floats_into(&mut state, &row, &mut want)
            .unwrap();
        assert_runs_equal(&got, &want, &format!("len {len}"));
    }

    let stats = server.stats();
    assert_eq!(stats.queued, lens.len() as u64);
    assert_eq!(stats.completed, lens.len() as u64);
    assert!(stats.waves_formed >= 1);
    // Every admission is either the wave it opened or coalesced into
    // an earlier one.
    assert_eq!(
        stats.waves_formed + stats.coalesced,
        stats.completed,
        "admissions split into waves + coalesced: {stats}"
    );
    let occ = stats.occupancy();
    assert!(occ > 0.0 && occ <= 1.0, "occupancy {occ} out of range");
}

#[test]
fn served_requests_claim_the_tiles_their_plans_run_on() {
    // Admission claims `min(shards, tiles)` tiles per request, and the
    // device-time ledger books each completed request's latency on that
    // many tiles. The busy total is order-independent, so it pins every
    // claim to the shards the request's plan ran on: 4096 scores run
    // two shards on the default mapping, not the packed mapping's one.
    let lens = [64usize, 4096, 6000, 8192, 16384];
    let server = SoftmaxServer::new(
        mapping(),
        ServeConfig {
            workers: 1,
            queue_depth: 8,
            warmup_shapes: lens.to_vec(),
            shard_parallel: false,
        },
    )
    .unwrap();
    let tickets: Vec<_> = lens
        .iter()
        .enumerate()
        .map(|(salt, &len)| server.submit(&scores(len, salt)).unwrap())
        .collect();
    let tiles = mapping().device().tiles;
    let mut booked = 0;
    for ticket in tickets {
        let run = ticket.wait().unwrap();
        booked += run.latency_cycles * run.shards.min(tiles) as u64;
    }
    let stats = server.stats();
    assert_eq!(stats.completed, lens.len() as u64);
    assert_eq!(stats.busy_cycles, booked, "{stats}");
}

#[test]
fn bounded_queue_pushes_back_with_queue_full() {
    // queue_depth 1: the only slot stays occupied until its ticket
    // collects, so the non-blocking submit below must observe a full
    // queue regardless of worker timing.
    let server = SoftmaxServer::new(
        mapping(),
        ServeConfig {
            workers: 1,
            queue_depth: 1,
            warmup_shapes: vec![16],
            shard_parallel: false,
        },
    )
    .unwrap();
    let row = scores(16, 0);
    let first = server.submit(&row).unwrap();
    match server.try_submit(&row) {
        Err(CoreError::QueueFull) => {}
        other => panic!("expected QueueFull, got {other:?}"),
    }
    first.wait().unwrap();
    // Collection freed the slot: the next submission goes through.
    server.submit(&row).unwrap().wait().unwrap();
    let stats = server.stats();
    assert!(stats.backpressure >= 1, "backpressure uncounted: {stats}");
    assert_eq!(stats.queued, 2);
    assert_eq!(stats.completed, 2);
}

#[test]
fn warmup_precompiles_each_shape_once() {
    // Whole-vector shapes compile exactly one plan each; warm traffic
    // then replays without compiling anything.
    let shapes = vec![256usize, 512, 1024];
    let server = SoftmaxServer::new(
        mapping(),
        ServeConfig {
            workers: 1,
            queue_depth: 8,
            warmup_shapes: shapes.clone(),
            shard_parallel: true,
        },
    )
    .unwrap();
    assert_eq!(
        server.mapping().cache_stats().compiles,
        shapes.len() as u64,
        "warmup must compile one plan per shape"
    );
    for (salt, &len) in shapes.iter().enumerate() {
        server.submit(&scores(len, salt)).unwrap().wait().unwrap();
    }
    assert_eq!(
        server.mapping().cache_stats().compiles,
        shapes.len() as u64,
        "warm traffic must not recompile"
    );
    // The server's cache counters are its mapping's; the serving
    // counters are its own.
    assert_eq!(server.cache_stats(), server.mapping().cache_stats());
    let stats = server.stats();
    assert_eq!(stats.queued, shapes.len() as u64);
    assert!(stats.waves_formed >= 1);
    assert_eq!(stats.backpressure, 0);
}

#[test]
fn execute_batch_matches_references_in_order() {
    // Queue depth below the batch size exercises the pipelined
    // submit-and-drain backpressure path; repeated lengths exercise the
    // workers' shape affinity.
    let lens = [64usize, 300, 64, 4097, 64, 1024, 300, 8200];
    let batch: Vec<Vec<f64>> = lens
        .iter()
        .enumerate()
        .map(|(i, &l)| scores(l, i))
        .collect();
    let server = SoftmaxServer::new(
        mapping(),
        ServeConfig {
            workers: 2,
            queue_depth: 4,
            warmup_shapes: Vec::new(),
            shard_parallel: true,
        },
    )
    .unwrap();
    let got = server.execute_batch(&batch).unwrap();
    assert_eq!(got.len(), batch.len());
    let reference = mapping();
    let mut state = TileState::new();
    for (i, (row, run)) in batch.iter().zip(&got).enumerate() {
        let mut want = ApSoftmaxRun::default();
        reference
            .execute_floats_into(&mut state, row, &mut want)
            .unwrap();
        assert_eq!(run.codes, want.codes, "row {i} codes");
        assert_eq!(run.sum, want.sum, "row {i} sum");
        assert_eq!(run.shards, want.shards, "row {i} shards");
    }
    let stats = server.stats();
    assert_eq!(stats.completed, lens.len() as u64);
    assert!(stats.occupancy() > 0.0);
}

#[test]
fn dropped_server_drains_and_tickets_stay_collectable() {
    let server = SoftmaxServer::new(
        mapping(),
        ServeConfig {
            workers: 2,
            queue_depth: 8,
            warmup_shapes: vec![32],
            shard_parallel: false,
        },
    )
    .unwrap();
    let tickets: Vec<_> = (0..4)
        .map(|salt| server.submit(&scores(32, salt)).unwrap())
        .collect();
    // Dropping the server drains every accepted request before the
    // workers exit; outstanding tickets then collect normally.
    drop(server);
    for ticket in tickets {
        let run = ticket.wait().unwrap();
        assert_eq!(run.codes.len(), 32);
    }
}

#[test]
fn submission_errors_and_abandoned_tickets_are_handled() {
    let server = SoftmaxServer::new(
        mapping(),
        ServeConfig {
            workers: 1,
            queue_depth: 2,
            warmup_shapes: vec![16],
            shard_parallel: false,
        },
    )
    .unwrap();
    assert!(matches!(server.submit(&[]), Err(CoreError::EmptyInput)));

    // An abandoned ticket's request still executes, and its slot is
    // reclaimed by the worker.
    drop(server.submit(&scores(16, 1)).unwrap());
    server.submit(&scores(16, 2)).unwrap().wait().unwrap();
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    while server.stats().completed < 2 {
        assert!(
            std::time::Instant::now() < deadline,
            "abandoned request never completed: {}",
            server.stats()
        );
        std::thread::yield_now();
    }
    // Both slots are reusable afterwards.
    server.submit(&scores(16, 3)).unwrap().wait().unwrap();
    assert_eq!(server.stats().queued, 3);
}
