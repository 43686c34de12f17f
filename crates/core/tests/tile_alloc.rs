//! Allocation-regression test: steady-state `TileState` reuse must
//! replay each softmax vector's cached plan with **zero** heap
//! allocations.
//!
//! A counting global allocator wraps the system allocator; counting is
//! armed only around the measured window, so harness setup does not
//! pollute the numbers. The test runs without the libtest harness
//! (`harness = false`): the allocator is process-global, and libtest's
//! main thread lazily allocates its channel context at an
//! unpredictable moment that can race into the armed window.

use softmap::{ApSoftmax, ApSoftmaxRun, TileState};
use softmap_ap::ExecBackend;
use softmap_softmax::PrecisionConfig;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

struct CountingAlloc;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) && new_size > layout.size() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Counts heap allocations performed by `f`.
fn count_allocs(f: impl FnOnce()) -> usize {
    ALLOCS.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    f();
    ARMED.store(false, Ordering::SeqCst);
    ALLOCS.load(Ordering::SeqCst)
}

fn main() {
    let scores: Vec<f64> = (0..64).map(|i| -(f64::from(i) * 0.31) % 6.7).collect();
    let alt: Vec<f64> = (0..64).map(|i| -(f64::from(i) * 0.17) % 5.9).collect();

    for backend in [ExecBackend::FastWord, ExecBackend::Microcode] {
        let mapping = ApSoftmax::new(PrecisionConfig::paper_best())
            .unwrap()
            .with_backend(backend);
        let mut state = TileState::new();
        let mut run = ApSoftmaxRun::default();

        // Warm-up: compiles the shape's plan and establishes the arena
        // and every buffer's capacity.
        mapping
            .execute_floats_into(&mut state, &scores, &mut run)
            .unwrap();
        mapping
            .execute_floats_into(&mut state, &alt, &mut run)
            .unwrap();
        let reference = run.codes.clone();
        assert_eq!(
            mapping.cache_stats().compiles,
            1,
            "one shape must compile exactly one plan"
        );
        let plan = state
            .cached_plan()
            .expect("the tile slot must hold the compiled plan after warm-up");
        if backend == ExecBackend::FastWord {
            // Blocking engages at every tile size, so the window below
            // covers a small-tile blocked replay.
            let blocks = plan.block_stats();
            assert!(
                blocks.is_some_and(|b| b.engaged && b.regions >= 1),
                "the 64-score FastWord plan must replay blocked: {blocks:?}"
            );
        }

        // Steady state: same shapes replayed through the same tile.
        let allocs = count_allocs(|| {
            for _ in 0..5 {
                mapping
                    .execute_floats_into(&mut state, &scores, &mut run)
                    .unwrap();
                mapping
                    .execute_floats_into(&mut state, &alt, &mut run)
                    .unwrap();
            }
        });
        assert_eq!(
            allocs, 0,
            "steady-state {backend:?} plan replay must not allocate (got {allocs} allocations over 10 vectors)"
        );
        assert_eq!(run.codes, reference, "replayed path must stay bit-exact");
        let stats = mapping.cache_stats();
        assert_eq!(stats.compiles, 1, "steady state must not recompile");
        assert!(
            stats.hits >= 11,
            "steady-state vectors must hit the cached plan (hits = {})",
            stats.hits
        );
        println!(
            "tile_alloc: {backend:?} ok (plan hits {}, compile {:.1} us)",
            stats.hits, stats.compile_micros
        );
    }

    // Region-blocked strip-mined replay (the FastWord default above
    // already runs blocked at 64 rows; this section pins it explicitly
    // at the bandwidth-bound 4096-score shape, checks regions formed,
    // and holds the blocked executor's strip/tally scratch to the same
    // zero-steady-state-allocation contract — the pooled buffers are
    // sized during warm-up and only reused afterwards). Unblocked, the
    // op-by-op FastWord engines keep their tallies in the same pooled
    // buffer and must not allocate either.
    for blocked in [true, false] {
        let wide: Vec<f64> = (0..4096).map(|i| -(f64::from(i) * 0.13) % 7.1).collect();
        let mapping = ApSoftmax::new(PrecisionConfig::paper_best())
            .unwrap()
            .with_autotune(false)
            .with_backend(ExecBackend::FastWord)
            .with_blocked(blocked);
        let mut state = TileState::new();
        let mut run = ApSoftmaxRun::default();
        mapping
            .execute_floats_into(&mut state, &wide, &mut run)
            .unwrap();
        mapping
            .execute_floats_into(&mut state, &wide, &mut run)
            .unwrap();
        let reference = run.codes.clone();
        let plan = state.cached_plan().expect("whole-vector plan cached");
        let blocks = plan.block_stats();
        if blocked {
            let blocks = blocks.expect("blocked compile records block stats");
            assert!(
                blocks.regions >= 1 && blocks.blocked_ops >= 4,
                "the dataflow must form strip-mined regions: {blocks}"
            );
            assert!(
                blocks.strip_blocks_min >= 1 && blocks.footprint_bytes_max > 0,
                "strips must be sized: {blocks}"
            );
        } else {
            assert!(blocks.is_none(), "an unblocked compile plans no regions");
        }
        let allocs = count_allocs(|| {
            for _ in 0..5 {
                mapping
                    .execute_floats_into(&mut state, &wide, &mut run)
                    .unwrap();
            }
        });
        assert_eq!(
            allocs, 0,
            "steady-state replay (blocked: {blocked}) must not allocate (got {allocs} over 5 vectors)"
        );
        assert_eq!(run.codes, reference, "replay must stay bit-exact");
        println!("tile_alloc: 4096 ok (blocked: {blocked}, {blocks:?})");
    }

    // Sharded long-sequence steady state: the acceptance shape
    // (seq_len 16384 on 2048-row tiles → four shards, three phases,
    // two cross-tile reductions per vector) must replay with zero heap
    // allocations once the sharded plan and every buffer are warm — on
    // the default **resident** plan (whose per-shard pinned-tile pool
    // only grows during warm-up) and on the re-staged plan.
    for resident in [true, false] {
        let long: Vec<f64> = (0..16384)
            .map(|i| -f64::from((i % 97) as u32) * 0.07)
            .collect();
        // Pinned to the paper-default mapping: this section
        // characterizes the four-shard packed replay (the tuned winner
        // re-partitions; its zero-alloc replay is covered above).
        let mapping = ApSoftmax::new(PrecisionConfig::paper_best())
            .unwrap()
            .with_autotune(false)
            .with_backend(ExecBackend::FastWord)
            .with_resident(resident);
        let mut state = TileState::new();
        let mut run = ApSoftmaxRun::default();
        mapping
            .execute_floats_into(&mut state, &long, &mut run)
            .unwrap();
        mapping
            .execute_floats_into(&mut state, &long, &mut run)
            .unwrap();
        assert_eq!(run.shards, 4, "16384 @ 2048 rows must run four shards");
        let reference = run.codes.clone();
        assert!(
            state.cached_sharded_plan().is_some(),
            "the tile slot must hold the sharded plan after warm-up"
        );
        let cache = mapping.cache_stats();
        assert_eq!(
            cache.resident_entries > 0,
            resident,
            "residency must show in the cache statistics: {cache}"
        );
        let allocs = count_allocs(|| {
            for _ in 0..3 {
                mapping
                    .execute_floats_into(&mut state, &long, &mut run)
                    .unwrap();
            }
        });
        assert_eq!(
            allocs, 0,
            "steady-state sharded replay (resident {resident}) must not \
             allocate (got {allocs} over 3 vectors)"
        );
        assert_eq!(run.codes, reference, "sharded replay must stay bit-exact");
        println!(
            "tile_alloc: sharded 16384 resident={resident} ok (shards {}, waves {}, \
             total {} cyc, latency {} cyc)",
            run.shards,
            run.waves,
            run.total.cycles(),
            run.latency_cycles
        );
    }

    // The default mapping's balanced shapes: the autotuner's rule maps
    // every vector, so each one computes its partition again. One word
    // per row, 6000 scores run three 2000-score shards and 5000 four
    // 1250-score shards, where the greedy split leaves a short tail.
    for (len, shards) in [(6000usize, 3usize), (5000, 4)] {
        let long: Vec<f64> = (0..len)
            .map(|i| -f64::from((i % 97) as u32) * 0.07)
            .collect();
        let mapping = ApSoftmax::new(PrecisionConfig::paper_best())
            .unwrap()
            .with_backend(ExecBackend::FastWord);
        let mut state = TileState::new();
        let mut run = ApSoftmaxRun::default();
        mapping
            .execute_floats_into(&mut state, &long, &mut run)
            .unwrap();
        mapping
            .execute_floats_into(&mut state, &long, &mut run)
            .unwrap();
        assert_eq!(run.shards, shards, "{len} scores");
        let choice = mapping.mapping_choice(len).unwrap();
        assert!(choice.balanced && choice.resident, "{len} scores: {choice}");
        let reference = run.codes.clone();
        let allocs = count_allocs(|| {
            for _ in 0..3 {
                mapping
                    .execute_floats_into(&mut state, &long, &mut run)
                    .unwrap();
            }
        });
        assert_eq!(
            allocs, 0,
            "steady-state balanced replay ({len} scores) must not allocate \
             (got {allocs} over 3 vectors)"
        );
        assert_eq!(run.codes, reference, "balanced replay must stay bit-exact");
        println!("tile_alloc: balanced {len} ok ({choice})");
    }

    // The Microcode backend shards identically; keep its window cheap
    // with a tiny device (64 scores over 8-row tiles → four shards).
    {
        let scores: Vec<f64> = (0..64).map(|i| -(f64::from(i) * 0.23) % 6.1).collect();
        let mapping = ApSoftmax::new(PrecisionConfig::paper_best())
            .unwrap()
            .with_autotune(false)
            .with_backend(ExecBackend::Microcode)
            .with_device(softmap_ap::DeviceConfig::new(2, 8));
        let mut state = TileState::new();
        let mut run = ApSoftmaxRun::default();
        mapping
            .execute_floats_into(&mut state, &scores, &mut run)
            .unwrap();
        mapping
            .execute_floats_into(&mut state, &scores, &mut run)
            .unwrap();
        assert_eq!(run.shards, 4);
        let allocs = count_allocs(|| {
            for _ in 0..3 {
                mapping
                    .execute_floats_into(&mut state, &scores, &mut run)
                    .unwrap();
            }
        });
        assert_eq!(
            allocs, 0,
            "steady-state Microcode sharded replay must not allocate (got {allocs})"
        );
        println!("tile_alloc: sharded Microcode ok");
    }

    // Serving steady state: once the queue slots, the worker's
    // persistent buffers, and the caller's collection target are warm,
    // the whole submit → execute → collect loop must not allocate. One
    // worker and whole-vector requests keep the armed window
    // deterministic (the counting allocator is process-global).
    {
        let mapping = ApSoftmax::new(PrecisionConfig::paper_best())
            .unwrap()
            .with_backend(ExecBackend::FastWord);
        let server = softmap::SoftmaxServer::new(
            mapping,
            softmap::ServeConfig {
                workers: 1,
                queue_depth: 2,
                warmup_shapes: vec![64],
                shard_parallel: false,
            },
        )
        .unwrap();
        let mut run = ApSoftmaxRun::default();
        for _ in 0..8 {
            let ticket = server.submit(&scores).unwrap();
            ticket.wait_into(&mut run).unwrap();
        }
        let reference = run.codes.clone();
        let allocs = count_allocs(|| {
            for _ in 0..5 {
                let ticket = server.submit(&scores).unwrap();
                ticket.wait_into(&mut run).unwrap();
            }
        });
        assert_eq!(
            allocs, 0,
            "steady-state serving loop must not allocate (got {allocs} over 5 requests)"
        );
        assert_eq!(run.codes, reference, "served replay must stay bit-exact");
        let stats = server.stats();
        assert_eq!(stats.completed, 13, "every submission must complete");
        println!("tile_alloc: serving ok ({stats})");
    }

    // Serving a sharded request whose chunks an idle worker may help
    // with: on an idle 2-worker server, a warmed 16384-score request
    // (the default grid shards it) must not allocate either, whichever
    // worker owns it and whichever chunks the other one claims.
    {
        let long: Vec<f64> = (0..16384).map(|i| -f64::from(i % 97) * 0.07).collect();
        let mapping = ApSoftmax::new(PrecisionConfig::paper_best())
            .unwrap()
            .with_backend(ExecBackend::FastWord);
        let server = softmap::SoftmaxServer::new(
            mapping,
            softmap::ServeConfig {
                workers: 2,
                queue_depth: 2,
                warmup_shapes: vec![long.len()],
                shard_parallel: true,
            },
        )
        .unwrap();
        let mut run = ApSoftmaxRun::default();
        for _ in 0..8 {
            let ticket = server.submit(&long).unwrap();
            ticket.wait_into(&mut run).unwrap();
        }
        assert!(run.shards > 1, "16384 scores must shard");
        let reference = run.codes.clone();
        let allocs = count_allocs(|| {
            for _ in 0..5 {
                let ticket = server.submit(&long).unwrap();
                ticket.wait_into(&mut run).unwrap();
            }
        });
        assert_eq!(
            allocs, 0,
            "steady-state helped sharded serving must not allocate (got {allocs} over 5 requests)"
        );
        assert_eq!(run.codes, reference, "helped replay must stay bit-exact");
        let stats = server.stats();
        assert_eq!(stats.completed, 13, "every submission must complete");
        println!("tile_alloc: helped sharded serving ok ({stats})");
    }

    // Sanity: the counter itself works.
    let sanity = count_allocs(|| {
        let v: Vec<u64> = Vec::with_capacity(32);
        std::hint::black_box(v);
    });
    assert!(sanity >= 1, "counting allocator must observe allocations");
    println!("tile_alloc: all checks passed");
}
