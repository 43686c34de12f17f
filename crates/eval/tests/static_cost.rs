//! The static-cost contract behind the eval tables: for every
//! precision configuration the tables sweep, the compiled plan's
//! [`softmap_ap::ApProgram::static_cost`] must equal the `CycleStats`
//! of actually simulating the representative input the plan was
//! compiled from — on both backends, per step, and through the
//! deployment model's `vector_cost` query.

use softmap::{ApDeployment, ApSoftmax, WorkloadModel};
use softmap_ap::{ExecBackend, OptLevel};
use softmap_softmax::PrecisionConfig;

/// The precision grid the perplexity/latency tables sweep
/// (Tables I/III/IV axes).
fn table_configs() -> Vec<PrecisionConfig> {
    let mut configs = Vec::new();
    for m in [4, 6, 8] {
        for delta in [0, 1, 2] {
            for n in [8, 16] {
                configs.push(PrecisionConfig::new(m, delta, n));
            }
        }
    }
    configs
}

#[test]
fn static_cost_equals_simulated_for_every_table_configuration() {
    for cfg in table_configs() {
        for len in [128usize, 256] {
            let mapping = ApSoftmax::new(cfg)
                .unwrap()
                .with_backend(ExecBackend::FastWord);
            let stat = mapping.static_vector_cost(len).unwrap().total;
            let run = mapping
                .execute_floats(&ApSoftmax::representative_scores(len))
                .unwrap();
            assert_eq!(
                stat,
                run.total,
                "static != simulated at {} len {len}",
                cfg.label()
            );
        }
    }
}

#[test]
fn static_cost_is_backend_independent_and_stepwise_exact() {
    let cfg = PrecisionConfig::paper_best();
    let len = 1024;
    let fast = ApSoftmax::new(cfg)
        .unwrap()
        .with_backend(ExecBackend::FastWord);
    let micro = ApSoftmax::new(cfg)
        .unwrap()
        .with_backend(ExecBackend::Microcode);
    assert_eq!(
        fast.static_vector_cost(len).unwrap().total,
        micro.static_vector_cost(len).unwrap().total,
        "the dual-backend contract extends to static costs"
    );
    // The per-step static breakdown matches a simulated run of the
    // representative input exactly.
    let run = fast
        .execute_floats(&ApSoftmax::representative_scores(len))
        .unwrap();
    let steps = fast.static_step_stats(len).unwrap();
    assert_eq!(steps, run.steps);
}

#[test]
fn static_cost_tracks_simulated_at_every_opt_level() {
    // Static == simulated must survive every pass combination the
    // optimizer can produce, per step and in total.
    let cfg = PrecisionConfig::paper_best();
    let len = 256;
    for level in [OptLevel::None, OptLevel::Full] {
        let mapping = ApSoftmax::new(cfg)
            .unwrap()
            .with_backend(ExecBackend::FastWord)
            .with_opt_level(level);
        let stat = mapping.static_vector_cost(len).unwrap().total;
        let run = mapping
            .execute_floats(&ApSoftmax::representative_scores(len))
            .unwrap();
        assert_eq!(stat, run.total, "static != simulated at {level:?}");
        assert_eq!(
            mapping.static_step_stats(len).unwrap(),
            run.steps,
            "{level:?}"
        );
    }
}

#[test]
fn optimizer_gate_default_deployment_tile() {
    // Acceptance gate: at the default deployment's full tile (2048 rows
    // = length 4096 packed), the fused schedule must cut simulated
    // cycles by at least 15% versus the unoptimized replay. Both sides
    // are simulated cycle counts from the shared cost model, so the
    // gate is host-invariant.
    let len = 4096;
    let base = ApSoftmax::new(PrecisionConfig::paper_best())
        .unwrap()
        .with_autotune(false)
        .with_backend(ExecBackend::FastWord)
        .with_opt_level(OptLevel::None);
    let opt = base.clone().with_opt_level(OptLevel::Full);
    let unopt = base.static_vector_cost(len).unwrap().total.cycles();
    let fused = opt.static_vector_cost(len).unwrap().total.cycles();
    assert!(
        fused * 100 <= unopt * 85,
        "optimizer gate: {fused} fused vs {unopt} unoptimized cycles \
         ({}% remaining, need <= 85%)",
        fused * 100 / unopt
    );
}

#[test]
fn static_cost_equals_simulated_for_sharded_shapes() {
    // The acceptance contract for the device model: a sequence past
    // the tile capacity answers its static cost (work, waves, reduction
    // cycles, critical path) from the compiled sharded plan, and every
    // number equals actually simulating the representative input.
    let deploy = ApDeployment::default();
    let model = WorkloadModel::new(PrecisionConfig::paper_best(), deploy).unwrap();
    for len in [8192usize, 16384] {
        let vc = model.vector_cost(len).unwrap();
        assert_eq!(vc.shards, len / 4096, "len {len}");
        assert!(vc.reduction.cycles() > 0);
        // Pinned: the deployment model keeps the paper's fixed
        // mapping, so the reference simulation must too.
        let mapping = ApSoftmax::new(PrecisionConfig::paper_best())
            .unwrap()
            .with_autotune(false);
        let run = mapping
            .execute_floats(&ApSoftmax::representative_scores(len))
            .unwrap();
        assert_eq!(vc.total, run.total, "static != simulated at len {len}");
        assert_eq!(vc.latency_cycles, run.latency_cycles, "len {len}");
        assert_eq!(vc.shards, run.shards);
        assert_eq!(vc.waves, run.waves);
        assert_eq!(model.vector_cost(len).unwrap().total, run.total);
    }
}

#[test]
fn resident_static_cost_tracks_simulated_at_every_opt_level() {
    // The residency-aware cost contract: at both sharded acceptance
    // lengths, for every pass combination, the resident plan's static
    // cost (total and per step/phase) equals actually simulating the
    // representative input — and undercuts the re-staged plan's work
    // by at least 10%.
    for level in [OptLevel::None, OptLevel::Full] {
        for len in [8192usize, 16384] {
            let mut totals = [0u64; 2];
            for (slot, resident) in [(0, true), (1, false)] {
                let mapping = ApSoftmax::new(PrecisionConfig::paper_best())
                    .unwrap()
                    .with_backend(ExecBackend::FastWord)
                    .with_resident(resident)
                    .with_opt_level(level);
                let vc = mapping.static_vector_cost(len).unwrap();
                let run = mapping
                    .execute_floats(&ApSoftmax::representative_scores(len))
                    .unwrap();
                assert_eq!(
                    vc.total, run.total,
                    "static != simulated at {level:?} len {len} resident {resident}"
                );
                assert_eq!(vc.latency_cycles, run.latency_cycles, "{level:?} len {len}");
                assert_eq!(
                    mapping.static_step_stats(len).unwrap(),
                    run.steps,
                    "per-phase static != simulated at {level:?} len {len} resident {resident}"
                );
                totals[slot] = vc.total.cycles();
            }
            assert!(
                totals[0] * 100 <= totals[1] * 90,
                "residency gate at {level:?} len {len}: resident {} vs re-staged {}",
                totals[0],
                totals[1]
            );
        }
    }
}

#[test]
fn sharded_static_cost_is_backend_independent() {
    // Tiny device so the Microcode sweep stays cheap. Two grids: one
    // forcing the multi-wave re-staged fallback (2 tiles, 3 shards),
    // one keeping all shards resident (8 tiles).
    for dev in [
        softmap_ap::DeviceConfig::new(2, 8),
        softmap_ap::DeviceConfig::new(8, 8),
    ] {
        let fast = ApSoftmax::new(PrecisionConfig::paper_best())
            .unwrap()
            .with_backend(ExecBackend::FastWord)
            .with_device(dev);
        let micro = ApSoftmax::new(PrecisionConfig::paper_best())
            .unwrap()
            .with_backend(ExecBackend::Microcode)
            .with_device(dev);
        let len = 48;
        assert_eq!(
            fast.static_vector_cost(len).unwrap(),
            micro.static_vector_cost(len).unwrap(),
            "the dual-backend contract extends to sharded static costs \
             ({} tiles)",
            dev.tiles
        );
    }
}

#[test]
fn workload_model_latency_tables_use_the_static_path() {
    // `vector_cost` (the entry every Fig. 6/7/8 and Table V number
    // funnels through) must agree with an actual simulation of the
    // representative input, and repeated queries must not recompile.
    let model = WorkloadModel::new(PrecisionConfig::paper_best(), ApDeployment::default()).unwrap();
    let lens = [128usize, 512, 1024];
    for len in lens {
        let stats = model.vector_cost(len).unwrap().total;
        let mapping = ApSoftmax::new(PrecisionConfig::paper_best())
            .unwrap()
            .with_autotune(false);
        let run = mapping
            .execute_floats(&ApSoftmax::representative_scores(len))
            .unwrap();
        assert_eq!(stats, run.total, "vector_cost diverges at len {len}");
        assert_eq!(model.vector_cost(len).unwrap().total, stats);
    }
    assert_eq!(model.mapping().cache_stats().compiles, lens.len() as u64);
}
