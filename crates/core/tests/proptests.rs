//! Property-based tests: the AP mapping is bit-exact against the scalar
//! specification for arbitrary inputs, and the deployment model behaves
//! like a cost function should.

use proptest::prelude::*;
use softmap::{ApDeployment, ApSoftmax, CoreError, Layout, PlanMode, WorkloadModel};
use softmap_ap::{DeviceConfig, DivStyle, ExecBackend, OptLevel};
use softmap_softmax::{IntSoftmax, PrecisionConfig};

fn config_strategy() -> impl Strategy<Value = PrecisionConfig> {
    (
        prop_oneof![Just(4u32), Just(6), Just(8)],
        0u32..=2,
        prop_oneof![Just(8u32), Just(12), Just(16)],
    )
        .prop_map(|(m, d, n)| PrecisionConfig::new(m, d, n))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn mapping_bit_exact_on_random_inputs(
        cfg in config_strategy(),
        scores in prop::collection::vec(-9.0f64..0.0, 2..48),
    ) {
        let scalar = IntSoftmax::new(cfg).unwrap().run_floats(&scores).unwrap();
        let run = ApSoftmax::new(cfg).unwrap().execute_floats(&scores).unwrap();
        prop_assert_eq!(&run.codes, &scalar.codes);
        prop_assert_eq!(&run.vapprox, &scalar.vapprox);
        prop_assert_eq!(run.sum, scalar.sum);
    }

    #[test]
    fn layouts_agree(scores in prop::collection::vec(-9.0f64..0.0, 2..40)) {
        let cfg = PrecisionConfig::paper_best();
        let packed = ApSoftmax::new(cfg).unwrap()
            .with_layout(Layout::TwoWordsPerRow)
            .execute_floats(&scores).unwrap();
        let flat = ApSoftmax::new(cfg).unwrap()
            .with_layout(Layout::OneWordPerRow)
            .execute_floats(&scores).unwrap();
        prop_assert_eq!(packed.codes, flat.codes);
    }

    #[test]
    fn cost_is_monotone_in_workload(
        layers in 1usize..8,
        heads in 1usize..8,
        batch in 1usize..4,
    ) {
        let m = WorkloadModel::new(PrecisionConfig::paper_best(), ApDeployment::default()).unwrap();
        let base = m.cost(layers, heads, 256, batch).unwrap();
        let more_layers = m.cost(layers + 1, heads, 256, batch).unwrap();
        let more_heads = m.cost(layers, heads + 1, 256, batch).unwrap();
        prop_assert!(more_layers.latency_s > base.latency_s);
        prop_assert!(more_layers.energy_j > base.energy_j);
        // heads add energy but not latency (they run in parallel)
        prop_assert!(more_heads.energy_j > base.energy_j);
        prop_assert!((more_heads.latency_s - base.latency_s).abs() < 1e-12);
    }

    #[test]
    fn cached_plan_replay_matches_direct_issue(
        cfg in config_strategy(),
        scores in prop::collection::vec(-9.0f64..0.0, 2..40),
        warm in prop::collection::vec(-9.0f64..0.0, 40..41),
        style in prop_oneof![Just(DivStyle::Restoring), Just(DivStyle::ControllerReciprocal)],
        layout in prop_oneof![Just(Layout::TwoWordsPerRow), Just(Layout::OneWordPerRow)],
        backend in prop_oneof![Just(ExecBackend::FastWord), Just(ExecBackend::Microcode)],
    ) {
        // Direct issue: the pre-plan per-vector interpretation.
        let direct = ApSoftmax::new(cfg).unwrap()
            .with_layout(layout)
            .with_div_style(style)
            .with_backend(backend)
            .with_plan_mode(PlanMode::DirectIssue)
            .execute_floats(&scores).unwrap();
        // Cached at OptLevel::None: compile the shape's plan from
        // *different* data, then replay it for `scores` — must be bit-
        // and cycle-exact against direct issue.
        let cached = ApSoftmax::new(cfg).unwrap()
            .with_layout(layout)
            .with_div_style(style)
            .with_backend(backend)
            .with_opt_level(OptLevel::None);
        let mut warm = warm;
        warm.truncate(scores.len());
        cached.execute_floats(&warm).unwrap();
        let replayed = cached.execute_floats(&scores).unwrap();
        prop_assert!(cached.cache_stats().hits >= 1, "second run must replay");
        prop_assert_eq!(&replayed.codes, &direct.codes);
        prop_assert_eq!(&replayed.vapprox, &direct.vapprox);
        prop_assert_eq!(replayed.sum, direct.sum);
        prop_assert_eq!(replayed.total, direct.total, "cycle-exactness");
        prop_assert_eq!(&replayed.steps, &direct.steps, "per-step exactness");
        // The default optimized plan: bit-exact outputs, strictly
        // cheaper fused schedule.
        let optimized = ApSoftmax::new(cfg).unwrap()
            .with_layout(layout)
            .with_div_style(style)
            .with_backend(backend)
            .with_opt_level(OptLevel::Full);
        optimized.execute_floats(&warm).unwrap();
        let opt = optimized.execute_floats(&scores).unwrap();
        prop_assert_eq!(&opt.codes, &direct.codes);
        prop_assert_eq!(&opt.vapprox, &direct.vapprox);
        prop_assert_eq!(opt.sum, direct.sum);
        prop_assert!(opt.total.cycles() < direct.total.cycles(), "fused schedule must be cheaper");
    }

    #[test]
    fn sharded_execution_bit_exact_vs_whole_vector(
        scores in prop::collection::vec(-9.0f64..0.0, 2..48),
        rows_per_tile in 2usize..12,
        tiles in 1usize..4,
        layout in prop_oneof![Just(Layout::TwoWordsPerRow), Just(Layout::OneWordPerRow)],
        backend in prop_oneof![Just(ExecBackend::FastWord), Just(ExecBackend::Microcode)],
    ) {
        // Every length here fits one default tile, so the whole-vector
        // single-tile run is the reference; a tiny device grid forces
        // the same vector through the sharded two-phase dataflow.
        let cfg = PrecisionConfig::paper_best();
        let whole = ApSoftmax::new(cfg).unwrap()
            .with_layout(layout)
            .with_backend(backend)
            .execute_floats(&scores).unwrap();
        prop_assert_eq!(whole.shards, 1);
        let sharded = ApSoftmax::new(cfg).unwrap()
            .with_layout(layout)
            .with_backend(backend)
            .with_device(DeviceConfig::new(tiles, rows_per_tile))
            .execute_floats(&scores).unwrap();
        prop_assert_eq!(&sharded.codes, &whole.codes);
        prop_assert_eq!(&sharded.vapprox, &whole.vapprox);
        prop_assert_eq!(sharded.sum, whole.sum);
    }

    #[test]
    fn sharded_execution_bit_exact_vs_scalar_spec(
        cfg in config_strategy(),
        scores in prop::collection::vec(-9.0f64..0.0, 12..64),
        rows_per_tile in 2usize..5,
    ) {
        // Lengths that do NOT fit the (tiny) tile: the scalar I-BERT
        // specification is the reference.
        let scalar = IntSoftmax::new(cfg).unwrap().run_floats(&scores).unwrap();
        let run = ApSoftmax::new(cfg).unwrap()
            .with_device(DeviceConfig::new(2, rows_per_tile))
            .execute_floats(&scores).unwrap();
        prop_assert!(run.shards > 1, "must shard at {} rows", rows_per_tile);
        prop_assert_eq!(&run.codes, &scalar.codes);
        prop_assert_eq!(&run.vapprox, &scalar.vapprox);
        prop_assert_eq!(run.sum, scalar.sum);
    }

    #[test]
    fn sharded_replay_matches_direct_issue(
        scores in prop::collection::vec(-9.0f64..0.0, 10..40),
        warm in prop::collection::vec(-9.0f64..0.0, 40..41),
        backend in prop_oneof![Just(ExecBackend::FastWord), Just(ExecBackend::Microcode)],
    ) {
        let cfg = PrecisionConfig::paper_best();
        let dev = DeviceConfig::new(2, 4);
        // Both sides pinned to the configured mapping.
        let direct = ApSoftmax::new(cfg).unwrap()
            .with_autotune(false)
            .with_backend(backend)
            .with_device(dev)
            .with_plan_mode(PlanMode::DirectIssue)
            .execute_floats(&scores).unwrap();
        // Compile the sharded plan (OptLevel::None for cycle-exactness
        // against direct issue, re-staged because direct issue always
        // re-stages) from different data, then replay.
        let cached = ApSoftmax::new(cfg).unwrap()
            .with_autotune(false)
            .with_backend(backend)
            .with_device(dev)
            .with_resident(false)
            .with_opt_level(OptLevel::None);
        let mut warm = warm;
        warm.truncate(scores.len());
        cached.execute_floats(&warm).unwrap();
        let replayed = cached.execute_floats(&scores).unwrap();
        prop_assert!(cached.cache_stats().hits >= 1, "second run must replay");
        prop_assert_eq!(&replayed.codes, &direct.codes);
        prop_assert_eq!(&replayed.vapprox, &direct.vapprox);
        prop_assert_eq!(replayed.sum, direct.sum);
        prop_assert_eq!(replayed.total, direct.total, "cycle-exactness");
        prop_assert_eq!(replayed.latency_cycles, direct.latency_cycles);
        prop_assert_eq!(&replayed.steps, &direct.steps, "per-step exactness");
        // The optimized re-staged sharded plan: bit-exact outputs,
        // strictly cheaper (fused phases + hoisted broadcasts).
        let optimized = ApSoftmax::new(cfg).unwrap()
            .with_autotune(false)
            .with_backend(backend)
            .with_device(dev)
            .with_resident(false)
            .with_opt_level(OptLevel::Full);
        optimized.execute_floats(&warm).unwrap();
        let opt = optimized.execute_floats(&scores).unwrap();
        prop_assert_eq!(&opt.codes, &direct.codes);
        prop_assert_eq!(&opt.vapprox, &direct.vapprox);
        prop_assert_eq!(opt.sum, direct.sum);
        prop_assert!(opt.total.cycles() < direct.total.cycles(), "fused schedule must be cheaper");
    }

    #[test]
    fn resident_sharded_bit_exact_and_cheaper_vs_restaged(
        scores in prop::collection::vec(-9.0f64..0.0, 10..56),
        rows_per_tile in 2usize..5,
        backend in prop_oneof![Just(ExecBackend::FastWord), Just(ExecBackend::Microcode)],
        opt in prop_oneof![Just(OptLevel::None), Just(OptLevel::Full)],
    ) {
        // A grid with more tiles than any partition needs, so every
        // sharded vector qualifies for residency. Lengths 10..56 over
        // rows_per_tile 2..4 cover even partitions, odd tails, and the
        // peeled singleton-tail rule.
        let cfg = PrecisionConfig::paper_best();
        let dev = DeviceConfig::new(16, rows_per_tile);
        let restaged = ApSoftmax::new(cfg).unwrap()
            .with_autotune(false)
            .with_backend(backend)
            .with_device(dev)
            .with_resident(false)
            .with_opt_level(opt);
        let resident = ApSoftmax::new(cfg).unwrap()
            .with_autotune(false)
            .with_backend(backend)
            .with_device(dev)
            .with_opt_level(opt);
        prop_assert!(resident.resident());
        let base = restaged.execute_floats(&scores).unwrap();
        let res = resident.execute_floats(&scores).unwrap();
        prop_assert!(res.shards > 1, "must shard at {} rows", rows_per_tile);
        // Bit-exact across the whole observable state...
        prop_assert_eq!(&res.codes, &base.codes);
        prop_assert_eq!(&res.vapprox, &base.vapprox);
        prop_assert_eq!(res.sum, base.sum);
        prop_assert_eq!(res.shards, base.shards);
        prop_assert_eq!(res.waves, base.waves);
        prop_assert_eq!(res.reduction, base.reduction);
        // ...and against the scalar I-BERT specification.
        let scalar = IntSoftmax::new(cfg).unwrap().run_floats(&scores).unwrap();
        prop_assert_eq!(&res.codes, &scalar.codes);
        prop_assert_eq!(&res.vapprox, &scalar.vapprox);
        // Cycle accounting: elided staging plus lockstep followers
        // make the resident plan strictly cheaper whenever a follower
        // exists (equal-length shards); a partition of all-distinct
        // lengths still elides staging.
        prop_assert!(res.total.cycles() < base.total.cycles(),
            "resident {} vs re-staged {}", res.total.cycles(), base.total.cycles());
        prop_assert!(res.latency_cycles <= base.latency_cycles);
        // Replaying the cached resident plan is cycle-stable.
        let again = resident.execute_floats(&scores).unwrap();
        prop_assert!(resident.cache_stats().hits >= 1, "second run must replay");
        prop_assert_eq!(again.total, res.total);
        prop_assert_eq!(&again.steps, &res.steps);
        prop_assert_eq!(&again.codes, &res.codes);
    }

    #[test]
    fn autotuned_matches_paper_default_mapping(
        len in 64usize..20_000,
        seed in 0u64..1_000,
    ) {
        // The autotuner's contract, differentially: for arbitrary
        // lengths across the whole-vector and sharded regimes, the
        // tuned mapping is bit-exact against the paper-default mapping
        // and its static cost never exceeds the default's.
        let cfg = PrecisionConfig::paper_best();
        let scores: Vec<f64> = (0..len)
            .map(|i| -(((i as u64).wrapping_mul(seed + 7) % 97) as f64) * 7.0 / 97.0)
            .collect();
        let tuned = ApSoftmax::new(cfg).unwrap()
            .with_backend(ExecBackend::FastWord);
        prop_assert!(tuned.autotune());
        let default = tuned.clone().with_autotune(false);
        let t = tuned.execute_floats(&scores).unwrap();
        let d = default.execute_floats(&scores).unwrap();
        prop_assert_eq!(&t.codes, &d.codes);
        prop_assert_eq!(&t.vapprox, &d.vapprox);
        prop_assert_eq!(t.sum, d.sum);
        prop_assert!(t.total.cycles() <= d.total.cycles(),
            "tuned {} must not exceed default {}", t.total.cycles(), d.total.cycles());
        // static == simulated for the installed winner.
        prop_assert_eq!(tuned.static_vector_cost(len).unwrap().total, t.total);
    }

    #[test]
    fn autotuned_matches_default_on_microcode_backend(
        len in 8usize..320,
        seed in 0u64..1_000,
    ) {
        // Same contract on the bit-serial Microcode backend with a
        // small grid, so the search crosses the sharded regime cheaply.
        let cfg = PrecisionConfig::paper_best();
        let scores: Vec<f64> = (0..len)
            .map(|i| -(((i as u64).wrapping_mul(seed + 3) % 89) as f64) * 6.5 / 89.0)
            .collect();
        let tuned = ApSoftmax::new(cfg).unwrap()
            .with_backend(ExecBackend::Microcode)
            .with_device(DeviceConfig::new(8, 64));
        let default = tuned.clone().with_autotune(false);
        let t = tuned.execute_floats(&scores).unwrap();
        let d = default.execute_floats(&scores).unwrap();
        prop_assert_eq!(&t.codes, &d.codes);
        prop_assert_eq!(t.sum, d.sum);
        prop_assert!(t.total.cycles() <= d.total.cycles());
    }

    #[test]
    fn probabilities_from_the_ap_are_a_subdistribution(
        scores in prop::collection::vec(-7.0f64..0.0, 2..32),
    ) {
        let run = ApSoftmax::new(PrecisionConfig::paper_best()).unwrap()
            .execute_floats(&scores).unwrap();
        let total: f64 = run.probabilities().iter().sum();
        // floor division loses mass but never creates it (absent
        // saturation, which cannot trigger at N=16 with <=32 elements)
        prop_assert!(total <= 1.0 + 1e-9, "total = {total}");
        prop_assert!(total > 0.5, "total = {total}");
    }

    #[test]
    fn input_policy_agrees_on_both_backends(
        base in prop::collection::vec(-9.0f64..1.0, 1..301),
        injected in prop::collection::vec((0usize..3, any::<u64>()), 0..5),
        all_neg_inf in 0u32..8,
    ) {
        // NaN, +inf and -inf at random positions, sometimes over a row
        // of -inf: every entry point rejects the same first bad index
        // or returns the same codes.
        let mut row = base;
        if all_neg_inf == 0 {
            row.fill(f64::NEG_INFINITY);
        }
        for (kind, at) in injected {
            let i = (at % row.len() as u64) as usize;
            row[i] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][kind];
        }
        let cfg = PrecisionConfig::paper_best();
        let spec = IntSoftmax::new(cfg)
            .unwrap()
            .run_floats(&row)
            .map(|out| out.codes)
            .map_err(CoreError::from);
        for backend in [ExecBackend::Microcode, ExecBackend::FastWord] {
            let m = ApSoftmax::new(cfg).unwrap().with_backend(backend);
            let single = m.execute_floats(&row).map(|run| run.codes);
            prop_assert_eq!(&single, &spec, "{:?} {:?}", backend, row);
            let batch = m
                .execute_batch_floats(std::slice::from_ref(&row))
                .map(|runs| runs[0].codes.clone());
            prop_assert_eq!(&batch, &spec, "{:?} batch {:?}", backend, row);
        }
    }
}
