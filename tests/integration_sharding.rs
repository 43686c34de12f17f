//! End-to-end acceptance of the capacity-bounded device model: a
//! 16384-token softmax on the paper's fixed 2048-row tiles runs
//! sharded, matches the scalar I-BERT specification bit-exactly, and
//! the static cost path answers the sharded shape with
//! static == simulated.

use softmap::{ApDeployment, ApSoftmax, ApSoftmaxRun, TileState, WorkloadModel};
use softmap_ap::{DeviceConfig, ExecBackend};
use softmap_softmax::{IntSoftmax, PrecisionConfig};

#[test]
fn seq_16384_on_2048_row_tiles_is_bit_exact_and_statically_costed() {
    let cfg = PrecisionConfig::paper_best();
    let scores: Vec<f64> = (0..16384)
        .map(|i| -f64::from((i % 97) as u32) * 7.0 / 97.0)
        .collect();

    // Sharded execution on the default device (48 x 2048-row tiles).
    // Pinned to the paper-default mapping: this acceptance test
    // characterizes the packed four-shard regime (the autotuner's
    // choice for this shape has its own acceptance coverage).
    let mapping = ApSoftmax::new(cfg)
        .unwrap()
        .with_autotune(false)
        .with_backend(ExecBackend::FastWord);
    assert_eq!(mapping.device().rows_per_tile, 2048);
    let run = mapping.execute_floats(&scores).unwrap();
    assert_eq!(run.shards, 4, "16384 scores = 4 x 2048-row shards");
    assert_eq!(run.waves, 1, "48 tiles hold 4 shards in one wave");
    assert!(run.reduction.cycles() > 0);

    // Bit-exact against the scalar specification.
    let scalar = IntSoftmax::new(cfg).unwrap().run_floats(&scores).unwrap();
    assert_eq!(run.codes, scalar.codes);
    assert_eq!(run.vapprox, scalar.vapprox);
    assert_eq!(run.sum, scalar.sum);

    // static == simulated for the sharded shape, through both the
    // mapping-level query and the deployment model.
    let vc = mapping.static_vector_cost(16384).unwrap();
    assert_eq!(vc.total, run.total);
    assert_eq!(vc.latency_cycles, run.latency_cycles);
    assert_eq!(vc.shards, run.shards);
    let wm = WorkloadModel::new(cfg, ApDeployment::default()).unwrap();
    assert_eq!(wm.vector_cost(16384).unwrap().total, run.total);
    let cost = wm.cost(1, 1, 16384, 1).unwrap();
    assert_eq!(cost.shards_per_vector, 4);
    assert!(cost.latency_s > 0.0 && cost.energy_j > 0.0);
}

#[test]
fn sharded_and_whole_regimes_agree_at_the_boundary() {
    // 4096 scores fit exactly one tile; 4098 must shard. Both match
    // the scalar spec, and the boundary does not distort results.
    let cfg = PrecisionConfig::paper_best();
    let spec = IntSoftmax::new(cfg).unwrap();
    for len in [4096usize, 4098] {
        let scores: Vec<f64> = (0..len).map(|i| -((i % 89) as f64) * 0.075).collect();
        let run = ApSoftmax::new(cfg)
            .unwrap()
            .with_autotune(false)
            .with_backend(ExecBackend::FastWord)
            .execute_floats(&scores)
            .unwrap();
        assert_eq!(run.shards, if len == 4096 { 1 } else { 2 }, "len {len}");
        let scalar = spec.run_floats(&scores).unwrap();
        assert_eq!(run.codes, scalar.codes, "len {len}");
        assert_eq!(run.sum, scalar.sum, "len {len}");
    }
}

#[test]
fn microcode_and_fastword_agree_on_a_sharded_vector() {
    // Cycle- and bit-exact dual-backend contract through the sharded
    // path, kept cheap with a small device.
    let cfg = PrecisionConfig::paper_best();
    let dev = DeviceConfig::new(3, 16);
    let scores: Vec<f64> = (0..100).map(|i| -((i % 71) as f64) * 0.09).collect();
    let mut runs = Vec::new();
    for backend in [ExecBackend::Microcode, ExecBackend::FastWord] {
        let mapping = ApSoftmax::new(cfg)
            .unwrap()
            .with_backend(backend)
            .with_device(dev);
        let mut state = TileState::new();
        let mut run = ApSoftmaxRun::default();
        mapping
            .execute_floats_into(&mut state, &scores, &mut run)
            .unwrap();
        assert!(run.shards > 1);
        runs.push(run);
    }
    assert_eq!(runs[0].codes, runs[1].codes);
    assert_eq!(
        runs[0].total, runs[1].total,
        "cycle stats must be identical"
    );
    assert_eq!(runs[0].latency_cycles, runs[1].latency_cycles);
    assert_eq!(runs[0].steps, runs[1].steps);
}
