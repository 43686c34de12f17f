//! A full attention-softmax round trip on the AP: compute QKᵀ scores on
//! the host, run the sixteen-step integer softmax dataflow on the
//! simulated AP, and report the per-step cycle/energy breakdown
//! (Figs. 4/5 of the paper).
//!
//! ```text
//! cargo run --release --example attention_block
//! ```

use softmap::{ApSoftmax, ApSoftmaxRun, TileState};
use softmap_ap::EnergyModel;
use softmap_softmax::{float_ref, metrics, IntSoftmax, PrecisionConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A miniature attention head: 64 query/key vectors of dimension 16.
    let seq_len = 64usize;
    let dh = 16usize;
    let scale = 1.0 / (dh as f64).sqrt();
    // Deterministic pseudo-embeddings.
    let feat = |i: usize, k: usize| ((i * 31 + k * 17) % 13) as f64 / 13.0 - 0.5;
    let q: Vec<Vec<f64>> = (0..seq_len)
        .map(|i| (0..dh).map(|k| feat(i, k)).collect())
        .collect();
    let k_mat = q.clone(); // self-attention

    // Score each query row against all keys and stream every row
    // through ONE pooled tile + run buffer (the zero-allocation
    // steady-state path): row 0 compiles the shape's plan, every
    // further row replays it.
    let row_scores = |i: usize| -> Vec<f64> {
        (0..seq_len)
            .map(|j| {
                let dot: f64 = q[i].iter().zip(&k_mat[j]).map(|(a, b)| a * b).sum();
                dot * scale * 4.0 // spread the dynamic range
            })
            .collect()
    };
    let cfg = PrecisionConfig::paper_best();
    let mapping = ApSoftmax::new(cfg)?;
    let spec = IntSoftmax::new(cfg)?;
    let mut state = TileState::new();
    let mut run = ApSoftmaxRun::default();
    let row = 37;
    for i in 0..seq_len {
        let s = row_scores(i);
        mapping.execute_floats_into(&mut state, &s, &mut run)?;
        let scalar = spec.run_floats(&s)?;
        assert_eq!(
            run.codes, scalar.codes,
            "AP must match the scalar spec bit-exactly on row {i}"
        );
    }
    // Leave row `row`'s result in `run` for the report below.
    let scores = row_scores(row);
    mapping.execute_floats_into(&mut state, &scores, &mut run)?;
    let plans = mapping.cache_stats();
    assert_eq!(plans.compiles, 1, "one shape, one compiled plan");

    println!(
        "attention row {row}: {} keys, config {}, AP tile {} rows x {} cols",
        seq_len,
        cfg.label(),
        run.rows,
        run.cols_used
    );

    let energy = EnergyModel::nm16();
    println!("\nper-step breakdown (Fig. 5 dataflow):");
    println!(
        "{:>32} {:>10} {:>14} {:>12}",
        "step", "cycles", "cell events", "energy"
    );
    for s in &run.steps {
        let e = energy.energy(&s.stats);
        println!(
            "{:>32} {:>10} {:>14} {:>10.2} nJ",
            s.name,
            s.stats.cycles(),
            s.stats.cell_events(),
            e.total_j * 1e9
        );
    }
    let total_e = energy.energy(&run.total);
    println!(
        "{:>32} {:>10} {:>14} {:>10.2} nJ",
        "TOTAL",
        run.total.cycles(),
        run.total.cell_events(),
        total_e.total_j * 1e9
    );

    let exact = float_ref::softmax(&scores);
    let probs = run.probabilities();
    println!(
        "\ndistribution quality: KL(exact||AP) = {:.3e}, TV = {:.3e}",
        metrics::kl_divergence(&exact, &probs),
        metrics::total_variation(&exact, &probs)
    );
    println!(
        "latency at 1 GHz: {:.2} us per softmax vector",
        run.total.cycles() as f64 / 1e3
    );
    println!(
        "plan cache: {} compile / {} replays ({:.1} us compile, amortized across {} rows)",
        plans.compiles,
        plans.hits,
        plans.compile_micros,
        seq_len + 1
    );
    Ok(())
}
