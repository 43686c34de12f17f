//! Extension experiment: the **mapping autotuner** against the paper's
//! fixed mapping. The paper maps every softmax the same way — two
//! words per row, greedy capacity-filling shard partition. The
//! autotuner (`softmap::mapping::autotune`) instead maps each shape by
//! a closed-form rule — one word per row unless the layout is pinned,
//! equal-length shards where a split within two shards of the minimum
//! allows — and compiles only that mapping (the `cand` column: one per
//! shape). The rule is checked against the compile-every-candidate
//! search it replaced. This table puts the tuned and the paper mapping
//! side by side across the whole-vector and sharded regimes (64 – 32k
//! tokens) on the unchanged 48 × 2048-row deployment.
//!
//! Every number funnels through the static cost path: the tuned plan
//! *is* an ordinary compiled plan, so `static == simulated` holds for
//! it (enforced by `crates/eval/tests/static_cost.rs` and the tests
//! below), and the table is execution-free after the one-time compiles.
//! Bit-exactness of the tuned plan against the paper-default mapping
//! and the scalar I-BERT specification is asserted in the tests.

use crate::table::AsciiTable;
use crate::EvalResult;
use softmap::{ApDeployment, WorkloadModel};
use softmap_softmax::PrecisionConfig;

/// One autotuner operating point: the chosen mapping and its static
/// cost against the paper-default mapping.
#[derive(Debug, Clone, PartialEq)]
pub struct AutotunePoint {
    /// Sequence length (tokens; one softmax vector per row).
    pub seq_len: usize,
    /// The chosen mapping, rendered (layout, division, opt level,
    /// shards, partition style, residency).
    pub choice: String,
    /// Mappings the autotuner compiled for this shape.
    pub candidates: usize,
    /// Shards (tiles) the tuned plan occupies.
    pub tuned_shards: usize,
    /// Total work cycles per vector under the paper-default mapping.
    pub default_cycles: u64,
    /// Total work cycles per vector under the tuned plan.
    pub tuned_cycles: u64,
    /// Device critical-path cycles under the paper-default mapping.
    pub default_latency: u64,
    /// Device critical-path cycles under the tuned plan.
    pub tuned_latency: u64,
    /// Per-vector energy under the paper-default mapping, joules.
    pub default_energy_j: f64,
    /// Per-vector energy under the tuned plan, joules.
    pub tuned_energy_j: f64,
}

/// Sequence lengths the table sweeps: the paper's measured points plus
/// the sharded long-sequence regime, including a non-power-of-two
/// length where the balanced partition beats the greedy default.
pub const LENGTHS: [usize; 8] = [64, 256, 1024, 4096, 6000, 8192, 16384, 32768];

/// Sweeps the autotuner against the paper-default mapping on the
/// default deployment.
///
/// # Errors
///
/// Propagates workload errors.
pub fn run() -> EvalResult<Vec<AutotunePoint>> {
    let default = WorkloadModel::new(PrecisionConfig::paper_best(), ApDeployment::default())?;
    let tuned = WorkloadModel::new(
        PrecisionConfig::paper_best(),
        ApDeployment {
            autotune: true,
            ..ApDeployment::default()
        },
    )?;
    let energy = default.energy_model();
    let mut out = Vec::new();
    for &seq_len in &LENGTHS {
        let dc = default.vector_cost(seq_len)?;
        let compiled = tuned.mapping().cache_stats().candidates_scored;
        let tc = tuned.vector_cost(seq_len)?;
        let plan = tuned.mapping().tuned_plan(seq_len)?;
        out.push(AutotunePoint {
            seq_len,
            choice: plan.choice().to_string(),
            candidates: (tuned.mapping().cache_stats().candidates_scored - compiled) as usize,
            tuned_shards: tc.shards,
            default_cycles: dc.total.cycles(),
            tuned_cycles: tc.total.cycles(),
            default_latency: dc.latency_cycles,
            tuned_latency: tc.latency_cycles,
            default_energy_j: energy.energy(&dc.total).total_j,
            tuned_energy_j: energy.energy(&tc.total).total_j,
        });
    }
    Ok(out)
}

/// Renders the autotuner table.
#[must_use]
pub fn render(points: &[AutotunePoint]) -> String {
    let mut t = AsciiTable::new(vec![
        "seq len".into(),
        "chosen mapping".into(),
        "cand".into(),
        "default cyc/vec".into(),
        "tuned cyc/vec".into(),
        "default lat cyc".into(),
        "tuned lat cyc".into(),
        "default energy".into(),
        "tuned energy".into(),
    ]);
    t.title(
        "Mapping autotuner vs the paper's fixed mapping (extension; \
         static costs, 48 x 2048-row tiles per head)",
    );
    for p in points {
        t.row(vec![
            p.seq_len.to_string(),
            p.choice.clone(),
            p.candidates.to_string(),
            p.default_cycles.to_string(),
            p.tuned_cycles.to_string(),
            p.default_latency.to_string(),
            p.tuned_latency.to_string(),
            crate::table::fmt_joules(p.default_energy_j),
            crate::table::fmt_joules(p.tuned_energy_j),
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use softmap::ApSoftmax;
    use softmap_softmax::IntSoftmax;

    #[test]
    fn tuned_never_exceeds_default_and_wins_somewhere() {
        // The table-enforced acceptance gate: at every measured length
        // the tuned plan's static work is at most the paper-default
        // mapping's, and strictly below it at the pinned 4096 point.
        let points = run().unwrap();
        assert_eq!(points.len(), LENGTHS.len());
        for p in &points {
            assert!(
                p.tuned_cycles <= p.default_cycles,
                "L={}: tuned {} vs default {}",
                p.seq_len,
                p.tuned_cycles,
                p.default_cycles
            );
            assert!(
                p.candidates >= 1 && p.candidates <= 24,
                "L={}: tuning must stay O(tens) compiles, compiled {}",
                p.seq_len,
                p.candidates
            );
        }
        let p4k = points.iter().find(|p| p.seq_len == 4096).unwrap();
        assert!(
            p4k.tuned_cycles < p4k.default_cycles,
            "the 4096 point must improve strictly: {} vs {}",
            p4k.tuned_cycles,
            p4k.default_cycles
        );
    }

    #[test]
    fn winner_is_bit_exact_and_statically_honest() {
        // Per tuned plan: bit-exact against the scalar I-BERT spec and
        // the paper-default mapping, and static == simulated.
        let cfg = PrecisionConfig::paper_best();
        for len in [64usize, 4096, 6000] {
            let scores: Vec<f64> = (0..len).map(|i| -((i % 97) as f64) * 7.0 / 97.0).collect();
            let tuned = ApSoftmax::new(cfg).unwrap();
            assert!(tuned.autotune());
            let default = tuned.clone().with_autotune(false);
            let scalar = IntSoftmax::new(cfg).unwrap().run_floats(&scores).unwrap();
            let t = tuned.execute_floats(&scores).unwrap();
            let d = default.execute_floats(&scores).unwrap();
            assert_eq!(t.codes, scalar.codes, "len {len}: tuned vs scalar");
            assert_eq!(t.vapprox, scalar.vapprox, "len {len}");
            assert_eq!(t.sum, scalar.sum, "len {len}");
            assert_eq!(t.codes, d.codes, "len {len}: tuned vs default");
            assert_eq!(
                tuned.static_cost(len).unwrap(),
                t.total,
                "len {len}: static != simulated for the tuned plan"
            );
        }
    }

    #[test]
    fn balanced_partition_wins_at_awkward_lengths() {
        // 6000 packed splits greedily into (4096, 1904) — two distinct
        // shard lengths, so no resident lockstep sharing. The balanced
        // (3000, 3000) split runs one leader + one follower; the tuner
        // must pick it (or something at least as good).
        let points = run().unwrap();
        let p = points.iter().find(|p| p.seq_len == 6000).unwrap();
        assert!(
            p.tuned_cycles < p.default_cycles,
            "6000: tuned {} vs default {}",
            p.tuned_cycles,
            p.default_cycles
        );
    }

    #[test]
    fn tuned_energy_never_exceeds_default() {
        for p in &run().unwrap() {
            assert!(
                p.tuned_energy_j <= p.default_energy_j * 1.000_001,
                "L={}: tuned {} J vs default {} J",
                p.seq_len,
                p.tuned_energy_j,
                p.default_energy_j
            );
        }
    }

    #[test]
    fn render_covers_the_sweep() {
        let s = render(&run().unwrap());
        for l in ["64", "4096", "6000", "32768"] {
            assert!(s.contains(l), "missing {l}");
        }
        assert!(s.contains("chosen mapping"));
        assert!(s.contains("tuned cyc/vec"));
    }
}
