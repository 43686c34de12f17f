//! Ablations of the co-design choices the README substitution notes call out: division
//! microcode style, row packing/layout, tile packing for short
//! sequences, and the 1D-vs-2D reduction the paper cites when motivating
//! the 2D AP.

use crate::table::AsciiTable;
use crate::EvalResult;
use softmap::{ApDeployment, ApSoftmax, Layout, WorkloadModel};
use softmap_ap::{cost, DivStyle};
use softmap_softmax::PrecisionConfig;

/// One ablation line.
#[derive(Debug, Clone, PartialEq)]
pub struct Ablation {
    /// Design axis.
    pub axis: &'static str,
    /// Variant label.
    pub variant: String,
    /// Primary metric (cycles or seconds, see `unit`).
    pub value: f64,
    /// Metric unit.
    pub unit: &'static str,
}

/// Runs all ablations at the paper's best precision.
///
/// # Errors
///
/// Propagates mapping/workload errors.
pub fn run() -> EvalResult<Vec<Ablation>> {
    let cfg = PrecisionConfig::paper_best();
    let mut out = Vec::new();

    // Division style: the restoring divider dominates the dataflow; the
    // controller-reciprocal alternative trades <=1 ULP of accuracy for
    // most of those cycles. Cycle counts come from the compiled plan's
    // static cost (no execution beyond the one-time compile).
    for (label, style) in [
        ("restoring (paper step 16)", DivStyle::Restoring),
        ("controller reciprocal", DivStyle::ControllerReciprocal),
    ] {
        let stats = ApSoftmax::new(cfg)?
            .with_autotune(false)
            .with_div_style(style)
            .static_vector_cost(1024)?
            .total;
        out.push(Ablation {
            axis: "division",
            variant: label.to_string(),
            value: stats.cycles() as f64,
            unit: "cycles/vector",
        });
    }

    // Row layout: the paper's two-words-per-row packing halves the rows
    // but runs each dataflow step once per half.
    for (label, layout) in [
        ("two words/row (paper)", Layout::TwoWordsPerRow),
        ("one word/row", Layout::OneWordPerRow),
    ] {
        let stats = ApSoftmax::new(cfg)?
            .with_layout(layout)
            .static_vector_cost(1024)?
            .total;
        out.push(Ablation {
            axis: "row layout",
            variant: label.to_string(),
            value: stats.cycles() as f64,
            unit: "cycles/vector",
        });
    }

    // Tile packing at short sequences (L = 128, Llama2-7b shape).
    for (label, packing) in [("one vector/tile (baseline)", false), ("packed", true)] {
        let m = WorkloadModel::new(
            cfg,
            ApDeployment {
                packing,
                ..ApDeployment::default()
            },
        )?;
        let c = m.cost(32, 32, 128, 1)?;
        out.push(Ablation {
            axis: "tile packing (L=128)",
            variant: label.to_string(),
            value: c.latency_s * 1e3,
            unit: "ms",
        });
    }

    // Reduction network: 2D row-parallel vs 1D with data movement.
    out.push(Ablation {
        axis: "reduction (L=4096)",
        variant: "2D AP (paper)".to_string(),
        value: cost::reduction(6, 4096) as f64,
        unit: "cycles",
    });
    out.push(Ablation {
        axis: "reduction (L=4096)",
        variant: "1D AP".to_string(),
        value: cost::reduction_1d(6, 4096) as f64,
        unit: "cycles",
    });

    Ok(out)
}

/// Renders the ablation table.
#[must_use]
pub fn render(rows: &[Ablation]) -> String {
    let mut t = AsciiTable::new(vec![
        "axis".into(),
        "variant".into(),
        "value".into(),
        "unit".into(),
    ]);
    t.title("Design ablations (best precision M=6/vcorr=M/N=16, L=1024 unless noted)");
    for r in rows {
        t.row(vec![
            r.axis.to_string(),
            r.variant.clone(),
            format!("{:.0}", r.value),
            r.unit.to_string(),
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reciprocal_division_is_cheaper() {
        let rows = run().unwrap();
        let div: Vec<&Ablation> = rows.iter().filter(|r| r.axis == "division").collect();
        assert!(
            div[1].value < div[0].value * 0.8,
            "{} vs {}",
            div[1].value,
            div[0].value
        );
    }

    #[test]
    fn packing_wins_at_short_sequences() {
        let rows = run().unwrap();
        let packs: Vec<&Ablation> = rows
            .iter()
            .filter(|r| r.axis == "tile packing (L=128)")
            .collect();
        assert!(packs[1].value < packs[0].value);
    }

    #[test]
    fn twod_reduction_wins() {
        let rows = run().unwrap();
        let reds: Vec<&Ablation> = rows
            .iter()
            .filter(|r| r.axis == "reduction (L=4096)")
            .collect();
        assert!(reds[0].value < reds[1].value);
    }

    #[test]
    fn render_covers_all_axes() {
        let s = render(&run().unwrap());
        for axis in ["division", "row layout", "tile packing", "reduction"] {
            assert!(s.contains(axis), "missing {axis}");
        }
    }
}
