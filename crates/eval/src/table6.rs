//! Table VI: comparison with related work — process, frequency, and
//! optimum energy per operation.
//!
//! ConSmax and Softermax rows are their published numbers; the SoftmAP
//! row is *measured* from the mapped dataflow's cell events and the
//! calibrated 16 nm energy model. The paper's "operation" granularity is
//! not defined; we report the blended energy per cell event, which lands
//! in the same sub-pJ decade as the paper's 5.88e-3 pJ.

use crate::table::AsciiTable;
use crate::EvalResult;
use softmap::ApSoftmax;
use softmap_ap::EnergyModel;
use softmap_softmax::PrecisionConfig;

/// One row of the table.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Method name.
    pub method: &'static str,
    /// Softmax approximation.
    pub approx: &'static str,
    /// Process node.
    pub process: &'static str,
    /// Maximum frequency, MHz.
    pub max_freq_mhz: u32,
    /// Optimum energy per operation, pJ.
    pub energy_per_op_pj: f64,
    /// Whether the value is measured here (true) or quoted (false).
    pub measured: bool,
}

/// Runs the experiment: related-work rows quoted, SoftmAP row measured.
///
/// # Errors
///
/// Propagates mapping errors.
pub fn run() -> EvalResult<Vec<Row>> {
    let mut rows: Vec<Row> = crate::paper::TABLE6[..2]
        .iter()
        .map(|&(method, approx, process, freq, pj)| Row {
            method: match method {
                "ConSmax" => "ConSmax",
                _ => "Softermax",
            },
            approx: match approx {
                "Learnable LUTs" => "Learnable LUTs",
                _ => "Base replacement + online normalization",
            },
            process,
            max_freq_mhz: freq,
            energy_per_op_pj: pj,
            measured: false,
        })
        .collect();

    // Measure the SoftmAP row from the mapped dataflow at the best
    // precision on a representative 1024-long vector, through the
    // compiled plan's static cost (the query compiles the plan from
    // `ApSoftmax::representative_scores` once and is execution-free
    // afterwards; static == simulated is asserted by
    // `tests/static_cost.rs`).
    // Pinned to the paper's fixed mapping: this row reproduces the
    // paper's energy number, not the autotuned one.
    let mapping = ApSoftmax::new(PrecisionConfig::paper_best())?.with_autotune(false);
    let stats = mapping.static_vector_cost(1024)?.total;
    let energy = EnergyModel::nm16();
    let pj = energy
        .energy_per_op_pj(&stats)
        .expect("dataflow produces events");
    rows.push(Row {
        method: "SoftmAP (this reproduction)",
        approx: "Integer polynomial",
        process: "16nm",
        max_freq_mhz: 1000,
        energy_per_op_pj: pj,
        measured: true,
    });
    Ok(rows)
}

/// Renders the table.
#[must_use]
pub fn render(rows: &[Row]) -> String {
    let mut t = AsciiTable::new(vec![
        "method".into(),
        "softmax approx.".into(),
        "process".into(),
        "max freq (MHz)".into(),
        "energy/op (pJ)".into(),
        "source".into(),
    ]);
    t.title(format!(
        "Table VI: comparison with related works (paper's SoftmAP row: {} pJ/op)",
        crate::paper::TABLE6[2].4
    ));
    for r in rows {
        t.row(vec![
            r.method.to_string(),
            r.approx.to_string(),
            r.process.to_string(),
            r.max_freq_mhz.to_string(),
            format!("{:.2e}", r.energy_per_op_pj),
            if r.measured { "measured" } else { "published" }.to_string(),
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn softmap_has_lowest_energy_per_op() {
        let rows = run().unwrap();
        let softmap = rows.last().unwrap();
        assert!(softmap.measured);
        for other in &rows[..2] {
            assert!(
                softmap.energy_per_op_pj < other.energy_per_op_pj,
                "{} vs {}",
                softmap.energy_per_op_pj,
                other.energy_per_op_pj
            );
        }
    }

    #[test]
    fn measured_value_in_paper_decade() {
        let rows = run().unwrap();
        let pj = rows.last().unwrap().energy_per_op_pj;
        // paper: 5.88e-3 pJ; ours must land in the same sub-0.1 pJ range
        assert!(pj > 5e-4 && pj < 5e-2, "energy/op {pj} pJ");
    }

    #[test]
    fn render_is_complete() {
        let s = render(&run().unwrap());
        assert!(s.contains("ConSmax"));
        assert!(s.contains("Softermax"));
        assert!(s.contains("SoftmAP"));
        assert!(s.contains("measured"));
    }
}
