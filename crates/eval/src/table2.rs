//! Table II: AP runtime formulas vs. cycles measured from the LUT
//! microcode.
//!
//! The analytic column is the paper's formula; the measured column
//! counts actual compare/write cycles from `softmap-ap` (operand loads
//! included, mirroring the `2M` terms). Small deviations are expected —
//! the paper's formulas idealize carry handling — and are part of what
//! this table reports.

use crate::table::AsciiTable;
use softmap_ap::{cost, ApConfig, ApCore, ExecBackend};

fn measure_matmul_wavefront(m: usize, j: usize) -> u64 {
    // One output element of a matrix-matrix product: a j-deep dot
    // product (multiply word-parallel, reduce with the 2D tree).
    let mut ap =
        ApCore::with_backend(ApConfig::new(j, 8 * m + 24), ExecBackend::Microcode).unwrap();
    let a = ap.alloc_field(m).unwrap();
    let b = ap.alloc_field(m).unwrap();
    let prod = ap.alloc_field(2 * m).unwrap();
    let sum = ap
        .alloc_field(2 * m + j.next_power_of_two().trailing_zeros() as usize + 1)
        .unwrap();
    let data: Vec<u64> = (0..j as u64).map(|i| i % (1 << m)).collect();
    ap.reset_stats();
    ap.load(a, &data).unwrap();
    ap.load(b, &data).unwrap();
    let _ = ap.dot(a, b, prod, sum).unwrap();
    ap.stats().cycles()
}

/// One row of the comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Function name.
    pub function: &'static str,
    /// Operand precision `M`.
    pub m: u64,
    /// Rows `L` (for the reduction) — 0 when not applicable.
    pub l: u64,
    /// The paper's analytic cycle count.
    pub analytic: u64,
    /// Measured microcode cycles (loads included); `None` for rows the
    /// paper gives only analytically (matrix-matrix multiplication).
    pub measured: Option<u64>,
}

fn measure_add(m: usize, rows: usize) -> u64 {
    let mut ap =
        ApCore::with_backend(ApConfig::new(rows, 4 * m + 8), ExecBackend::Microcode).unwrap();
    let a = ap.alloc_field(m).unwrap();
    let acc = ap.alloc_field(m + 1).unwrap();
    let data: Vec<u64> = (0..rows as u64).map(|i| i % (1 << m)).collect();
    ap.load(a, &data).unwrap();
    ap.load(acc, &data).unwrap();
    ap.reset_stats();
    // loads are part of the paper's 2M term: charge them explicitly
    ap.load(a, &data).unwrap();
    ap.load(acc.sub(0, m), &data).unwrap();
    ap.add_into(acc, a).unwrap();
    ap.stats().cycles()
}

fn measure_mul(m: usize, rows: usize) -> u64 {
    let mut ap =
        ApCore::with_backend(ApConfig::new(rows, 6 * m + 8), ExecBackend::Microcode).unwrap();
    let a = ap.alloc_field(m).unwrap();
    let b = ap.alloc_field(m).unwrap();
    let r = ap.alloc_field(2 * m).unwrap();
    let data: Vec<u64> = (0..rows as u64).map(|i| i % (1 << m)).collect();
    ap.reset_stats();
    ap.load(a, &data).unwrap();
    ap.load(b, &data).unwrap();
    ap.mul(a, b, r).unwrap();
    ap.stats().cycles()
}

fn measure_reduction(m: usize, l: usize) -> u64 {
    // The paper's layout: two words per row, so the reduction is one
    // word-width add (combining the packed pair) plus the 2D tree over
    // L/2 rows.
    let rows = l / 2;
    let mut ap =
        ApCore::with_backend(ApConfig::new(rows, 4 * m + 24), ExecBackend::Microcode).unwrap();
    let h0 = ap.alloc_field(m).unwrap();
    let h1 = ap.alloc_field(m).unwrap();
    let sum = ap
        .alloc_field(m + 1 + 64usize.ilog2() as usize + 8)
        .unwrap();
    let data: Vec<u64> = (0..rows as u64).map(|i| i % (1 << m)).collect();
    ap.reset_stats();
    ap.load(h0, &data).unwrap();
    ap.load(h1, &data).unwrap();
    // pair add into the sum field, then the 2D tree
    ap.copy(h0, sum.sub(0, m + 1)).unwrap();
    ap.add_into(sum.sub(0, m + 1), h1).unwrap();
    let _ = ap.reduce_sum_2d(sum, sum.sub(0, sum.width()), rows);
    ap.stats().cycles()
}

/// Runs the comparison at the paper's precisions.
#[must_use]
pub fn run() -> Vec<Row> {
    let rows = 256usize;
    let mut out = Vec::new();
    for &m in &[4u64, 6, 8] {
        out.push(Row {
            function: "Addition",
            m,
            l: 0,
            analytic: cost::addition(m),
            measured: Some(measure_add(m as usize, rows)),
        });
        out.push(Row {
            function: "Multiplication",
            m,
            l: 0,
            analytic: cost::multiplication(m),
            measured: Some(measure_mul(m as usize, rows)),
        });
    }
    for &l in &[512u64, 2048, 4096] {
        out.push(Row {
            function: "Reduction",
            m: 6,
            l,
            analytic: cost::reduction(6, l),
            measured: Some(measure_reduction(6, l as usize)),
        });
    }
    out.push(Row {
        function: "Matrix-matrix mult.",
        m: 8,
        l: 4096,
        analytic: cost::matmul(8, 4096),
        measured: Some(measure_matmul_wavefront(8, 4096)),
    });
    out.push(Row {
        function: "Reduction (1D ablation)",
        m: 6,
        l: 4096,
        analytic: cost::reduction_1d(6, 4096),
        measured: None,
    });
    out.push(Row {
        function: "Division (extension)",
        m: 6,
        l: 0,
        analytic: cost::division(2 * 6 + 12, 12),
        measured: None,
    });
    out
}

/// Renders the comparison table.
#[must_use]
pub fn render(rows: &[Row]) -> String {
    let mut t = AsciiTable::new(vec![
        "function".into(),
        "M".into(),
        "L".into(),
        "analytic (Table II)".into(),
        "measured (microcode)".into(),
        "ratio".into(),
    ]);
    t.title("Table II: AP runtimes in cycles — paper formula vs. simulated microcode");
    for r in rows {
        let measured = r.measured.map_or("-".to_string(), |m| m.to_string());
        let ratio = r.measured.map_or("-".to_string(), |m| {
            format!("{:.2}", m as f64 / r.analytic as f64)
        });
        t.row(vec![
            r.function.to_string(),
            r.m.to_string(),
            if r.l == 0 {
                "-".into()
            } else {
                r.l.to_string()
            },
            r.analytic.to_string(),
            measured,
            ratio,
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measured_within_factor_two_of_analytic() {
        for r in run() {
            if let Some(m) = r.measured {
                let ratio = m as f64 / r.analytic as f64;
                assert!(
                    (0.5..=2.0).contains(&ratio),
                    "{} M={} L={}: analytic {}, measured {m} (ratio {ratio:.2})",
                    r.function,
                    r.m,
                    r.l,
                    r.analytic
                );
            }
        }
    }

    #[test]
    fn addition_measured_close_to_formula() {
        // in-place add: loads (2M) + carry clear (1) + 8M passes +
        // 1 ripple bit (4 cycles) vs the paper's 2M + 8M + M + 1
        let r = &run()[0];
        assert_eq!(r.function, "Addition");
        let m = r.measured.unwrap();
        let diff = m.abs_diff(r.analytic);
        assert!(diff <= r.m + 4, "analytic {} vs measured {m}", r.analytic);
    }

    #[test]
    fn reduction_grows_with_rows() {
        let rows = run();
        let reds: Vec<&Row> = rows.iter().filter(|r| r.function == "Reduction").collect();
        assert!(reds[0].measured.unwrap() < reds[2].measured.unwrap());
        assert!(reds[0].analytic < reds[2].analytic);
    }

    #[test]
    fn render_includes_all_functions() {
        let s = render(&run());
        for f in [
            "Addition",
            "Multiplication",
            "Reduction",
            "Matrix-matrix mult.",
            "Reduction (1D ablation)",
            "Division (extension)",
        ] {
            assert!(s.contains(f), "missing {f}");
        }
    }
}
