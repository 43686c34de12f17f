//! The metric tables (names, units, direction) and the result line.
//!
//! `BENCHMARK.json` at the repository root lists the same names; the
//! package's test checks that the two agree.

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better.
    Higher,
    /// Smaller values are better.
    Lower,
}

impl Better {
    /// The spelling used in `BENCHMARK.json`.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One metric's name, unit and direction.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// The printed name.
    pub name: &'static str,
    /// The printed unit.
    pub unit: &'static str,
    /// Which direction is an improvement.
    pub better: Better,
}

const fn m(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better }
}

use Better::{Higher, Lower};

/// End-to-end metrics, printed by the untraced run.
pub const END_TO_END: &[MetricDef] = &[
    m("scores_per_s", "1/s", Higher),
    m("latency_p50_us", "us", Lower),
    m("latency_p90_us", "us", Lower),
    m("setup_s", "s", Lower),
    m("peak_rss_mb", "MB", Lower),
    m("exact_share", "share", Higher),
    m("device_cycles_per_vec", "cycles", Lower),
    m("device_latency_cycles_per_vec", "cycles", Lower),
    m("device_energy_nj_per_vec", "nJ", Lower),
];

/// `ApSoftmaxRun::steps` names and the per-layer metric each one feeds.
/// Whole-vector runs report the Fig. 5 steps; sharded runs report the
/// shard and cross-tile phases. A name missing here is summed into
/// `device.step.other.cycles`.
pub const STEP_METRICS: &[(&str, &str)] = &[
    ("1: write v", "device.step.1_write_v.cycles"),
    ("2: subtract max", "device.step.2_subtract_max.cycles"),
    ("3: write mu", "device.step.3_write_mu.cycles"),
    (
        "4: multiply+shift (barrett)",
        "device.step.4_multiply_shift_barrett.cycles",
    ),
    ("5: write vln2", "device.step.5_write_vln2.cycles"),
    ("6: multiply q*vln2", "device.step.6_multiply_q_vln2.cycles"),
    ("7: subtract (vcorr)", "device.step.7_subtract_vcorr.cycles"),
    (
        "8-9: write vb, add vcorr",
        "device.step.8_9_write_vb_add_vcorr.cycles",
    ),
    (
        "10-11: copy, square",
        "device.step.10_11_copy_square.cycles",
    ),
    ("12: write vc", "device.step.12_write_vc.cycles"),
    (
        "13: add+shift (vapprox)",
        "device.step.13_add_shift_vapprox.cycles",
    ),
    ("14: reduction", "device.step.14_reduction.cycles"),
    ("15: copy sum", "device.step.15_copy_sum.cycles"),
    ("16: divide", "device.step.16_divide.cycles"),
    ("shard: write v", "device.step.shard_write_v.cycles"),
    ("shard: min search", "device.step.shard_min_search.cycles"),
    (
        "device: cross-tile min",
        "device.step.device_cross_tile_min.cycles",
    ),
    (
        "14: partial reduction",
        "device.step.14_partial_reduction.cycles",
    ),
    (
        "device: cross-tile sum",
        "device.step.device_cross_tile_sum.cycles",
    ),
    (
        "shard: write divisor",
        "device.step.shard_write_divisor.cycles",
    ),
];

/// The catch-all step metric.
pub const STEP_OTHER: &str = "device.step.other.cycles";

/// Per-layer metrics other than the per-step cycles, printed by the
/// traced run.
pub const PER_LAYER: &[MetricDef] = &[
    m("quantize.ns_per_score", "ns", Lower),
    m("plan.hit_share", "share", Higher),
    m("plan.compiles", "count", Lower),
    m("plan.evictions", "count", Lower),
    m("compile.us_per_shape", "us", Lower),
    m("compile.share", "share", Lower),
    m("autotune.candidates_per_shape", "count", Lower),
    m("autotune.win_share", "share", Higher),
    m("execute.us_per_vec", "us", Lower),
    m("execute.host_ns_per_kcycle", "ns/kcycle", Lower),
    m("blocking.engaged_share", "share", Higher),
    m("device.shards_per_vec", "count", Lower),
    m("device.waves_per_vec", "count", Lower),
    m("device.reduction_cycles_per_vec", "cycles", Lower),
    m("device.cell_events_per_vec", "count", Lower),
    m("device.static_cycle_match_share", "share", Higher),
    m("serve.submit_us_p50", "us", Lower),
    m("serve.wait_us_p50", "us", Lower),
    m("serve.waves_per_request", "count", Lower),
    m("serve.coalesced_share", "share", Higher),
    m("serve.backpressure_share", "share", Lower),
    m("serve.occupancy", "share", Higher),
    m("serve.fanout_share", "share", Higher),
    m("host.cpu_util", "share", Higher),
    m("host.runq_wait_share", "share", Lower),
    m("host.steal_share", "share", Lower),
    m("trace.reconcile_ratio", "share", Higher),
    m("trace.overhead_share", "share", Lower),
    m("bench.loop_share", "share", Lower),
    m("failed_share", "share", Lower),
];

/// Every per-layer metric, in print order: [`PER_LAYER`], then one
/// entry per step in [`STEP_METRICS`], then [`STEP_OTHER`].
#[must_use]
pub fn per_layer_defs() -> Vec<MetricDef> {
    let mut defs = PER_LAYER.to_vec();
    defs.extend(
        STEP_METRICS
            .iter()
            .map(|&(_, name)| m(name, "cycles", Lower)),
    );
    defs.push(m(STEP_OTHER, "cycles", Lower));
    defs
}

/// The benchmark's result: the fields of the last stdout line.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Every output matched the scalar reference and its inline cost,
    /// and no unit failed.
    pub correct: bool,
    /// Units attempted in the measured phases.
    pub attempted: u64,
    /// Units that returned an error.
    pub failed: u64,
    /// `(name, value, unit)` in table order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
}

impl Report {
    /// The value of metric `name`, if reported.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| *n == name)
            .map(|&(_, v, _)| v)
    }

    /// The result as one JSON object.
    #[must_use]
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_number(*value)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A JSON number with every digit Rust's shortest round-trip form
/// gives; non-finite values (never expected) print as 0.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

/// Quantile `q` of sorted `samples` by linear interpolation between
/// the closest ranks; 0 for no samples.
#[must_use]
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// The median of `values` (sorted in place).
#[must_use]
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    quantile(values, 0.5)
}

/// `num / den`, or 0 when `den` is 0.
#[must_use]
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}
