//! End-to-end and per-layer benchmark of the SoftmAP simulator.
//!
//! The benchmark drives the public API from outside the program:
//! `ApSoftmax::execute_floats_into` on one `TileState`, and
//! `SoftmaxServer::submit` / `Ticket::wait_into`. Every output is checked
//! against the scalar `IntSoftmax` reference, and every vector's cost
//! against an inline run of the same input on a separate mapping. See
//! `README.md` beside this package for the workloads, the metrics and
//! how to run it.

mod host;
mod inputs;
pub mod metrics;
mod speed;
mod trace;
pub mod workloads;

use std::io::Write;
use std::path::Path;

use metrics::{median, per_layer_defs, quantile, ratio, Report, END_TO_END};
use trace::{Layer, Tracer};
use workloads::{CacheDelta, Inputs, Measured, Phase, Traced, TracedSetup, Workload};

pub use workloads::Options;

/// Builds the inputs, measures the workload and assembles the report.
/// With `opts.trace`, the spans are written to `spans_out` when given.
///
/// # Errors
///
/// Input, set-up or warm-pass failures, or a span write error.
pub fn run(opts: &Options, spans_out: Option<&Path>) -> Result<Report, String> {
    let inputs = Inputs::build(opts.workload, opts.seed, opts.seconds)
        .map_err(|e| format!("building inputs: {e}"))?;
    let measured = workloads::measure(opts, &inputs).map_err(|e| format!("set-up: {e}"))?;
    let peak_rss_mb = host::peak_rss_mb();
    let plain = &measured.plain;
    let mut report = Report {
        correct: phase_ok(plain),
        attempted: plain.units,
        failed: plain.failed,
        ..Report::default()
    };
    report.notes.push(format!(
        "host: cpu=\"{}\" nproc={}",
        host::cpu_model(),
        host::nproc()
    ));
    report.notes.push(format!(
        "run: workload={} seed={} units={} vectors={} setups={}",
        opts.workload.name(),
        opts.seed,
        plain.units,
        plain.tally.vectors,
        measured.setup_s.len()
    ));
    let speed = &measured.speed;
    let (mut runs, mut scales) = (speed.runs_s.clone(), speed.scales.clone());
    let (mid, mid_scale) = (median(&mut runs), median(&mut scales));
    report.notes.push(format!(
        "host speed: {} reference runs, median {:.3} ms of CPU time (min {:.3}, max {:.3}) \
         against {:.3} ms on the reference host; scales median {mid_scale:.4} \
         (min {:.4}, max {:.4})",
        runs.len(),
        mid * 1e3,
        runs[0] * 1e3,
        runs[runs.len() - 1] * 1e3,
        speed::REFERENCE_CPU_S * 1e3,
        scales.first().copied().unwrap_or(0.0),
        scales.last().copied().unwrap_or(0.0)
    ));
    match &measured.traced {
        None => {
            end_to_end(&mut report, opts.workload, &measured, peak_rss_mb);
        }
        Some(traced) => {
            report.correct &= phase_ok(&traced.phase);
            report.attempted += traced.phase.units;
            report.failed += traced.phase.failed;
            per_layer(&mut report, opts.workload, plain, traced);
            if let Some(path) = spans_out {
                write_spans(path, traced)
                    .map_err(|e| format!("writing {}: {e}", path.display()))?;
                report.notes.push(format!("spans: {}", path.display()));
            }
        }
    }
    Ok(report)
}

/// Every output matched its reference codes and its inline cost, and
/// no unit failed.
fn phase_ok(p: &Phase) -> bool {
    p.failed == 0 && p.tally.exact == p.tally.vectors && p.tally.cost_mismatches == 0
}

/// Host throughput in scores per second of process CPU time at the
/// reference host's speed: the median of the phase's throughput samples
/// (per unit on one thread, per block of served requests), or the whole
/// phase's unscaled rate when it has none.
fn scores_per_s(p: &Phase) -> f64 {
    if p.rates.is_empty() {
        ratio(p.tally.scores as f64, p.cpu_s)
    } else {
        median(&mut p.rates.clone())
    }
}

/// What one latency sample measures.
fn unit_name(w: Workload) -> &'static str {
    match w {
        Workload::DecodeGrow => "one decode step",
        Workload::LongContext => "one vector",
        Workload::ServeMixed => "one request, submit to wait_into",
    }
}

fn end_to_end(report: &mut Report, w: Workload, measured: &Measured, peak_rss_mb: f64) {
    let p = &measured.plain;
    let t = &p.tally;
    let done = t.checked as f64;
    let (p50, p90) = latency_percentiles(p);
    let mut setups = measured.setup_s.clone();
    let values = [
        scores_per_s(p),
        p50,
        p90,
        median(&mut setups),
        peak_rss_mb,
        ratio(t.exact as f64, t.vectors as f64),
        ratio(t.cycles as f64, done),
        ratio(t.latency_cycles as f64, done),
        ratio(t.energy_j * 1e9, done),
    ];
    for (def, value) in END_TO_END.iter().zip(values) {
        report.metrics.push((def.name, value, def.unit));
    }
    let blocks = match p.latency_blocks.len() {
        0 => String::new(),
        n => format!(", median of {n} blocks scaled by their unstolen CPU share"),
    };
    report.notes.push(format!(
        "latency: p50={p50:.1} us p90={p90:.1} us over {} samples ({}){blocks}",
        p.latencies_us.len(),
        unit_name(w)
    ));
    report.notes.push(format!(
        "scores_per_s: median of {} samples, per CPU second; whole phase {:.0} per wall second, unscaled",
        p.rates.len(),
        ratio(t.scores as f64, p.busy_s)
    ));
    report.notes.push(format!(
        "host steal: {:.1}% of CPU time over the timed phase",
        100.0 * p.cpu.steal_share()
    ));
    report.notes.push(format!(
        "setup_s: median of {:?} CPU seconds",
        measured
            .setup_s
            .iter()
            .map(|s| (s * 1e4).round() / 1e4)
            .collect::<Vec<_>>()
    ));
}

/// The p50 and p90 of the phase's unit latencies. On one thread they are
/// pooled over the phase. When serving they are the median over blocks
/// of each block's percentiles, each scaled by the share of the block's
/// CPU ticks the hypervisor did not steal: every request in the
/// client's window shares each host stall, so pooled percentiles follow
/// how long the worst stalls happened to be, and with both cores busy
/// the hypervisor steals up to a third of the guest's time.
fn latency_percentiles(p: &Phase) -> (f64, f64) {
    let percentiles = |samples: &[f64]| {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        (quantile(&sorted, 0.5), quantile(&sorted, 0.9))
    };
    if p.latency_blocks.is_empty() {
        return percentiles(&p.latencies_us);
    }
    let (mut p50s, mut p90s) = (Vec::new(), Vec::new());
    let mut start = 0;
    for (&end, &unstolen) in p.latency_blocks.iter().zip(&p.block_unstolen) {
        let (p50, p90) = percentiles(&p.latencies_us[start..end]);
        p50s.push(p50 * unstolen);
        p90s.push(p90 * unstolen);
        start = end;
    }
    (median(&mut p50s), median(&mut p90s))
}

/// The compile measurements: self time, the wall time it is a share
/// of, and the cache counters. From the timed phase when it compiled
/// (decode-grow), otherwise from the set-up of the measured mapping.
fn compile_view(phase: &Phase, tracer: &Tracer, setup: &TracedSetup) -> (f64, f64, CacheDelta) {
    let compile = Layer::Compile as usize;
    if phase.cache.compiles > 0 {
        (
            tracer.self_ns()[compile] as f64,
            phase.wall_s * 1e9,
            phase.cache,
        )
    } else {
        (
            setup.tracer.self_ns()[compile] as f64,
            setup.wall_s * 1e9,
            setup.cache,
        )
    }
}

fn median_us(durations: impl Iterator<Item = u64>) -> f64 {
    let mut v: Vec<f64> = durations.map(|ns| ns as f64 / 1e3).collect();
    median(&mut v)
}

fn per_layer(report: &mut Report, w: Workload, plain: &Phase, traced: &Traced) {
    let (t, tracer) = (&traced.phase, &traced.tracer);
    let own = tracer.self_ns();
    let own_of = |l: Layer| own[l as usize] as f64;
    let wall_ns = t.wall_s * 1e9;
    let tally = &t.tally;
    let done = tally.checked as f64;
    let (hits, compiles) = (t.cache.hits as f64, t.cache.compiles as f64);
    let (compile_ns, compile_wall_ns, cc) = compile_view(t, tracer, &traced.setup);
    let (serve, fanout) = match t.serve {
        Some(s) => {
            let completed = s.completed as f64;
            (
                [
                    ratio(s.waves_formed as f64, completed),
                    ratio(s.coalesced as f64, completed),
                    ratio(s.backpressure as f64, s.queued as f64),
                    s.occupancy(),
                ],
                ratio(tally.sharded as f64, done),
            )
        }
        None => ([0.0; 4], 0.0),
    };
    let plain_sps = scores_per_s(plain);
    let reconciled: f64 = own.iter().map(|&ns| ns as f64).sum();
    let values = [
        ratio(own_of(Layer::Quantize), tally.scores as f64),
        ratio(hits, hits + compiles),
        compiles,
        t.cache.evictions as f64,
        ratio(compile_ns / 1e3, cc.compiles as f64),
        ratio(compile_ns, compile_wall_ns),
        ratio(cc.candidates_scored as f64, cc.shapes_tuned as f64),
        ratio(cc.tuned_wins as f64, cc.shapes_tuned as f64),
        ratio(own_of(Layer::Execute) / 1e3, done),
        ratio(own_of(Layer::Execute), tally.cycles as f64 / 1e3),
        ratio(tally.engaged as f64, done),
        ratio(tally.shards as f64, done),
        ratio(tally.waves as f64, done),
        ratio(tally.reduction_cycles as f64, done),
        ratio(tally.cell_events as f64, done),
        ratio(tally.static_matches as f64, done),
        median_us(tracer.durations(Layer::Submit)),
        median_us(tracer.durations(Layer::Wait)),
        serve[0],
        serve[1],
        serve[2],
        serve[3],
        fanout,
        ratio(t.cpu_s, t.wall_s * host::nproc() as f64),
        ratio(
            t.sched.wait_ns as f64,
            (t.sched.run_ns + t.sched.wait_ns) as f64,
        ),
        t.cpu.steal_share(),
        ratio(reconciled, wall_ns),
        1.0 - ratio(scores_per_s(t), plain_sps),
        ratio(own_of(Layer::Unit) + own_of(Layer::Check), wall_ns),
        ratio(t.failed as f64, t.units as f64),
    ];
    let defs = per_layer_defs();
    let steps = tally.steps.iter().map(|&c| ratio(c as f64, done));
    for (def, value) in defs.iter().zip(values.into_iter().chain(steps)) {
        report.metrics.push((def.name, value, def.unit));
    }
    debug_assert_eq!(report.metrics.len(), defs.len());

    report.notes.push(format!(
        "traced: {} units, wall {:.1} ms, scores_per_s traced {:.0} vs untraced {:.0}",
        t.units,
        wall_ns / 1e6,
        scores_per_s(t),
        plain_sps
    ));
    for layer in Layer::ALL {
        report.notes.push(format!(
            "  self {:<13} {:>10.2} ms  {:>6.2}%",
            layer.name(),
            own_of(layer) / 1e6,
            100.0 * ratio(own_of(layer), wall_ns)
        ));
    }
    report.notes.push(format!(
        "  sum of self times {:.2} ms = {:.2}% of wall {:.2} ms ({})",
        reconciled / 1e6,
        100.0 * ratio(reconciled, wall_ns),
        wall_ns / 1e6,
        unit_name(w)
    ));
}

/// Writes the set-up's and the traced phase's spans as TSV.
fn write_spans(path: &Path, traced: &Traced) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "phase\tspan\tunit\tparent\tstart_ns\tend_ns")?;
    traced.setup.tracer.write_tsv("setup", &mut out)?;
    traced.tracer.write_tsv("timed", &mut out)?;
    out.flush()
}
