//! The benchmark's own checks, at a small size: every metric is printed
//! with its name and unit, one seed repeats its simulated quantities and
//! counts exactly, and two seeds give different inputs.

use e2e_bench::metrics::{per_layer_defs, Report, END_TO_END};
use e2e_bench::workloads::{Inputs, Workload};
use e2e_bench::{run, Options};

/// `--seconds` for the test runs: one decode step of 1024 rows, three
/// long-context rounds, a few hundred served requests.
const SMALL: f64 = 0.05;

fn measure(workload: Workload, seed: u64, trace: bool) -> Report {
    let opts = Options {
        workload,
        seed,
        seconds: SMALL,
        trace,
    };
    let report = run(&opts, None).expect("benchmark runs");
    assert!(report.correct, "{} outputs incorrect", workload.name());
    assert_eq!(report.failed, 0);
    report
}

#[test]
fn every_metric_is_printed_with_name_and_unit() {
    for workload in Workload::ALL {
        for trace in [false, true] {
            let report = measure(workload, 7, trace);
            let defs = if trace {
                per_layer_defs()
            } else {
                END_TO_END.to_vec()
            };
            let json = report.to_json();
            assert_eq!(report.metrics.len(), defs.len());
            for (def, &(name, value, unit)) in defs.iter().zip(&report.metrics) {
                assert_eq!((def.name, def.unit), (name, unit));
                let printed = format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}");
                assert!(json.contains(&printed), "{printed} missing from {json}");
            }
            assert!(json.starts_with("{\"correct\": true, \"attempted\": "));
        }
    }
}

#[test]
fn benchmark_json_lists_the_printed_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
    let defs: Vec<_> = END_TO_END.iter().copied().chain(per_layer_defs()).collect();
    for def in &defs {
        let entry = format!(
            "\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
            def.name,
            def.unit,
            def.better.as_str()
        );
        assert!(text.contains(&entry), "{entry} missing from BENCHMARK.json");
    }
    assert_eq!(text.matches("\"better\"").count(), defs.len());
    for workload in Workload::ALL {
        assert!(text.contains(&format!("\"name\": \"{}\"", workload.name())));
    }
}

#[test]
fn one_seed_repeats_simulated_quantities_and_counts() {
    for workload in Workload::ALL {
        let (a, b) = (measure(workload, 11, false), measure(workload, 11, false));
        assert_eq!(a.get("exact_share"), Some(1.0));
        for name in [
            "exact_share",
            "device_cycles_per_vec",
            "device_latency_cycles_per_vec",
            "device_energy_nj_per_vec",
        ] {
            assert_eq!(a.get(name), b.get(name), "{} {name}", workload.name());
        }
        assert_eq!(a.attempted, b.attempted);

        let (a, b) = (measure(workload, 11, true), measure(workload, 11, true));
        assert_eq!(a.get("failed_share"), Some(0.0));
        let mut repeated = vec!["failed_share", "plan.compiles", "plan.evictions"];
        if workload != Workload::ServeMixed {
            // Served hits depend on which worker's plan slot a request
            // lands in; inline execution has one slot.
            repeated.push("plan.hit_share");
        }
        repeated.extend(
            a.metrics
                .iter()
                .map(|&(name, _, _)| name)
                .filter(|name| name.starts_with("device.")),
        );
        for name in repeated {
            assert_eq!(a.get(name), b.get(name), "{} {name}", workload.name());
        }
    }
}

#[test]
fn seeds_select_the_inputs() {
    for workload in Workload::ALL {
        let one = Inputs::build(workload, 1, SMALL).expect("inputs");
        let again = Inputs::build(workload, 1, SMALL).expect("inputs");
        let two = Inputs::build(workload, 2, SMALL).expect("inputs");
        assert_eq!(one.scores(), again.scores());
        assert_ne!(one.scores(), two.scores());
        assert_eq!(one.timed_units(), two.timed_units());
    }
}
