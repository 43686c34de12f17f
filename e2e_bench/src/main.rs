//! Command-line entry point:
//!
//! ```console
//! e2e_bench --workload <decode-grow|long-context|serve-mixed> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Prints human-readable lines, then the result as one JSON object on
//! the last line. With `--trace 1` the spans are written to
//! `.bench_out/spans-<workload>-seed<n>.tsv` under the working
//! directory.

use std::path::PathBuf;
use std::process::ExitCode;

use e2e_bench::workloads::Workload;
use e2e_bench::Options;

const USAGE: &str = "usage: e2e_bench --workload <decode-grow|long-context|serve-mixed> \
                     [--seed <n>] [--seconds <n>] [--trace <0|1>]";

/// The seed of a run that names none; a later `--seed` overrides an
/// earlier one.
const DEFAULT_SEED: u64 = 1;

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let (mut seconds, mut trace) = (10.0, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => seed = value.parse::<u64>().map_err(|_| bad())?,
            "--seconds" => {
                seconds = value.parse::<f64>().map_err(|_| bad())?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// The library reads `SOFTMAP_*` knobs from the environment; a run
/// must measure the explicit configuration, so any such variable is an
/// error.
fn refuse_knobs() -> Result<(), String> {
    let set: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("SOFTMAP_"))
        .collect();
    if set.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "refusing to run with {} set; unset it",
            set.join(", ")
        ))
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = refuse_knobs()
        .and_then(|()| parse_args(&args).map_err(|e| format!("{e}\n{USAGE}")))
        .and_then(|opts| {
            let spans = PathBuf::from(".bench_out").join(format!(
                "spans-{}-seed{}.tsv",
                opts.workload.name(),
                opts.seed
            ));
            e2e_bench::run(&opts, opts.trace.then_some(spans.as_path()))
        });
    match result {
        Ok(report) => {
            for note in &report.notes {
                println!("{note}");
            }
            println!("{}", report.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("e2e_bench: {e}");
            ExitCode::from(2)
        }
    }
}
