//! Experiment harness: regenerates every table and figure of the
//! SoftmAP paper.
//!
//! Each experiment module produces structured data plus an ASCII
//! rendering with the paper's reported values alongside for comparison.
//! The `softmap-eval` binary drives them through [`render`], running
//! every experiment named on its command line in order:
//!
//! ```text
//! cargo run -p softmap-eval --release -- all
//! cargo run -p softmap-eval --release -- fig7
//! cargo run -p softmap-eval --release -- table2 table5 table6
//! ```
//!
//! `tests/golden/` holds the expected output of every experiment that
//! trains no model; `tests/golden.rs` compares each byte for byte.
//!
//! | Module | Paper content |
//! |---|---|
//! | [`fig1`] | Softmax runtime share of Llama2-7b on A100 |
//! | [`table1`] | Bit-width allocations per intermediate |
//! | [`table2`] | AP runtime formulas vs. measured microcode |
//! | [`table34`] | Perplexity grids (tiny-LM stand-ins, see the README substitution notes) |
//! | [`fig678`] | Normalized energy / latency / EDP sweeps |
//! | [`table5`] | Highest EDP ratios |
//! | [`table6`] | Energy per operation vs. ConSmax / Softermax |
//! | [`area`] | AP deployment area |
//! | [`amdahl`] | End-to-end speedup consistency check |
//! | [`ablations`] | Division/layout/packing/reduction design ablations (extension) |
//! | [`decode`] | Decode-phase characterization (extension) |
//! | [`longseq`] | Sharded long-sequence softmax at fixed hardware (extension) |
//! | [`autotune`] | Mapping autotuner vs the paper's fixed mapping (extension) |
//!
//! # Examples
//!
//! ```
//! let t = softmap_eval::table1::run();
//! assert!(t.render().contains("vapprox"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablations;
pub mod amdahl;
pub mod area;
pub mod autotune;
pub mod decode;
pub mod fig1;
pub mod fig678;
pub mod longseq;
pub mod paper;
pub mod table;
pub mod table1;
pub mod table2;
pub mod table34;
pub mod table5;
pub mod table6;

/// Convenience result alias for experiments.
pub type EvalResult<T> = Result<T, Box<dyn std::error::Error>>;

/// Every experiment, in the order `softmap-eval all` runs them.
pub const EXPERIMENTS: [&str; 16] = [
    "fig1",
    "table1",
    "table2",
    "table3",
    "table4",
    "fig6",
    "fig7",
    "fig8",
    "table5",
    "table6",
    "area",
    "amdahl",
    "ablations",
    "decode",
    "longseq",
    "autotune",
];

/// Renders one experiment (a name from [`EXPERIMENTS`]) exactly as
/// `softmap-eval <name>` prints it. `table3` and `table4` train their
/// stand-in models first.
///
/// # Errors
///
/// Propagates the experiment's errors; an unknown name is an error.
pub fn render(name: &str) -> EvalResult<String> {
    use fig678::Quantity;
    Ok(match name {
        "fig1" => fig1::render(&fig1::run()),
        "table1" => table1::run().render(),
        "table2" => table2::render(&table2::run()),
        "table3" => {
            table34::run(table34::StandIn::A)?.render(&paper::TABLE3_PPL, paper::TABLE3_FP_PPL)
        }
        "table4" => {
            table34::run(table34::StandIn::B)?.render(&paper::TABLE4_PPL, paper::TABLE4_FP_PPL)
        }
        "fig6" => fig678::render_figure(Quantity::Energy)?,
        "fig7" => fig678::render_figure(Quantity::Latency)?,
        "fig8" => fig678::render_figure(Quantity::Edp)?,
        "table5" => table5::render(&table5::run()?),
        "table6" => table6::render(&table6::run()?),
        "area" => area::render(&area::run()?),
        "amdahl" => amdahl::render(&amdahl::run()?),
        "ablations" => ablations::render(&ablations::run()?),
        "decode" => decode::render(&decode::run()?),
        "longseq" => longseq::render(&longseq::run()?),
        "autotune" => autotune::render(&autotune::run()?),
        other => return Err(format!("unknown experiment '{other}'").into()),
    })
}
