//! Command-line driver regenerating the paper's tables and figures.
//!
//! ```text
//! softmap-eval [experiment...]
//! experiments: fig1 table1 table2 table3 table4 fig6 fig7 fig8
//!              table5 table6 area amdahl ablations decode longseq
//!              autotune all
//! ```
//!
//! Runs every named experiment in order; no name means `all`. An
//! unknown name prints the usage and exits 2 before anything runs.

use softmap_eval::{render, EXPERIMENTS};

fn run(which: &str) -> Result<(), Box<dyn std::error::Error>> {
    if which == "all" {
        for e in EXPERIMENTS {
            println!("==== {e} ====");
            print!("{}", render(e)?);
            println!();
        }
    } else {
        print!("{}", render(which)?);
    }
    Ok(())
}

fn main() {
    let mut names: Vec<String> = std::env::args().skip(1).collect();
    if names.is_empty() {
        names.push("all".into());
    }
    if let Some(other) = names
        .iter()
        .find(|n| *n != "all" && !EXPERIMENTS.contains(&n.as_str()))
    {
        eprintln!(
            "unknown experiment '{other}'\n\
             usage: softmap-eval [experiment...] (none = all), experiments: {}|all",
            EXPERIMENTS.join("|")
        );
        std::process::exit(2);
    }
    for which in &names {
        if let Err(e) = run(which) {
            eprintln!("experiment '{which}' failed: {e}");
            std::process::exit(1);
        }
    }
}
