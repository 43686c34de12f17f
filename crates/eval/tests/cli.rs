//! The `softmap_eval` binary runs every experiment it is given, in
//! order, refuses an unknown one before running anything, and takes its
//! configuration from code alone.

use std::process::Command;

fn golden(name: &str) -> String {
    let path = format!("{}/tests/golden/{name}.txt", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

#[test]
fn runs_every_named_experiment_in_order() {
    let out = Command::new(env!("CARGO_BIN_EXE_softmap_eval"))
        .args(["table2", "table1"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert_eq!(stdout, golden("table2") + &golden("table1"));
}

/// Every experiment whose output is pinned in `tests/golden/`.
const GOLDEN: &str = "fig1 table1 table2 fig6 fig7 fig8 table5 table6 area amdahl \
                      ablations decode longseq autotune";

#[test]
fn the_former_environment_knobs_change_nothing() {
    // Variables the library once read as hidden defaults, each set to a
    // value other than its old default. They are set on the child
    // process only; this test process's environment is untouched.
    let knobs = [
        ("SOFTMAP_OPT", "none"),
        ("SOFTMAP_RESIDENT", "0"),
        ("SOFTMAP_AUTOTUNE", "0"),
        ("SOFTMAP_BLOCKED", "0"),
        ("SOFTMAP_STRIP", "1"),
        ("SOFTMAP_THREADS", "1"),
        ("SOFTMAP_SERVE_WORKERS", "1"),
        ("SOFTMAP_SERVE_QUEUE", "1"),
    ];
    let out = Command::new(env!("CARGO_BIN_EXE_softmap_eval"))
        .args(GOLDEN.split_whitespace())
        .envs(knobs)
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    let mut rest = stdout.as_str();
    for name in GOLDEN.split_whitespace() {
        rest = rest
            .strip_prefix(golden(name).as_str())
            .unwrap_or_else(|| panic!("{name} moved under {knobs:?}; output from there:\n{rest}"));
    }
    assert!(rest.is_empty(), "output past the last experiment:\n{rest}");
}

#[test]
fn an_unknown_name_prints_the_usage_and_runs_nothing() {
    let out = Command::new(env!("CARGO_BIN_EXE_softmap_eval"))
        .args(["table1", "table9"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "ran before refusing: {out:?}");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("unknown experiment 'table9'"), "{stderr}");
    assert!(stderr.contains("usage:"), "{stderr}");
}
