//! The `softmap_eval` binary runs every experiment it is given, in
//! order, and refuses an unknown one before running anything.

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
