//! The paper and extension tables, byte for byte: every experiment that
//! trains no model renders through the library exactly as
//! `tests/golden/<name>.txt` records it. A change that moves a number
//! in any table fails here; regenerate a golden file only for a change
//! that means to move it, with
//! `cargo run --release -p softmap-eval --bin softmap_eval -- <name> > crates/eval/tests/golden/<name>.txt`.

fn check(name: &str) {
    let path = format!("{}/tests/golden/{name}.txt", env!("CARGO_MANIFEST_DIR"));
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let got = softmap_eval::render(name).unwrap();
    assert!(got == want, "{name} differs from {path}:\n{got}");
}

macro_rules! golden {
    ($($name:ident),* $(,)?) => {
        $(
            #[test]
            fn $name() {
                check(stringify!($name));
            }
        )*
    };
}

golden!(
    fig1, table1, table2, fig6, fig7, fig8, table5, table6, area, amdahl, ablations, decode,
    longseq, autotune,
);
