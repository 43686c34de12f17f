//! Differential tests: the `FastWord` backend must be **bit-exact**
//! (every CAM plane, including the reserved carry/flag columns) and
//! **cycle-exact** (identical [`CycleStats`], all five counters)
//! against the `Microcode` ground truth, for every `ApCore` operation,
//! overflow mode, and division style.

use proptest::prelude::*;
use softmap_ap::{ApConfig, ApCore, ApTile, CycleStats, DivStyle, ExecBackend, Field, Overflow};

/// Runs `op` on a fresh core per backend and asserts identical CAM
/// state (every column plane) and identical cycle statistics.
fn assert_backends_agree<R: PartialEq + core::fmt::Debug>(
    rows: usize,
    cols: usize,
    op: impl Fn(&mut ApCore) -> R,
) {
    let mut micro = ApCore::with_backend(ApConfig::new(rows, cols), ExecBackend::Microcode)
        .expect("micro core");
    let mut fast =
        ApCore::with_backend(ApConfig::new(rows, cols), ExecBackend::FastWord).expect("fast core");
    assert_eq!(fast.backend(), ExecBackend::FastWord);
    let rm = op(&mut micro);
    let rf = op(&mut fast);
    assert_eq!(rm, rf, "operation results diverge");
    assert_eq!(
        micro.stats(),
        fast.stats(),
        "cycle statistics diverge: micro {} vs fast {}",
        micro.stats(),
        fast.stats()
    );
    for col in 0..cols {
        assert_eq!(
            micro.cam().plane(col),
            fast.cam().plane(col),
            "bit-plane {col} diverges"
        );
    }
}

fn truncate_pairs(xs: &[u64], ys: &[u64]) -> (Vec<u64>, Vec<u64>) {
    let n = xs.len().min(ys.len());
    (xs[..n].to_vec(), ys[..n].to_vec())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn add_into_agrees(
        xs in prop::collection::vec(0u64..256, 1..48),
        ys in prop::collection::vec(0u64..512, 1..48),
    ) {
        let (xs, ys) = truncate_pairs(&xs, &ys);
        assert_backends_agree(xs.len(), 32, |ap| {
            let a = ap.alloc_field(8).unwrap();
            let acc = ap.alloc_field(10).unwrap();
            ap.load(a, &xs).unwrap();
            ap.load(acc, &ys).unwrap();
            ap.add_into(acc, a).unwrap();
            ap.read(acc)
        });
    }

    #[test]
    fn gated_add_agrees(
        xs in prop::collection::vec(0u64..256, 1..32),
        ys in prop::collection::vec(0u64..256, 1..32),
        gates in prop::collection::vec(0u64..2, 1..32),
    ) {
        let (xs, ys) = truncate_pairs(&xs, &ys);
        let n = xs.len().min(gates.len());
        let (xs, ys) = (xs[..n].to_vec(), ys[..n].to_vec());
        let gates = gates[..n].to_vec();
        assert_backends_agree(n, 32, |ap| {
            let a = ap.alloc_field(8).unwrap();
            let acc = ap.alloc_field(9).unwrap();
            let g = ap.alloc_field(1).unwrap();
            ap.load(a, &xs).unwrap();
            ap.load(acc, &ys).unwrap();
            ap.load(g, &gates).unwrap();
            ap.add_into_gated(acc, a, Some((g.col(0), true))).unwrap();
            ap.read(acc)
        });
    }

    #[test]
    fn sub_into_agrees(
        xs in prop::collection::vec(0u64..256, 1..48),
        ys in prop::collection::vec(0u64..256, 1..48),
    ) {
        let (xs, ys) = truncate_pairs(&xs, &ys);
        assert_backends_agree(xs.len(), 32, |ap| {
            let a = ap.alloc_field(8).unwrap();
            let acc = ap.alloc_field(8).unwrap();
            ap.load(a, &xs).unwrap();
            ap.load(acc, &ys).unwrap();
            let borrowed = ap.sub_into(acc, a).unwrap();
            (ap.read(acc), borrowed.iter_set().collect::<Vec<_>>())
        });
    }

    #[test]
    fn saturating_sub_agrees(
        xs in prop::collection::vec(0u64..256, 1..32),
        ys in prop::collection::vec(0u64..256, 1..32),
    ) {
        let (xs, ys) = truncate_pairs(&xs, &ys);
        assert_backends_agree(xs.len(), 32, |ap| {
            let a = ap.alloc_field(8).unwrap();
            let acc = ap.alloc_field(9).unwrap();
            ap.load(a, &xs).unwrap();
            ap.load(acc, &ys).unwrap();
            ap.saturating_sub_into(acc, a).unwrap();
            ap.read(acc)
        });
    }

    #[test]
    fn mul_and_square_agree(
        xs in prop::collection::vec(0u64..64, 1..32),
        ys in prop::collection::vec(0u64..64, 1..32),
    ) {
        let (xs, ys) = truncate_pairs(&xs, &ys);
        assert_backends_agree(xs.len(), 64, |ap| {
            let a = ap.alloc_field(6).unwrap();
            let b = ap.alloc_field(6).unwrap();
            let r = ap.alloc_field(12).unwrap();
            let sq = ap.alloc_field(12).unwrap();
            ap.load(a, &xs).unwrap();
            ap.load(b, &ys).unwrap();
            ap.mul(a, b, r).unwrap();
            ap.square(b, sq).unwrap();
            (ap.read(r), ap.read(sq))
        });
    }

    #[test]
    fn logic_ops_agree(
        xs in prop::collection::vec(0u64..256, 1..32),
        ys in prop::collection::vec(0u64..64, 1..32),
    ) {
        // Deliberately unequal operand widths (8 vs 6) to cover the
        // zero-extension paths of the bitwise engine.
        let (xs, ys) = truncate_pairs(&xs, &ys);
        assert_backends_agree(xs.len(), 64, |ap| {
            let a = ap.alloc_field(8).unwrap();
            let b = ap.alloc_field(6).unwrap();
            let rx = ap.alloc_field(8).unwrap();
            let ra = ap.alloc_field(8).unwrap();
            let ro = ap.alloc_field(8).unwrap();
            let rn = ap.alloc_field(8).unwrap();
            ap.load(a, &xs).unwrap();
            ap.load(b, &ys).unwrap();
            ap.xor(a, b, rx).unwrap();
            ap.and(a, b, ra).unwrap();
            ap.or(a, b, ro).unwrap();
            ap.not(a, rn).unwrap();
            (ap.read(rx), ap.read(ra), ap.read(ro), ap.read(rn))
        });
    }

    #[test]
    fn copy_agrees(xs in prop::collection::vec(0u64..4096, 1..32)) {
        assert_backends_agree(xs.len(), 40, |ap| {
            let src = ap.alloc_field(12).unwrap();
            let dst = ap.alloc_field(16).unwrap();
            ap.load(src, &xs).unwrap();
            ap.broadcast(dst, 0xFFFF).unwrap();
            ap.copy(src, dst).unwrap();
            ap.read(dst)
        });
    }

    /// Amounts up to 31 over a 10-bit field: amount bits 4 and up
    /// weigh at least the width, so they clear the field.
    #[test]
    fn shifts_agree(
        xs in prop::collection::vec(0u64..1024, 1..24),
        ss in prop::collection::vec(0u64..32, 1..24),
        k in 0usize..12,
    ) {
        let (xs, ss) = truncate_pairs(&xs, &ss);
        assert_backends_agree(xs.len(), 32, |ap| {
            let f = ap.alloc_field(10).unwrap();
            let amt = ap.alloc_field(5).unwrap();
            ap.load(f, &xs).unwrap();
            ap.load(amt, &ss).unwrap();
            ap.shr_variable(f, amt).unwrap();
            ap.shr_const(f, k).unwrap();
            ap.read(f)
        });
    }

    #[test]
    fn searches_agree(xs in prop::collection::vec(0u64..4096, 1..64)) {
        assert_backends_agree(xs.len(), 16, |ap| {
            let f = ap.alloc_field(12).unwrap();
            ap.load(f, &xs).unwrap();
            let (max, max_rows) = ap.max_search(f);
            let (min, min_rows) = ap.min_search(f);
            (
                max,
                min,
                max_rows.iter_set().collect::<Vec<_>>(),
                min_rows.iter_set().collect::<Vec<_>>(),
            )
        });
    }

    #[test]
    fn reductions_agree_in_every_overflow_mode(
        xs in prop::collection::vec(0u64..256, 1..301),
        pick in any::<u64>(),
        shift in 0u32..3,
    ) {
        // Up to 300 rows and any segment length dividing them, so
        // segments straddle 64-row blocks and tail masks; `shift` thins
        // the values so that some segments fit the sum field and others
        // overflow it.
        let data: Vec<u64> = xs.iter().map(|x| x >> (3 * shift)).collect();
        let n = data.len();
        let divisors: Vec<usize> = (1..=n).filter(|&d| n.is_multiple_of(d)).collect();
        let seg = divisors[(pick % divisors.len() as u64) as usize];
        for mode in [Overflow::Error, Overflow::Saturate, Overflow::Wrap] {
            let data = data.clone();
            assert_backends_agree(data.len(), 32, move |ap| {
                let f = ap.alloc_field(8).unwrap();
                // Narrow sum field so Saturate/Wrap actually fire.
                let sum = ap.alloc_field(9).unwrap();
                ap.load(f, &data).unwrap();
                ap.reduce_sum_2d_mode(f, sum, seg, mode)
            });
        }
    }

    #[test]
    fn divide_agrees_in_both_styles(
        ns in prop::collection::vec(0u64..256, 1..8),
        ds in prop::collection::vec(1u64..256, 1..8),
        frac in 0usize..6,
    ) {
        let (ns, ds) = truncate_pairs(&ns, &ds);
        for style in [DivStyle::Restoring, DivStyle::ControllerReciprocal] {
            let (ns, ds) = (ns.clone(), ds.clone());
            assert_backends_agree(ns.len(), 96, move |ap| {
                let num = ap.alloc_field(8).unwrap();
                let den = ap.alloc_field(8).unwrap();
                let quot = ap.alloc_field(14).unwrap();
                ap.load(num, &ns).unwrap();
                ap.load(den, &ds).unwrap();
                ap.divide(num, den, quot, frac, style).unwrap();
                ap.read(quot)
            });
        }
    }

    #[test]
    fn divide_saturation_agrees(
        ns in prop::collection::vec(100u64..256, 1..8),
        ds in prop::collection::vec(1u64..4, 1..8),
    ) {
        // Narrow quotient field: quotient bits land above the field and
        // exercise the saturation branch on both backends.
        let (ns, ds) = truncate_pairs(&ns, &ds);
        assert_backends_agree(ns.len(), 80, |ap| {
            let num = ap.alloc_field(8).unwrap();
            let den = ap.alloc_field(4).unwrap();
            let quot = ap.alloc_field(4).unwrap();
            ap.load(num, &ns).unwrap();
            ap.load(den, &ds).unwrap();
            ap.divide(num, den, quot, 0, DivStyle::Restoring).unwrap();
            ap.read(quot)
        });
    }

    #[test]
    fn dot_agrees(
        xs in prop::collection::vec(0u64..64, 2..32),
        ys in prop::collection::vec(0u64..64, 2..32),
    ) {
        let (xs, ys) = truncate_pairs(&xs, &ys);
        assert_backends_agree(xs.len(), 64, |ap| {
            let a = ap.alloc_field(6).unwrap();
            let b = ap.alloc_field(6).unwrap();
            let prod = ap.alloc_field(12).unwrap();
            let sum = ap.alloc_field(18).unwrap();
            ap.load(a, &xs).unwrap();
            ap.load(b, &ys).unwrap();
            ap.dot(a, b, prod, sum).unwrap()
        });
    }

    #[test]
    fn pooled_tiles_agree_across_reuse(
        xs in prop::collection::vec(0u64..64, 2..24),
        ys in prop::collection::vec(1u64..64, 2..24),
    ) {
        // The pooled/arena path: both backends execute the same
        // program repeatedly through ONE reused ApTile each. Every
        // round must be bit- and cycle-identical between backends and
        // to a fresh-core run (no residual state across acquisitions).
        let (xs, ys) = truncate_pairs(&xs, &ys);
        let rows = xs.len();
        let cols = 64;
        let program = |ap: &mut ApCore| {
            let a = ap.alloc_field(6).unwrap();
            let b = ap.alloc_field(6).unwrap();
            let p = ap.alloc_field(12).unwrap();
            let q = ap.alloc_field(8).unwrap();
            ap.load(a, &xs).unwrap();
            ap.load(b, &ys).unwrap();
            ap.mul(a, b, p).unwrap();
            ap.shr_const(p, 1).unwrap();
            ap.add_into(p.sub(0, 8), a).unwrap();
            ap.divide(p.sub(0, 8), b, q, 1, DivStyle::Restoring).unwrap();
            (ap.read(p), ap.read(q), ap.stats())
        };
        let mut fresh = ApCore::with_backend(ApConfig::new(rows, cols), ExecBackend::Microcode)
            .expect("fresh core");
        let reference = program(&mut fresh);
        let mut micro_tile = ApTile::new();
        let mut fast_tile = ApTile::new();
        for round in 0..3 {
            let rm = program(
                micro_tile
                    .acquire(ApConfig::new(rows, cols), ExecBackend::Microcode)
                    .unwrap(),
            );
            let rf = program(
                fast_tile
                    .acquire(ApConfig::new(rows, cols), ExecBackend::FastWord)
                    .unwrap(),
            );
            prop_assert_eq!(&rm, &rf, "backends diverge on round {}", round);
            prop_assert_eq!(&rm, &reference, "tile reuse leaks state on round {}", round);
            // Plane state (incl. carry/flag columns) must match too.
            let (mc, fc) = (
                micro_tile.core().unwrap().cam(),
                fast_tile.core().unwrap().cam(),
            );
            for col in 0..cols {
                prop_assert_eq!(mc.plane(col), fc.plane(col), "plane {} diverges", col);
            }
        }
    }

    #[test]
    fn mixed_program_agrees(
        xs in prop::collection::vec(0u64..64, 2..24),
        ys in prop::collection::vec(1u64..64, 2..24),
    ) {
        // A longer compound program: state (including the reserved
        // carry/flag columns) must track exactly across many ops.
        let (xs, ys) = truncate_pairs(&xs, &ys);
        assert_backends_agree(xs.len(), 96, |ap| {
            let a = ap.alloc_field(6).unwrap();
            let b = ap.alloc_field(6).unwrap();
            let p = ap.alloc_field(12).unwrap();
            let q = ap.alloc_field(10).unwrap();
            ap.load(a, &xs).unwrap();
            ap.load(b, &ys).unwrap();
            ap.mul(a, b, p).unwrap();
            ap.shr_const(p, 2).unwrap();
            let borrow = ap.sub_into(p.sub(0, 6), b).unwrap();
            let _ = borrow.count();
            ap.add_into(p.sub(0, 8), a).unwrap();
            ap.divide(p.sub(0, 8), b, q, 2, DivStyle::Restoring).unwrap();
            let (mx, _) = ap.max_search(q);
            (ap.read(p), ap.read(q), mx)
        });
    }
}

#[test]
fn stats_equal_including_event_split() {
    // Deterministic spot check that the equality above is meaningful:
    // a nontrivial program charges nonzero counters of every kind.
    let mut fast = ApCore::with_backend(ApConfig::new(8, 64), ExecBackend::FastWord).expect("core");
    let a = fast.alloc_field(6).unwrap();
    let b = fast.alloc_field(6).unwrap();
    let r = fast.alloc_field(12).unwrap();
    let s = fast.alloc_field(16).unwrap();
    fast.load(a, &[1, 2, 3, 4, 5, 6, 7, 8]).unwrap();
    fast.load(b, &[8, 7, 6, 5, 4, 3, 2, 1]).unwrap();
    fast.mul(a, b, r).unwrap();
    fast.reduce_sum_2d(r, s, 8).unwrap();
    let st: CycleStats = fast.stats();
    assert!(st.compare_cycles() > 0);
    assert!(st.write_cycles() > 0);
    assert!(st.twod_cycles() > 0);
    assert!(st.compare_cell_events() > 0);
    assert!(st.write_cell_events() > 0);
}

/// Fields wider than 64 bits, on both backends: a `u64` value holds
/// zeros at and above bit 64 (broadcast, poke), a `u64` read holds the
/// low 64 bits, and an amount bit whose weight reaches the field width
/// clears the field — bit 64 too.
#[test]
fn fields_wider_than_64_bits_agree() {
    assert_backends_agree(4, 240, |ap| {
        let wide = ap.alloc_field(80).unwrap();
        ap.broadcast(wide, u64::MAX - 2).unwrap();
        ap.poke_row(1, wide, 5);
        assert_eq!(ap.read_row(1, wide), 5, "{:?}", ap.backend());
        let high = (64..80).map(|i| ap.cam().plane(wide.col(i)).to_vec());
        assert!(high.flatten().all(|w| w == 0), "{:?}", ap.backend());
        let f = ap.alloc_field(8).unwrap();
        let a = ap.alloc_field(40).unwrap();
        let b = ap.alloc_field(26).unwrap();
        let amt = ap.alloc_field(80).unwrap();
        ap.load(f, &[0xff; 4]).unwrap();
        ap.load(a, &[1 << 39, 1 << 39, 3, 0]).unwrap();
        ap.load(b, &[1 << 25, 1, 1, 5]).unwrap();
        // Row 0's amount is 2^64: only amount bit 64 is set.
        ap.mul(a, b, amt).unwrap();
        ap.shr_variable(f, amt).unwrap();
        assert_eq!(ap.read(f), vec![0, 0, 31, 0xff], "{:?}", ap.backend());
        (ap.read(wide), ap.read(f))
    });
}

#[test]
fn backend_switch_preserves_state() {
    let default = ApCore::new(ApConfig::new(4, 24)).expect("core");
    assert_eq!(default.backend(), ExecBackend::FastWord);
    assert_eq!(ExecBackend::default(), ExecBackend::FastWord);
    let mut ap = ApCore::with_backend(ApConfig::new(4, 24), ExecBackend::Microcode).expect("core");
    let f = ap.alloc_field(8).unwrap();
    ap.load(f, &[1, 2, 3, 4]).unwrap();
    assert_eq!(ap.backend(), ExecBackend::Microcode);
    ap.set_backend(ExecBackend::FastWord);
    let acc = ap.alloc_field(9).unwrap();
    ap.load(acc, &[10, 20, 30, 40]).unwrap();
    ap.add_into(acc, f).unwrap();
    assert_eq!(ap.read(acc), vec![11, 22, 33, 44]);
}

#[test]
fn field_geometry_survives_both_backends() {
    for backend in [ExecBackend::Microcode, ExecBackend::FastWord] {
        let mut ap = ApCore::with_backend(ApConfig::new(2, 8), backend).expect("core");
        let f: Field = ap.alloc_field(6).unwrap();
        assert_eq!(f.width(), 6);
        assert!(ap.alloc_field(1).is_err());
    }
}
