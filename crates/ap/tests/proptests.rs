//! Property-based tests: the AP microcode must agree with ordinary
//! integer arithmetic for arbitrary operands and widths.

use proptest::prelude::*;
use softmap_ap::{ApConfig, ApCore, DivStyle, ExecBackend};

fn core(rows: usize, cols: usize) -> ApCore {
    ApCore::with_backend(ApConfig::new(rows, cols), ExecBackend::Microcode).unwrap()
}

/// One of `n`'s divisors, chosen by `pick`.
fn divisor(n: usize, pick: u64) -> usize {
    let divisors: Vec<usize> = (1..=n).filter(|&d| n.is_multiple_of(d)).collect();
    divisors[(pick % divisors.len() as u64) as usize]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn add_matches_integer_addition(
        xs in prop::collection::vec(0u64..256, 1..32),
        ys in prop::collection::vec(0u64..256, 1..32),
    ) {
        let n = xs.len().min(ys.len());
        let xs = &xs[..n];
        let ys = &ys[..n];
        let mut ap = core(n, 32);
        let a = ap.alloc_field(8).unwrap();
        let acc = ap.alloc_field(9).unwrap();
        ap.load(a, xs).unwrap();
        ap.load(acc, ys).unwrap();
        ap.add_into(acc, a).unwrap();
        let out = ap.read(acc);
        for i in 0..n {
            prop_assert_eq!(out[i], xs[i] + ys[i]);
        }
    }

    #[test]
    fn sub_matches_wrapping_subtraction(
        xs in prop::collection::vec(0u64..256, 1..32),
        ys in prop::collection::vec(0u64..256, 1..32),
    ) {
        let n = xs.len().min(ys.len());
        let xs = &xs[..n];
        let ys = &ys[..n];
        let mut ap = core(n, 32);
        let a = ap.alloc_field(8).unwrap();
        let acc = ap.alloc_field(8).unwrap();
        ap.load(a, xs).unwrap();
        ap.load(acc, ys).unwrap();
        let borrow = ap.sub_into(acc, a).unwrap();
        let out = ap.read(acc);
        for i in 0..n {
            let expect = (256 + ys[i] - xs[i]) % 256;
            prop_assert_eq!(out[i], expect);
            prop_assert_eq!(borrow.get(i), ys[i] < xs[i]);
        }
    }

    #[test]
    fn mul_matches_integer_multiplication(
        xs in prop::collection::vec(0u64..64, 1..24),
        ys in prop::collection::vec(0u64..64, 1..24),
    ) {
        let n = xs.len().min(ys.len());
        let xs = &xs[..n];
        let ys = &ys[..n];
        let mut ap = core(n, 40);
        let a = ap.alloc_field(6).unwrap();
        let b = ap.alloc_field(6).unwrap();
        let r = ap.alloc_field(12).unwrap();
        ap.load(a, xs).unwrap();
        ap.load(b, ys).unwrap();
        ap.mul(a, b, r).unwrap();
        let out = ap.read(r);
        for i in 0..n {
            prop_assert_eq!(out[i], xs[i] * ys[i]);
        }
    }

    #[test]
    fn xor_matches_bitwise_xor(
        xs in prop::collection::vec(0u64..256, 1..32),
        ys in prop::collection::vec(0u64..256, 1..32),
    ) {
        let n = xs.len().min(ys.len());
        let xs = &xs[..n];
        let ys = &ys[..n];
        let mut ap = core(n, 32);
        let a = ap.alloc_field(8).unwrap();
        let b = ap.alloc_field(8).unwrap();
        let r = ap.alloc_field(8).unwrap();
        ap.load(a, xs).unwrap();
        ap.load(b, ys).unwrap();
        ap.xor(a, b, r).unwrap();
        let out = ap.read(r);
        for i in 0..n {
            prop_assert_eq!(out[i], xs[i] ^ ys[i]);
        }
    }

    #[test]
    fn variable_shift_matches_shr(
        xs in prop::collection::vec(0u64..1024, 1..16),
        ss in prop::collection::vec(0u64..16, 1..16),
    ) {
        let n = xs.len().min(ss.len());
        let xs = &xs[..n];
        let ss = &ss[..n];
        let mut ap = core(n, 24);
        let f = ap.alloc_field(10).unwrap();
        let amt = ap.alloc_field(4).unwrap();
        ap.load(f, xs).unwrap();
        ap.load(amt, ss).unwrap();
        ap.shr_variable(f, amt).unwrap();
        let out = ap.read(f);
        for i in 0..n {
            prop_assert_eq!(out[i], xs[i] >> ss[i]);
        }
    }

    #[test]
    fn restoring_division_matches_fixed_point(
        ns in prop::collection::vec(0u64..256, 1..8),
        ds in prop::collection::vec(1u64..256, 1..8),
        frac in 0usize..6,
    ) {
        let n = ns.len().min(ds.len());
        let ns = &ns[..n];
        let ds = &ds[..n];
        let mut ap = core(n, 80);
        let num = ap.alloc_field(8).unwrap();
        let den = ap.alloc_field(8).unwrap();
        let quot = ap.alloc_field(14).unwrap();
        ap.load(num, ns).unwrap();
        ap.load(den, ds).unwrap();
        ap.divide(num, den, quot, frac, DivStyle::Restoring).unwrap();
        let out = ap.read(quot);
        for i in 0..n {
            let exact = (ns[i] << frac) / ds[i];
            let expect = exact.min(quot.max_value());
            prop_assert_eq!(out[i], expect, "num={} den={} frac={}", ns[i], ds[i], frac);
        }
    }

    #[test]
    fn reciprocal_division_within_one_ulp(
        ns in prop::collection::vec(0u64..256, 1..8),
        d in 1u64..256,
        frac in 0usize..8,
    ) {
        let n = ns.len();
        let mut ap = core(n, 96);
        let num = ap.alloc_field(8).unwrap();
        let den = ap.alloc_field(8).unwrap();
        let quot = ap.alloc_field(16).unwrap();
        ap.load(num, &ns).unwrap();
        ap.load(den, &vec![d; n]).unwrap();
        ap.divide(num, den, quot, frac, DivStyle::ControllerReciprocal).unwrap();
        let out = ap.read(quot);
        for i in 0..n {
            let exact = ((ns[i] << frac) / d).min(quot.max_value());
            prop_assert!(out[i] <= exact && exact - out[i] <= 1,
                "num={} den={} frac={} got={} exact={}", ns[i], d, frac, out[i], exact);
        }
    }

    #[test]
    fn max_search_matches_iterator_max(
        xs in prop::collection::vec(0u64..4096, 1..64),
    ) {
        let mut ap = core(xs.len(), 16);
        let f = ap.alloc_field(12).unwrap();
        ap.load(f, &xs).unwrap();
        let (max, rows) = ap.max_search(f);
        let expect = xs.iter().copied().max().unwrap();
        prop_assert_eq!(max, expect);
        for r in rows.iter_set() {
            prop_assert_eq!(xs[r], expect);
        }
        prop_assert_eq!(rows.count(), xs.iter().filter(|&&x| x == expect).count());
    }

    #[test]
    fn reduction_matches_sum(
        data in prop::collection::vec(0u64..256, 1..301),
        pick in any::<u64>(),
    ) {
        // Up to 300 rows, so segments straddle 64-row blocks (96 of
        // 192, 100 of 300) and end in partial tail blocks. The 17-bit
        // sum field holds 300 · 255.
        let seg = divisor(data.len(), pick);
        let mut ap = core(data.len(), 32);
        let f = ap.alloc_field(8).unwrap();
        let sum = ap.alloc_field(17).unwrap();
        ap.load(f, &data).unwrap();
        let sums = ap.reduce_sum_2d(f, sum, seg).unwrap();
        prop_assert_eq!(sums.len(), data.len() / seg);
        for (i, chunk) in data.chunks(seg).enumerate() {
            prop_assert_eq!(sums[i], chunk.iter().sum::<u64>());
            prop_assert_eq!(ap.read_row(i * seg, sum), sums[i]);
        }
    }

    #[test]
    fn width64_fields_roundtrip_end_to_end(
        xs in prop::collection::vec(any::<u64>(), 1..40),
        constant in any::<u64>(),
        poke in any::<u64>(),
    ) {
        // A full-width 64-bit field: `Field::max_value()` saturates to
        // u64::MAX, so the load overflow check can reject nothing, and
        // every per-bit shift path (load transpose, read, broadcast,
        // poke) must stay below the shift-overflow boundary.
        let n = xs.len();
        let mut ap = core(n, 67);
        let f = ap.alloc_field(64).unwrap();
        prop_assert_eq!(f.max_value(), u64::MAX);
        ap.load(f, &xs).unwrap();
        prop_assert_eq!(ap.read(f), xs.clone());
        for (row, &x) in xs.iter().enumerate() {
            prop_assert_eq!(ap.read_row(row, f), x);
        }
        ap.broadcast(f, constant).unwrap();
        prop_assert_eq!(ap.read(f), vec![constant; n]);
        ap.poke_row(0, f, poke);
        prop_assert_eq!(ap.read_row(0, f), poke);
        if n > 1 {
            prop_assert_eq!(ap.read_row(1, f), constant, "poke must not leak");
        }
    }

    /// `load_field` and `read_field_append` share one transpose among
    /// the 64-row blocks of a narrow field (lanes of 8, 16, 32 or 64
    /// bits). At every width 1–64, a prefix of the rows is loaded over
    /// a pre-filled field, so the valid-mask blend runs across the
    /// blocks that share a transpose; the read-back must equal the
    /// input words and the planes, cell by cell.
    #[test]
    fn packed_transposes_match_cells_at_every_width(
        rows in 1usize..701,
        prefix in any::<u64>(),
        raw in prop::collection::vec(any::<u64>(), 1400..1401),
    ) {
        let n = (prefix % (rows as u64 + 1)) as usize;
        for width in 1..=64 {
            let mask = u64::MAX >> (64 - width);
            let fill: Vec<u64> = raw[..rows].iter().map(|&w| w & mask).collect();
            let words: Vec<u64> = raw[700..700 + n].iter().map(|&w| w & mask).collect();
            let mut ap = core(rows, width + 2);
            let f = ap.alloc_field(width).unwrap();
            ap.load(f, &fill).unwrap();
            ap.load(f, &words).unwrap();
            let out = ap.read(f);
            let expect: Vec<u64> = words.iter().chain(&fill[n..]).copied().collect();
            prop_assert_eq!(&out, &expect, "width {}, {} of {} rows loaded", width, n, rows);
            for (r, &word) in out.iter().enumerate() {
                let cells = (0..width).fold(0u64, |acc, b| {
                    acc | (ap.cam().plane(f.col(b))[r / 64] >> (r % 64) & 1) << b
                });
                prop_assert_eq!(word, cells, "width {}, row {} of {}", width, r, rows);
            }
        }
    }

    #[test]
    fn arena_io_handles_rows_not_divisible_by_64(
        rows_minus_one in 0usize..200,
        fill in 0u64..256,
        loaded in prop::collection::vec(0u64..256, 1..200),
    ) {
        // Partial final arena blocks: load fewer words than rows at an
        // arbitrary (often non-multiple-of-64) row count, and check the
        // blend, the read-back, and a bystander column's isolation.
        let rows = rows_minus_one + 1;
        let n = loaded.len().min(rows);
        let loaded = &loaded[..n];
        let mut ap = core(rows, 20);
        let bystander = ap.alloc_field(8).unwrap();
        let f = ap.alloc_field(8).unwrap();
        let by_data: Vec<u64> = (0..rows as u64).map(|i| i % 251).collect();
        ap.load(bystander, &by_data).unwrap();
        ap.broadcast(f, fill).unwrap();
        ap.load(f, loaded).unwrap();
        let out = ap.read(f);
        prop_assert_eq!(out.len(), rows);
        for (i, &v) in loaded.iter().enumerate() {
            prop_assert_eq!(out[i], v, "loaded row {}", i);
        }
        for (i, &v) in out.iter().enumerate().skip(n) {
            prop_assert_eq!(v, fill, "unloaded row {} must keep contents", i);
        }
        prop_assert_eq!(ap.read(bystander), by_data);
    }

    #[test]
    fn operations_never_touch_unrelated_fields(
        xs in prop::collection::vec(0u64..64, 4..16),
        ys in prop::collection::vec(0u64..64, 4..16),
    ) {
        let n = xs.len().min(ys.len());
        let xs = &xs[..n];
        let ys = &ys[..n];
        let mut ap = core(n, 48);
        let bystander = ap.alloc_field(6).unwrap();
        let a = ap.alloc_field(6).unwrap();
        let acc = ap.alloc_field(13).unwrap();
        ap.load(bystander, xs).unwrap();
        ap.load(a, ys).unwrap();
        ap.broadcast(acc, 0).unwrap();
        ap.add_into(acc, a).unwrap();
        ap.mul(a, a, acc).unwrap();
        prop_assert_eq!(ap.read(bystander), xs.to_vec());
    }
}
