//! Bench + regeneration of Table II (AP primitive runtimes): times the
//! simulator executing each primitive's microcode and prints the
//! formula-vs-measured table once.

use criterion::{criterion_group, criterion_main, Criterion};
use softmap_ap::{ApConfig, ApCore, DivStyle, ExecBackend};
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    println!(
        "{}",
        softmap_eval::table2::render(&softmap_eval::table2::run())
    );

    let rows = 1024usize;
    let data: Vec<u64> = (0..rows as u64).map(|i| i % 64).collect();

    c.bench_function("table2/add_m6", |b| {
        b.iter(|| {
            let mut ap =
                ApCore::with_backend(ApConfig::new(rows, 24), ExecBackend::Microcode).unwrap();
            let x = ap.alloc_field(6).unwrap();
            let acc = ap.alloc_field(7).unwrap();
            ap.load(x, &data).unwrap();
            ap.load(acc.sub(0, 6), &data).unwrap();
            ap.add_into(acc, x).unwrap();
            black_box(ap.stats().cycles())
        })
    });
    c.bench_function("table2/mul_m6", |b| {
        b.iter(|| {
            let mut ap =
                ApCore::with_backend(ApConfig::new(rows, 32), ExecBackend::Microcode).unwrap();
            let x = ap.alloc_field(6).unwrap();
            let y = ap.alloc_field(6).unwrap();
            let r = ap.alloc_field(12).unwrap();
            ap.load(x, &data).unwrap();
            ap.load(y, &data).unwrap();
            ap.mul(x, y, r).unwrap();
            black_box(ap.stats().cycles())
        })
    });
    c.bench_function("table2/reduce_2048", |b| {
        b.iter(|| {
            let mut ap =
                ApCore::with_backend(ApConfig::new(rows, 32), ExecBackend::Microcode).unwrap();
            let x = ap.alloc_field(6).unwrap();
            let s = ap.alloc_field(18).unwrap();
            ap.load(x, &data).unwrap();
            black_box(ap.reduce_sum_2d(x, s, rows).unwrap())
        })
    });
    c.bench_function("table2/divide_m6", |b| {
        b.iter(|| {
            let mut ap =
                ApCore::with_backend(ApConfig::new(256, 96), ExecBackend::Microcode).unwrap();
            let n = ap.alloc_field(12).unwrap();
            let d = ap.alloc_field(12).unwrap();
            let q = ap.alloc_field(24).unwrap();
            ap.load(n, &data[..256]).unwrap();
            ap.broadcast(d, 63).unwrap();
            ap.divide(n, d, q, 12, DivStyle::Restoring).unwrap();
            black_box(ap.stats().cycles())
        })
    });
}

criterion_group!(benches, bench);
criterion_main!(benches);
