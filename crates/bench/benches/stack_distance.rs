//! Throughput of the trace-analysis substrate: exact stack distances
//! (Bennett–Kruskal: a flat block table plus a hole bitset over a
//! word-level Fenwick tree) vs the naive LRU-stack reference, and the
//! (α, β) fitter.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use memhier_trace::{fit_locality, NaiveStackDistance, StackDistanceAnalyzer, SyntheticTrace};
use std::hint::black_box;

fn trace(n: usize) -> Vec<u64> {
    SyntheticTrace::new(1.3, 2000.0, 64, 42).take(n).collect()
}

fn bench_exact(c: &mut Criterion) {
    let mut g = c.benchmark_group("stack_distance");
    for &n in &[10_000usize, 100_000, 1_000_000] {
        let t = trace(n);
        g.throughput(Throughput::Elements(n as u64));
        g.bench_with_input(BenchmarkId::new("fenwick", n), &t, |b, t| {
            b.iter(|| {
                let mut an = StackDistanceAnalyzer::new(64);
                for &a in t {
                    black_box(an.access(a));
                }
                an.unique_blocks()
            })
        });
    }
    // The naive O(M·B) reference only at a feasible size.
    let t = trace(10_000);
    g.throughput(Throughput::Elements(10_000));
    g.bench_with_input(BenchmarkId::new("naive", 10_000usize), &t, |b, t| {
        b.iter(|| {
            let mut an = NaiveStackDistance::new(64);
            for &a in t {
                black_box(an.access(a));
            }
        })
    });
    g.finish();
}

fn bench_fit(c: &mut Criterion) {
    let mut an = StackDistanceAnalyzer::new(64);
    for a in trace(200_000) {
        an.access(a);
    }
    let cdf = an.histogram().cdf_points();
    c.bench_function("fit_locality", |b| {
        b.iter(|| fit_locality(black_box(&cdf)).unwrap())
    });
}

criterion_group!(benches, bench_exact, bench_fit);
criterion_main!(benches);
