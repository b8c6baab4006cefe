//! Criterion benches for the PRAM primitives of Section III: prefix sums
//! (Lemma 3), parallel merge sort, inversion counting/reporting (Lemma 4)
//! and segment-tree partitioning (Step 2). These back the paper's claim
//! that the whole algorithm reduces to sorting + scans.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use polyclip::parprim::{
    count_inversions, inclusive_scan, par_count_inversions, par_inclusive_scan, par_merge_sort,
    report_inversions,
};
use polyclip::segtree::{SegmentTree, TreeScratch};

fn data(n: usize) -> Vec<u64> {
    let mut s = 0x243f6a8885a308d3u64;
    (0..n)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s % 1_000_000
        })
        .collect()
}

fn bench_scan(c: &mut Criterion) {
    let mut g = c.benchmark_group("scan");
    g.sample_size(20);
    for n in [10_000usize, 100_000, 1_000_000] {
        let xs = data(n);
        g.bench_with_input(BenchmarkId::new("seq", n), &n, |b, _| {
            b.iter(|| inclusive_scan(&xs, |a, b| a + b))
        });
        g.bench_with_input(BenchmarkId::new("par", n), &n, |b, _| {
            b.iter(|| par_inclusive_scan(&xs, |a, b| a + b))
        });
    }
    g.finish();
}

fn bench_sort(c: &mut Criterion) {
    let mut g = c.benchmark_group("merge_sort");
    g.sample_size(10);
    for n in [100_000usize, 1_000_000] {
        let xs = data(n);
        g.bench_with_input(BenchmarkId::new("par_merge_sort", n), &n, |b, _| {
            b.iter(|| {
                let mut v = xs.clone();
                par_merge_sort(&mut v, |a, b| a.cmp(b));
                v
            })
        });
        g.bench_with_input(BenchmarkId::new("std_sort", n), &n, |b, _| {
            b.iter(|| {
                let mut v = xs.clone();
                v.sort_unstable();
                v
            })
        });
    }
    g.finish();
}

fn bench_inversions(c: &mut Criterion) {
    let mut g = c.benchmark_group("inversions");
    g.sample_size(10);
    for n in [10_000usize, 100_000] {
        let xs = data(n);
        g.bench_with_input(BenchmarkId::new("count_seq", n), &n, |b, _| {
            b.iter(|| count_inversions(&xs))
        });
        g.bench_with_input(BenchmarkId::new("count_par", n), &n, |b, _| {
            b.iter(|| par_count_inversions(&xs))
        });
    }
    // Reporting is output-sensitive: near-sorted input, sparse inversions.
    let mut nearly: Vec<u64> = (0..100_000u64).collect();
    for i in (0..nearly.len()).step_by(1000) {
        nearly.swap(i, i + 7);
    }
    g.bench_function("report_sparse_100k", |b| {
        b.iter(|| report_inversions(&nearly))
    });
    g.finish();
}

fn bench_segtree(c: &mut Criterion) {
    let mut g = c.benchmark_group("segtree");
    g.sample_size(10);
    for n in [10_000usize, 100_000] {
        let intervals: Vec<(usize, usize)> = data(n)
            .iter()
            .map(|&x| {
                let a = (x % n as u64) as usize;
                let b = a + 1 + (x % 64) as usize;
                (a, b.min(n))
            })
            .collect();
        g.bench_with_input(BenchmarkId::new("build_seq", n), &n, |b, _| {
            b.iter(|| SegmentTree::build(n, &intervals))
        });
        g.bench_with_input(BenchmarkId::new("build_par", n), &n, |b, _| {
            b.iter(|| SegmentTree::build_in(n, &intervals, true, &mut TreeScratch::default()))
        });
        let tree = SegmentTree::build(n, &intervals);
        g.bench_with_input(BenchmarkId::new("stab_all", n), &n, |b, _| {
            b.iter(|| tree.par_stab_all())
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_scan,
    bench_sort,
    bench_inversions,
    bench_segtree
);
criterion_main!(benches);
