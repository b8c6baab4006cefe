//! Ablation benches for the design choices DESIGN.md calls out:
//!
//! * Step-2 partition backend: direct scan vs segment tree (§III-E);
//! * slab assignment: the paper's replication vs unique-owner;
//! * Algorithm-2 cell plan: one cell per slab on the calling thread vs
//!   refined cells on the work-stealing pool;
//! * output sensitivity: fixed n, increasing overlap (and therefore k) —
//!   the work must track k, not n² (the paper's core claim vs Karinthi
//!   et al.).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use polyclip::datagen::{smooth_blob, synthetic_pair};
use polyclip::prelude::*;
use polyclip::sweep::PartitionBackend;
use polyclip_bench::layer;

fn bench_partition_backend(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_partition_backend");
    g.sample_size(10);
    let (a, b) = synthetic_pair(20_000, 42);
    for (name, backend) in [
        ("direct_scan", PartitionBackend::DirectScan),
        ("segment_tree", PartitionBackend::SegmentTree),
    ] {
        let opts = ClipOptions {
            backend,
            parallel: false,
            ..Default::default()
        };
        g.bench_function(name, |bch| {
            bch.iter(|| clip(&a, &b, BoolOp::Intersection, &opts))
        });
    }
    g.finish();
}

fn bench_slab_assignment(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_slab_assignment");
    g.sample_size(10);
    let opts = ClipOptions::sequential();
    let a = layer(1, 0.005, 1007);
    let b = layer(2, 0.005, 2007);
    for (name, assignment) in [
        ("replicate", SlabAssignment::Replicate),
        ("unique_owner", SlabAssignment::UniqueOwner),
    ] {
        g.bench_with_input(BenchmarkId::new(name, 8), &assignment, |bch, &asg| {
            bch.iter(|| overlay_intersection(&a, &b, 8, asg, &opts))
        });
    }
    g.finish();
}

fn bench_output_sensitivity(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_output_sensitivity");
    g.sample_size(10);
    let seq = ClipOptions::sequential();
    let n = 8_000;
    let a = smooth_blob(5, Point::new(0.0, 0.0), 1.0, n, 0.3);
    // Increasing overlap: k grows while n stays fixed.
    for (name, dx) in [
        ("disjoint", 3.0),
        ("touching", 1.9),
        ("half", 1.0),
        ("deep", 0.3),
    ] {
        let b = smooth_blob(9, Point::new(dx, 0.05), 1.0, n, 0.3);
        let (_, stats) = clip_with_stats(&a, &b, BoolOp::Intersection, &seq);
        let id = format!("{name}_k{}", stats.k_intersections);
        g.bench_function(&id, |bch| {
            bch.iter(|| clip(&a, &b, BoolOp::Intersection, &seq))
        });
    }
    g.finish();
}

fn bench_algo2_grid_plan(c: &mut Criterion) {
    // The unrefined plan (one cell per event-quantile slab, run in slab
    // order on the calling thread) vs the refining plan (heavy slabs split
    // into ~6 cells per worker on the work-stealing pool).
    let mut g = c.benchmark_group("ablation_algo2_grid_plan");
    g.sample_size(10);
    let (a, b) = synthetic_pair(40_000, 42);
    for (name, grid) in [
        ("slab_index", GridConfig::default()),
        ("adaptive_grid", GridConfig::refined()),
    ] {
        let opts = ClipOptions {
            grid,
            ..ClipOptions::sequential()
        };
        for slabs in [4usize, 16] {
            g.bench_with_input(BenchmarkId::new(name, slabs), &slabs, |bch, &p| {
                bch.iter(|| clip_pair_slabs(&a, &b, BoolOp::Union, p, &opts))
            });
        }
    }
    g.finish();
}

fn bench_intersection_discovery(c: &mut Criterion) {
    // Lemma 4's inversion-based discovery vs the classical Bentley–Ottmann
    // sweep (paper §II's reference line-intersection approach).
    use polyclip::sweep::{
        bentley_ottmann, collect_edges, discover_intersections, event_ys, BeamSet, ForcedSplits,
        PartitionBackend as PB,
    };
    let mut g = c.benchmark_group("ablation_intersection_discovery");
    g.sample_size(10);
    for n in [2_000usize, 8_000] {
        let (a, b) = synthetic_pair(n, 42);
        let edges = collect_edges(&a, &b);
        g.bench_with_input(BenchmarkId::new("inversions", n), &n, |bch, _| {
            bch.iter(|| {
                let ys = event_ys(&edges, &[], false);
                let beams = BeamSet::build(
                    &edges,
                    ys,
                    &ForcedSplits::empty(edges.len()),
                    PB::DirectScan,
                    false,
                );
                discover_intersections(&beams, &edges, false)
            })
        });
        g.bench_with_input(BenchmarkId::new("bentley_ottmann", n), &n, |bch, _| {
            bch.iter(|| bentley_ottmann(&edges))
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_partition_backend,
    bench_slab_assignment,
    bench_algo2_grid_plan,
    bench_output_sensitivity,
    bench_intersection_discovery
);
criterion_main!(benches);
