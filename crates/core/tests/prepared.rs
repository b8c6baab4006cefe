//! Prepared-layer equivalence and concurrency.
//!
//! The compile-once/clip-many contract: [`polyclip_core::prepared`] must be
//! a pure optimization. For random polygon pairs on a duplicate-heavy grid
//! — and for every degeneracy-torture subject — `clip_prepared` on a frozen
//! layer must produce **bit-identical** output to the cold slab clipper at
//! the same op, cell plan, and slab count. And because one layer is
//! meant to serve a whole process, clipping it from many threads at once —
//! some budgeted, some cancelled mid-flight — must neither panic nor leak
//! one request's statistics into another's.

use polyclip_core::algo2::try_clip_pair_slabs;
use polyclip_core::budget::ExecBudget;
use polyclip_core::prepared::{try_clip_prepared, PreparedLayer};
use polyclip_core::{BoolOp, ClipOptions, GridConfig};
use polyclip_datagen::{generate_layer, synthetic_pair, table3_spec, torture_corpus};
use polyclip_geom::{Contour, PolygonSet};
use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;

const OPS: [BoolOp; 4] = [
    BoolOp::Intersection,
    BoolOp::Union,
    BoolOp::Difference,
    BoolOp::Xor,
];
/// The default cell plan and a refining one.
fn grids() -> [GridConfig; 2] {
    [GridConfig::default(), GridConfig::refined()]
}
const SLABS: [usize; 2] = [1, 4];

fn xorshift(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

/// Same half-integer-grid generator as the backend-equivalence suite:
/// duplicate y's, flat contours, and a smuggled invalid 2-point contour are
/// common — exactly where the frozen schedule, the merged-quantile
/// boundaries, and the slab-skip logic could diverge from the cold path.
fn gen_set(seed: u64, max_contours: u64) -> PolygonSet {
    let mut s = seed | 1;
    let n = 1 + xorshift(&mut s) % max_contours;
    let mut contours = Vec::new();
    for _ in 0..n {
        let k = 3 + xorshift(&mut s) % 6;
        let pts: Vec<(f64, f64)> = (0..k)
            .map(|_| {
                let x = (xorshift(&mut s) % 24) as f64 * 0.5;
                let y = (xorshift(&mut s) % 16) as f64 * 0.5;
                (x, y)
            })
            .collect();
        contours.push(Contour::from_xy(&pts));
    }
    let mut p = PolygonSet::from_contours(contours);
    if xorshift(&mut s).is_multiple_of(4) {
        let y0 = (xorshift(&mut s) % 16) as f64 * 0.5;
        p.contours_mut()
            .push(Contour::from_xy(&[(0.0, y0), (2.0, y0 + 1.0)]));
    }
    p
}

/// Every (op, grid, p) combination: the prepared clip of `query` against
/// a layer frozen from `subject` must match the cold path bit-for-bit.
fn assert_prepared_matches_cold(subject: &PolygonSet, query: &PolygonSet, ctx: &str) {
    let layer = PreparedLayer::build(subject, &ClipOptions::sequential()).expect("finite subject");
    for op in OPS {
        for grid in grids() {
            let opts = ClipOptions {
                grid,
                ..ClipOptions::sequential()
            };
            for p in SLABS {
                let cold = try_clip_pair_slabs(subject, query, op, p, &opts).expect("cold clip");
                let warm = try_clip_prepared(&layer, query, op, p, &opts).expect("prepared clip");
                let ctx = format!("{ctx}: op {op:?} grid {grid:?} p {p}");
                assert_eq!(cold.output, warm.output, "output: {ctx}");
                assert_eq!(cold.slabs, warm.slabs, "slab count: {ctx}");
                assert_eq!(cold.degradations, warm.degradations, "degradations: {ctx}");
                assert_eq!(
                    cold.stats.input_repairs, warm.stats.input_repairs,
                    "repairs: {ctx}"
                );
                assert!(warm.stats.prepared_reused && !cold.stats.prepared_reused);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn clip_prepared_is_bit_identical_to_cold_path(
        seed_a in 1u64..u64::MAX,
        seed_b in 1u64..u64::MAX,
    ) {
        let subject = gen_set(seed_a, 4);
        let query = gen_set(seed_b, 3);
        assert_prepared_matches_cold(&subject, &query, "random grid pair");
    }
}

/// The degeneracy torture corpus as frozen subjects: jittered seams, sliver
/// fans, collapsed quantiles. Each case's clip polygon plays the query.
#[test]
fn clip_prepared_matches_cold_on_torture_corpus() {
    for case in torture_corpus(7) {
        assert_prepared_matches_cold(&case.subject, &case.clip, case.name);
    }
}

/// A square box query covering `frac` of the subject's bbox span in each
/// axis, centred horizontally and a quarter of the way up, where an
/// ordinary slab lies rather than the event median's seam.
fn box_query(subject: &PolygonSet, frac: f64) -> PolygonSet {
    let bb = subject.bbox();
    let (w, h) = (bb.xmax - bb.xmin, bb.ymax - bb.ymin);
    let (cx, cy) = (bb.xmin + w / 2.0, bb.ymin + h / 4.0);
    let (hx, hy) = (w * frac / 2.0, h * frac / 2.0);
    PolygonSet::from_xy(&[
        (cx - hx, cy - hy),
        (cx + hx, cy - hy),
        (cx + hx, cy + hy),
        (cx - hx, cy + hy),
    ])
}

/// The service's shapes: a flattened Table III layer (many small contours)
/// queried by boxes of 5 % and 0.5 % of its span, and one smooth blob
/// queried by a point box and by its partner blob (full overlap).
#[test]
fn clip_prepared_matches_cold_on_gis_layer_and_blob() {
    let gis = PolygonSet::from_contours(
        generate_layer(&table3_spec(1), 0.002, 1007)
            .into_iter()
            .flat_map(PolygonSet::into_contours)
            .collect(),
    );
    for frac in [0.05, 0.005] {
        let ctx = format!("flattened layer 1, box {frac}");
        assert_prepared_matches_cold(&gis, &box_query(&gis, frac), &ctx);
    }
    let (blob, partner) = synthetic_pair(1_000, 42);
    assert_prepared_matches_cold(&blob, &box_query(&blob, 0.005), "blob, point box");
    assert_prepared_matches_cold(&blob, &partner, "blob, partner blob");
}

/// One frozen layer, eight threads, mixed request shapes: unbounded,
/// generously budgeted, and pre-cancelled. No panics; cancelled requests
/// fail with a typed error without poisoning the layer; every successful
/// call reports its own per-call statistics (slab accounting matches the
/// request's own p, provenance flags set) independent of its neighbours.
#[test]
fn concurrent_clips_on_one_layer_stay_isolated() {
    let subject = gen_set(0xfeed, 6);
    let layer = PreparedLayer::build(&subject, &ClipOptions::sequential()).unwrap();

    let handles: Vec<_> = (0..8u64)
        .map(|t| {
            let layer: Arc<PreparedLayer> = Arc::clone(&layer);
            std::thread::spawn(move || {
                let mut outputs = Vec::new();
                for i in 0..16u64 {
                    let query = gen_set(0x9e3779b9 ^ i, 3);
                    let p = [1usize, 4, 8][(i % 3) as usize];
                    let opts = match t % 3 {
                        0 => ClipOptions::sequential(),
                        1 => ClipOptions {
                            budget: ExecBudget {
                                deadline: Some(Duration::from_secs(3600)),
                                max_intersections: Some(u64::MAX / 2),
                                allow_partial: true,
                                ..ExecBudget::default()
                            },
                            ..ClipOptions::sequential()
                        },
                        _ => {
                            let budget = ExecBudget::default();
                            budget.cancel.cancel();
                            ClipOptions {
                                budget,
                                ..ClipOptions::sequential()
                            }
                        }
                    };
                    let r = polyclip_core::prepared::try_clip_prepared(
                        &layer,
                        &query,
                        BoolOp::Intersection,
                        p,
                        &opts,
                    );
                    match r {
                        Ok(r) => {
                            // Per-call isolation: this result accounts for
                            // its own request's partition, nobody else's.
                            assert!(t % 3 != 2, "pre-cancelled request succeeded");
                            assert_eq!(r.stats.total_slabs, r.slabs);
                            assert_eq!(r.stats.completed_slabs, r.slabs);
                            assert!(r.slabs <= p);
                            assert!(r.stats.prepared_reused);
                            outputs.push((i, r.output));
                        }
                        Err(e) => {
                            assert!(t % 3 == 2, "unexpected failure: {e:?}");
                        }
                    }
                }
                outputs
            })
        })
        .collect();

    let results: Vec<_> = handles
        .into_iter()
        .map(|h| h.join().expect("no panics under concurrency"))
        .collect();

    // Threads 0 and 1 (mod 3) ran the same queries with compatible options:
    // identical (query, p) pairs must yield identical outputs regardless of
    // interleaving with the cancelled traffic.
    let baseline = &results[0];
    for (t, r) in results.iter().enumerate() {
        if t % 3 == 2 {
            assert!(r.is_empty(), "cancelled thread produced output");
        } else {
            assert_eq!(r, baseline, "thread {t} diverged");
        }
    }
    // The layer survives the storm reusable: one more clip, still correct.
    let q = gen_set(0x5eed, 2);
    let again = polyclip_core::prepared::clip_prepared(
        &layer,
        &q,
        BoolOp::Union,
        4,
        &ClipOptions::sequential(),
    );
    assert!(again.stats.prepared_reused);
}

/// Hammer one layer from eight threads with two query shapes under both
/// cell plans at p = 4. The default plan runs its cells on the calling
/// thread; the refined one runs them on the work-stealing pool, so several
/// callers drive their own pools at once. Every call must stay
/// bit-identical to its single-threaded baseline for that query and plan,
/// with the same per-call statistics, and the layer must still serve
/// correct answers once the storm passes.
#[test]
fn thread_storm_on_one_layer_matches_single_threaded_baselines() {
    const THREADS: u64 = 8;
    const ITERS: u64 = 24;
    let subject = gen_set(0xdecade, 8);
    let layer = PreparedLayer::build(&subject, &ClipOptions::sequential()).unwrap();

    // Two query shapes of very different size, under both plans.
    let queries = [gen_set(0x51, 1), gen_set(0xb16, 6)];
    let opts = grids().map(|grid| ClipOptions {
        grid,
        ..ClipOptions::sequential()
    });
    let clip = |q: &PolygonSet, o: &ClipOptions| {
        try_clip_prepared(&layer, q, BoolOp::Intersection, 4, o).expect("prepared clip")
    };
    let baselines: Vec<Vec<_>> = queries
        .iter()
        .map(|q| opts.iter().map(|o| clip(q, o)).collect())
        .collect();
    // On a multi-core host the refined plan runs on two or more pool
    // workers, so the storm drives several steal pools at once.
    if std::thread::available_parallelism().map_or(1, usize::from) >= 2 {
        for row in &baselines {
            assert!(
                row[1].times.per_worker_busy.len() >= 2,
                "refined plan ran on one worker"
            );
        }
    }

    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let layer: Arc<PreparedLayer> = Arc::clone(&layer);
            let queries = queries.clone();
            let opts = opts.clone();
            let want: Vec<Vec<_>> = baselines
                .iter()
                .map(|row| row.iter().map(|r| (r.output.clone(), r.stats)).collect())
                .collect();
            std::thread::spawn(move || {
                for i in 0..ITERS {
                    // Alternate the query shape every call and the plan
                    // every second call, so each thread runs all four.
                    let (qi, gi) = (((t + i) % 2) as usize, ((i / 2) % 2) as usize);
                    let r =
                        try_clip_prepared(&layer, &queries[qi], BoolOp::Intersection, 4, &opts[gi])
                            .expect("no failures under contention");
                    let (out, stats) = &want[qi][gi];
                    let ctx = format!("thread {t} iter {i} query {qi} plan {gi}");
                    assert_eq!(&r.output, out, "{ctx}: output diverged under contention");
                    // Per-call accounting: the stats describe this request's
                    // own run, not a neighbour's.
                    assert_eq!(&r.stats, stats, "{ctx}: stats diverged");
                    assert_eq!(r.stats.total_slabs, r.slabs, "{ctx}");
                    assert_eq!(r.stats.completed_slabs, r.slabs, "{ctx}");
                    assert!(r.stats.prepared_reused, "{ctx}");
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("no panics under contention");
    }

    // The layer still serves correct answers afterwards.
    for (q, row) in queries.iter().zip(&baselines) {
        for (o, want) in opts.iter().zip(row) {
            assert_eq!(clip(q, o).output, want.output);
        }
    }
}

/// A box query sweeps only the contours it can reach. The layer is 16
/// disjoint squares turned 45°, so each contributes 4 sweep edges, and the
/// query box (turned the same way) meets exactly one of them: 4 + 4 edges
/// for ∩ and −, against 16 · 4 + 4 = 68 for ∪, which keeps every contour.
#[test]
fn box_query_sweeps_only_the_contours_it_can_reach() {
    let diamond = |cx: f64, cy: f64, r: f64| {
        Contour::from_xy(&[(cx + r, cy), (cx, cy + r), (cx - r, cy), (cx, cy - r)])
    };
    let layer_set = PolygonSet::from_contours(
        (0..16)
            .map(|i| diamond(3.0 * (i % 4) as f64, 3.0 * (i / 4) as f64, 1.0))
            .collect(),
    );
    let query = PolygonSet::from_contour(diamond(0.5, 0.5, 0.6));
    let opts = ClipOptions::default();
    let layer = PreparedLayer::build(&layer_set, &opts).expect("finite layer");

    let cold = polyclip_core::try_clip(&layer_set, &query, BoolOp::Intersection, &opts).unwrap();
    let warm = try_clip_prepared(&layer, &query, BoolOp::Intersection, 1, &opts).unwrap();
    assert!(!cold.result.is_empty());
    assert_eq!(cold.result, warm.output);
    assert_eq!(cold.stats.n_edges, 8, "cold ∩: {:?}", cold.stats);
    assert_eq!(warm.stats.n_edges, 8, "prepared ∩: {:?}", warm.stats);

    let diff = polyclip_core::try_clip(&query, &layer_set, BoolOp::Difference, &opts).unwrap();
    assert_eq!(diff.stats.n_edges, 8, "−: {:?}", diff.stats);

    let union = polyclip_core::try_clip(&layer_set, &query, BoolOp::Union, &opts).unwrap();
    assert_eq!(union.stats.n_edges, 68, "∪: {:?}", union.stats);
}
