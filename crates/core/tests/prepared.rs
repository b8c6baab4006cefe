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
use polyclip_datagen::torture_corpus;
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
    assert!(layer.pooled_arenas() > 0, "arenas returned to the pool");
}

/// Hammer one layer from eight threads through a pool capped far below the
/// concurrency (2 arenas for 8 threads): checkouts against the drained
/// pool must fall back to fresh arenas — never block, never deadlock —
/// every call must stay bit-identical to its single-threaded baseline, the
/// per-call arena accounting must be live for every request, and the pool
/// must still respect its cap once the storm passes.
#[test]
fn undersized_arena_pool_survives_a_thread_storm() {
    const POOL_CAP: usize = 2;
    const THREADS: u64 = 8;
    const ITERS: u64 = 24;
    let subject = gen_set(0xdecade, 8);
    let layer =
        PreparedLayer::build_with_pool_limit(&subject, &ClipOptions::sequential(), POOL_CAP)
            .unwrap();

    // Two query shapes with very different arena appetites, so recycled
    // arenas constantly change hands between light and heavy work.
    let small_q = gen_set(0x51, 1);
    let big_q = gen_set(0xb16, 6);
    let baseline = |q: &PolygonSet| {
        polyclip_core::prepared::try_clip_prepared(
            &layer,
            q,
            BoolOp::Intersection,
            4,
            &ClipOptions::sequential(),
        )
        .expect("baseline clip")
    };
    let base_small = baseline(&small_q);
    let base_big = baseline(&big_q);
    assert!(base_big.times.arena_hwm_bytes > 0, "hwm accounting is live");

    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let layer: Arc<PreparedLayer> = Arc::clone(&layer);
            let small_q = small_q.clone();
            let big_q = big_q.clone();
            let (small_out, big_out) = (base_small.output.clone(), base_big.output.clone());
            std::thread::spawn(move || {
                for i in 0..ITERS {
                    let big = (t + i) % 2 == 0;
                    let q = if big { &big_q } else { &small_q };
                    let r = polyclip_core::prepared::try_clip_prepared(
                        &layer,
                        q,
                        BoolOp::Intersection,
                        4,
                        &ClipOptions::sequential(),
                    )
                    .expect("no failures under contention");
                    let want = if big { &big_out } else { &small_out };
                    assert_eq!(
                        &r.output, want,
                        "thread {t} iter {i}: output diverged under contention"
                    );
                    // Per-call accounting: the stats describe this request's
                    // own run, not a neighbour's.
                    assert_eq!(r.stats.total_slabs, r.slabs);
                    assert_eq!(r.stats.completed_slabs, r.slabs);
                    assert!(r.stats.prepared_reused);
                    assert!(r.times.arena_hwm_bytes > 0, "hwm lost under contention");
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("no panics under pool starvation");
    }

    // The check-in cap held: at most POOL_CAP arenas were retained no
    // matter how many fresh ones the storm forced into existence.
    assert!(
        layer.pooled_arenas() <= POOL_CAP,
        "pool grew past its cap: {}",
        layer.pooled_arenas()
    );
    // And the layer still serves correct answers afterwards.
    let after = baseline(&big_q);
    assert_eq!(after.output, base_big.output);

    // pool_limit = 0 disables retention entirely while still serving.
    let unpooled =
        PreparedLayer::build_with_pool_limit(&subject, &ClipOptions::sequential(), 0).unwrap();
    let r = polyclip_core::prepared::try_clip_prepared(
        &unpooled,
        &big_q,
        BoolOp::Intersection,
        4,
        &ClipOptions::sequential(),
    )
    .unwrap();
    assert_eq!(r.output, base_big.output);
    assert_eq!(unpooled.pooled_arenas(), 0, "cap 0 must retain nothing");
}
