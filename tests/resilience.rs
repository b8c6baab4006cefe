//! Resilience harness: the never-panics adversarial suite over every
//! public entry point, typed-error assertions for non-finite input, and —
//! behind the `fault-injection` feature — proof that the per-slab recovery
//! ladder (retry → pristine sequential fallback) restores the bit-identical
//! unfaulted answer.

use polyclip::datagen::{
    junk_pile, pinched_ring, sliver_fan, spiky_ring, synthetic_pair, torture_corpus,
};
use polyclip::prelude::*;
use proptest::prelude::*;

const ALL_OPS: [BoolOp; 4] = [
    BoolOp::Intersection,
    BoolOp::Union,
    BoolOp::Difference,
    BoolOp::Xor,
];

fn seq() -> ClipOptions {
    ClipOptions::sequential()
}

fn sq(x0: f64, y0: f64, x1: f64, y1: f64) -> PolygonSet {
    PolygonSet::from_xy(&[(x0, y0), (x1, y0), (x1, y1), (x0, y1)])
}

/// Inputs chosen to stress every boundary check: non-finite coordinates,
/// overflow-scale magnitudes, subnormals, duplicate and collinear points,
/// zero-area contours, self-intersections, empties.
fn adversarial_catalog() -> Vec<PolygonSet> {
    vec![
        PolygonSet::new(),
        PolygonSet::from_xy(&[]),
        PolygonSet::from_xy(&[(1.0, 1.0)]),
        PolygonSet::from_xy(&[(0.0, 0.0), (1.0, 1.0)]),
        // Duplicate points only: zero-extent but ≥ 3 vertices.
        PolygonSet::from_xy(&[(2.0, 2.0), (2.0, 2.0), (2.0, 2.0), (2.0, 2.0)]),
        // Collinear: zero-height bbox.
        PolygonSet::from_xy(&[(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)]),
        // Bow-tie (self-intersecting, zero signed area, nonzero even-odd area).
        PolygonSet::from_xy(&[(0.0, 0.0), (2.0, 2.0), (2.0, 0.0), (0.0, 2.0)]),
        // Ordinary square, for pairings that mix valid and broken operands.
        sq(0.0, 0.0, 2.0, 2.0),
        // Overflow-scale and subnormal magnitudes.
        PolygonSet::from_xy(&[(0.0, 0.0), (1e308, 0.0), (1e308, 1e308)]),
        PolygonSet::from_xy(&[(0.0, 0.0), (5e-324, 0.0), (5e-324, 5e-324)]),
        // Non-finite coordinates in every flavor.
        PolygonSet::from_xy(&[(0.0, 0.0), (f64::NAN, 1.0), (1.0, 1.0)]),
        PolygonSet::from_xy(&[(0.0, f64::INFINITY), (1.0, 0.0), (1.0, 1.0)]),
        PolygonSet::from_xy(&[(f64::NEG_INFINITY, 0.0), (1.0, 0.0), (1.0, 1.0)]),
        // Degeneracy torture generators: spikes + duplicates + collinear
        // midpoints, sub-tolerance slivers, a self-touching pinch, and the
        // full junk pile (duplicate ring, zero-area chain, 2-vertex
        // fragment, point ring).
        spiky_ring(1, Point::new(0.5, 0.5), 1.0, 12),
        sliver_fan(2, Point::new(0.0, 0.0), 1.5, 6),
        pinched_ring(Point::new(1.0, 1.0), 1.0),
        junk_pile(3, Point::new(-0.5, -0.5), 1.0, 5),
    ]
}

#[test]
fn never_panics_on_adversarial_catalog() {
    let catalog = adversarial_catalog();
    for a in &catalog {
        for b in &catalog {
            for op in ALL_OPS {
                let _ = try_clip(a, b, op, &seq());
                let _ = clip(a, b, op, &ClipOptions::default());
            }
            let _ = try_clip_pair_slabs(a, b, BoolOp::Union, 3, &seq());
            let _ = clip_pair_slabs(a, b, BoolOp::Intersection, 3, &seq());
            let _ = measure_op(a, b, BoolOp::Xor, &seq());
            let _ = trapezoids(a, b, BoolOp::Intersection, &seq());

            let la = Layer::new(vec![a.clone(), sq(0.0, 0.0, 1.0, 1.0)]);
            let lb = Layer::new(vec![b.clone()]);
            let _ = try_overlay_intersection(&la, &lb, 2, SlabAssignment::UniqueOwner, &seq());
            let _ = overlay_intersection(&la, &lb, 2, SlabAssignment::Replicate, &seq());
            let _ = try_overlay_difference(&la, &lb, 2, &seq());
            let _ = try_overlay_union(&la, &lb, 2, &seq());
        }
    }
}

/// The torture corpus through the default and a refining Algorithm-2 cell
/// plan, with and without the robustness ladder: nothing may panic or
/// error.
#[test]
fn never_panics_on_torture_corpus_across_backends() {
    let armed = ClipOptions {
        validate_output: true,
        ..seq()
    };
    let disarmed = ClipOptions {
        sanitize: false,
        ..seq()
    };
    for case in torture_corpus(42) {
        for grid in [GridConfig::default(), GridConfig::refined()] {
            for opts in [&armed, &disarmed] {
                let opts = ClipOptions {
                    grid,
                    ..opts.clone()
                };
                for op in ALL_OPS {
                    let r = try_clip_pair_slabs(&case.subject, &case.clip, op, 3, &opts);
                    assert!(r.is_ok(), "{}: {op:?} {grid:?} errored", case.name);
                }
            }
        }
    }
}

#[test]
fn non_finite_input_is_rejected_with_location() {
    let good = sq(0.0, 0.0, 2.0, 2.0);
    let nan_subject = PolygonSet::from_xy(&[(0.0, 0.0), (f64::NAN, 1.0), (1.0, 1.0)]);
    let err = try_clip(&nan_subject, &good, BoolOp::Union, &seq()).unwrap_err();
    assert!(matches!(
        err,
        ClipError::NonFiniteInput {
            role: InputRole::Subject,
            contour: 0,
            vertex: 1
        }
    ));

    let inf_clip = PolygonSet::from_xy(&[(0.0, f64::INFINITY), (1.0, 0.0), (1.0, 1.0)]);
    let err = try_clip(&good, &inf_clip, BoolOp::Intersection, &seq()).unwrap_err();
    assert!(matches!(
        err,
        ClipError::NonFiniteInput {
            role: InputRole::Clip,
            contour: 0,
            vertex: 0
        }
    ));

    // The slab and overlay entry points gate before building event lists.
    let err = try_clip_pair_slabs(&nan_subject, &good, BoolOp::Union, 4, &seq()).unwrap_err();
    assert!(matches!(
        err,
        ClipError::NonFiniteInput {
            role: InputRole::Subject,
            ..
        }
    ));
    let la = Layer::new(vec![good.clone()]);
    let lb = Layer::new(vec![inf_clip.clone()]);
    let err =
        try_overlay_intersection(&la, &lb, 2, SlabAssignment::UniqueOwner, &seq()).unwrap_err();
    assert!(matches!(
        err,
        ClipError::NonFiniteInput {
            role: InputRole::Clip,
            ..
        }
    ));
    let err = try_overlay_difference(&la, &lb, 2, &seq()).unwrap_err();
    assert!(matches!(
        err,
        ClipError::NonFiniteInput {
            role: InputRole::Clip,
            ..
        }
    ));
    let err = try_overlay_union(&la, &lb, 2, &seq()).unwrap_err();
    assert!(matches!(
        err,
        ClipError::NonFiniteInput {
            role: InputRole::Clip,
            ..
        }
    ));
}

#[test]
fn lenient_wrappers_absorb_rejected_input() {
    let bad = PolygonSet::from_xy(&[(0.0, 0.0), (f64::NAN, 1.0), (1.0, 1.0)]);
    let good = sq(0.0, 0.0, 2.0, 2.0);
    assert!(clip(&bad, &good, BoolOp::Union, &seq()).is_empty());
    let (out, stats) = clip_with_stats(&good, &bad, BoolOp::Intersection, &seq());
    assert!(out.is_empty());
    assert_eq!(stats.n_edges, 0);
    assert!(clip_pair_slabs(&bad, &good, BoolOp::Union, 3, &seq())
        .output
        .is_empty());
}

#[test]
fn degenerate_contours_are_sanitized_and_reported() {
    // A real square plus a zero-height collinear contour: the gate drops the
    // degenerate contour, records the degradation, and the result is exact.
    let subject = PolygonSet::from_contours(vec![
        sq(0.0, 0.0, 2.0, 2.0).contours()[0].clone(),
        polyclip::geom::Contour::from_xy(&[(5.0, 5.0), (6.0, 5.0), (7.0, 5.0)]),
    ]);
    let outcome = try_clip(&subject, &PolygonSet::new(), BoolOp::Union, &seq()).unwrap();
    assert!((eo_area(&outcome.result) - 4.0).abs() < 1e-9);
    assert_eq!(
        outcome.degradations,
        vec![Degradation::SanitizedInput {
            role: InputRole::Subject,
            dropped_contours: 1
        }]
    );
    assert!(!outcome.is_clean());
    // Sanitization preserves exactness, so strict() still passes.
    let (out, _) = outcome.strict().unwrap();
    assert!((eo_area(&out) - 4.0).abs() < 1e-9);
}

#[test]
fn bowties_are_not_sanitized_away() {
    // Symmetric bow-tie: zero signed area but positive even-odd measure.
    // The input gate must keep it — only zero-extent contours are dropped.
    let bow = PolygonSet::from_xy(&[(0.0, 0.0), (2.0, 2.0), (2.0, 0.0), (0.0, 2.0)]);
    let outcome = try_clip(&bow, &PolygonSet::new(), BoolOp::Union, &seq()).unwrap();
    assert!(outcome.is_clean());
    assert!((eo_area(&outcome.result) - 2.0).abs() < 1e-9);
}

#[test]
fn clean_runs_report_refinement_counters() {
    let a = sq(0.0, 0.0, 2.0, 2.0);
    let b = sq(1.0, 1.0, 3.0, 3.0);
    let outcome = try_clip_with_stats(&a, &b, BoolOp::Intersection, &seq()).unwrap();
    assert!(outcome.is_clean());
    assert!(
        outcome.stats.refine_rounds >= 1,
        "crossing squares need a refinement round"
    );
    assert_eq!(outcome.stats.residuals_accepted, 0);
    assert_eq!(outcome.stats.slab_retries, 0);
    let (out, _) = outcome.strict().unwrap();
    assert!((eo_area(&out) - 1.0).abs() < 1e-9);
}

#[test]
fn try_overlay_variants_match_lenient_variants() {
    let mk = |off: f64| {
        Layer::new(
            (0..4)
                .flat_map(|i| (0..4).map(move |j| (i, j)))
                .map(|(i, j)| {
                    sq(
                        off + i as f64,
                        off + j as f64,
                        off + i as f64 + 0.8,
                        off + j as f64 + 0.8,
                    )
                })
                .collect(),
        )
    };
    let (a, b) = (mk(0.0), mk(0.45));
    let o = seq();
    let t = try_overlay_intersection(&a, &b, 3, SlabAssignment::UniqueOwner, &o).unwrap();
    let l = overlay_intersection(&a, &b, 3, SlabAssignment::UniqueOwner, &o);
    assert_eq!(t.features, l.features);
    assert!(t.degradations.is_empty());

    let td = try_overlay_difference(&a, &b, 3, &o).unwrap();
    let ld = overlay_difference(&a, &b, 3, &o);
    assert_eq!(td.features, ld.features);

    let tu = try_overlay_union(&a, &b, 3, &o).unwrap();
    let lu = overlay_union(&a, &b, 3, &o);
    assert_eq!(tu.output, lu.output);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn never_panics_on_random_polygons(
        xy_a in prop::collection::vec((-1e9f64..1e9, -1e9f64..1e9), 0..12),
        xy_b in prop::collection::vec((-1e9f64..1e9, -1e9f64..1e9), 0..12),
        slabs in 1usize..6,
    ) {
        let a = PolygonSet::from_xy(&xy_a);
        let b = PolygonSet::from_xy(&xy_b);
        for op in ALL_OPS {
            let _ = try_clip(&a, &b, op, &seq());
        }
        let _ = try_clip_pair_slabs(&a, &b, BoolOp::Union, slabs, &seq());
    }

    #[test]
    fn never_panics_with_injected_special_values(
        xy in prop::collection::vec((-10.0f64..10.0, -10.0f64..10.0), 3..10),
        which in 0usize..8,
    ) {
        let specials = [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            1e308,
            -1e308,
            5e-324,
            -0.0,
            f64::MAX,
        ];
        let mut xy = xy;
        let i = which % xy.len();
        xy[i].0 = specials[which];
        let poisoned = PolygonSet::from_xy(&xy);
        let good = sq(-5.0, -5.0, 5.0, 5.0);
        for op in ALL_OPS {
            let _ = try_clip(&poisoned, &good, op, &seq());
            let _ = clip(&good, &poisoned, op, &seq());
        }
        let _ = try_clip_pair_slabs(&poisoned, &good, BoolOp::Intersection, 3, &seq());
        let la = Layer::new(vec![poisoned.clone()]);
        let lb = Layer::new(vec![good]);
        let _ = try_overlay_intersection(&la, &lb, 2, SlabAssignment::UniqueOwner, &seq());
        let _ = try_overlay_difference(&la, &lb, 2, &seq());
    }
}

/// Without the `fault-injection` feature a populated fault plan must be
/// completely inert: same answer, no degradations.
#[cfg(not(feature = "fault-injection"))]
#[test]
fn fault_plan_is_inert_without_the_feature() {
    let (a, b) = synthetic_pair(400, 3);
    let baseline = try_clip_pair_slabs(&a, &b, BoolOp::Intersection, 4, &seq()).unwrap();
    let mut faulty = seq();
    faulty.faults = FaultPlan {
        panic_slab: Some(0),
        panic_attempts: 2,
        exhaust_refinement: true,
        residual_storm: true,
        stall_slab: Some(0),
        stall_ms: 10_000,
    };
    let r = try_clip_pair_slabs(&a, &b, BoolOp::Intersection, 4, &faulty).unwrap();
    assert_eq!(r.output, baseline.output);
    assert_eq!(r.degradations, baseline.degradations);
}

#[cfg(feature = "fault-injection")]
mod fault_injection {
    use super::*;

    /// A clean multi-slab instance: the unfaulted baseline must absorb no
    /// degradations, so any degradation in a faulted run is the fault's.
    fn multi_slab_instance() -> (PolygonSet, PolygonSet) {
        synthetic_pair(400, 3)
    }

    #[test]
    fn panicked_slab_recovers_via_fallback_bit_identical() {
        let (a, b) = multi_slab_instance();
        let baseline = try_clip_pair_slabs(&a, &b, BoolOp::Intersection, 4, &seq()).unwrap();
        assert!(baseline.degradations.is_empty(), "baseline must be clean");
        assert!(baseline.slabs >= 2, "instance must actually partition");
        for slab in 0..baseline.slabs {
            let mut opts = seq();
            opts.faults = FaultPlan::panic_in_slab(slab, 2);
            let r = try_clip_pair_slabs(&a, &b, BoolOp::Intersection, 4, &opts).unwrap();
            assert_eq!(
                r.output, baseline.output,
                "slab {slab}: fallback must be bit-identical"
            );
            assert_eq!(r.degradations, vec![Degradation::SlabFallback { slab }]);
            assert_eq!(r.stats.slab_retries, 1);
        }
    }

    #[test]
    fn panicked_slab_recovers_on_retry() {
        let (a, b) = multi_slab_instance();
        let baseline = try_clip_pair_slabs(&a, &b, BoolOp::Union, 4, &seq()).unwrap();
        for slab in 0..baseline.slabs {
            let mut opts = seq();
            opts.faults = FaultPlan::panic_in_slab(slab, 1);
            let r = try_clip_pair_slabs(&a, &b, BoolOp::Union, 4, &opts).unwrap();
            assert_eq!(r.output, baseline.output);
            assert_eq!(r.degradations, vec![Degradation::SlabRetry { slab }]);
            assert_eq!(r.stats.slab_retries, 1);
        }
    }

    #[test]
    fn single_slab_degenerate_path_is_panic_isolated_too() {
        let a = sq(0.0, 0.0, 2.0, 2.0);
        let b = sq(1.0, 1.0, 3.0, 3.0);
        let baseline = try_clip_pair_slabs(&a, &b, BoolOp::Intersection, 1, &seq()).unwrap();
        let mut opts = seq();
        opts.faults = FaultPlan::panic_in_slab(0, 2);
        let r = try_clip_pair_slabs(&a, &b, BoolOp::Intersection, 1, &opts).unwrap();
        assert_eq!(r.output, baseline.output);
        assert_eq!(r.degradations, vec![Degradation::SlabFallback { slab: 0 }]);
    }

    #[test]
    fn overlay_slab_panic_recovers_bit_identical() {
        let mk = |off: f64| {
            Layer::new(
                (0..5)
                    .flat_map(|i| (0..5).map(move |j| (i, j)))
                    .map(|(i, j)| {
                        sq(
                            off + i as f64,
                            off + j as f64,
                            off + i as f64 + 0.9,
                            off + j as f64 + 0.9,
                        )
                    })
                    .collect(),
            )
        };
        let (a, b) = (mk(0.0), mk(0.45));
        let baseline =
            try_overlay_intersection(&a, &b, 4, SlabAssignment::UniqueOwner, &seq()).unwrap();
        assert!(baseline.degradations.is_empty());
        let slabs = baseline.times.per_slab_clip.len();
        assert!(slabs >= 2);
        for slab in 0..slabs {
            let mut opts = seq();
            opts.faults = FaultPlan::panic_in_slab(slab, 2);
            let r =
                try_overlay_intersection(&a, &b, 4, SlabAssignment::UniqueOwner, &opts).unwrap();
            assert_eq!(r.features, baseline.features, "slab {slab}");
            assert_eq!(r.degradations, vec![Degradation::SlabFallback { slab }]);
        }
        // Erase overlay rides the same ladder.
        let base_d = try_overlay_difference(&a, &b, 4, &seq()).unwrap();
        let slab = base_d.times.per_slab_clip.len() - 1;
        let mut opts = seq();
        opts.faults = FaultPlan::panic_in_slab(slab, 2);
        let rd = try_overlay_difference(&a, &b, 4, &opts).unwrap();
        assert_eq!(rd.features, base_d.features);
        assert_eq!(rd.degradations, vec![Degradation::SlabFallback { slab }]);
    }

    /// The compile-once path rides the same ladder: panicking any slab of
    /// a prepared clip — once (retry rung) or repeatedly (fallback rung) —
    /// must restore the bit-identical unfaulted prepared answer, which in
    /// turn matches the cold path.
    #[test]
    fn prepared_clip_recovers_from_slab_panics_bit_identical() {
        let (subject, query) = multi_slab_instance();
        let cold = try_clip_pair_slabs(&subject, &query, BoolOp::Intersection, 4, &seq()).unwrap();
        let layer = PreparedLayer::build(&subject, &seq()).unwrap();
        let baseline = try_clip_prepared(&layer, &query, BoolOp::Intersection, 4, &seq()).unwrap();
        assert!(baseline.degradations.is_empty(), "baseline must be clean");
        assert_eq!(baseline.output, cold.output, "prepared must match cold");
        assert!(baseline.slabs >= 2, "instance must actually partition");
        for slab in 0..baseline.slabs {
            for (attempts, rung) in [
                (1, Degradation::SlabRetry { slab }),
                (2, Degradation::SlabFallback { slab }),
            ] {
                let mut opts = seq();
                opts.faults = FaultPlan::panic_in_slab(slab, attempts);
                let r = try_clip_prepared(&layer, &query, BoolOp::Intersection, 4, &opts).unwrap();
                assert_eq!(
                    r.output, baseline.output,
                    "slab {slab} x{attempts}: recovery must be bit-identical"
                );
                assert_eq!(r.degradations, vec![rung.clone()]);
                assert_eq!(r.stats.slab_retries, 1);
                assert!(r.stats.prepared_reused, "fault must not evict the layer");
            }
        }
    }

    /// A stalled slab worker trips its watchdog deadline (2× its load
    /// share of the global allowance), the retry runs unstalled on the
    /// cancel-only recovery gate, and the answer is restored bit-identical
    /// — on the cold path and the prepared path alike.
    #[test]
    fn stalled_slab_trips_the_watchdog_and_recovers_on_retry() {
        let (subject, query) = multi_slab_instance();
        let baseline = try_clip_pair_slabs(&subject, &query, BoolOp::Union, 4, &seq()).unwrap();
        assert!(baseline.degradations.is_empty());
        let layer = PreparedLayer::build(&subject, &seq()).unwrap();

        // Global allowance 800ms over ≈4 even slabs ⇒ each watchdog fires
        // around 400ms past arm time; a 600ms stall trips it while leaving
        // the global gate clean, so the slab is re-laddered instead of the
        // whole run dying. The watchdog deadlines are armed up front, so
        // under sequential slab execution only the *last* slab can stall
        // without also expiring its successors' watchdogs.
        let slab = baseline.slabs - 1;
        let stalled = || ClipOptions {
            budget: ExecBudget {
                deadline: Some(std::time::Duration::from_millis(800)),
                ..ExecBudget::default()
            },
            faults: FaultPlan::stall_in_slab(slab, 600),
            ..seq()
        };
        let cold = try_clip_pair_slabs(&subject, &query, BoolOp::Union, 4, &stalled()).unwrap();
        assert_eq!(cold.output, baseline.output, "cold slab {slab}");
        assert_eq!(cold.degradations, vec![Degradation::SlabRetry { slab }]);

        let warm = try_clip_prepared(&layer, &query, BoolOp::Union, 4, &stalled()).unwrap();
        assert_eq!(warm.output, baseline.output, "prepared slab {slab}");
        assert_eq!(warm.degradations, vec![Degradation::SlabRetry { slab }]);
        assert!(
            warm.times.retry_total >= std::time::Duration::from_millis(400),
            "the stalled attempt's cost lands in retry_total, not slab load"
        );
    }

    #[test]
    fn exhausted_refinement_is_reported_and_strict_rejects() {
        let a = sq(0.0, 0.0, 2.0, 2.0);
        let b = sq(1.0, 1.0, 3.0, 3.0);
        let mut opts = seq();
        opts.faults.exhaust_refinement = true;
        let outcome = try_clip_with_stats(&a, &b, BoolOp::Intersection, &opts).unwrap();
        assert!(outcome
            .degradations
            .iter()
            .any(|d| matches!(d, Degradation::RefinementExhausted { .. })));
        assert!(outcome.worst().unwrap().is_lossy());
        assert!(matches!(
            outcome.strict(),
            Err(ClipError::RefinementExhausted { .. })
        ));
    }

    #[test]
    fn residual_storm_drives_the_accept_path() {
        let a = sq(0.0, 0.0, 2.0, 2.0);
        let b = sq(1.0, 1.0, 3.0, 3.0);
        let mut opts = seq();
        opts.faults.residual_storm = true;
        let outcome = try_clip_with_stats(&a, &b, BoolOp::Intersection, &opts).unwrap();
        assert!(outcome
            .degradations
            .iter()
            .any(|d| matches!(d, Degradation::ResidualsAccepted { .. })));
        assert!(outcome.stats.residuals_accepted >= 1);
        assert!(matches!(
            outcome.strict(),
            Err(ClipError::RefinementExhausted { .. })
        ));
    }
}
