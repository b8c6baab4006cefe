//! Property-based tests (proptest) on the clipping engine's measure-
//! theoretic invariants, for arbitrary — including self-intersecting —
//! random polygons.

use polyclip::prelude::*;
use proptest::prelude::*;

fn seq() -> ClipOptions {
    ClipOptions::sequential()
}

/// Strategy: a random polygon with `n` vertices in [0, 4]². May be
/// self-intersecting — the engine must handle it.
fn arb_polygon(n: std::ops::Range<usize>) -> impl Strategy<Value = PolygonSet> {
    prop::collection::vec((0.0f64..4.0, 0.0f64..4.0), n).prop_map(|xy| PolygonSet::from_xy(&xy))
}

/// Strategy: a star-shaped (simple) polygon around a centre.
fn arb_blob() -> impl Strategy<Value = PolygonSet> {
    (
        prop::collection::vec(0.3f64..1.0, 5..24),
        0.0f64..2.0,
        0.0f64..2.0,
    )
        .prop_map(|(radii, cx, cy)| {
            let n = radii.len();
            let pts: Vec<(f64, f64)> = radii
                .iter()
                .enumerate()
                .map(|(i, r)| {
                    let ang = i as f64 / n as f64 * std::f64::consts::TAU;
                    (cx + r * ang.cos(), cy + r * ang.sin())
                })
                .collect();
            PolygonSet::from_xy(&pts)
        })
}

/// `p` plus the contours of `extra` translated by `dx` in x.
fn with_shifted(p: &PolygonSet, extra: &PolygonSet, dx: f64) -> PolygonSet {
    let mut out = p.clone();
    out.extend(extra.translate(Point::new(dx, 0.0)));
    out
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() < 1e-6 * (1.0 + a.abs().max(b.abs()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn inclusion_exclusion(a in arb_polygon(3..12), b in arb_polygon(3..12)) {
        let i = measure_op(&a, &b, BoolOp::Intersection, &seq());
        let u = measure_op(&a, &b, BoolOp::Union, &seq());
        let sa = eo_area(&a);
        let sb = eo_area(&b);
        prop_assert!(close(i + u, sa + sb), "|A∩B|+|A∪B| = {} vs |A|+|B| = {}", i + u, sa + sb);
    }

    #[test]
    fn difference_identity(a in arb_polygon(3..12), b in arb_polygon(3..12)) {
        let d = measure_op(&a, &b, BoolOp::Difference, &seq());
        let i = measure_op(&a, &b, BoolOp::Intersection, &seq());
        prop_assert!(close(d + i, eo_area(&a)), "|A\\B| + |A∩B| = |A|");
    }

    #[test]
    fn xor_identity(a in arb_polygon(3..10), b in arb_polygon(3..10)) {
        let x = measure_op(&a, &b, BoolOp::Xor, &seq());
        let u = measure_op(&a, &b, BoolOp::Union, &seq());
        let i = measure_op(&a, &b, BoolOp::Intersection, &seq());
        prop_assert!(close(x, u - i), "|A⊕B| = |A∪B| − |A∩B|");
    }

    #[test]
    fn commutativity(a in arb_polygon(3..10), b in arb_polygon(3..10)) {
        for op in [BoolOp::Intersection, BoolOp::Union, BoolOp::Xor] {
            let ab = measure_op(&a, &b, op, &seq());
            let ba = measure_op(&b, &a, op, &seq());
            prop_assert!(close(ab, ba), "{op:?} not commutative: {ab} vs {ba}");
        }
    }

    #[test]
    fn containment_bounds(a in arb_polygon(3..10), b in arb_polygon(3..10)) {
        let sa = eo_area(&a);
        let sb = eo_area(&b);
        let i = measure_op(&a, &b, BoolOp::Intersection, &seq());
        let u = measure_op(&a, &b, BoolOp::Union, &seq());
        let eps = 1e-9 * (1.0 + sa + sb);
        prop_assert!(i <= sa.min(sb) + eps);
        prop_assert!(u + eps >= sa.max(sb));
        prop_assert!(u <= sa + sb + eps);
        prop_assert!(i >= -eps);
    }

    #[test]
    fn idempotence(a in arb_blob()) {
        prop_assert!(close(measure_op(&a, &a, BoolOp::Intersection, &seq()), eo_area(&a)));
        prop_assert!(close(measure_op(&a, &a, BoolOp::Union, &seq()), eo_area(&a)));
        prop_assert!(measure_op(&a, &a, BoolOp::Difference, &seq()) < 1e-9);
        prop_assert!(measure_op(&a, &a, BoolOp::Xor, &seq()) < 1e-9);
    }

    #[test]
    fn stitched_area_equals_measured_area(
        a in arb_polygon(3..10),
        b in arb_polygon(3..10),
        far in (arb_polygon(3..10), arb_polygon(3..10)),
    ) {
        // The second pair gives each operand one more contour, outside the
        // other operand's bbox. The engine's ∩/− cull drops such contours
        // and `measure_op` keeps them, so this checks that the cull leaves
        // every op's region alone.
        let a_far = with_shifted(&a, &far.0, 10.0);
        let b_far = with_shifted(&b, &far.1, -10.0);
        for (a, b) in [(&a, &b), (&a_far, &b_far)] {
            for op in [BoolOp::Intersection, BoolOp::Union, BoolOp::Difference, BoolOp::Xor] {
                let out = clip(a, b, op, &seq());
                let stitched = eo_area(&out);
                let measured = measure_op(a, b, op, &seq());
                prop_assert!(close(stitched, measured), "{op:?}: {stitched} vs {measured}");
            }
        }
    }

    #[test]
    fn parallel_equals_sequential(a in arb_polygon(3..10), b in arb_polygon(3..10)) {
        for op in [BoolOp::Intersection, BoolOp::Union] {
            let s = clip(&a, &b, op, &seq());
            let p = clip(&a, &b, op, &ClipOptions::default());
            prop_assert_eq!(&s, &p);
        }
    }

    #[test]
    fn algo2_equals_engine(a in arb_blob(), b in arb_blob(), slabs in 1usize..9) {
        let want = measure_op(&a, &b, BoolOp::Intersection, &seq());
        let r = clip_pair_slabs(&a, &b, BoolOp::Intersection, slabs, &seq());
        prop_assert!(close(eo_area(&r.output), want));
    }

    #[test]
    fn output_is_canonical(a in arb_polygon(3..10), b in arb_polygon(3..10)) {
        // Dissolving a clip result must not change it: outputs are already
        // canonical (clean, consistently oriented, non-overlapping).
        let out = clip(&a, &b, BoolOp::Union, &seq());
        let re = dissolve(&out, &seq());
        prop_assert!(close(eo_area(&out), eo_area(&re)));
        prop_assert!(close(out.signed_area(), eo_area(&out)));
    }

    #[test]
    fn translation_invariance(a in arb_blob(), b in arb_blob(), dx in -3.0f64..3.0, dy in -3.0f64..3.0) {
        let d = Point::new(dx, dy);
        let before = measure_op(&a, &b, BoolOp::Intersection, &seq());
        let after = measure_op(&a.translate(d), &b.translate(d), BoolOp::Intersection, &seq());
        // Translation perturbs rounding; allow a loose relative bound.
        prop_assert!((before - after).abs() < 1e-6 * (1.0 + before), "{before} vs {after}");
    }

    #[test]
    fn empty_clip_acts_as_identity_for_union_and_difference(a in arb_blob()) {
        let e = PolygonSet::new();
        prop_assert!(close(measure_op(&a, &e, BoolOp::Union, &seq()), eo_area(&a)));
        prop_assert!(close(measure_op(&a, &e, BoolOp::Difference, &seq()), eo_area(&a)));
        prop_assert!(measure_op(&a, &e, BoolOp::Intersection, &seq()) == 0.0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn inversion_primitives_agree(xs in prop::collection::vec(0u32..1000, 0..300)) {
        use polyclip::parprim::{count_inversions, par_count_inversions, report_inversions};
        let c = count_inversions(&xs);
        prop_assert_eq!(c, par_count_inversions(&xs));
        prop_assert_eq!(c as usize, report_inversions(&xs).len());
    }

    #[test]
    fn scan_primitives_agree(xs in prop::collection::vec(0u64..1000, 0..5000)) {
        use polyclip::parprim::{exclusive_scan, inclusive_scan, par_exclusive_scan, par_inclusive_scan};
        prop_assert_eq!(inclusive_scan(&xs, |a, b| a + b), par_inclusive_scan(&xs, |a, b| a + b));
        prop_assert_eq!(exclusive_scan(&xs, 0, |a, b| a + b), par_exclusive_scan(&xs, 0, |a, b| a + b));
    }

    #[test]
    fn sort_primitive_sorts(mut xs in prop::collection::vec(0u64..1000, 0..5000)) {
        use polyclip::parprim::par_merge_sort;
        let mut want = xs.clone();
        want.sort_unstable();
        par_merge_sort(&mut xs, |a, b| a.cmp(b));
        prop_assert_eq!(xs, want);
    }
}
