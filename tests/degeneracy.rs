//! Degeneracy torture suite: the robustness ladder end to end.
//!
//! Feeds the [`polyclip::datagen::degenerate`] torture corpus — spikes,
//! duplicate vertices, collinear runs, slivers, pinched rings, coincident
//! edges, junk contours — through every operation, the default and a
//! refining Algorithm-2 cell plan, and p ∈ {1, 4}, with output validation
//! enabled.
//! The contract under test:
//!
//! * nothing panics and nothing errors;
//! * the final output is **canonical** (zero [`Violation`]s);
//! * algebraic invariants hold: inclusion–exclusion
//!   `area(A∩B) + area(A∪B) = area(A) + area(B)`, idempotence `R ∪ R = R`,
//!   and operand symmetry of `∩`;
//! * `strict()` callers are told when their input needed repair
//!   ([`ClipError::DirtyInput`]);
//! * clean inputs at default options are **bit-identical** to a run with
//!   the whole robustness ladder disabled (sanitize off, snap off).

use polyclip::datagen::{synthetic_pair, torture_corpus};
use polyclip::geom::region_area;
use polyclip::prelude::*;
use proptest::prelude::*;

const ALL_OPS: [BoolOp; 4] = [
    BoolOp::Intersection,
    BoolOp::Union,
    BoolOp::Difference,
    BoolOp::Xor,
];

/// The default cell plan and a refining one.
fn grids() -> [GridConfig; 2] {
    [GridConfig::default(), GridConfig::refined()]
}

/// Sequential engine with the full robustness ladder armed.
fn hardened() -> ClipOptions {
    ClipOptions {
        validate_output: true,
        ..ClipOptions::sequential()
    }
}

/// The whole ladder disarmed: raw engine, no sanitize, no snap, no repair.
fn disarmed() -> ClipOptions {
    ClipOptions {
        sanitize: false,
        validate_output: false,
        snap_cell: 0.0,
        ..ClipOptions::sequential()
    }
}

/// Canonical even-odd area of an arbitrary (possibly dirty) set: dissolve
/// against the empty set under the hardened options.
fn canon_area(p: &PolygonSet) -> f64 {
    let out = try_clip(p, &PolygonSet::new(), BoolOp::Union, &hardened())
        .expect("canonicalization must not error")
        .result;
    eo_area(&out)
}

#[test]
fn torture_corpus_yields_canonical_output_across_backends() {
    for case in torture_corpus(2026) {
        for op in ALL_OPS {
            for grid in grids() {
                for p in [1usize, 4] {
                    let opts = ClipOptions { grid, ..hardened() };
                    let r = try_clip_pair_slabs(&case.subject, &case.clip, op, p, &opts)
                        .unwrap_or_else(|e| {
                            panic!("{}: {op:?} {grid:?} p={p} errored: {e}", case.name)
                        });
                    let rep = validate(&r.output);
                    assert!(
                        rep.violations.is_empty(),
                        "{}: {op:?} {grid:?} p={p} left violations: {}",
                        case.name,
                        rep.violations
                            .iter()
                            .map(|v| v.to_string())
                            .collect::<Vec<_>>()
                            .join("; "),
                    );
                }
            }
        }
    }
}

#[test]
fn torture_corpus_satisfies_inclusion_exclusion() {
    for case in torture_corpus(99) {
        let area_a = canon_area(&case.subject);
        let area_b = canon_area(&case.clip);
        let opts = hardened();
        let inter = try_clip(&case.subject, &case.clip, BoolOp::Intersection, &opts)
            .unwrap()
            .result;
        let union = try_clip(&case.subject, &case.clip, BoolOp::Union, &opts)
            .unwrap()
            .result;
        let lhs = eo_area(&inter) + eo_area(&union);
        let rhs = area_a + area_b;
        let tol = 1e-6 * (1.0 + rhs.abs());
        assert!(
            (lhs - rhs).abs() < tol,
            "{}: area(A∩B)+area(A∪B) = {lhs} but area(A)+area(B) = {rhs}",
            case.name
        );
    }
}

#[test]
fn torture_corpus_union_is_idempotent_and_intersection_symmetric() {
    for case in torture_corpus(31) {
        let opts = hardened();
        // Idempotence on the *canonicalized* result: R ∪ R = R.
        let r = try_clip(&case.subject, &case.clip, BoolOp::Union, &opts)
            .unwrap()
            .result;
        let rr = try_clip(&r, &r, BoolOp::Union, &opts).unwrap().result;
        let (a0, a1) = (eo_area(&r), eo_area(&rr));
        assert!(
            (a0 - a1).abs() < 1e-6 * (1.0 + a0.abs()),
            "{}: union not idempotent ({a0} vs {a1})",
            case.name
        );
        // Operand symmetry of intersection.
        let ab = try_clip(&case.subject, &case.clip, BoolOp::Intersection, &opts)
            .unwrap()
            .result;
        let ba = try_clip(&case.clip, &case.subject, BoolOp::Intersection, &opts)
            .unwrap()
            .result;
        let (s0, s1) = (eo_area(&ab), eo_area(&ba));
        assert!(
            (s0 - s1).abs() < 1e-6 * (1.0 + s0.abs()),
            "{}: intersection not symmetric ({s0} vs {s1})",
            case.name
        );
    }
}

#[test]
fn torture_corpus_through_foster_overfelt_oracle() {
    // The independent oracle gets the same corpus, without the engine in
    // front of it. Cases inside its contract (`supports`) must produce
    // finite output satisfying the area algebra — inclusion–exclusion and
    // the ⊕/− identities, measured by the band-integration comparator,
    // which shares no code with the oracle. Cases outside the contract
    // must decline with `Unsupported`, not panic or emit garbage.
    let fo = FosterOverfeltOracle;
    let mut supported = 0usize;
    for case in torture_corpus(0x70_41) {
        if !fo.supports(&case.subject, &case.clip) {
            for op in ALL_OPS {
                assert!(
                    matches!(
                        fo.clip(&case.subject, &case.clip, op),
                        Err(OracleError::Unsupported(_))
                    ),
                    "{}: unsupported case must decline, not clip",
                    case.name
                );
            }
            continue;
        }
        supported += 1;
        let clip_op = |op| fo.clip(&case.subject, &case.clip, op).unwrap();
        let (inter, union, diff, xor) = (
            clip_op(BoolOp::Intersection),
            clip_op(BoolOp::Union),
            clip_op(BoolOp::Difference),
            clip_op(BoolOp::Xor),
        );
        for out in [&inter, &union, &diff, &xor] {
            for c in out.contours() {
                assert!(c.points().iter().all(|p| p.is_finite()), "{}", case.name);
            }
        }
        let (a, b) = (region_area(&case.subject), region_area(&case.clip));
        let (ai, au, ad, ax) = (
            region_area(&inter),
            region_area(&union),
            region_area(&diff),
            region_area(&xor),
        );
        let tol = 1e-9 * (1.0 + a.abs() + b.abs());
        assert!(
            (ai + au - (a + b)).abs() < tol,
            "{}: FO inclusion–exclusion broken: ∩ {ai} + ∪ {au} ≠ A {a} + B {b}",
            case.name
        );
        assert!(
            (ad - (a - ai)).abs() < tol,
            "{}: FO difference area {ad} ≠ area(A) {a} − area(∩) {ai}",
            case.name
        );
        assert!(
            (ax - (au - ai)).abs() < tol,
            "{}: FO xor area {ax} ≠ area(∪) {au} − area(∩) {ai}",
            case.name
        );
    }
    assert!(supported >= 2, "FO torture leg went vacuous: {supported}");
}

#[test]
fn repaired_input_is_reported_and_strict_rejects() {
    let dirty = polyclip::datagen::spiky_ring(5, Point::new(0.0, 0.0), 1.0, 24);
    let clean = PolygonSet::from_xy(&[(-2.0, -2.0), (2.0, -2.0), (2.0, 2.0), (-2.0, 2.0)]);
    let outcome = try_clip_with_stats(
        &dirty,
        &clean,
        BoolOp::Intersection,
        &ClipOptions::default(),
    )
    .unwrap();
    assert!(
        outcome.degradations.iter().any(|d| matches!(
            d,
            Degradation::InputRepaired {
                role: InputRole::Subject,
                ..
            }
        )),
        "expected InputRepaired, got {:?}",
        outcome.degradations
    );
    assert!(outcome.stats.input_repairs > 0);
    // The repaired answer is the clean circle of radius 1 (spikes carry no
    // area): π to generator resolution.
    let area = eo_area(&outcome.result);
    assert!((area - std::f64::consts::PI).abs() < 0.1, "area {area}");
    // Lenient callers proceed; strict callers get the typed rejection.
    assert!(matches!(
        outcome.strict(),
        Err(ClipError::DirtyInput {
            role: InputRole::Subject,
            ..
        })
    ));

    // With the sanitizer off, the same input is clipped verbatim and no
    // repair is reported.
    let off = ClipOptions {
        sanitize: false,
        ..ClipOptions::default()
    };
    let raw = try_clip_with_stats(&dirty, &clean, BoolOp::Intersection, &off).unwrap();
    assert!(!raw
        .degradations
        .iter()
        .any(|d| matches!(d, Degradation::InputRepaired { .. })));
    assert_eq!(raw.stats.input_repairs, 0);
}

// The ∩ and − overlays clip whole features, so each task's clip runs the
// engine's own sanitizer: a dirty feature is reported exactly as a direct
// clip of the pair reports it, with the same output.
#[test]
fn overlay_tasks_report_input_repairs_like_the_engine() {
    // (2, 0) is collinear on the bottom edge; (4, 0) is repeated.
    let dirty = PolygonSet::from_contour(Contour::from_raw(
        [
            (0.0, 0.0),
            (2.0, 0.0),
            (4.0, 0.0),
            (4.0, 0.0),
            (4.0, 4.0),
            (0.0, 4.0),
        ]
        .map(|(x, y)| Point::new(x, y))
        .to_vec(),
    ));
    let small = PolygonSet::from_xy(&[(1.0, 1.0), (3.0, 1.0), (3.0, 3.0), (1.0, 3.0)]);
    let (la, lb) = (
        Layer::new(vec![dirty.clone()]),
        Layer::new(vec![small.clone()]),
    );
    let opts = ClipOptions::default();
    let nonzero = ClipOptions {
        fill_rule: FillRule::NonZero,
        ..opts.clone()
    };
    let inter = try_clip_with_stats(&dirty, &small, BoolOp::Intersection, &opts).unwrap();
    let erase = try_clip_with_stats(&dirty, &small, BoolOp::Difference, &nonzero).unwrap();
    let repaired = |d: &[Degradation]| {
        d.iter().any(|d| {
            matches!(
                d,
                Degradation::InputRepaired {
                    role: InputRole::Subject,
                    repairs,
                } if repairs.duplicates_dropped == 1 && repairs.collinear_dropped == 1
            )
        })
    };
    assert!(repaired(&inter.degradations), "{:?}", inter.degradations);
    assert!(repaired(&erase.degradations), "{:?}", erase.degradations);
    for p in [1usize, 2] {
        for assignment in [SlabAssignment::UniqueOwner, SlabAssignment::Replicate] {
            // Every execution of the one pair task reports it, replicas too.
            let r = try_overlay_intersection(&la, &lb, p, assignment, &opts).unwrap();
            let reports: Vec<Degradation> = (0..r.tasks_executed)
                .flat_map(|_| inter.degradations.iter().cloned())
                .collect();
            assert_eq!(r.degradations, reports, "∩ {assignment:?} p={p}");
            assert_eq!(
                r.features,
                vec![inter.result.clone()],
                "∩ {assignment:?} p={p}"
            );
        }
        let r = try_overlay_difference(&la, &lb, p, &opts).unwrap();
        assert_eq!(r.degradations, erase.degradations, "− p={p}");
        assert_eq!(r.features, vec![erase.result.clone()], "− p={p}");
    }
}

#[test]
fn snap_cell_zero_is_the_default_and_disabled() {
    let opts = ClipOptions::default();
    assert_eq!(opts.snap_cell, 0.0);
    assert!(opts.sanitize);
    assert!(!opts.validate_output);
}

#[test]
fn snapped_intersections_stay_canonical() {
    let (a, b) = synthetic_pair(300, 17);
    for cell in [1e-12, 1e-9, 1e-6] {
        let opts = ClipOptions {
            snap_cell: cell,
            ..ClipOptions::sequential()
        };
        for op in ALL_OPS {
            let out = try_clip(&a, &b, op, &opts).unwrap().result;
            let rep = validate(&out);
            assert!(
                rep.violations.is_empty(),
                "cell={cell} {op:?}: {:?}",
                &rep.violations[..rep.violations.len().min(3)]
            );
        }
    }
    // A snap cell coarser than the geometry degrades gracefully rather
    // than panicking (answers may legitimately differ).
    let coarse = ClipOptions {
        snap_cell: 0.5,
        ..ClipOptions::sequential()
    };
    let _ = try_clip(&a, &b, BoolOp::Intersection, &coarse).unwrap();
}

#[test]
fn sanitize_phase_is_timed_and_cheap() {
    let (a, b) = synthetic_pair(4_000, 9);
    let r =
        try_clip_pair_slabs(&a, &b, BoolOp::Intersection, 4, &ClipOptions::sequential()).unwrap();
    // Clean input: the sanitize phase is a read-only scan. Lenient bound —
    // the <5% target is asserted on the benchmark, not under test-runner
    // noise — but it must at least not dominate.
    assert!(
        r.times.sanitize <= r.times.total / 2,
        "sanitize {:?} vs total {:?}",
        r.times.sanitize,
        r.times.total
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Clean inputs at default options are bit-identical to a run with the
    /// whole ladder disabled: the sanitizer borrows, the snap never fires.
    #[test]
    fn clean_inputs_are_bit_identical_with_ladder_armed(
        n in 16usize..200,
        seed in 0u64..1_000,
        which_op in 0usize..4,
    ) {
        let (a, b) = synthetic_pair(n, seed);
        let op = ALL_OPS[which_op];
        let defaults = ClipOptions { validate_output: true, ..ClipOptions::sequential() };
        let armed = try_clip(&a, &b, op, &defaults).unwrap();
        let raw = try_clip(&a, &b, op, &disarmed()).unwrap();
        prop_assert_eq!(armed.result, raw.result);
        prop_assert!(armed.degradations.is_empty());
        prop_assert_eq!(armed.stats.input_repairs, 0);
        prop_assert_eq!(armed.stats.output_repairs, 0);
    }

    /// Randomly mutated (dirtied) rings never panic and never leave
    /// violations behind when the ladder is armed.
    #[test]
    fn dirtied_rings_clip_canonically(
        n in 8usize..40,
        seed in 0u64..500,
        dup_every in 2usize..6,
    ) {
        use polyclip::geom::{Contour, Point};
        let (a, b) = synthetic_pair(n, seed);
        // Dirty copy of `a`: duplicate every `dup_every`-th vertex and
        // append the closer.
        let src = &a.contours()[0];
        let mut pts: Vec<Point> = Vec::new();
        for (i, p) in src.points().iter().enumerate() {
            pts.push(*p);
            if i % dup_every == 0 {
                pts.push(*p);
            }
        }
        pts.push(pts[0]);
        let dirty = PolygonSet::from_contours(vec![Contour::from_raw(pts)]);
        let out = try_clip(&dirty, &b, BoolOp::Intersection, &hardened()).unwrap();
        let rep = validate(&out.result);
        prop_assert!(rep.violations.is_empty(), "violations: {:?}", &rep.violations[..rep.violations.len().min(3)]);
        // The dirt changes nothing geometrically: same answer as clean a∩b.
        let clean = try_clip(&a, &b, BoolOp::Intersection, &disarmed()).unwrap();
        prop_assert!((eo_area(&out.result) - eo_area(&clean.result)).abs() < 1e-9);
    }
}
