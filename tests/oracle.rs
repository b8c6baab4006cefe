//! Oracle tests: the clipped output is validated against independent
//! reference implementations — the Foster–Overfelt differential matrix
//! (`core::oracle`), Monte-Carlo membership sampling against the inputs'
//! own point-in-polygon tests, and brute-force O(n²) intersection
//! counting.

use polyclip::datagen::{comb, donut, smooth_blob, star, torture_corpus};
use polyclip::geom::{region_area, symmetric_difference_area};
use polyclip::prelude::*;
use polyclip::sweep::{collect_edges, cross::brute_force_crossings};
use proptest::prelude::*;

fn lcg(s: &mut u64) -> f64 {
    *s = s
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    ((*s >> 11) as f64) / ((1u64 << 53) as f64)
}

fn rand_poly(s: &mut u64, n: usize, span: f64) -> PolygonSet {
    let pts: Vec<(f64, f64)> = (0..n).map(|_| (lcg(s) * span, lcg(s) * span)).collect();
    PolygonSet::from_xy(&pts)
}

fn blob(s: &mut u64, cx: f64, cy: f64, n: usize) -> PolygonSet {
    let pts: Vec<(f64, f64)> = (0..n)
        .map(|i| {
            let ang = i as f64 / n as f64 * std::f64::consts::TAU;
            let r = 0.4 + 0.6 * lcg(s);
            (cx + r * ang.cos(), cy + r * ang.sin())
        })
        .collect();
    PolygonSet::from_xy(&pts)
}

/// Distance from `p` to the nearest input edge (to excuse boundary points).
fn dist_to_edges(polys: &[&PolygonSet], p: Point) -> f64 {
    let mut best = f64::INFINITY;
    for poly in polys {
        for e in poly.edges() {
            let d = e.dir();
            let t = if d.norm2() > 0.0 {
                ((p - e.a).dot(&d) / d.norm2()).clamp(0.0, 1.0)
            } else {
                0.0
            };
            best = best.min(p.dist(&e.a.lerp(&e.b, t)));
        }
    }
    best
}

#[test]
fn monte_carlo_membership_oracle() {
    let mut s = 0xfeed_beefu64;
    let opts = ClipOptions::sequential();
    let mut checked = 0usize;
    for trial in 0..60 {
        let (a, b) = if trial % 2 == 0 {
            (blob(&mut s, 0.0, 0.0, 14), blob(&mut s, 0.5, 0.3, 14))
        } else {
            (rand_poly(&mut s, 8, 2.0), rand_poly(&mut s, 8, 2.0))
        };
        for op in [
            BoolOp::Intersection,
            BoolOp::Union,
            BoolOp::Difference,
            BoolOp::Xor,
        ] {
            let out = clip(&a, &b, op, &opts);
            for _ in 0..50 {
                let p = Point::new(lcg(&mut s) * 3.0 - 0.5, lcg(&mut s) * 3.0 - 0.5);
                if dist_to_edges(&[&a, &b], p) < 1e-7 {
                    continue; // boundary points are implementation-defined
                }
                let want = op.keep(
                    a.contains(p, FillRule::EvenOdd),
                    b.contains(p, FillRule::EvenOdd),
                );
                let got = out.contains(p, FillRule::EvenOdd);
                assert_eq!(
                    want, got,
                    "trial {trial} op {op:?} at ({}, {}): input membership says {want}, output says {got}",
                    p.x, p.y
                );
                checked += 1;
            }
        }
    }
    assert!(checked > 8_000, "oracle must actually sample ({checked})");
}

#[test]
fn monte_carlo_nonzero_fill_rule() {
    let mut s = 0x1234_5678u64;
    let mut opts = ClipOptions::sequential();
    opts.fill_rule = FillRule::NonZero;
    for trial in 0..30 {
        let a = rand_poly(&mut s, 8, 2.0);
        let b = rand_poly(&mut s, 8, 2.0);
        let out = clip(&a, &b, BoolOp::Union, &opts);
        for _ in 0..40 {
            let p = Point::new(lcg(&mut s) * 3.0 - 0.5, lcg(&mut s) * 3.0 - 0.5);
            if dist_to_edges(&[&a, &b], p) < 1e-7 {
                continue;
            }
            let want = a.contains(p, FillRule::NonZero) || b.contains(p, FillRule::NonZero);
            // Engine outputs are canonical: under either rule they read the
            // same, so query with even-odd.
            let got = out.contains(p, FillRule::EvenOdd);
            assert_eq!(want, got, "trial {trial} at ({}, {})", p.x, p.y);
        }
    }
}

#[test]
fn intersection_counts_match_bruteforce() {
    let mut s = 0x0badu64;
    for trial in 0..40 {
        let a = blob(&mut s, 0.0, 0.0, 20);
        let b = blob(&mut s, 0.3, 0.2, 20);
        let edges = collect_edges(&a, &b);
        let brute = brute_force_crossings(&edges).len();
        let (_, stats) = clip_with_stats(&a, &b, BoolOp::Intersection, &ClipOptions::sequential());
        assert_eq!(
            stats.k_intersections, brute,
            "trial {trial}: inversion discovery vs brute force"
        );
    }
}

#[test]
fn greiner_hormann_cross_validation_on_convex_pairs() {
    use polyclip::seqclip::{clip_to_convex, gh_clip, GhOp};
    let mut s = 0xabcdefu64;
    for trial in 0..25 {
        // Convex-ish inputs: circles with mild radius wobble stay convex
        // enough for SH when regular; use pure circles for SH validity.
        let n = 12 + (trial % 5) * 4;
        let a = polyclip::datagen::circle(Point::new(lcg(&mut s), lcg(&mut s)), 1.0, n);
        let b = polyclip::datagen::circle(Point::new(lcg(&mut s) + 0.4, lcg(&mut s)), 0.9, n);
        let (ca, cb) = (&a.contours()[0], &b.contours()[0]);

        let engine = measure_op(&a, &b, BoolOp::Intersection, &ClipOptions::sequential());
        let sh = clip_to_convex(ca, cb).area();
        let gh: f64 = gh_clip(ca, cb, GhOp::Intersection)
            .contours()
            .iter()
            .map(|c| c.signed_area())
            .sum::<f64>()
            .abs();
        assert!(
            (engine - sh).abs() < 1e-9 * (1.0 + engine),
            "trial {trial}: engine {engine} vs Sutherland-Hodgman {sh}"
        );
        assert!(
            (engine - gh).abs() < 1e-9 * (1.0 + engine),
            "trial {trial}: engine {engine} vs Greiner-Hormann {gh}"
        );
    }
}

#[test]
fn liang_barsky_cross_validation() {
    use polyclip::geom::Segment;
    use polyclip::seqclip::clip_segment_to_rect;
    // Every Liang–Barsky clipped segment must lie inside the rect, preserve
    // collinearity, and exist iff the segment truly hits the rect.
    let r = BBox::new(0.0, 0.0, 1.0, 1.0);
    let rect_poly = PolygonSet::from_xy(&[(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]);
    let mut s = 0x777u64;
    for _ in 0..500 {
        let a = Point::new(lcg(&mut s) * 3.0 - 1.0, lcg(&mut s) * 3.0 - 1.0);
        let b = Point::new(lcg(&mut s) * 3.0 - 1.0, lcg(&mut s) * 3.0 - 1.0);
        let seg = Segment::new(a, b);
        match clip_segment_to_rect(&seg, &r) {
            Some((c, (t0, t1))) => {
                assert!(t0 <= t1 + 1e-12);
                for p in [c.a, c.b] {
                    assert!(p.x >= -1e-9 && p.x <= 1.0 + 1e-9);
                    assert!(p.y >= -1e-9 && p.y <= 1.0 + 1e-9);
                }
                // Clipped endpoints stay on the original supporting line.
                assert!(seg.side_of(c.a).abs() < 1e-9);
                assert!(seg.side_of(c.b).abs() < 1e-9);
            }
            None => {
                // Midpoint samples must all be outside the rect.
                for k in 0..=10 {
                    let p = a.lerp(&b, k as f64 / 10.0);
                    assert!(
                        !rect_poly.contains(p, FillRule::EvenOdd) || dist_to_box(&r, p) < 1e-9,
                        "rejected segment passes through the rect at {p}"
                    );
                }
            }
        }
    }
}

fn dist_to_box(r: &BBox, p: Point) -> f64 {
    let dx = (r.xmin - p.x).max(0.0).max(p.x - r.xmax);
    let dy = (r.ymin - p.y).max(0.0).max(p.y - r.ymax);
    dx.max(dy).abs()
}

// ---------------------------------------------------------------------------
// Differential verification matrix: scanbeam engine vs Foster–Overfelt.
//
// Every engine configuration (backend × slab count × prepared path) is
// cross-checked against the structurally independent Foster–Overfelt
// clipper, with outputs compared as even-odd *regions* through the
// band-integration measures of `geom::measure` (a third independent code
// path). A disagreement here cannot be explained by a shared bug.
// ---------------------------------------------------------------------------

const ALL_OPS: [BoolOp; 4] = [
    BoolOp::Intersection,
    BoolOp::Union,
    BoolOp::Difference,
    BoolOp::Xor,
];

/// Engine configurations under differential test: the cold and the
/// prepared-layer path, each under the default and a refining cell plan, at
/// p ∈ {1, 4}. The refining plan puts the work-stealing cell path and the
/// two-axis seam dissolve in front of the oracle directly.
fn engine_configs() -> Vec<ScanbeamOracle> {
    let mut v = Vec::new();
    for p in [1usize, 4] {
        for grid in [GridConfig::default(), GridConfig::refined()] {
            let opts = ClipOptions {
                grid,
                ..ClipOptions::default()
            };
            v.push(ScanbeamOracle::new(p).with_options(opts.clone()));
            v.push(ScanbeamOracle::prepared(p).with_options(opts));
        }
    }
    v
}

/// Random-ish structured corpus: blobs, donuts (holes), stars and combs
/// (concave / rectilinear), identical pairs (full coincidence), and
/// contained pairs. All are FO-supported by construction.
fn random_corpus() -> Vec<(&'static str, PolygonSet, PolygonSet)> {
    let o = Point::new(0.0, 0.0);
    let blob_a = smooth_blob(11, o, 1.0, 28, 0.35);
    let mut cases = vec![
        (
            "blob_pair",
            smooth_blob(1, o, 1.0, 24, 0.3),
            smooth_blob(2, Point::new(0.5, 0.2), 0.9, 20, 0.25),
        ),
        (
            "donut_vs_blob",
            donut(3, o, 1.0, 24, 0.5),
            smooth_blob(4, Point::new(0.6, 0.0), 0.8, 18, 0.2),
        ),
        (
            "star_vs_comb",
            star(o, 0.4, 1.2, 7),
            comb(Point::new(-1.0, -0.5), 5, 0.3, 1.0),
        ),
        (
            "donut_vs_donut",
            donut(5, o, 1.0, 20, 0.45),
            donut(6, Point::new(0.4, 0.3), 0.9, 22, 0.55),
        ),
        (
            "comb_interleave",
            comb(o, 6, 0.25, 1.2),
            comb(Point::new(0.12, -0.3), 6, 0.25, 1.2),
        ),
        ("identical_blobs", blob_a.clone(), blob_a.clone()),
        (
            "blob_contains_star",
            smooth_blob(7, o, 2.5, 30, 0.15),
            star(o, 0.3, 0.9, 5),
        ),
        (
            "disjoint_far",
            smooth_blob(8, o, 1.0, 16, 0.2),
            smooth_blob(9, Point::new(10.0, 10.0), 1.0, 16, 0.2),
        ),
    ];
    // Shifted copies at varying overlap fractions.
    for (i, dx) in [0.1, 0.9, 1.7].iter().enumerate() {
        cases.push((
            "blob_shifted",
            blob_a.clone(),
            blob_a.translate(Point::new(*dx, 0.05 * i as f64)),
        ));
    }
    cases
}

/// Run one differential case through every engine configuration.
fn assert_differential(
    name: &str,
    subject: &PolygonSet,
    clip_p: &PolygonSet,
    rel_tol: f64,
) -> usize {
    let fo = FosterOverfeltOracle;
    if !fo.supports(subject, clip_p) {
        return 0;
    }
    let mut compared = 0;
    for op in ALL_OPS {
        let reference = fo
            .clip(subject, clip_p, op)
            .unwrap_or_else(|e| panic!("{name}/{op:?}: FO oracle failed: {e}"));
        for eng in engine_configs() {
            let out = eng
                .clip(subject, clip_p, op)
                .unwrap_or_else(|e| panic!("{name}/{op:?}/{}: engine failed: {e}", eng.name()));
            let d = compare_outputs(&out, &reference);
            assert!(
                d.within_tolerance(rel_tol),
                "{name}/{op:?}/{} p={}: engine and Foster–Overfelt disagree: \
                 engine area {:.12}, oracle area {:.12}, sym-diff {:.3e}",
                eng.name(),
                eng.n_slabs(),
                d.area_a,
                d.area_b,
                d.sym_diff_area,
            );
            compared += 1;
        }
    }
    compared
}

#[test]
fn differential_matrix_random_corpus() {
    let mut compared = 0usize;
    for (name, a, b) in random_corpus() {
        compared += assert_differential(name, &a, &b, ORACLE_REL_TOL);
    }
    // 11 cases × 4 ops × 8 configs: the matrix must not silently go vacuous.
    assert!(
        compared >= 11 * 4 * 8,
        "differential matrix shrank: only {compared} comparisons ran"
    );
}

/// Canonicalize a dirty set into a clean even-odd boundary by dissolving
/// it against the empty set (the engine's union-with-nothing).
fn canonicalize(p: &PolygonSet) -> PolygonSet {
    let opts = ClipOptions {
        validate_output: true,
        ..ClipOptions::sequential()
    };
    try_clip(p, &PolygonSet::new(), BoolOp::Union, &opts)
        .expect("canonicalization must not error")
        .result
}

#[test]
fn differential_matrix_torture_corpus() {
    // The torture corpus is full of *within-set* garbage (self-crossing
    // junk, doubled-back spikes, exactly-shared strip edges) that the FO
    // oracle's contract excludes. Cases the oracle supports raw run raw —
    // that covers the cross-set degeneracies (coincident edges, pinches,
    // slivers). The rest are first dissolved into canonical even-odd
    // boundaries and the op is then differentially verified on the
    // canonical inputs: the dissolve is engine code, but the boolean op
    // under test is still checked by a structurally independent clipper.
    // Coverage is asserted so the torture leg cannot silently go vacuous.
    let corpus = torture_corpus(0x0dd1_7e57);
    let total = corpus.len();
    let fo = FosterOverfeltOracle;
    let (mut raw, mut canon, mut skipped) = (0usize, 0usize, 0usize);
    let mut compared = 0usize;
    for case in &corpus {
        if fo.supports(&case.subject, &case.clip) {
            compared += assert_differential(case.name, &case.subject, &case.clip, ORACLE_REL_TOL);
            raw += 1;
            continue;
        }
        let (s, c) = (canonicalize(&case.subject), canonicalize(&case.clip));
        if fo.supports(&s, &c) {
            compared += assert_differential(case.name, &s, &c, ORACLE_REL_TOL);
            canon += 1;
        } else {
            skipped += 1; // sub-rounding near-contact survives canonicalization
        }
    }
    // Expected census on this seed: the two exact-contact cases run raw;
    // the spiky rings and junk pile canonicalize into clean regions; the
    // sliver fan and shingled strips keep sub-rounding near-contacts even
    // after dissolve (1e-22 vertex gaps, seams 1 ulp off the clip square)
    // that are out of any exact-labeling contract — see EXPERIMENTS.md.
    assert!(
        raw >= 2 && raw + canon >= 5,
        "torture coverage collapsed: raw {raw} + canonicalized {canon} of {total} \
         ({skipped} skipped)"
    );
    assert!(compared >= (raw + canon) * 4 * 6);
}

// ---------------------------------------------------------------------------
// The comparator itself must not pass vacuously: zero exactly when the
// regions match, positive when they genuinely differ.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Rotating the starting vertex, reversing orientation, and permuting
    /// the contour list all describe the same region: the comparator must
    /// report *exactly* zero (identical coordinates, no arithmetic slack).
    #[test]
    fn comparator_zero_for_reparameterized_sets(
        seed in 0u64..100_000,
        rot in 0usize..24,
        reverse in 0usize..2,
        swap in 0usize..2,
    ) {
        let (reverse, swap) = (reverse == 1, swap == 1);
        let mut a = donut(seed, Point::new(0.0, 0.0), 1.0, 18, 0.5);
        a.extend(smooth_blob(seed ^ 1, Point::new(2.5, 0.0), 0.8, 16, 0.3));
        let mut contours: Vec<Contour> = a.contours().to_vec();
        for c in &mut contours {
            let pts = c.points().to_vec();
            let k = rot % pts.len();
            let mut rotated: Vec<Point> = pts[k..].to_vec();
            rotated.extend_from_slice(&pts[..k]);
            if reverse {
                rotated.reverse();
            }
            *c = Contour::new(rotated);
        }
        if swap {
            contours.reverse(); // permute contour order
        }
        let b = PolygonSet::from_contours(contours);
        prop_assert_eq!(symmetric_difference_area(&a, &b), 0.0);
    }

    /// Genuinely different outputs must measure strictly positive: a
    /// translated copy, and a copy with one contour dropped.
    #[test]
    fn comparator_positive_for_real_differences(
        seed in 0u64..100_000,
        dx in 1e-3f64..0.5,
    ) {
        let mut a = donut(seed, Point::new(0.0, 0.0), 1.0, 18, 0.5);
        a.extend(smooth_blob(seed ^ 1, Point::new(2.5, 0.0), 0.8, 16, 0.3));
        let shifted = a.translate(Point::new(dx, 0.0));
        prop_assert!(symmetric_difference_area(&a, &shifted) > 0.0);

        let dropped = PolygonSet::from_contours(a.contours()[..a.len() - 1].to_vec());
        let d = symmetric_difference_area(&a, &dropped);
        let lost = region_area(&a) - region_area(&dropped);
        prop_assert!(d > 0.0);
        // The measured difference is exactly the dropped contour's region.
        prop_assert!((d - lost).abs() <= 1e-9 * (1.0 + lost.abs()));
    }
}
