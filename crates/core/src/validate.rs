//! Validation of clip outputs.
//!
//! The engine guarantees *canonical* output: contours are closed simple
//! rings, consistently oriented (outer counterclockwise, holes clockwise),
//! mutually non-crossing, and free of duplicate or collinear-redundant
//! vertices. This module checks those guarantees — used by the test suite
//! and available to downstream users who ingest polygons from elsewhere and
//! want to know whether they need a [`crate::engine::dissolve`] pass.

use polyclip_geom::{PolygonSet, SegmentIntersection};
use polyclip_sweep::{
    collect_edges, discover_intersections, event_ys, BeamSet, ForcedSplits, PartitionBackend,
};

/// A violation found by [`validate`].
#[derive(Clone, PartialEq, Debug)]
pub enum Violation {
    /// A contour has fewer than 3 vertices.
    TooFewVertices {
        /// Contour index.
        contour: usize,
    },
    /// A contour has zero signed area.
    ZeroArea {
        /// Contour index.
        contour: usize,
    },
    /// Two consecutive vertices coincide.
    DuplicateVertex {
        /// Contour index.
        contour: usize,
        /// Vertex index within the contour.
        vertex: usize,
    },
    /// Two edges of the set cross transversally (self-intersection or
    /// contour-contour crossing).
    EdgesCross {
        /// Sweep-edge ids of the crossing pair.
        edges: (u32, u32),
    },
    /// Two edges overlap collinearly.
    EdgesOverlap,
}

impl Violation {
    /// Sort key: contour-bearing violations ordered by (contour, vertex),
    /// then edge-level ones (which have no contour index).
    fn sort_key(&self) -> (u8, usize, usize) {
        match *self {
            Violation::TooFewVertices { contour } => (0, contour, 0),
            Violation::ZeroArea { contour } => (0, contour, 1),
            Violation::DuplicateVertex { contour, vertex } => (0, contour, 2 + vertex),
            Violation::EdgesCross { edges } => (1, edges.0 as usize, edges.1 as usize),
            Violation::EdgesOverlap => (2, 0, 0),
        }
    }
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Violation::TooFewVertices { contour } => {
                write!(f, "contour {contour} has fewer than 3 vertices")
            }
            Violation::ZeroArea { contour } => {
                write!(f, "contour {contour} has zero signed area")
            }
            Violation::DuplicateVertex { contour, vertex } => {
                write!(f, "contour {contour} repeats vertex {vertex}")
            }
            Violation::EdgesCross { edges } => {
                write!(f, "edges {} and {} cross", edges.0, edges.1)
            }
            Violation::EdgesOverlap => write!(f, "two edges overlap collinearly"),
        }
    }
}

impl std::error::Error for Violation {}

/// Report of a validation run.
#[derive(Clone, Debug, Default)]
pub struct ValidationReport {
    /// All violations found (empty = canonical), sorted by contour index
    /// (per-contour checks first, then edge-level crossings/overlaps).
    pub violations: Vec<Violation>,
}

impl ValidationReport {
    /// True when no violations were found.
    pub fn is_canonical(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Validate a polygon set against the engine's output guarantees.
///
/// Crossing detection reuses the sweep's inversion discovery, so the check
/// is `O((n + k') log)` rather than quadratic.
pub fn validate(p: &PolygonSet) -> ValidationReport {
    let mut report = ValidationReport::default();

    for (ci, c) in p.contours().iter().enumerate() {
        if c.len() < 3 {
            report
                .violations
                .push(Violation::TooFewVertices { contour: ci });
            continue;
        }
        if c.signed_area() == 0.0 {
            report.violations.push(Violation::ZeroArea { contour: ci });
        }
        let pts = c.points();
        for v in 0..pts.len() {
            if pts[v] == pts[(v + 1) % pts.len()] {
                report.violations.push(Violation::DuplicateVertex {
                    contour: ci,
                    vertex: v,
                });
            }
        }
    }

    // Crossings among all edges of the set (output contours must not cross
    // themselves or each other).
    let edges = collect_edges(p, &PolygonSet::new());
    if edges.len() >= 2 {
        let ys = event_ys(&edges, &[], false);
        if ys.len() >= 2 {
            let beams = BeamSet::build(
                &edges,
                ys,
                &ForcedSplits::empty(edges.len()),
                PartitionBackend::DirectScan,
                false,
            );
            for ev in discover_intersections(&beams, &edges, false) {
                report.violations.push(Violation::EdgesCross {
                    edges: (ev.e1, ev.e2),
                });
            }
            // Collinear overlaps between distinct edges inside a beam.
            'outer: for b in 0..beams.n_beams() {
                let sub = beams.beam(b);
                for w in sub.windows(2) {
                    if w[0].xb == w[1].xb && w[0].xt == w[1].xt && w[0].edge_id != w[1].edge_id {
                        let (ea, eb) = (
                            edges[w[0].edge_id as usize].segment(),
                            edges[w[1].edge_id as usize].segment(),
                        );
                        if matches!(ea.intersect(&eb), SegmentIntersection::Overlap(..)) {
                            report.violations.push(Violation::EdgesOverlap);
                            break 'outer;
                        }
                    }
                }
            }
        }
    }
    report.violations.sort_by_key(|v| v.sort_key());
    report
}

/// Convenience: validate and assert canonical (for tests).
pub fn assert_canonical(p: &PolygonSet) {
    let r = validate(p);
    assert!(
        r.is_canonical(),
        "polygon set is not canonical: {:?}",
        &r.violations[..r.violations.len().min(5)]
    );
}

/// Whether a contour provably cannot contribute area or sweep crossings:
/// fewer than three vertices, or a bounding box with zero width or height
/// (a point, or a purely horizontal/vertical sliver — its edges either
/// never enter the sweep or cancel pairwise). The engine's input gate drops
/// exactly these contours.
///
/// Deliberately weaker than a zero-signed-area test: self-intersecting
/// contours with cancelling lobes (a symmetric bow-tie) are *not*
/// degenerate — they enclose area under even-odd and must reach the
/// engine.
pub fn is_degenerate(c: &polyclip_geom::Contour) -> bool {
    contributing_bbox(c).is_none()
}

/// The bbox of a contour that is not [`is_degenerate`], or `None` for a
/// degenerate one — the engine's input gate keeps this bbox for its cull.
pub(crate) fn contributing_bbox(c: &polyclip_geom::Contour) -> Option<polyclip_geom::BBox> {
    if c.len() < 3 {
        return None;
    }
    let bb = c.bbox();
    (bb.xmin != bb.xmax && bb.ymin != bb.ymax).then_some(bb)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::BoolOp;
    use crate::engine::{clip, ClipOptions};
    use polyclip_geom::contour::rect;
    use polyclip_geom::Contour;

    #[test]
    fn clean_output_is_canonical() {
        let a = PolygonSet::from_xy(&[(0.0, 0.0), (4.0, 0.3), (3.0, 3.0), (0.5, 2.0)]);
        let b = PolygonSet::from_xy(&[(1.0, -1.0), (5.0, 1.0), (2.0, 4.0)]);
        for op in [
            BoolOp::Intersection,
            BoolOp::Union,
            BoolOp::Difference,
            BoolOp::Xor,
        ] {
            let out = clip(&a, &b, op, &ClipOptions::sequential());
            assert_canonical(&out);
        }
    }

    #[test]
    fn bowtie_is_flagged() {
        let bow = PolygonSet::from_xy(&[(0.0, 0.0), (2.0, 2.0), (2.0, 0.0), (0.0, 2.0)]);
        let r = validate(&bow);
        assert!(!r.is_canonical());
        assert!(r
            .violations
            .iter()
            .any(|v| matches!(v, Violation::EdgesCross { .. })));
        // Dissolving canonicalizes it.
        let d = crate::engine::dissolve(&bow, &ClipOptions::sequential());
        assert_canonical(&d);
    }

    #[test]
    fn crossing_contours_are_flagged() {
        let p = PolygonSet::from_contours(vec![
            rect(0.0, 0.0, 2.0, 2.0),
            Contour::from_xy(&[(1.0, 1.0), (3.0, 1.2), (3.0, 3.0), (1.0, 2.8)]),
        ]);
        assert!(!validate(&p).is_canonical());
    }

    #[test]
    fn degenerate_contours_are_flagged_and_sanitized() {
        let mut p = PolygonSet::new();
        p.contours_mut()
            .push(Contour::from_xy(&[(0.0, 0.0), (1.0, 0.0)]));
        p.contours_mut().push(Contour::from_xy(&[
            (0.0, 0.0),
            (1.0, 1.0),
            (2.0, 2.0), // collinear: zero area
        ]));
        p.push(rect(5.0, 5.0, 6.0, 6.0));
        let r = validate(&p);
        assert!(r
            .violations
            .iter()
            .any(|v| matches!(v, Violation::TooFewVertices { .. })));
        assert!(r
            .violations
            .iter()
            .any(|v| matches!(v, Violation::ZeroArea { .. })));
    }

    #[test]
    fn bowties_are_not_degenerate_but_slivers_are() {
        use polyclip_geom::point::pt;
        // Symmetric bow-tie: signed area 0, but even-odd area 2 — the
        // conservative gate must let it through.
        let bow = Contour::from_xy(&[(0.0, 0.0), (2.0, 2.0), (2.0, 0.0), (0.0, 2.0)]);
        assert!(!is_degenerate(&bow));
        // Two points; one point repeated; a horizontal sliver (zero bbox
        // height).
        assert!(is_degenerate(&Contour::from_xy(&[(0.0, 0.0), (1.0, 0.0)])));
        assert!(is_degenerate(&Contour::new(vec![
            pt(5.0, 5.0),
            pt(5.0, 5.0),
            pt(5.0, 5.0)
        ])));
        assert!(is_degenerate(&Contour::from_xy(&[
            (0.0, 7.0),
            (3.0, 7.0),
            (1.5, 7.0)
        ])));
    }

    #[test]
    fn violations_display_and_sort_by_contour() {
        let mut p = PolygonSet::new();
        p.push(rect(5.0, 5.0, 6.0, 6.0));
        p.contours_mut().push(Contour::from_xy(&[
            (0.0, 0.0),
            (1.0, 1.0),
            (2.0, 2.0), // collinear: zero area (contour 1)
        ]));
        p.contours_mut()
            .push(Contour::from_xy(&[(0.0, 0.0), (1.0, 0.0)])); // contour 2
        let r = validate(&p);
        let contours: Vec<_> = r
            .violations
            .iter()
            .filter_map(|v| match v {
                Violation::TooFewVertices { contour }
                | Violation::ZeroArea { contour }
                | Violation::DuplicateVertex { contour, .. } => Some(*contour),
                _ => None,
            })
            .collect();
        let mut sorted = contours.clone();
        sorted.sort_unstable();
        assert_eq!(contours, sorted);

        assert_eq!(
            Violation::ZeroArea { contour: 1 }.to_string(),
            "contour 1 has zero signed area"
        );
        assert_eq!(
            Violation::TooFewVertices { contour: 2 }.to_string(),
            "contour 2 has fewer than 3 vertices"
        );
        assert_eq!(
            Violation::EdgesCross { edges: (3, 7) }.to_string(),
            "edges 3 and 7 cross"
        );
        let err: Box<dyn std::error::Error> = Box::new(Violation::EdgesOverlap);
        assert_eq!(err.to_string(), "two edges overlap collinearly");
    }

    #[test]
    fn overlapping_collinear_edges_flagged() {
        // Two rects sharing part of an edge: x=2 overlaps on y in [0.5, 1].
        let p = PolygonSet::from_contours(vec![rect(0.0, 0.0, 2.0, 1.0), rect(2.0, 0.5, 4.0, 1.5)]);
        let r = validate(&p);
        assert!(r
            .violations
            .iter()
            .any(|v| matches!(v, Violation::EdgesOverlap)));
    }
}
