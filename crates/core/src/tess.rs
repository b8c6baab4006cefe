//! Trapezoid decomposition and triangulation of boolean results.
//!
//! The scanbeam engine's kept spans *are* a vertical trapezoid decomposition
//! of the result region (the paper: "the intersection operation results in
//! convex output since the trapezoids are themselves convex in nature").
//! Exposing them directly serves the graphics use-case from the paper's
//! introduction — clipped geometry feeding rasterizers and GPU pipelines
//! wants triangles, not rings — and skips the stitching phase entirely.

use crate::classify::{classify_beam, BoolOp};
use crate::engine::{prepare, ClipOptions};
use polyclip_geom::{Point, PolygonSet};
use rayon::prelude::*;

/// One kept trapezoid: a scanbeam-aligned quad with horizontal top and
/// bottom. Degenerate sides (triangles) occur at local minima/maxima.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Trapezoid {
    /// Bottom scanline.
    pub y_bot: f64,
    /// Top scanline.
    pub y_top: f64,
    /// Left boundary x at the bottom / top scanline.
    pub xl: (f64, f64),
    /// Right boundary x at the bottom / top scanline.
    pub xr: (f64, f64),
}

impl Trapezoid {
    /// Signed area (non-negative for well-formed trapezoids).
    pub fn area(&self) -> f64 {
        ((self.xr.0 - self.xl.0) + (self.xr.1 - self.xl.1)) * 0.5 * (self.y_top - self.y_bot)
    }

    /// The corner points, counterclockwise from bottom-left.
    pub fn corners(&self) -> [Point; 4] {
        [
            Point::new(self.xl.0, self.y_bot),
            Point::new(self.xr.0, self.y_bot),
            Point::new(self.xr.1, self.y_top),
            Point::new(self.xl.1, self.y_top),
        ]
    }

    /// Split into at most two non-degenerate triangles.
    pub fn triangles(&self) -> Vec<[Point; 3]> {
        let [a, b, c, d] = self.corners();
        let mut out = Vec::with_capacity(2);
        if (b.x - a.x).abs() > 0.0 {
            out.push([a, b, c]);
        }
        if (c.x - d.x).abs() > 0.0 {
            out.push([a, c, d]);
        }
        // Both bases degenerate: the trapezoid has no area.
        out
    }
}

/// The trapezoid decomposition of a boolean result.
///
/// Runs the engine's preparation and classification but not the merge: the
/// output is the raw list of kept trapezoids, beam by beam, left to right.
pub fn trapezoids(
    subject: &PolygonSet,
    clip_p: &PolygonSet,
    op: BoolOp,
    opts: &ClipOptions,
) -> Vec<Trapezoid> {
    let gate = crate::budget::Gate::unlimited();
    let Ok(Some(p)) = prepare(subject, clip_p, None, opts, &mut Default::default(), &gate) else {
        return Vec::new();
    };
    let beams = &p.beams;

    let per_beam = |i: usize| -> Vec<Trapezoid> {
        let o = classify_beam(
            beams.beam(i),
            beams.y_bot(i),
            beams.y_top(i),
            op,
            opts.fill_rule,
        );
        o.bottom
            .iter()
            .zip(&o.top)
            .map(|(&(bl, br), &(tl, tr))| Trapezoid {
                y_bot: beams.y_bot(i),
                y_top: beams.y_top(i),
                xl: (bl, tl),
                xr: (br, tr),
            })
            .collect()
    };
    if opts.parallel {
        (0..beams.n_beams())
            .into_par_iter()
            .flat_map_iter(per_beam)
            .collect()
    } else {
        (0..beams.n_beams()).flat_map(per_beam).collect()
    }
}

/// Triangulate a boolean result (fan-free, two triangles per trapezoid).
pub fn triangulate(
    subject: &PolygonSet,
    clip_p: &PolygonSet,
    op: BoolOp,
    opts: &ClipOptions,
) -> Vec<[Point; 3]> {
    trapezoids(subject, clip_p, op, opts)
        .iter()
        .flat_map(Trapezoid::triangles)
        .collect()
}

/// Signed area of a triangle.
pub fn triangle_area(t: &[Point; 3]) -> f64 {
    ((t[1] - t[0]).cross(&(t[2] - t[0]))) * 0.5
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::measure_op;
    use polyclip_geom::contour::rect;
    use polyclip_geom::FillRule;

    fn sq(x0: f64, y0: f64, x1: f64, y1: f64) -> PolygonSet {
        PolygonSet::from_contour(rect(x0, y0, x1, y1))
    }

    fn seq() -> ClipOptions {
        ClipOptions::sequential()
    }

    #[test]
    fn trapezoid_areas_sum_to_the_measure() {
        let a = PolygonSet::from_xy(&[(0.0, 0.0), (5.0, 0.5), (4.0, 3.0), (1.0, 2.5)]);
        let b = PolygonSet::from_xy(&[(2.0, -1.0), (6.0, 1.5), (3.0, 4.0)]);
        for op in [
            BoolOp::Intersection,
            BoolOp::Union,
            BoolOp::Difference,
            BoolOp::Xor,
        ] {
            let traps = trapezoids(&a, &b, op, &seq());
            let sum: f64 = traps.iter().map(Trapezoid::area).sum();
            let want = measure_op(&a, &b, op, &seq());
            assert!(
                (sum - want).abs() < 1e-9 * (1.0 + want),
                "{op:?}: {sum} vs {want}"
            );
        }
    }

    #[test]
    fn triangles_cover_the_same_area() {
        let a = sq(0.0, 0.0, 2.0, 2.0);
        let b = PolygonSet::from_xy(&[(1.0, -0.5), (3.0, 1.0), (1.0, 3.0)]);
        let tris = triangulate(&a, &b, BoolOp::Intersection, &seq());
        let sum: f64 = tris.iter().map(triangle_area).sum();
        let want = measure_op(&a, &b, BoolOp::Intersection, &seq());
        assert!((sum - want).abs() < 1e-9 * (1.0 + want));
        // Every triangle is counterclockwise and non-degenerate.
        for t in &tris {
            assert!(triangle_area(t) > 0.0);
        }
    }

    #[test]
    fn square_decomposes_into_one_trapezoid() {
        let a = sq(0.0, 0.0, 2.0, 2.0);
        let traps = trapezoids(&a, &PolygonSet::new(), BoolOp::Union, &seq());
        assert_eq!(traps.len(), 1);
        assert_eq!(traps[0].area(), 4.0);
        assert_eq!(traps[0].triangles().len(), 2);
    }

    #[test]
    fn triangle_tip_trapezoid_degenerates_to_one_triangle() {
        let tri = PolygonSet::from_xy(&[(0.0, 0.0), (2.0, 0.0), (1.0, 2.0)]);
        let traps = trapezoids(&tri, &PolygonSet::new(), BoolOp::Union, &seq());
        assert_eq!(traps.len(), 1);
        let t = traps[0].triangles();
        assert_eq!(t.len(), 1, "apex quad has a zero-width top");
        assert!((triangle_area(&t[0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn bowtie_trapezoids_respect_parity() {
        let bow = PolygonSet::from_xy(&[(0.0, 0.0), (2.0, 2.0), (2.0, 0.0), (0.0, 2.0)]);
        let traps = trapezoids(&bow, &PolygonSet::new(), BoolOp::Union, &seq());
        let sum: f64 = traps.iter().map(Trapezoid::area).sum();
        // Even-odd area of the bow-tie: two lobes of area 1 each.
        assert!((sum - 2.0).abs() < 1e-9, "sum = {sum}");
    }

    #[test]
    fn nonzero_rule_flows_through() {
        let two =
            PolygonSet::from_contours(vec![rect(0.0, 0.0, 1.0, 1.0), rect(0.0, 0.0, 1.0, 1.0)]);
        let mut opts = seq();
        opts.fill_rule = FillRule::NonZero;
        let nz: f64 = trapezoids(&two, &PolygonSet::new(), BoolOp::Union, &opts)
            .iter()
            .map(Trapezoid::area)
            .sum();
        assert!((nz - 1.0).abs() < 1e-12);
        let eo: f64 = trapezoids(&two, &PolygonSet::new(), BoolOp::Union, &seq())
            .iter()
            .map(Trapezoid::area)
            .sum();
        assert_eq!(eo, 0.0);
    }

    #[test]
    fn parallel_equals_sequential() {
        let a = PolygonSet::from_xy(&[(0.0, 0.0), (5.0, 0.5), (4.0, 3.0), (1.0, 2.5)]);
        let b = PolygonSet::from_xy(&[(2.0, -1.0), (6.0, 1.5), (3.0, 4.0)]);
        let s = trapezoids(&a, &b, BoolOp::Intersection, &seq());
        let p = trapezoids(&a, &b, BoolOp::Intersection, &ClipOptions::default());
        assert_eq!(s, p);
    }
}
