//! Per-scanbeam classification (Lemmas 1–3 and Step 3 of Algorithm 1).
//!
//! Inside one (crossing-free) scanbeam the active sub-edges, sorted left to
//! right, alternate between *left* and *right* boundaries of the filled
//! region (Lemma 1). Walking them while maintaining the subject/clip winding
//! state is the prefix-sum parity test of Lemma 3 evaluated left-to-right;
//! the spans where the boolean predicate holds are the *kept* trapezoids,
//! whose non-horizontal boundaries are emitted immediately and whose
//! horizontal extents are recorded for the inter-beam merge.

use polyclip_geom::{FillRule, Point};
use polyclip_sweep::{Source, SubEdge};

/// The boolean operation to evaluate (the paper's `op ∈ {∩, ∪, \}` plus
/// symmetric difference, which Vatti-family clippers support for free).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum BoolOp {
    /// Region inside both inputs.
    Intersection,
    /// Region inside either input.
    Union,
    /// Region inside the subject but not the clip.
    Difference,
    /// Region inside exactly one input.
    Xor,
}

impl BoolOp {
    /// The keep predicate on (inside subject, inside clip).
    #[inline]
    pub fn keep(self, in_subject: bool, in_clip: bool) -> bool {
        match self {
            BoolOp::Intersection => in_subject && in_clip,
            BoolOp::Union => in_subject || in_clip,
            BoolOp::Difference => in_subject && !in_clip,
            BoolOp::Xor => in_subject != in_clip,
        }
    }
}

/// Classification result for one scanbeam.
#[derive(Clone, Debug, Default)]
pub struct BeamOutput {
    /// Non-horizontal boundary fragments, directed with the region interior
    /// on their left (left boundaries run top→bottom, right boundaries
    /// bottom→top — exactly the left/right labels of Lemma 1).
    pub edges: Vec<(Point, Point)>,
    /// Kept x-intervals on the bottom scanline.
    pub bottom: Vec<(f64, f64)>,
    /// Kept x-intervals on the top scanline.
    pub top: Vec<(f64, f64)>,
    /// Area of the kept trapezoids (used by the measure-only fast path).
    pub area: f64,
}

/// Classify one scanbeam.
///
/// `sub` must be sorted left-to-right (as produced by
/// [`polyclip_sweep::BeamSet`]) and crossing-free (Round B).
pub fn classify_beam(
    sub: &[SubEdge],
    y_bot: f64,
    y_top: f64,
    op: BoolOp,
    rule: FillRule,
) -> BeamOutput {
    let mut out = BeamOutput::default();
    let mut w_subject = 0i32;
    let mut w_clip = 0i32;
    let inside = |w: i32| match rule {
        FillRule::EvenOdd => w & 1 == 1,
        FillRule::NonZero => w != 0,
    };
    let mut keep = false;
    let mut open: Option<(f64, f64)> = None; // (xb, xt) of the left boundary
    let height = y_top - y_bot;

    for s in sub {
        match s.src {
            Source::Subject => {
                w_subject += delta(rule, s.winding);
            }
            Source::Clip => {
                w_clip += delta(rule, s.winding);
            }
        }
        let new_keep = op.keep(inside(w_subject), inside(w_clip));
        if new_keep != keep {
            if new_keep {
                // Entering a kept span: this sub-edge is a *left* boundary,
                // directed downward so the interior lies on its left.
                out.edges
                    .push((Point::new(s.xt, y_top), Point::new(s.xb, y_bot)));
                open = Some((s.xb, s.xt));
            } else {
                // Leaving: a *right* boundary, directed upward.
                out.edges
                    .push((Point::new(s.xb, y_bot), Point::new(s.xt, y_top)));
                let (ob, ot) = open.take().expect("leaving a span that never opened");
                // Residual crossings inside numerically degenerate
                // (hair-thin) beams can invert an interval; normalizing
                // keeps the interval endpoints — which are also vertical
                // fragment endpoints — consistent for the merge phase.
                out.bottom.push(norm(ob, s.xb));
                out.top.push(norm(ot, s.xt));
                out.area += ((s.xb - ob) + (s.xt - ot)) * 0.5 * height;
            }
            keep = new_keep;
        }
    }
    // A well-formed beam always closes: total winding returns to zero.
    debug_assert!(!keep, "unclosed kept span in scanbeam [{y_bot}, {y_top}]");
    out
}

/// Order an interval's endpoints (see the residual-crossing note above).
#[inline]
fn norm(a: f64, b: f64) -> (f64, f64) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

/// Winding contribution of one sub-edge: parity rules toggle by 1, nonzero
/// rules follow the original contour direction.
#[inline]
fn delta(rule: FillRule, winding: i8) -> i32 {
    match rule {
        FillRule::EvenOdd => 1,
        FillRule::NonZero => winding as i32,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polyclip_geom::PolygonSet;
    use polyclip_sweep::{collect_edges, event_ys, BeamSet, ForcedSplits};

    fn beams(a: &PolygonSet, b: &PolygonSet) -> (BeamSet, Vec<polyclip_sweep::InputEdge>) {
        let edges = collect_edges(a, b);
        let ys = event_ys(&edges, &[], false);
        let bs = BeamSet::build(&edges, ys, &ForcedSplits::empty(edges.len()), None, false);
        (bs, edges)
    }

    #[test]
    fn keep_predicate_truth_table() {
        use BoolOp::*;
        assert!(Intersection.keep(true, true) && !Intersection.keep(true, false));
        assert!(Union.keep(true, false) && Union.keep(false, true) && !Union.keep(false, false));
        assert!(Difference.keep(true, false) && !Difference.keep(true, true));
        assert!(Xor.keep(true, false) && !Xor.keep(true, true) && !Xor.keep(false, false));
    }

    #[test]
    fn single_square_union_spans() {
        let sq = PolygonSet::from_xy(&[(0.0, 0.0), (2.0, 0.0), (2.0, 2.0), (0.0, 2.0)]);
        let (bs, _) = beams(&sq, &PolygonSet::new());
        assert_eq!(bs.n_beams(), 1);
        let out = classify_beam(
            bs.beam(0),
            bs.y_bot(0),
            bs.y_top(0),
            BoolOp::Union,
            FillRule::EvenOdd,
        );
        assert_eq!(out.bottom, vec![(0.0, 2.0)]);
        assert_eq!(out.top, vec![(0.0, 2.0)]);
        assert_eq!(out.edges.len(), 2);
        assert!((out.area - 4.0).abs() < 1e-12);
        // Left boundary directed down, right boundary up.
        let down = &out.edges[0];
        assert!(down.0.y > down.1.y && down.0.x == 0.0);
        let up = &out.edges[1];
        assert!(up.0.y < up.1.y && up.0.x == 2.0);
    }

    #[test]
    fn overlapping_squares_intersection_area() {
        let a = PolygonSet::from_xy(&[(0.0, 0.0), (2.0, 0.0), (2.0, 2.0), (0.0, 2.0)]);
        let b = PolygonSet::from_xy(&[(1.0, 1.0), (3.0, 1.0), (3.0, 3.0), (1.0, 3.0)]);
        let (bs, _) = beams(&a, &b);
        // Events: 0,1,2,3 → three beams.
        assert_eq!(bs.n_beams(), 3);
        let mut area = 0.0;
        for i in 0..bs.n_beams() {
            let o = classify_beam(
                bs.beam(i),
                bs.y_bot(i),
                bs.y_top(i),
                BoolOp::Intersection,
                FillRule::EvenOdd,
            );
            area += o.area;
        }
        assert!((area - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ops_disagree_only_where_expected() {
        let a = PolygonSet::from_xy(&[(0.0, 0.0), (2.0, 0.0), (2.0, 2.0), (0.0, 2.0)]);
        let b = PolygonSet::from_xy(&[(1.0, 0.0), (3.0, 0.0), (3.0, 2.0), (1.0, 2.0)]);
        let (bs, _) = beams(&a, &b);
        let total = |op: BoolOp| -> f64 {
            (0..bs.n_beams())
                .map(|i| {
                    classify_beam(bs.beam(i), bs.y_bot(i), bs.y_top(i), op, FillRule::EvenOdd).area
                })
                .sum()
        };
        assert!((total(BoolOp::Intersection) - 2.0).abs() < 1e-12);
        assert!((total(BoolOp::Union) - 6.0).abs() < 1e-12);
        assert!((total(BoolOp::Difference) - 2.0).abs() < 1e-12);
        assert!((total(BoolOp::Xor) - 4.0).abs() < 1e-12);
        // Inclusion–exclusion: |A| + |B| = |A∪B| + |A∩B|.
        assert!((total(BoolOp::Union) + total(BoolOp::Intersection) - 8.0).abs() < 1e-12);
    }

    #[test]
    fn left_right_labels_alternate() {
        // Lemma 1: within a beam the boundary fragments of the kept region
        // alternate left (down) and right (up).
        let a = PolygonSet::from_xy(&[(0.0, 0.0), (6.0, 0.0), (6.0, 1.0), (0.0, 1.0)]);
        let b = PolygonSet::from_xy(&[(1.0, 0.0), (2.0, 0.0), (2.0, 1.0), (1.0, 1.0)]);
        let (bs, _) = beams(&a, &b);
        let o = classify_beam(
            bs.beam(0),
            bs.y_bot(0),
            bs.y_top(0),
            BoolOp::Difference,
            FillRule::EvenOdd,
        );
        // A \ B = two spans → L R L R.
        assert_eq!(o.bottom.len(), 2);
        assert_eq!(o.edges.len(), 4);
        for (i, e) in o.edges.iter().enumerate() {
            let goes_down = e.0.y > e.1.y;
            assert_eq!(goes_down, i % 2 == 0, "labels must alternate L,R,L,R");
        }
    }

    #[test]
    fn nonzero_vs_evenodd_on_doubly_wound_region() {
        // Two identical CCW squares as the subject: winding 2 inside.
        let a = PolygonSet::from_contours(vec![
            polyclip_geom::contour::rect(0.0, 0.0, 1.0, 1.0),
            polyclip_geom::contour::rect(0.0, 0.0, 1.0, 1.0),
        ]);
        let (bs, _) = beams(&a, &PolygonSet::new());
        let area = |rule: FillRule| -> f64 {
            (0..bs.n_beams())
                .map(|i| {
                    classify_beam(bs.beam(i), bs.y_bot(i), bs.y_top(i), BoolOp::Union, rule).area
                })
                .sum()
        };
        assert!((area(FillRule::EvenOdd) - 0.0).abs() < 1e-12);
        assert!((area(FillRule::NonZero) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_beam_is_empty() {
        let o = classify_beam(&[], 0.0, 1.0, BoolOp::Union, FillRule::EvenOdd);
        assert!(o.edges.is_empty() && o.bottom.is_empty() && o.area == 0.0);
    }
}
