//! Cross-implementation verification oracles.
//!
//! Every equivalence test in this workspace ultimately compared the
//! scanbeam engine against *itself* (slab-index vs full-scan, prepared vs
//! cold, parallel vs sequential) — a shared-code bug passes all of them.
//! This module turns that self-consistency pyramid into genuine
//! cross-implementation verification: a [`ClipOracle`] trait with two
//! structurally unrelated implementations,
//!
//! * [`ScanbeamOracle`] — the production engine (Algorithm 2 over the
//!   scanbeam sweep), in any cell-plan/parallelism/prepared configuration;
//! * [`FosterOverfeltOracle`] — the independent Foster–Overfelt clipper
//!   from [`polyclip_seqclip::foster_overfelt`], which shares **no**
//!   sweep, partition, dissolve, or stitching code with the engine;
//!
//! plus the comparator that makes differential testing meaningful:
//! [`compare_outputs`], built on `geom::measure`'s band-integration
//! areas. Two correct clippers legitimately emit different vertex
//! sequences (ring rotation, orientation, collinear vertices, hole
//! decomposition), so outputs are compared as *regions* — the symmetric
//! difference of their even-odd interiors must be (near) zero — rather
//! than as vertex lists. The measure itself is a third independent code
//! path (plain band decomposition), so a disagreement cannot be explained
//! away by the comparator sharing a bug with either clipper.
//!
//! See `DESIGN.md` §4.11 for the rationale and the known non-goals
//! (self-intersecting inputs, nonzero fill rule).

use polyclip_geom::predicates::orient2d_sign;
use polyclip_geom::{region_area, symmetric_difference_area, Point, PolygonSet, EPS_COLLINEAR_REL};
use polyclip_seqclip::{fo_clip, FoOp};

use crate::classify::BoolOp;
use crate::engine::ClipOptions;
use crate::prepared::PreparedLayer;
use crate::resilience::ClipError;

/// Relative area tolerance for differential comparisons: outputs agree
/// when `sym_diff ≤ tol · (1 + max(area_a, area_b))`. The slack absorbs
/// floating-point rounding in intersection placement (each clipper rounds
/// its crossing coordinates independently), not algorithmic error —
/// disagreements from wrong topology are orders of magnitude larger.
pub const ORACLE_REL_TOL: f64 = 1e-9;

/// Why an oracle declined or failed a clip request.
#[derive(Debug, Clone)]
pub enum OracleError {
    /// The input is outside the oracle's supported class (e.g. the
    /// Foster–Overfelt oracle on a self-intersecting set). Differential
    /// harnesses should *skip*, not fail, these cases.
    Unsupported(&'static str),
    /// The underlying clipper returned a typed error.
    Failed(ClipError),
}

impl std::fmt::Display for OracleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OracleError::Unsupported(why) => write!(f, "unsupported input: {why}"),
            OracleError::Failed(e) => write!(f, "clip failed: {e}"),
        }
    }
}

impl std::error::Error for OracleError {}

/// A clipping implementation that can serve as one side of a
/// differential check.
pub trait ClipOracle {
    /// Short stable name for reports and bench artifacts.
    fn name(&self) -> &'static str;

    /// Whether this oracle's correctness contract covers these inputs.
    /// Returning `false` means a differential harness must skip the case,
    /// not that the clip would crash.
    fn supports(&self, _subject: &PolygonSet, _clip: &PolygonSet) -> bool {
        true
    }

    /// Perform the boolean operation.
    fn clip(
        &self,
        subject: &PolygonSet,
        clip: &PolygonSet,
        op: BoolOp,
    ) -> Result<PolygonSet, OracleError>;
}

/// The production scanbeam engine as an oracle, in a fixed configuration
/// (cold or prepared path, slab count, options).
pub struct ScanbeamOracle {
    /// Freeze the subject into a [`PreparedLayer`], then clip the query
    /// against it — exercises the prepared fast path end to end.
    prepared: bool,
    n_slabs: usize,
    opts: ClipOptions,
}

impl ScanbeamOracle {
    /// Cold Algorithm-2 run with `n_slabs` slabs.
    pub fn new(n_slabs: usize) -> Self {
        ScanbeamOracle {
            prepared: false,
            n_slabs,
            opts: ClipOptions::default(),
        }
    }

    /// Prepared-layer path: build once from the subject, clip the query.
    pub fn prepared(n_slabs: usize) -> Self {
        ScanbeamOracle {
            prepared: true,
            ..ScanbeamOracle::new(n_slabs)
        }
    }

    /// Replace the engine options (grid plan, merge, sanitize/budget/fault
    /// settings).
    pub fn with_options(mut self, opts: ClipOptions) -> Self {
        self.opts = opts;
        self
    }

    /// Slab count the oracle runs with.
    pub fn n_slabs(&self) -> usize {
        self.n_slabs
    }
}

impl ClipOracle for ScanbeamOracle {
    fn name(&self) -> &'static str {
        match (self.prepared, self.opts.grid.oversub > 0) {
            (false, false) => "scanbeam-slabindex",
            (false, true) => "scanbeam-adaptivegrid",
            (true, false) => "scanbeam-prepared",
            (true, true) => "scanbeam-prepared-adaptivegrid",
        }
    }

    fn clip(
        &self,
        subject: &PolygonSet,
        clip: &PolygonSet,
        op: BoolOp,
    ) -> Result<PolygonSet, OracleError> {
        let r = if self.prepared {
            let layer = PreparedLayer::build(subject, &self.opts).map_err(OracleError::Failed)?;
            crate::prepared::try_clip_prepared(&layer, clip, op, self.n_slabs, &self.opts)
        } else {
            crate::algo2::try_clip_pair_slabs(subject, clip, op, self.n_slabs, &self.opts)
        };
        r.map(|r| r.output).map_err(OracleError::Failed)
    }
}

/// The independent Foster–Overfelt clipper as an oracle.
///
/// Its correctness contract covers arbitrary *exact* cross-set
/// degeneracies (shared vertices, vertices on edges, collinear overlaps
/// between subject and clip) but requires each input *set* to be
/// internally clean — no boundary self-crossings (proper, or degenerate
/// through a touch point whose passage wedges interleave), no collinear
/// overlap between edges of the same set, and no within-set touch point
/// that also lies on the *other* set's boundary. A purely within-set
/// *bounce* (a pinched ring, two rings kissing at a corner) never enters
/// the labeling graph (partner links are only materialized at cross-set
/// incidences), but the graph links at most one partner node per
/// geometric point, so a point where three boundary features meet — two
/// from one set, one from the other — is unrepresentable.
/// All *distinct* features must additionally be separated by more than
/// rounding scale: two edges a sub-rounding distance apart (closer than
/// [`EPS_COLLINEAR_REL`] relative to edge length, yet not exactly
/// touching) make independently computed intersection coordinates
/// collapse onto each other or sort out of order, which no amount of
/// exact labeling can repair. Exact contact is in contract, near-contact
/// is not. [`supports`](ClipOracle::supports) screens for all of this
/// with exact predicates plus the single named near-miss tolerance.
#[derive(Default)]
pub struct FosterOverfeltOracle;

/// One ring edge with enough identity to decide geometric adjacency:
/// consecutive edges of the same ring legitimately share one endpoint;
/// any other contact within a set is a self-touching boundary.
#[derive(Clone, Copy)]
struct RingEdge {
    a: Point,
    b: Point,
    ring: usize,
    idx: usize,
    ring_len: usize,
}

impl RingEdge {
    /// Consecutive edges of the same ring (including the wrap-around).
    fn adjacent(&self, other: &RingEdge) -> bool {
        self.ring == other.ring
            && ((self.idx + 1) % self.ring_len == other.idx
                || (other.idx + 1) % other.ring_len == self.idx)
    }
}

impl FosterOverfeltOracle {
    /// The set's rings with consecutive duplicate points (and a repeated
    /// closing point) collapsed, so edge-index adjacency below matches
    /// geometric adjacency; `None` on non-finite input.
    fn clean_rings(set: &PolygonSet) -> Option<Vec<Vec<Point>>> {
        let mut rings: Vec<Vec<Point>> = Vec::new();
        for c in set.contours() {
            let mut pts: Vec<Point> = Vec::with_capacity(c.len());
            for &p in c.points() {
                if !p.is_finite() {
                    return None;
                }
                if pts.last() != Some(&p) {
                    pts.push(p);
                }
            }
            while pts.len() > 1 && pts.first() == pts.last() {
                pts.pop();
            }
            if pts.len() >= 2 {
                rings.push(pts);
            }
        }
        Some(rings)
    }

    /// Flatten cleaned rings into edges tagged with ring identity.
    fn ring_edges(rings: &[Vec<Point>]) -> Vec<RingEdge> {
        let mut edges: Vec<RingEdge> = Vec::new();
        for (ring, pts) in rings.iter().enumerate() {
            let n = pts.len();
            for idx in 0..n {
                edges.push(RingEdge {
                    a: pts[idx],
                    b: pts[(idx + 1) % n],
                    ring,
                    idx,
                    ring_len: n,
                });
            }
        }
        edges
    }

    /// Screen one edge set for within-set crossings, overlaps and
    /// near-misses, collecting the points where non-adjacent edges of the
    /// set *exactly touch*. A touch is tolerated only when the boundary
    /// *bounces* there — the two passages through the point have
    /// non-interleaving direction wedges (a pinched ring, two rings
    /// kissing at a corner). A touch where the passages interleave is a
    /// degenerate self-*crossing* (e.g. a T-junction the boundary passes
    /// through): the ring is not simple, its even-odd region differs from
    /// what ring-by-ring tracing sees, and the oracle cannot be trusted
    /// on it. Returns `None` when the set is dirty (crossing — proper or
    /// through a touch point — overlap, sub-rounding near-miss, or a
    /// point shared by more than two passages).
    fn within_set_contacts(rings: &[Vec<Point>], edges: &[RingEdge]) -> Option<Vec<Point>> {
        let mut touches: Vec<Point> = Vec::new();
        for (k, ea) in edges.iter().enumerate() {
            let (a0, a1) = (ea.a, ea.b);
            for eb in edges.iter().skip(k + 1) {
                let (b0, b1) = (eb.a, eb.b);
                if bbox_apart(a0, a1, b0, b1) {
                    continue;
                }
                let o1 = orient2d_sign(b0, b1, a0);
                let o2 = orient2d_sign(b0, b1, a1);
                let o3 = orient2d_sign(a0, a1, b0);
                let o4 = orient2d_sign(a0, a1, b1);
                // Proper interior crossing: boundary self-intersection.
                if o1 * o2 < 0.0 && o3 * o4 < 0.0 {
                    return None;
                }
                // Collinear overlap of positive length (shared endpoints
                // of adjacent ring edges have zero-length overlap and
                // pass; doubled-back spikes do not).
                if o1 == 0.0 && o2 == 0.0 && overlap_positive(a0, a1, b0, b1) {
                    return None;
                }
                // Distinct features below rounding scale.
                if near_miss(a0, a1, b0, b1) {
                    return None;
                }
                // Exact touch between non-adjacent edges: two stretches
                // of boundary meeting at a point.
                if !ea.adjacent(eb) {
                    for (p, s0, s1) in [(a0, b0, b1), (a1, b0, b1), (b0, a0, a1), (b1, a0, a1)] {
                        if on_segment_exact(p, s0, s1) && !touches.contains(&p) {
                            touches.push(p);
                        }
                    }
                }
            }
        }
        for &p in &touches {
            let passages = passages_through(rings, p);
            if passages.len() != 2 || passages_interleave(passages[0], passages[1]) {
                return None;
            }
        }
        Some(touches)
    }

    /// Screen two edge sets against each other. Exact contact and proper
    /// crossings between the sets are the oracle's bread and butter; only
    /// sub-rounding *near*-contact is out of contract.
    fn edges_cleanly_separated(ea: &[RingEdge], eb: &[RingEdge]) -> bool {
        for a in ea {
            for b in eb {
                if bbox_apart(a.a, a.b, b.a, b.b) {
                    continue;
                }
                if near_miss(a.a, a.b, b.a, b.b) {
                    return false;
                }
            }
        }
        true
    }
}

/// Loose bbox rejection: padded by the near-miss tolerance so pairs that
/// are disjoint but within rounding scale of touching still get screened.
#[inline]
fn bbox_apart(a0: Point, a1: Point, b0: Point, b1: Point) -> bool {
    let pad = near_tol(a0, a1, b0, b1);
    a0.x.max(a1.x) + pad < b0.x.min(b1.x)
        || b0.x.max(b1.x) + pad < a0.x.min(a1.x)
        || a0.y.max(a1.y) + pad < b0.y.min(b1.y)
        || b0.y.max(b1.y) + pad < a0.y.min(a1.y)
}

/// The scale below which two distinct features are "at rounding level":
/// [`EPS_COLLINEAR_REL`] relative to the longer edge of the pair.
#[inline]
fn near_tol(a0: Point, a1: Point, b0: Point, b1: Point) -> f64 {
    EPS_COLLINEAR_REL * a0.dist(&a1).max(b0.dist(&b1))
}

/// Exactly on the closed segment: robust collinearity plus a dominant-axis
/// interval test (no floating-point distance involved).
fn on_segment_exact(p: Point, s0: Point, s1: Point) -> bool {
    if orient2d_sign(s0, s1, p) != 0.0 {
        return false;
    }
    let horizontal = (s1.x - s0.x).abs() >= (s1.y - s0.y).abs();
    let key = |q: Point| if horizontal { q.x } else { q.y };
    let (lo, hi) = minmax(key(s0), key(s1));
    lo <= key(p) && key(p) <= hi
}

/// Distance from `p` to the closed segment `[s0, s1]`.
fn point_seg_dist(p: Point, s0: Point, s1: Point) -> f64 {
    let (dx, dy) = (s1.x - s0.x, s1.y - s0.y);
    let len2 = dx * dx + dy * dy;
    let t = if len2 > 0.0 {
        (((p.x - s0.x) * dx + (p.y - s0.y) * dy) / len2).clamp(0.0, 1.0)
    } else {
        0.0
    };
    p.dist(&Point::new(s0.x + t * dx, s0.y + t * dy))
}

/// Two segments closer than rounding scale without *exactly* touching.
///
/// Exact contact (shared endpoint, endpoint on the other segment, proper
/// crossing, collinear overlap) is decided by robust predicates and is in
/// the oracle's contract. What is not repairable is a pair of *distinct*
/// features so close that independently rounded intersection points
/// collapse — e.g. two parallel edges 5·10⁻¹⁷ apart, both crossed by a
/// third: the two computed crossings land on the same coordinates and the
/// refinement's ordering assumptions break down.
fn near_miss(a0: Point, a1: Point, b0: Point, b1: Point) -> bool {
    let o1 = orient2d_sign(b0, b1, a0);
    let o2 = orient2d_sign(b0, b1, a1);
    let o3 = orient2d_sign(a0, a1, b0);
    let o4 = orient2d_sign(a0, a1, b1);
    // Proper crossings are generic; exact touches are in contract.
    if o1 * o2 < 0.0 && o3 * o4 < 0.0 {
        return false;
    }
    if on_segment_exact(a0, b0, b1)
        || on_segment_exact(a1, b0, b1)
        || on_segment_exact(b0, a0, a1)
        || on_segment_exact(b1, a0, a1)
    {
        return false;
    }
    // Non-crossing, non-touching segments: the gap is attained at an
    // endpoint, so four point-to-segment distances suffice.
    let gap = point_seg_dist(a0, b0, b1)
        .min(point_seg_dist(a1, b0, b1))
        .min(point_seg_dist(b0, a0, a1))
        .min(point_seg_dist(b1, a0, a1));
    gap < near_tol(a0, a1, b0, b1)
}

/// Does `p` lie exactly on any edge of the set?
fn on_boundary(p: Point, edges: &[RingEdge]) -> bool {
    edges.iter().any(|e| on_segment_exact(p, e.a, e.b))
}

/// All passages of the set's boundary through point `p`: a ring vertex at
/// `p` contributes its two incident directions, an edge with `p` strictly
/// interior contributes its two half-edge directions (antiparallel).
/// Directions point away from `p`.
fn passages_through(rings: &[Vec<Point>], p: Point) -> Vec<(Point, Point)> {
    let mut passages = Vec::new();
    for pts in rings {
        let n = pts.len();
        for i in 0..n {
            if pts[i] == p {
                passages.push((pts[(i + n - 1) % n] - p, pts[(i + 1) % n] - p));
            }
        }
        for i in 0..n {
            let (a, b) = (pts[i], pts[(i + 1) % n]);
            if a != p && b != p && on_segment_exact(p, a, b) {
                passages.push((a - p, b - p));
            }
        }
    }
    passages
}

/// Do the direction wedges of two boundary passages through a common
/// point interleave cyclically? Interleaved wedges mean the two boundary
/// stretches *cross* at the point (the region flips on each side);
/// non-interleaved wedges are a bounce (a pinch, a corner kiss). Exactly
/// coincident directions cannot reach here — a positive-length collinear
/// overlap is rejected before passage classification — so the strict
/// sector tests below are total.
fn passages_interleave(a: (Point, Point), b: (Point, Point)) -> bool {
    in_ccw_sector(a.0, a.1, b.0) != in_ccw_sector(a.0, a.1, b.1)
}

/// Is direction `c` strictly inside the CCW angular sector from `a` to
/// `b`? When `a` and `b` are antiparallel the sector is the open
/// half-plane to the left of `a`.
fn in_ccw_sector(a: Point, b: Point, c: Point) -> bool {
    let cross = |u: Point, v: Point| u.x * v.y - u.y * v.x;
    let ab = cross(a, b);
    if ab > 0.0 {
        cross(a, c) > 0.0 && cross(c, b) > 0.0
    } else if ab < 0.0 {
        cross(a, c) > 0.0 || cross(c, b) > 0.0
    } else {
        cross(a, c) > 0.0
    }
}

/// Do two collinear segments overlap over a positive length?
fn overlap_positive(a0: Point, a1: Point, b0: Point, b1: Point) -> bool {
    let horizontal = (a1.x - a0.x).abs() >= (a1.y - a0.y).abs();
    let key = |p: Point| if horizontal { p.x } else { p.y };
    let (alo, ahi) = minmax(key(a0), key(a1));
    let (blo, bhi) = minmax(key(b0), key(b1));
    alo.max(blo) < ahi.min(bhi)
}

#[inline]
fn minmax(a: f64, b: f64) -> (f64, f64) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

impl ClipOracle for FosterOverfeltOracle {
    fn name(&self) -> &'static str {
        "foster-overfelt"
    }

    fn supports(&self, subject: &PolygonSet, clip: &PolygonSet) -> bool {
        let (Some(rs), Some(rc)) = (Self::clean_rings(subject), Self::clean_rings(clip)) else {
            return false;
        };
        let es = Self::ring_edges(&rs);
        let ec = Self::ring_edges(&rc);
        let (Some(ts), Some(tc)) = (
            Self::within_set_contacts(&rs, &es),
            Self::within_set_contacts(&rc, &ec),
        ) else {
            return false;
        };
        Self::edges_cleanly_separated(&es, &ec)
            && !ts.iter().any(|&p| on_boundary(p, &ec))
            && !tc.iter().any(|&p| on_boundary(p, &es))
    }

    fn clip(
        &self,
        subject: &PolygonSet,
        clip: &PolygonSet,
        op: BoolOp,
    ) -> Result<PolygonSet, OracleError> {
        if !self.supports(subject, clip) {
            return Err(OracleError::Unsupported(
                "input set self-intersects or self-overlaps",
            ));
        }
        let fop = match op {
            BoolOp::Intersection => FoOp::Intersection,
            BoolOp::Union => FoOp::Union,
            BoolOp::Difference => FoOp::Difference,
            BoolOp::Xor => FoOp::Xor,
        };
        Ok(fo_clip(subject, clip, fop))
    }
}

/// Region-level comparison of two clip outputs.
#[derive(Clone, Copy, Debug)]
pub struct DiffReport {
    /// Band-integrated even-odd area of output `a`.
    pub area_a: f64,
    /// Band-integrated even-odd area of output `b`.
    pub area_b: f64,
    /// Area of the symmetric difference of the two regions.
    pub sym_diff_area: f64,
}

impl DiffReport {
    /// `sym_diff ≤ rel_tol · (1 + max(area))`: the `1 +` keeps the bound
    /// meaningful for near-empty outputs.
    pub fn within_tolerance(&self, rel_tol: f64) -> bool {
        self.sym_diff_area <= rel_tol * (1.0 + self.area_a.max(self.area_b))
    }
}

/// Compare two clip outputs as even-odd regions, using the independent
/// band-integration measures from `geom::measure`.
pub fn compare_outputs(a: &PolygonSet, b: &PolygonSet) -> DiffReport {
    DiffReport {
        area_a: region_area(a),
        area_b: region_area(b),
        sym_diff_area: symmetric_difference_area(a, b),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::GridConfig;
    use polyclip_geom::contour::rect;

    fn sq(x0: f64, y0: f64, x1: f64, y1: f64) -> PolygonSet {
        PolygonSet::from_contour(rect(x0, y0, x1, y1))
    }

    #[test]
    fn oracles_agree_on_generic_overlap() {
        let a = sq(0.0, 0.0, 2.0, 2.0);
        let b = sq(1.0, 1.0, 3.0, 3.0);
        let fo = FosterOverfeltOracle;
        for grid in [GridConfig::default(), GridConfig::refined()] {
            let eng = ScanbeamOracle::new(4).with_options(ClipOptions {
                grid,
                ..ClipOptions::default()
            });
            for op in [
                BoolOp::Intersection,
                BoolOp::Union,
                BoolOp::Difference,
                BoolOp::Xor,
            ] {
                let x = eng.clip(&a, &b, op).unwrap();
                let y = fo.clip(&a, &b, op).unwrap();
                let d = compare_outputs(&x, &y);
                assert!(
                    d.within_tolerance(ORACLE_REL_TOL),
                    "{op:?} via {}: {d:?}",
                    eng.name()
                );
            }
        }
    }

    #[test]
    fn prepared_oracle_agrees_too() {
        let a = sq(0.0, 0.0, 2.0, 2.0);
        let b = sq(1.0, 1.0, 3.0, 3.0);
        let eng = ScanbeamOracle::prepared(4);
        let fo = FosterOverfeltOracle;
        let x = eng.clip(&a, &b, BoolOp::Intersection).unwrap();
        let y = fo.clip(&a, &b, BoolOp::Intersection).unwrap();
        assert!(compare_outputs(&x, &y).within_tolerance(ORACLE_REL_TOL));
    }

    #[test]
    fn fo_supports_screens_self_intersections() {
        let fo = FosterOverfeltOracle;
        let clean = sq(0.0, 0.0, 2.0, 2.0);
        let bowtie = PolygonSet::from_xy(&[(0.0, 0.0), (2.0, 2.0), (2.0, 0.0), (0.0, 2.0)]);
        assert!(fo.supports(&clean, &clean));
        assert!(!fo.supports(&bowtie, &clean));
        assert!(!fo.supports(&clean, &bowtie));
        assert!(matches!(
            fo.clip(&bowtie, &clean, BoolOp::Intersection),
            Err(OracleError::Unsupported(_))
        ));
        // Within-set collinear overlap (two stacked identical squares).
        let mut doubled = clean.clone();
        doubled.push(rect(0.0, 0.0, 2.0, 2.0));
        assert!(!fo.supports(&doubled, &clean));
        // Nested contours (holes) are fine.
        let mut ring = sq(0.0, 0.0, 4.0, 4.0);
        ring.push(rect(1.0, 1.0, 3.0, 3.0));
        assert!(fo.supports(&ring, &clean));
        // Point touches within a set are fine.
        let mut touching = sq(0.0, 0.0, 1.0, 1.0);
        touching.push(rect(1.0, 1.0, 2.0, 2.0));
        assert!(fo.supports(&touching, &clean));
    }

    #[test]
    fn tolerance_scales_with_area() {
        let d = DiffReport {
            area_a: 1e6,
            area_b: 1e6,
            sym_diff_area: 1e-4,
        };
        assert!(d.within_tolerance(1e-9));
        let d2 = DiffReport {
            area_a: 1.0,
            area_b: 1.0,
            sym_diff_area: 1e-4,
        };
        assert!(!d2.within_tolerance(1e-9));
    }
}
