//! Merging boundary fragments into closed output contours (Steps 3.4 / 4).
//!
//! The classification and horizontal phases emit directed boundary
//! fragments with the region interior on their left. Merging is:
//!
//! 1. **cancellation** — fragments with identical geometry and opposite
//!    direction bound the same region from both sides of an internal seam
//!    (adjacent kept spans, adjacent slabs, duplicated collinear boundary);
//!    they annihilate pairwise. This is the paper's reduction-tree union of
//!    partial polygons, realized as one sort;
//! 2. **stitching** — remaining fragments form, at every vertex, a balanced
//!    set of incoming/outgoing edges. Walking from any fragment and always
//!    taking the sharpest left turn traces the face with interior on the
//!    left; repeating until all fragments are used yields all output
//!    contours (outers counterclockwise, holes clockwise). The fragments
//!    leaving a vertex are found through a successor array built from two
//!    sorts of the endpoints, with nothing allocated per vertex;
//! 3. **virtual-vertex removal** — collinear chain vertices introduced by
//!    the scanbeam partition (the k' virtual vertices) are packed away,
//!    exactly as the paper prescribes ("removed finally by array packing").

use polyclip_geom::{orient2d, Contour, OrdF64, Orientation, Point, EPS_COLLINEAR_REL};
use std::collections::HashMap;

/// A vertex as a pair of integers whose order and equality are those of
/// `(OrdF64, OrdF64)`: `-0.0` folds onto `+0.0`, then a negative's bits are
/// flipped and a non-negative's top bit is set, so unsigned order is
/// numeric order.
type VertexKey = (u64, u64);

#[inline]
fn vertex_key(p: Point) -> VertexKey {
    #[inline]
    fn ordered_bits(v: f64) -> u64 {
        let b = if v == 0.0 { 0 } else { v.to_bits() };
        if b >> 63 == 1 {
            !b
        } else {
            b | 1 << 63
        }
    }
    (ordered_bits(p.x), ordered_bits(p.y))
}

/// Remove opposite-direction duplicate fragments. Fragments with identical
/// geometry and direction are kept with their multiplicity (they can occur
/// at degenerate tangencies and still stitch correctly).
///
/// One sort of `(low endpoint, high endpoint, direction, index)` tuples
/// groups equal geometry; no two tuples tie, so the order is fixed. The
/// survivors come out in ascending `(low, high)` order, each rebuilt from
/// its group's first fragment.
pub fn cancel_opposites(edges: &mut Vec<(Point, Point)>) {
    let mut canon: Vec<(VertexKey, VertexKey, i8, u32)> = edges
        .iter()
        .enumerate()
        .map(|(i, &(a, b))| {
            let (ka, kb) = (vertex_key(a), vertex_key(b));
            if ka <= kb {
                (ka, kb, 1i8, i as u32)
            } else {
                (kb, ka, -1i8, i as u32)
            }
        })
        .collect();
    canon.sort_unstable();

    let mut out: Vec<(Point, Point)> = Vec::with_capacity(edges.len());
    let mut i = 0;
    while i < canon.len() {
        let (lo, hi, dir, first) = canon[i];
        let mut net = 0i32;
        let mut j = i;
        while j < canon.len() && (canon[j].0, canon[j].1) == (lo, hi) {
            net += canon[j].2 as i32;
            j += 1;
        }
        if net != 0 {
            // |net| copies in the surviving direction.
            let (a, b) = edges[first as usize];
            let e = if (net > 0) == (dir > 0) {
                (a, b)
            } else {
                (b, a)
            };
            out.extend(std::iter::repeat_n(e, net.unsigned_abs() as usize));
        }
        i = j;
    }
    *edges = out;
}

/// Stitch directed fragments into closed contours, dropping collinear
/// (virtual) vertices when `simplify` is set.
///
/// Fragments must be interior-on-left and balanced at every vertex; in
/// release builds, fragments that cannot be closed into a loop (which only
/// happens on numerically inconsistent input) are dropped rather than
/// panicking. See [`stitch_counted`] when the caller needs to observe how
/// many fragments were dropped that way.
pub fn stitch(edges: Vec<(Point, Point)>, simplify: bool) -> Vec<Contour> {
    stitch_counted(edges, simplify).0
}

/// [`stitch`], additionally reporting the number of fragments consumed by
/// walks that failed to close. A non-zero count is the stitch-imbalance
/// signal recorded as a degradation by the fallible engine entry points:
/// the contours are still returned, but some boundary pieces are missing.
pub fn stitch_counted(mut edges: Vec<(Point, Point)>, simplify: bool) -> (Vec<Contour>, usize) {
    cancel_opposites(&mut edges);
    if edges.is_empty() {
        return (Vec::new(), 0);
    }
    let (out_ids, succ) = successors(&edges);
    let mut used = vec![false; edges.len()];

    let mut contours = Vec::new();
    let mut dropped = 0usize;
    for start in 0..edges.len() {
        if used[start] {
            continue;
        }
        let mut pts: Vec<Point> = Vec::new();
        let mut cur = start;
        let closed = loop {
            used[cur] = true;
            let (from, to) = edges[cur];
            pts.push(from);
            if to == edges[start].0 {
                break true; // back at the starting vertex
            }
            let (lo, hi) = succ[cur];
            let cands = &out_ids[lo as usize..hi as usize];
            let Some(next) = pick_next(&edges, cands, &used, to - from) else {
                break false;
            };
            cur = next;
        };
        if closed && pts.len() >= 3 {
            let c = if simplify {
                simplify_collinear(pts)
            } else {
                Contour::new(pts)
            };
            if c.is_valid() && c.signed_area() != 0.0 {
                contours.push(c);
            }
        } else if !closed {
            // An unclosed walk indicates inconsistent input; its fragments
            // stay marked used so termination is guaranteed, and the count
            // surfaces as a stitch-imbalance degradation.
            dropped += pts.len();
        }
    }
    (contours, dropped)
}

/// Outgoing adjacency as a CSR array: the fragment ids sorted by start
/// vertex (ascending id within one vertex), and for every fragment the
/// `[lo, hi)` range of that array holding the fragments that leave its end
/// vertex. The ranges come from merge-joining the ids sorted by start
/// vertex with the ids sorted by end vertex; nothing is allocated per
/// vertex.
fn successors(edges: &[(Point, Point)]) -> (Vec<u32>, Vec<(u32, u32)>) {
    let mut by_from: Vec<(VertexKey, u32)> = edges
        .iter()
        .enumerate()
        .map(|(i, &(a, _))| (vertex_key(a), i as u32))
        .collect();
    by_from.sort_unstable();
    let mut by_to: Vec<(VertexKey, u32)> = edges
        .iter()
        .enumerate()
        .map(|(i, &(_, b))| (vertex_key(b), i as u32))
        .collect();
    by_to.sort_unstable();

    let n = edges.len();
    let mut succ = vec![(0u32, 0u32); n];
    let (mut lo, mut t) = (0usize, 0usize);
    while t < n {
        let k = by_to[t].0;
        while lo < n && by_from[lo].0 < k {
            lo += 1;
        }
        let mut hi = lo;
        while hi < n && by_from[hi].0 == k {
            hi += 1;
        }
        while t < n && by_to[t].0 == k {
            succ[by_to[t].1 as usize] = (lo as u32, hi as u32);
            t += 1;
        }
        lo = hi;
    }
    (by_from.into_iter().map(|(_, id)| id).collect(), succ)
}

/// The sharpest-left-turn successor: among the unused fragments of `cands`
/// (the fragments leaving the current vertex, ascending id), the one whose
/// direction makes the largest counterclockwise turn from `d_in` (U-turns
/// rank highest, straight-on in the middle, sharp right lowest). This keeps
/// the traced face's interior consistently on the left. A lone candidate
/// needs no angle: the loop below would take it whatever its turn.
fn pick_next(edges: &[(Point, Point)], cands: &[u32], used: &[bool], d_in: Point) -> Option<usize> {
    if let [c] = *cands {
        let c = c as usize;
        return (!used[c]).then_some(c);
    }
    let mut best: Option<(f64, usize)> = None;
    for &c in cands {
        let c = c as usize;
        if used[c] {
            continue;
        }
        let d_out = edges[c].1 - edges[c].0;
        // Adding +0.0 folds a −0.0 cross product onto +0.0, so an exact
        // U-turn ranks atan2(+0, negative) == π, the maximum, whichever
        // sign its zero came out with. Tie-break by index for determinism.
        let turn = (d_in.cross(&d_out) + 0.0).atan2(d_in.dot(&d_out));
        if best.is_none_or(|(bt, _)| turn > bt) {
            best = Some((turn, c));
        }
    }
    best.map(|(_, c)| c)
}

/// Near-collinearity for virtual-vertex removal: exactly collinear, or the
/// middle point deviates from the chord by a relative rounding-level amount
/// (virtual vertices are interpolated, so they sit within ulps of the
/// original edge, not exactly on it).
///
/// `area_tol` caps the enclosed-area change a *near*-collinear removal may
/// cause. The angular bound alone is not area-safe: every vertex of a
/// needle-shaped ring is near-collinear by angle at the ring's own scale,
/// and packing would erase the whole ring however much area it encloses.
#[inline]
fn removable(a: Point, b: Point, c: Point, area_tol: f64) -> bool {
    if orient2d(a, b, c) == Orientation::Collinear {
        return true;
    }
    let ab = b - a;
    let ac = c - a;
    let cross = ab.cross(&ac).abs();
    // |cross| = |ab||ac| sin θ; deviation of b from chord a-c ≈ cross/|ac|;
    // removing b changes the enclosed area by |cross| / 2.
    cross <= EPS_COLLINEAR_REL * ab.norm() * ac.norm() && cross * 0.5 <= area_tol
}

/// Area-change budget for near-collinear packing on this ring: the
/// rounding noise floor of the ring's own shoelace sum — the *absolute*
/// sum of the shoelace terms bounds the cancellation error of the signed
/// sum. Area features below [`EPS_COLLINEAR_REL`] of it are not
/// meaningfully enclosed by these coordinates and may be packed away; a
/// needle ring's area sits orders of magnitude above this floor and
/// survives. (Anchoring to the *signed* area would starve sliver rings,
/// whose total area is itself rounding debris.)
fn pack_area_tol(pts: &[Point]) -> f64 {
    let n = pts.len();
    let gross: f64 = (0..n)
        .map(|i| {
            let (a, b) = (pts[i], pts[(i + 1) % n]);
            (a.x * b.y).abs() + (b.x * a.y).abs()
        })
        .sum();
    EPS_COLLINEAR_REL * 0.5 * gross
}

/// Drop vertices that are (near-)collinear with their neighbours — the k'
/// virtual vertices introduced by scanbeam splitting ("removed finally by
/// array packing"). The tolerance only removes rounding-level deviations;
/// real geometry survives.
pub fn simplify_collinear(pts: Vec<Point>) -> Contour {
    let n = pts.len();
    if n < 3 {
        return Contour::new(pts);
    }
    let area_tol = pack_area_tol(&pts);
    let mut keep: Vec<Point> = Vec::with_capacity(n);
    for p in pts {
        keep.push(p);
        // Collapse the tail while the last three are collinear.
        while keep.len() >= 3 {
            let m = keep.len();
            if removable(keep[m - 3], keep[m - 2], keep[m - 1], area_tol) {
                keep.remove(m - 2);
            } else {
                break;
            }
        }
    }
    // Wrap-around: first and last vertices may also be collinear.
    loop {
        let m = keep.len();
        if m >= 3 && removable(keep[m - 2], keep[m - 1], keep[0], area_tol) {
            keep.pop();
            continue;
        }
        if m >= 3 && removable(keep[m - 1], keep[0], keep[1], area_tol) {
            keep.remove(0);
            continue;
        }
        break;
    }
    Contour::new(keep)
}

/// Cut positions per seam line: `y line → sorted, deduped x endpoints` for
/// horizontal seams, `x line → sorted, deduped y endpoints` for vertical
/// ones. Built by the Step-8 merge from the seam-run endpoints of every
/// partial, so both sides of a seam split identically.
pub(crate) type SeamCuts = HashMap<OrdF64, Vec<OrdF64>>;

/// Split every axis-aligned seam run in `edges` at the union of collected
/// endpoints on its line (the Step-8 alignment pass). Horizontal runs on a
/// y-seam split at `y_cuts[y]`, vertical runs on an x-seam at `x_cuts[x]`;
/// every other edge passes through untouched. Cut maps carry an entry for a
/// line exactly when some run lies on it (each run contributes its own
/// endpoints), so a plain lookup doubles as the on-seam test. After this
/// pass, geometrically-overlapping opposite runs from the two sides of a
/// seam are edge-for-edge identical and cancel exactly in [`stitch`].
pub(crate) fn split_seam_runs(
    edges: Vec<(Point, Point)>,
    y_cuts: &SeamCuts,
    x_cuts: &SeamCuts,
) -> Vec<(Point, Point)> {
    let mut out: Vec<(Point, Point)> = Vec::with_capacity(edges.len());
    for (a, b) in edges {
        if a.y == b.y {
            if let Some(xs) = y_cuts.get(&OrdF64::new(a.y)) {
                split_run(a, b, xs, true, &mut out);
                continue;
            }
        }
        if a.x == b.x {
            if let Some(ys) = x_cuts.get(&OrdF64::new(a.x)) {
                split_run(a, b, ys, false, &mut out);
                continue;
            }
        }
        out.push((a, b));
    }
    out
}

/// Split the run `a → b` at every cut strictly inside it, preserving the
/// run's direction (cuts are emitted left-to-right for a rightward run,
/// right-to-left for a leftward one, and symmetrically for vertical runs).
fn split_run(a: Point, b: Point, cuts: &[OrdF64], horizontal: bool, out: &mut Vec<(Point, Point)>) {
    let (ca, cb) = if horizontal { (a.x, b.x) } else { (a.y, b.y) };
    let (lo, hi) = (ca.min(cb), ca.max(cb));
    let mk = |v: f64| {
        if horizontal {
            Point::new(v, a.y)
        } else {
            Point::new(a.x, v)
        }
    };
    let start = cuts.partition_point(|&v| v.get() <= lo);
    let mut prev = a;
    if ca <= cb {
        for &v in &cuts[start..] {
            if v.get() >= hi {
                break;
            }
            let m = mk(v.get());
            out.push((prev, m));
            prev = m;
        }
    } else {
        // Innermost-first for a reversed run: rightmost (topmost) cut first.
        let end = cuts.partition_point(|&v| v.get() < hi);
        for &v in cuts[start..end].iter().rev() {
            let m = mk(v.get());
            out.push((prev, m));
            prev = m;
        }
    }
    out.push((prev, b));
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use polyclip_geom::point::pt;
    use proptest::prelude::*;
    use rand::prelude::*;

    type Key = (OrdF64, OrdF64);

    fn key(p: Point) -> Key {
        (OrdF64::new(p.x), OrdF64::new(p.y))
    }

    /// The cancellation the sorted one replaced, kept as its reference: an
    /// index array sorted by the canonical tuples, each survivor rebuilt
    /// from its group's keys.
    ///
    /// The index sort is stable here. Under an unstable one, which fragment
    /// of a group lends the survivor its bits is arbitrary, and that shows
    /// when the group's fragments differ only in the sign of a zero: the
    /// walk ranks an exact U-turn whose cross product is `-0.0` lowest, not
    /// highest. The stable sort picks what the sorted cancellation picks,
    /// the group's first fragment.
    fn reference_cancel_opposites(edges: &mut Vec<(Point, Point)>) {
        let canon: Vec<(Key, Key, i8)> = edges
            .iter()
            .map(|&(a, b)| {
                let (ka, kb) = (key(a), key(b));
                if ka <= kb {
                    (ka, kb, 1i8)
                } else {
                    (kb, ka, -1i8)
                }
            })
            .collect();
        let mut order: Vec<usize> = (0..canon.len()).collect();
        order.sort_by(|&i, &j| canon[i].cmp(&canon[j]));

        let mut out: Vec<(Point, Point)> = Vec::with_capacity(edges.len());
        let mut i = 0;
        while i < order.len() {
            let mut j = i;
            let g = (canon[order[i]].0, canon[order[i]].1);
            let mut net = 0i32;
            while j < order.len() && (canon[order[j]].0, canon[order[j]].1) == g {
                net += canon[order[j]].2 as i32;
                j += 1;
            }
            if net != 0 {
                let (lo, hi) = g;
                let (pl, ph) = (
                    Point::new(lo.0.get(), lo.1.get()),
                    Point::new(hi.0.get(), hi.1.get()),
                );
                let e = if net > 0 { (pl, ph) } else { (ph, pl) };
                for _ in 0..net.abs() {
                    out.push(e);
                }
            }
            i = j;
        }
        *edges = out;
    }

    /// The stitch the sorted one replaced, kept as the reference it must
    /// match bit for bit: a hash map from each vertex to the `Vec` of
    /// fragments leaving it, in push (ascending id) order.
    pub(crate) fn reference_stitch_counted(
        mut edges: Vec<(Point, Point)>,
        simplify: bool,
    ) -> (Vec<Contour>, usize) {
        reference_cancel_opposites(&mut edges);
        if edges.is_empty() {
            return (Vec::new(), 0);
        }

        let mut adjacency: HashMap<Key, Vec<u32>> = HashMap::with_capacity(edges.len());
        for (i, &(a, _)) in edges.iter().enumerate() {
            adjacency.entry(key(a)).or_default().push(i as u32);
        }
        let mut used = vec![false; edges.len()];

        let mut contours = Vec::new();
        let mut dropped = 0usize;
        for start in 0..edges.len() {
            if used[start] {
                continue;
            }
            let mut pts: Vec<Point> = Vec::new();
            let mut cur = start;
            let closed = loop {
                used[cur] = true;
                let (from, to) = edges[cur];
                pts.push(from);
                if to == edges[start].0 {
                    break true;
                }
                let d_in = to - from;
                let Some(next) = reference_pick_next(&edges, &adjacency, &used, to, d_in) else {
                    break false;
                };
                cur = next;
            };
            if closed && pts.len() >= 3 {
                let c = if simplify {
                    simplify_collinear(pts)
                } else {
                    Contour::new(pts)
                };
                if c.is_valid() && c.signed_area() != 0.0 {
                    contours.push(c);
                }
            } else if !closed {
                dropped += pts.len();
            }
        }
        (contours, dropped)
    }

    fn reference_pick_next(
        edges: &[(Point, Point)],
        adjacency: &HashMap<Key, Vec<u32>>,
        used: &[bool],
        at: Point,
        d_in: Point,
    ) -> Option<usize> {
        let cands = adjacency.get(&key(at))?;
        let mut best: Option<(f64, usize)> = None;
        for &c in cands {
            let c = c as usize;
            if used[c] {
                continue;
            }
            let d_out = edges[c].1 - edges[c].0;
            let turn = (d_in.cross(&d_out) + 0.0).atan2(d_in.dot(&d_out));
            if best.is_none_or(|(bt, _)| turn > bt) {
                best = Some((turn, c));
            }
        }
        best.map(|(_, c)| c)
    }

    fn e(ax: f64, ay: f64, bx: f64, by: f64) -> (Point, Point) {
        (pt(ax, ay), pt(bx, by))
    }

    #[test]
    fn cancellation_removes_opposite_pairs() {
        let mut edges = vec![
            e(0.0, 0.0, 1.0, 0.0),
            e(1.0, 0.0, 0.0, 0.0),
            e(0.0, 0.0, 0.0, 1.0),
        ];
        cancel_opposites(&mut edges);
        assert_eq!(edges, vec![e(0.0, 0.0, 0.0, 1.0)]);
    }

    #[test]
    fn cancellation_keeps_net_multiplicity() {
        let mut edges = vec![
            e(0.0, 0.0, 1.0, 0.0),
            e(0.0, 0.0, 1.0, 0.0),
            e(1.0, 0.0, 0.0, 0.0),
        ];
        cancel_opposites(&mut edges);
        assert_eq!(edges, vec![e(0.0, 0.0, 1.0, 0.0)]);
    }

    #[test]
    fn stitch_single_square() {
        let edges = vec![
            e(0.0, 0.0, 1.0, 0.0),
            e(1.0, 0.0, 1.0, 1.0),
            e(1.0, 1.0, 0.0, 1.0),
            e(0.0, 1.0, 0.0, 0.0),
        ];
        let cs = stitch(edges, false);
        assert_eq!(cs.len(), 1);
        assert_eq!(cs[0].signed_area(), 1.0); // CCW: interior on the left
    }

    #[test]
    fn stitch_two_disjoint_triangles() {
        let edges = vec![
            e(0.0, 0.0, 1.0, 0.0),
            e(1.0, 0.0, 0.5, 1.0),
            e(0.5, 1.0, 0.0, 0.0),
            e(5.0, 0.0, 6.0, 0.0),
            e(6.0, 0.0, 5.5, 1.0),
            e(5.5, 1.0, 5.0, 0.0),
        ];
        let cs = stitch(edges, false);
        assert_eq!(cs.len(), 2);
        for c in &cs {
            assert!(c.signed_area() > 0.0);
        }
    }

    #[test]
    fn stitch_square_with_hole_orientations() {
        // Outer CCW square + inner CW square (hole): interior-on-left both.
        let edges = vec![
            e(0.0, 0.0, 4.0, 0.0),
            e(4.0, 0.0, 4.0, 4.0),
            e(4.0, 4.0, 0.0, 4.0),
            e(0.0, 4.0, 0.0, 0.0),
            // hole, clockwise
            e(1.0, 1.0, 1.0, 3.0),
            e(1.0, 3.0, 3.0, 3.0),
            e(3.0, 3.0, 3.0, 1.0),
            e(3.0, 1.0, 1.0, 1.0),
        ];
        let cs = stitch(edges, false);
        assert_eq!(cs.len(), 2);
        let areas: Vec<f64> = cs.iter().map(|c| c.signed_area()).collect();
        assert!(areas.iter().any(|&a| (a - 16.0).abs() < 1e-12));
        assert!(areas.iter().any(|&a| (a + 4.0).abs() < 1e-12));
    }

    #[test]
    fn shared_corner_resolved_into_two_contours() {
        // Two unit squares touching at (1,1): sharpest-left-turn tracing
        // must keep them as two separate faces, not a figure-eight.
        let edges = vec![
            e(0.0, 0.0, 1.0, 0.0),
            e(1.0, 0.0, 1.0, 1.0),
            e(1.0, 1.0, 0.0, 1.0),
            e(0.0, 1.0, 0.0, 0.0),
            e(1.0, 1.0, 2.0, 1.0),
            e(2.0, 1.0, 2.0, 2.0),
            e(2.0, 2.0, 1.0, 2.0),
            e(1.0, 2.0, 1.0, 1.0),
        ];
        let cs = stitch(edges, false);
        assert_eq!(cs.len(), 2);
        for c in &cs {
            assert!((c.signed_area() - 1.0).abs() < 1e-12);
            assert_eq!(c.len(), 4);
        }
    }

    #[test]
    fn simplify_removes_virtual_vertices() {
        let c = simplify_collinear(vec![
            pt(0.0, 0.0),
            pt(0.5, 0.0), // collinear on the bottom edge
            pt(1.0, 0.0),
            pt(1.0, 0.25),
            pt(1.0, 0.5), // collinear on the right edge
            pt(1.0, 1.0),
            pt(0.0, 1.0),
            pt(0.0, 0.5), // collinear on the left edge (wraps to first point)
        ]);
        assert_eq!(c.len(), 4);
        assert_eq!(c.signed_area(), 1.0);
    }

    #[test]
    fn simplify_degenerates_to_empty() {
        // All points on one line: no polygon remains.
        let c = simplify_collinear(vec![pt(0.0, 0.0), pt(1.0, 1.0), pt(2.0, 2.0), pt(3.0, 3.0)]);
        assert!(!c.is_valid());
    }

    #[test]
    fn stitched_output_is_simplified_when_requested() {
        let edges = vec![
            e(0.0, 0.0, 1.0, 0.0),
            e(1.0, 0.0, 2.0, 0.0), // split bottom edge
            e(2.0, 0.0, 2.0, 2.0),
            e(2.0, 2.0, 0.0, 2.0),
            e(0.0, 2.0, 0.0, 1.0),
            e(0.0, 1.0, 0.0, 0.0), // split left edge
        ];
        let cs = stitch(edges, true);
        assert_eq!(cs.len(), 1);
        assert_eq!(cs[0].len(), 4);
        assert_eq!(cs[0].signed_area(), 4.0);
    }

    #[test]
    fn fully_cancelling_input_produces_nothing() {
        let edges = vec![e(0.0, 0.0, 1.0, 1.0), e(1.0, 1.0, 0.0, 0.0)];
        assert!(stitch(edges, false).is_empty());
    }

    #[test]
    fn unclosed_walks_are_counted_and_closed_ones_survive() {
        let edges = vec![
            // A dead-ending two-fragment path: nothing leaves (1,1).
            e(0.0, 0.0, 1.0, 0.0),
            e(1.0, 0.0, 1.0, 1.0),
            // A complete unit square elsewhere.
            e(5.0, 0.0, 6.0, 0.0),
            e(6.0, 0.0, 6.0, 1.0),
            e(6.0, 1.0, 5.0, 1.0),
            e(5.0, 1.0, 5.0, 0.0),
        ];
        let (cs, dropped) = stitch_counted(edges, false);
        assert_eq!(cs.len(), 1);
        assert_eq!(dropped, 2);
        assert!((cs[0].signed_area() - 1.0).abs() < 1e-12);
    }

    /// An exact U-turn ranks highest whichever sign its zero cross product
    /// has. Here the first fragment ends at `(2, z)` and the second leaves
    /// that vertex back along it; with `z = −0.0` the cross product of the
    /// two directions is −0.0, which used to rank the U-turn lowest and
    /// send the walk up the vertical fragment instead (5 fragments dropped
    /// against 2 for `z = +0.0`).
    #[test]
    fn exact_u_turn_ranks_the_same_for_both_signed_zeros() {
        let walk = |z: f64| {
            stitch_counted(
                vec![
                    e(0.0, 0.0, 2.0, z),
                    e(2.0, 0.0, 1.0, z),
                    e(2.0, 0.0, 2.0, 1.0),
                    e(1.0, 0.0, 0.0, 0.0),
                    e(2.0, 1.0, 0.0, 0.0),
                ],
                false,
            )
        };
        let plus = walk(0.0);
        assert_eq!(plus, walk(-0.0));
        assert_eq!(plus.1, 2, "the +0.0 walk drops the two dead ends");
    }

    /// A fragment multiset from `seed`: the directed edges of 1–6 random
    /// polygons on a 7×7 integer grid (so fragments share vertices and
    /// the walk meets several candidates), reversed copies of some (which
    /// cancel), same-direction copies of some (which survive with
    /// multiplicity), some deleted (unclosed walks), and every zero
    /// coordinate given a random sign.
    fn fragment_multiset(seed: u64) -> Vec<(Point, Point)> {
        let mut rng = StdRng::seed_from_u64(seed);
        let grid_pt = |rng: &mut StdRng| {
            let c = |rng: &mut StdRng| rng.gen_range(-3i32..4) as f64;
            pt(c(rng), c(rng))
        };
        let mut edges = Vec::new();
        for _ in 0..rng.gen_range(1..7) {
            let mut ring: Vec<Point> = Vec::new();
            for _ in 0..rng.gen_range(3..9) {
                let p = grid_pt(&mut rng);
                if ring.last() != Some(&p) {
                    ring.push(p);
                }
            }
            while ring.len() > 1 && ring.first() == ring.last() {
                ring.pop();
            }
            for i in 0..ring.len() {
                let (a, b) = (ring[i], ring[(i + 1) % ring.len()]);
                if a != b {
                    edges.push((a, b));
                }
            }
        }
        for i in 0..edges.len() {
            let (a, b) = edges[i];
            if rng.gen_bool(0.25) {
                edges.push((b, a));
            }
            if rng.gen_bool(0.15) {
                edges.push((a, b));
            }
        }
        edges.retain(|_| !rng.gen_bool(0.1));
        let signed = |v: f64, rng: &mut StdRng| {
            if v == 0.0 && rng.gen_bool(0.5) {
                -0.0
            } else {
                v
            }
        };
        for e in &mut edges {
            e.0 = pt(signed(e.0.x, &mut rng), signed(e.0.y, &mut rng));
            e.1 = pt(signed(e.1.x, &mut rng), signed(e.1.y, &mut rng));
        }
        edges
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn sorted_stitch_matches_the_hash_map_reference(seed in 0u64..u64::MAX) {
            let edges = fragment_multiset(seed);
            let (mut sorted, mut reference) = (edges.clone(), edges.clone());
            cancel_opposites(&mut sorted);
            reference_cancel_opposites(&mut reference);
            prop_assert_eq!(sorted, reference, "seed {}", seed);
            for simplify in [false, true] {
                prop_assert_eq!(
                    stitch_counted(edges.clone(), simplify),
                    reference_stitch_counted(edges.clone(), simplify),
                    "seed {} simplify {}",
                    seed,
                    simplify
                );
            }
        }
    }
}
