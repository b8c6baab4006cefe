//! Scanbeam partitioning (Step 2 of Algorithm 1).
//!
//! Every non-horizontal edge is split at each event y interior to its span,
//! producing *sub-edges* that span exactly one scanbeam. The split vertices
//! are the paper's **virtual vertices**; their total count is the k' term of
//! the output-sensitive complexity.
//!
//! The partition is a direct scan: two event lookups give each edge its
//! beam span, a difference array over the spans prefix-sums to the beam
//! offsets, and one pass over the edges writes every sub-edge at its beam's
//! cursor — the plain count→allocate→fill pattern. Each beam's bucket is
//! then sorted left to right. The paper partitions with a segment tree's
//! count-then-report queries (§III-E), which lost to the scan by 2.5× on
//! this repository's executor; `polyclip_segtree` keeps that construction,
//! and tests check that its stabbing queries list exactly the edges the
//! scan writes into each beam, and that a global sort of every edge's
//! sub-edges gives the same set.

use crate::edges::{InputEdge, Source};
use crate::events::event_index;
use polyclip_geom::OrdF64;
use polyclip_parprim::Gate;
use rayon::prelude::*;

/// Placeholder sub-edge used to pre-size fill buffers; every slot is
/// overwritten before use unless the gate trips (in which case the caller
/// discards the whole set).
const DUMMY_SUB: SubEdge = SubEdge {
    beam: 0,
    xb: 0.0,
    xt: 0.0,
    src: Source::Subject,
    winding: 0,
    edge_id: 0,
};

/// A fragment of an input edge spanning exactly one scanbeam.
#[derive(Clone, Copy, Debug)]
pub struct SubEdge {
    /// Index of the scanbeam this fragment lives in.
    pub beam: u32,
    /// x-coordinate at the beam's bottom scanline.
    pub xb: f64,
    /// x-coordinate at the beam's top scanline.
    pub xt: f64,
    /// Source polygon of the original edge.
    pub src: Source,
    /// Winding direction of the original edge (+1 up, −1 down).
    pub winding: i8,
    /// Id of the original edge.
    pub edge_id: u32,
}

impl SubEdge {
    /// Lexicographic key ordering fragments left-to-right inside a beam:
    /// bottom x first, top x as tiebreak (two non-crossing fragments sharing
    /// their bottom vertex diverge at the top), edge id for determinism.
    #[inline]
    pub fn order_key(&self) -> (u32, OrdF64, OrdF64, u32) {
        (
            self.beam,
            OrdF64::new(self.xb),
            OrdF64::new(self.xt),
            self.edge_id,
        )
    }
}

/// Forced split points: exact vertices that override the interpolated x when
/// an edge is split at an intersection y. Both edges of a crossing share the
/// *same* intersection vertex, which keeps the stitched output watertight.
#[derive(Clone, Debug, Default)]
pub struct ForcedSplits {
    /// CSR over edge ids: `items[start[id]..start[id+1]]`, sorted by y.
    start: Vec<usize>,
    items: Vec<(f64, f64)>, // (y, x)
}

impl ForcedSplits {
    /// No forced splits (Round A).
    pub fn empty(n_edges: usize) -> Self {
        ForcedSplits {
            start: vec![0; n_edges + 1],
            items: Vec::new(),
        }
    }

    /// Build from `(edge_id, y, x)` triples; duplicates (same edge, same y)
    /// collapse to one entry.
    pub fn build(n_edges: usize, triples: &[(u32, f64, f64)]) -> Self {
        let mut buf = triples.to_vec();
        buf.sort_unstable_by(|a, b| (a.0, OrdF64::new(a.1)).cmp(&(b.0, OrdF64::new(b.1))));
        buf.dedup_by(|a, b| a.0 == b.0 && a.1 == b.1);
        let mut start = vec![0; n_edges + 1];
        for &(id, _, _) in &buf {
            start[id as usize + 1] += 1;
        }
        for i in 0..n_edges {
            start[i + 1] += start[i];
        }
        let items = buf.iter().map(|&(_, y, x)| (y, x)).collect();
        ForcedSplits { start, items }
    }

    /// The forced x for `edge` at exactly `y`, if any.
    ///
    /// Invariant: `start` has `n_edges + 1` entries and is monotone (built
    /// by prefix sum), so the slice below is in bounds for every edge id the
    /// set was built with; callers never pass ids from a different edge
    /// list. `y` comes from the caller's own event list, never user input,
    /// so the `OrdF64` comparison cannot see NaN.
    #[inline]
    pub fn forced_x(&self, edge: u32, y: f64) -> Option<f64> {
        let s = &self.items[self.start[edge as usize]..self.start[edge as usize + 1]];
        s.binary_search_by(|&(fy, _)| OrdF64::new(fy).cmp(&OrdF64::new(y)))
            .ok()
            .map(|i| s[i].1)
    }

    /// All forced split y's of `edge`.
    #[inline]
    pub fn splits_of(&self, edge: u32) -> &[(f64, f64)] {
        &self.items[self.start[edge as usize]..self.start[edge as usize + 1]]
    }

    /// Total forced vertices.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True if no forced vertices exist.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }
}

/// Edges partitioned into scanbeams: the scanbeam table of the paper,
/// with per-beam sub-edges sorted left-to-right.
#[derive(Clone, Debug)]
pub struct BeamSet {
    /// Sorted distinct event y's; beam `i` spans `ys[i]..ys[i+1]`.
    pub ys: Vec<f64>,
    beam_start: Vec<usize>,
    sub: Vec<SubEdge>,
}

impl BeamSet {
    /// Partition `edges` into the scanbeams bounded by `ys`, under an
    /// optional cooperative [`Gate`].
    ///
    /// `ys` must contain every edge endpoint y (and every forced split y).
    /// The beam offsets come before any sub-edge is written: each edge's
    /// beam span comes from two event lookups, and a difference array over
    /// the spans prefix-sums into the offsets. One pass over the edges, in
    /// id order, then writes every sub-edge at its beam's cursor, and each
    /// beam is sorted by [`SubEdge::order_key`]; `parallel` runs those sorts
    /// as rayon tasks. The key `(beam, xb, xt, edge_id)` is a strict total
    /// order, so the set does not depend on `parallel`.
    ///
    /// Gating: the fill polls per input edge and the sorts poll per beam.
    /// Sub-edge incidences (the paper's `k'` scale) are credited to the
    /// gate's work meter. A tripped gate leaves the `BeamSet` truncated —
    /// callers must check the gate before using it.
    pub fn build(
        edges: &[InputEdge],
        ys: Vec<f64>,
        forced: &ForcedSplits,
        gate: Option<&Gate>,
        parallel: bool,
    ) -> Self {
        let n_beams = ys.len().saturating_sub(1);
        let tripped = || gate.is_some_and(|g| g.is_tripped());
        // Offsets first, from a difference array over the spans. A slot can
        // dip below zero while the spans are added in, so the array is kept
        // modulo 2^64; every prefix sum is a beam's edge count, so the sums
        // come out exact.
        let spans: Vec<(usize, usize)> = edges.iter().map(|e| beam_span(&ys, e)).collect();
        let mut counts = vec![0usize; n_beams + 1];
        for &(i0, i1) in &spans {
            counts[i0] = counts[i0].wrapping_add(1);
            counts[i1] = counts[i1].wrapping_sub(1);
        }
        let mut beam_start = Vec::with_capacity(n_beams + 1);
        beam_start.push(0);
        let mut active = 0usize;
        for b in 0..n_beams {
            active = active.wrapping_add(counts[b]);
            beam_start.push(beam_start[b] + active);
        }
        // One fill: every sub-edge is written at its beam's cursor.
        let mut cursor = beam_start[..n_beams].to_vec();
        let mut sub = vec![DUMMY_SUB; beam_start[n_beams]];
        for (e, &span) in edges.iter().zip(&spans) {
            // Per-edge interruption point: the remaining slots keep their
            // placeholder.
            if tripped() {
                break;
            }
            for s in EdgeSplitter::new(e, &ys, forced, span) {
                let c = &mut cursor[s.beam as usize];
                sub[*c] = s;
                *c += 1;
            }
        }

        if let Some(g) = gate {
            g.meter().add_events(sub.len() as u64);
        }
        if !tripped() {
            sort_beams(&mut sub, &beam_start, parallel, gate);
        }

        BeamSet {
            ys,
            beam_start,
            sub,
        }
    }

    /// Number of scanbeams.
    #[inline]
    pub fn n_beams(&self) -> usize {
        self.ys.len().saturating_sub(1)
    }

    /// The sub-edges of beam `i`, sorted left-to-right.
    #[inline]
    pub fn beam(&self, i: usize) -> &[SubEdge] {
        &self.sub[self.beam_start[i]..self.beam_start[i + 1]]
    }

    /// Bottom scanline of beam `i`.
    #[inline]
    pub fn y_bot(&self, i: usize) -> f64 {
        self.ys[i]
    }

    /// Top scanline of beam `i`.
    #[inline]
    pub fn y_top(&self, i: usize) -> f64 {
        self.ys[i + 1]
    }

    /// Total sub-edge count; `total_sub_edges() - n_input_edges` is the
    /// number of virtual vertices k' introduced by the partition.
    #[inline]
    pub fn total_sub_edges(&self) -> usize {
        self.sub.len()
    }
}

/// Sort each beam's bucket by [`SubEdge::order_key`]. The key is total
/// (edge ids are unique within a beam), so the sorted buckets do not depend
/// on the order the fill wrote them in. `parallel` sorts the beams as rayon
/// tasks. The serial loop polls the gate per beam, and a parallel task
/// skips its beam once the gate trips. A trip mid-pass leaves `sub`
/// partially ordered — callers must check the gate.
fn sort_beams(sub: &mut [SubEdge], beam_start: &[usize], parallel: bool, gate: Option<&Gate>) {
    let tripped = || gate.is_some_and(|g| g.is_tripped());
    if parallel {
        buckets_mut(sub, beam_start).into_par_iter().for_each(|s| {
            if s.len() > 1 && !tripped() {
                s.sort_unstable_by_key(|e| e.order_key());
            }
        });
    } else {
        for w in beam_start.windows(2) {
            if tripped() {
                return;
            }
            sub[w[0]..w[1]].sort_unstable_by_key(|e| e.order_key());
        }
    }
}

/// `sub` split into its beams' buckets, given the beam offsets.
fn buckets_mut<'s>(mut sub: &'s mut [SubEdge], beam_start: &[usize]) -> Vec<&'s mut [SubEdge]> {
    let mut out = Vec::with_capacity(beam_start.len().saturating_sub(1));
    for w in beam_start.windows(2) {
        let (head, tail) = std::mem::take(&mut sub).split_at_mut(w[1] - w[0]);
        out.push(head);
        sub = tail;
    }
    out
}

/// The beams `[i0, i1)` edge `e` spans: two event lookups.
#[inline]
fn beam_span(ys: &[f64], e: &InputEdge) -> (usize, usize) {
    (event_index(ys, e.lo.y), event_index(ys, e.hi.y))
}

/// x of edge `e` at event height `y`: endpoint-exact, then forced vertices,
/// then interpolation. Pure function of its arguments, so the two beams
/// sharing a scanline obtain bit-identical coordinates.
#[inline]
fn x_on_edge(e: &InputEdge, y: f64, forced: &ForcedSplits) -> f64 {
    if y == e.lo.y {
        e.lo.x
    } else if y == e.hi.y {
        e.hi.x
    } else if let Some(x) = forced.forced_x(e.id, y) {
        x
    } else {
        e.x_at_y(y)
    }
}

/// Iterator yielding the sub-edges of one input edge, bottom to top.
struct EdgeSplitter<'a> {
    e: &'a InputEdge,
    ys: &'a [f64],
    forced: &'a ForcedSplits,
    cur: usize,
    end: usize,
    /// x at the current (lower) boundary, reused as the next xb.
    x_cur: f64,
}

impl<'a> EdgeSplitter<'a> {
    /// The splitter over `e`'s beam span `(i0, i1)` (see [`beam_span`]).
    fn new(
        e: &'a InputEdge,
        ys: &'a [f64],
        forced: &'a ForcedSplits,
        (i0, i1): (usize, usize),
    ) -> Self {
        debug_assert!(i0 < i1, "edge must span at least one beam");
        EdgeSplitter {
            e,
            ys,
            forced,
            cur: i0,
            end: i1,
            x_cur: e.lo.x,
        }
    }
}

impl Iterator for EdgeSplitter<'_> {
    type Item = SubEdge;

    fn next(&mut self) -> Option<SubEdge> {
        if self.cur >= self.end {
            return None;
        }
        let beam = self.cur;
        let xb = self.x_cur;
        let xt = x_on_edge(self.e, self.ys[beam + 1], self.forced);
        self.x_cur = xt;
        self.cur += 1;
        Some(SubEdge {
            beam: beam as u32,
            xb,
            xt,
            src: self.e.src,
            winding: self.e.winding,
            edge_id: self.e.id,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cross::tests::star;
    use crate::edges::collect_edges;
    use crate::events::event_ys;
    use polyclip_geom::PolygonSet;
    use polyclip_segtree::SegmentTree;
    use proptest::prelude::*;

    fn beams_of(p: &PolygonSet, q: &PolygonSet, parallel: bool) -> (Vec<InputEdge>, BeamSet) {
        let edges = collect_edges(p, q);
        let ys = event_ys(&edges, &[], false);
        let forced = ForcedSplits::empty(edges.len());
        let bs = BeamSet::build(&edges, ys, &forced, None, parallel);
        (edges, bs)
    }

    #[test]
    fn triangle_splits_into_two_beams() {
        // Triangle with apex between the base corners' y's.
        let p = PolygonSet::from_xy(&[(0.0, 0.0), (4.0, 1.0), (2.0, 2.0)]);
        let (edges, bs) = beams_of(&p, &PolygonSet::new(), false);
        assert_eq!(edges.len(), 3);
        assert_eq!(bs.n_beams(), 2);
        // Beam 0 (y 0..1): edges (0,0)-(4,1) and (0,0)-(2,2) → 2 sub-edges.
        assert_eq!(bs.beam(0).len(), 2);
        // Beam 1 (y 1..2): edges (4,1)-(2,2) and (0,0)-(2,2) → 2 sub-edges.
        assert_eq!(bs.beam(1).len(), 2);
        // k': edge (0,0)-(2,2) was split once.
        assert_eq!(bs.total_sub_edges(), 4);
        // Sub-edges are x-sorted within their beams.
        for b in 0..bs.n_beams() {
            let s = bs.beam(b);
            for w in s.windows(2) {
                assert!(w[0].order_key() <= w[1].order_key());
            }
        }
    }

    #[test]
    fn shared_scanline_coordinates_match_exactly() {
        let p = PolygonSet::from_xy(&[(0.1, 0.0), (4.3, 0.7), (2.9, 2.1), (0.4, 1.3)]);
        let q = PolygonSet::from_xy(&[(1.0, 0.3), (3.0, 0.2), (2.0, 1.9)]);
        let (_, bs) = beams_of(&p, &q, false);
        // For every pair of vertically adjacent beams, each edge present in
        // both must have top-x (below) == bottom-x (above), bit-exact.
        for b in 0..bs.n_beams().saturating_sub(1) {
            for lo in bs.beam(b) {
                for hi in bs.beam(b + 1) {
                    if lo.edge_id == hi.edge_id {
                        assert_eq!(lo.xt.to_bits(), hi.xb.to_bits());
                    }
                }
            }
        }
    }

    #[test]
    fn segment_tree_backend_agrees_with_direct_scan() {
        let quad = PolygonSet::from_xy(&[(0.0, 0.0), (5.0, 0.5), (4.0, 3.0), (1.0, 2.5)]);
        for (p, q) in [
            (
                quad.clone(),
                PolygonSet::from_xy(&[(2.0, 1.0), (6.0, 1.5), (3.0, 4.0)]),
            ),
            (
                quad,
                PolygonSet::from_xy(&[(2.0, -1.0), (6.0, 1.5), (3.0, 4.0)]),
            ),
            (star(0xabc123, 24, 0.0, 0.0), star(0x987654, 24, 0.4, 0.3)),
        ] {
            assert!(assert_backends_agree(&p, &q) > 0, "the inputs must cross");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn backends_agree_on_random_star_pairs(
            seed_p in 1u64..u64::MAX,
            seed_q in 1u64..u64::MAX,
            n_p in 3usize..16,
            n_q in 3usize..16,
            dx in -1.0f64..1.0,
            dy in -1.0f64..1.0,
        ) {
            assert_backends_agree(&star(seed_p, n_p, 0.0, 0.0), &star(seed_q, n_q, dx, dy));
        }
    }

    /// The partition, serially and in parallel, builds the set a global
    /// sort gives ([`reference`]), and the paper's segment tree lists the
    /// same edges in every beam ([`assert_segment_tree_lists_beams`]), for
    /// Round A (endpoint events only) and for a Round-B rebuild that forces
    /// a split at each of Round A's crossings, the way the engine's
    /// refinement rounds do. Returns the number of forced splits.
    fn assert_backends_agree(p: &PolygonSet, q: &PolygonSet) -> usize {
        use crate::cross::discover_intersections;
        let edges = collect_edges(p, q);
        let empty = ForcedSplits::empty(edges.len());
        let round_a = BeamSet::build(&edges, event_ys(&edges, &[], false), &empty, None, false);
        let mut triples = Vec::new();
        let mut extra = Vec::new();
        for c in discover_intersections(&round_a, &edges, false) {
            for eid in [c.e1, c.e2] {
                let e = &edges[eid as usize];
                if e.lo.y < c.p.y && c.p.y < e.hi.y {
                    triples.push((eid, c.p.y, c.p.x));
                }
            }
            extra.push(c.p.y);
        }
        let n_forced = triples.len();
        let forced = ForcedSplits::build(edges.len(), &triples);
        for (extra, forced) in [(&[][..], &empty), (&extra[..], &forced)] {
            let want = reference(&edges, event_ys(&edges, extra, false), forced);
            for parallel in [false, true] {
                let ys = event_ys(&edges, extra, false);
                let got = BeamSet::build(&edges, ys, forced, None, parallel);
                assert_identical(&got, &want);
                assert_segment_tree_lists_beams(&edges, &got, parallel);
            }
        }
        n_forced
    }

    /// The paper's Step 2 (§III-E): a segment tree over the edges' beam
    /// spans, whose count-then-report stabbing queries list each beam's
    /// active edges. Beam by beam, it must list exactly the edge ids the
    /// partition wrote into `bs`.
    fn assert_segment_tree_lists_beams(edges: &[InputEdge], bs: &BeamSet, parallel: bool) {
        let spans: Vec<(usize, usize)> = edges.iter().map(|e| beam_span(&bs.ys, e)).collect();
        let tree = SegmentTree::build_by_sort(bs.n_beams(), &spans, parallel);
        let (offsets, items) = tree.par_stab_all();
        for b in 0..bs.n_beams() {
            let mut listed: Vec<u32> = items[offsets[b]..offsets[b + 1]]
                .iter()
                .map(|&i| edges[i as usize].id)
                .collect();
            listed.sort_unstable();
            let mut held: Vec<u32> = bs.beam(b).iter().map(|s| s.edge_id).collect();
            held.sort_unstable();
            assert_eq!(
                held, listed,
                "beam {b}: segment tree and partition disagree"
            );
        }
    }

    /// The set one global sort gives: every edge's sub-edges in edge order,
    /// sorted by [`SubEdge::order_key`], with the beam offsets recounted.
    fn reference(edges: &[InputEdge], ys: Vec<f64>, forced: &ForcedSplits) -> BeamSet {
        let mut sub: Vec<SubEdge> = edges
            .iter()
            .flat_map(|e| EdgeSplitter::new(e, &ys, forced, beam_span(&ys, e)))
            .collect();
        sub.sort_unstable_by_key(|s| s.order_key());
        let n_beams = ys.len().saturating_sub(1);
        let mut beam_start = vec![0; n_beams + 1];
        for s in &sub {
            beam_start[s.beam as usize + 1] += 1;
        }
        for i in 0..n_beams {
            beam_start[i + 1] += beam_start[i];
        }
        BeamSet {
            ys,
            beam_start,
            sub,
        }
    }

    #[test]
    fn forced_splits_override_interpolation() {
        // One tall edge from (0,0) to (2,4); force a vertex at (0.75, 2.0).
        let p = PolygonSet::from_xy(&[(0.0, 0.0), (2.0, 4.0), (-2.0, 4.0)]);
        let edges = collect_edges(&p, &PolygonSet::new());
        let diag = edges
            .iter()
            .find(|e| e.lo == polyclip_geom::Point::new(0.0, 0.0) && e.hi.x == 2.0)
            .unwrap();
        let ys = event_ys(&edges, &[2.0], false);
        let forced = ForcedSplits::build(edges.len(), &[(diag.id, 2.0, 0.75)]);
        let bs = BeamSet::build(&edges, ys, &forced, None, false);
        // The diagonal's sub-edge below y=2 ends at x=0.75, not at 1.0.
        let below: Vec<&SubEdge> = bs.beam(0).iter().filter(|s| s.edge_id == diag.id).collect();
        assert_eq!(below.len(), 1);
        assert_eq!(below[0].xt, 0.75);
        let above: Vec<&SubEdge> = bs.beam(1).iter().filter(|s| s.edge_id == diag.id).collect();
        assert_eq!(above[0].xb, 0.75);
    }

    #[test]
    fn forced_splits_dedupe() {
        let f = ForcedSplits::build(
            2,
            &[(0, 1.0, 5.0), (0, 1.0, 5.0), (0, 2.0, 6.0), (1, 1.0, 7.0)],
        );
        assert_eq!(f.len(), 3);
        assert_eq!(f.forced_x(0, 1.0), Some(5.0));
        assert_eq!(f.forced_x(0, 2.0), Some(6.0));
        assert_eq!(f.forced_x(0, 3.0), None);
        assert_eq!(f.forced_x(1, 1.0), Some(7.0));
        assert_eq!(f.splits_of(0).len(), 2);
    }

    #[test]
    fn parallel_build_is_deterministic() {
        let p = PolygonSet::from_xy(&[(0.0, 0.0), (5.0, 0.5), (4.0, 3.0), (1.0, 2.5)]);
        let q = PolygonSet::from_xy(&[(2.0, 1.0), (6.0, 1.5), (3.0, 4.0)]);
        let (_, a) = beams_of(&p, &q, false);
        let (_, b) = beams_of(&p, &q, true);
        assert_eq!(a.total_sub_edges(), b.total_sub_edges());
        for i in 0..a.n_beams() {
            for (x, y) in a.beam(i).iter().zip(b.beam(i)) {
                assert_eq!(x.edge_id, y.edge_id);
                assert_eq!(x.xb.to_bits(), y.xb.to_bits());
            }
        }
    }

    fn assert_identical(a: &BeamSet, b: &BeamSet) {
        assert_eq!(a.ys.len(), b.ys.len(), "schedule length");
        for (x, y) in a.ys.iter().zip(&b.ys) {
            assert_eq!(x.to_bits(), y.to_bits(), "schedule y");
        }
        assert_eq!(a.beam_start, b.beam_start, "beam CSR");
        assert_eq!(a.sub.len(), b.sub.len());
        for (x, y) in a.sub.iter().zip(&b.sub) {
            assert_eq!(x.beam, y.beam);
            assert_eq!(x.xb.to_bits(), y.xb.to_bits());
            assert_eq!(x.xt.to_bits(), y.xt.to_bits());
            assert_eq!(x.src, y.src);
            assert_eq!(x.winding, y.winding);
            assert_eq!(x.edge_id, y.edge_id);
        }
    }
}
