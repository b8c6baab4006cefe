//! Output-sensitive intersection discovery via inversions (Lemma 4).
//!
//! Within one scanbeam every active sub-edge spans the whole beam, so two
//! sub-edges cross **iff** their left-to-right order at the bottom scanline
//! differs from their order at the top scanline — an inversion of the
//! bottom-to-top rank permutation. Counting and reporting those inversions
//! with the extended merge sort of [`polyclip_parprim::inversions`] finds the
//! k intersections in `O((n + k') log (n + k') + k)` work, never enumerating
//! non-crossing pairs: this is what makes the algorithm output-sensitive.
//!
//! Pairs meeting exactly at a scanline produce no inversion (the shared
//! endpoint ties, and both orders break the tie the same way), so endpoint
//! touching is — correctly — not reported as a crossing.

use crate::beams::{BeamSet, SubEdge};
use crate::edges::InputEdge;
use polyclip_geom::{OrdF64, Point, Segment, SegmentIntersection};
use polyclip_parprim::inversions::{par_report_inversions_gated, report_inversions_in, InvScratch};
use polyclip_parprim::Gate;
use rayon::prelude::*;

/// A discovered crossing between two input edges.
#[derive(Clone, Copy, Debug)]
pub struct CrossEvent {
    /// First edge id.
    pub e1: u32,
    /// Second edge id.
    pub e2: u32,
    /// The intersection vertex (floating-point parametric intersection of
    /// the *original* segments, shared verbatim by both edges thereafter).
    pub p: Point,
}

/// Beams whose active list is at least this long use the parallel
/// inversion reporter internally (nested parallelism over huge beams).
/// The gated discovery entry points take the cutoff as their `grain`
/// parameter; the engine passes this constant.
pub const BIG_BEAM: usize = 16 * 1024;

/// Discover all transversal edge crossings.
///
/// `beams` must be a Round-A beam set (split at endpoint events only);
/// `edges` the input edges it was built from.
pub fn discover_intersections(
    beams: &BeamSet,
    edges: &[InputEdge],
    parallel: bool,
) -> Vec<CrossEvent> {
    discover_intersections_gated(beams, edges, parallel, None, BIG_BEAM)
}

/// [`discover_intersections`] under a cooperative [`Gate`].
///
/// Gating: each scanbeam polls the gate before doing any work (the
/// per-scanbeam checkpoint of the bounded-execution design), credits its
/// discovered crossings to the work meter, and big beams (at least `grain`
/// sub-edges) run the gated parallel inversion reporter, which refuses the
/// `O(k)` fill when `max_intersections` would blow. A tripped gate yields a
/// truncated event list — callers must check the gate.
///
/// Event order is the same on both paths (beam order, then within-beam
/// pair order), so downstream forced-split dedup sees the same first-wins
/// winner.
pub fn discover_intersections_gated(
    beams: &BeamSet,
    edges: &[InputEdge],
    parallel: bool,
    gate: Option<&Gate>,
    grain: usize,
) -> Vec<CrossEvent> {
    discover_on(beams, On::Edges(edges), parallel, gate, grain)
}

/// Discover *residual* crossings in a split beam set: inversions evaluated
/// on the (possibly bent, forced-split) sub-edge geometry itself.
///
/// After the intersection events are inserted, rounding can still leave two
/// sub-edges swapping order inside a numerically degenerate (hair-thin)
/// beam — e.g. when two crossings of a nearly horizontal edge round to
/// inconsistent y's. The engine iterates: discover residuals, split at them,
/// rebuild, until every beam is crossing-free. The returned intersection
/// points come from the sub-edge segments, which guarantees they fall
/// *strictly inside* the offending beam and therefore make progress.
///
/// Gating and the event-order guarantee are those of
/// [`discover_intersections_gated`].
pub fn discover_residual_crossings(
    beams: &BeamSet,
    parallel: bool,
    gate: Option<&Gate>,
    grain: usize,
) -> Vec<CrossEvent> {
    discover_on(beams, On::SubEdges, parallel, gate, grain)
}

/// The segments an inverted pair of sub-edges is intersected on.
#[derive(Clone, Copy)]
enum On<'a> {
    /// The input edges the sub-edges lie on (Round A).
    Edges(&'a [InputEdge]),
    /// The sub-edges as drawn across their beam (residuals).
    SubEdges,
}

/// Per-beam working buffers for inversion discovery: the top-order
/// permutation, its rank array, the merge-sort scratch of the reporter and
/// the reported pairs. One serves a whole serial discovery pass; the
/// parallel path makes one per chunk of beams.
#[derive(Default)]
struct BeamScratch {
    top_order: Vec<u32>,
    rank: Vec<u32>,
    inv: InvScratch,
    pairs: Vec<(usize, usize)>,
}

/// The one discovery driver: every beam's crossings on `on`, in beam order.
fn discover_on(
    beams: &BeamSet,
    on: On<'_>,
    parallel: bool,
    gate: Option<&Gate>,
    grain: usize,
) -> Vec<CrossEvent> {
    let n = beams.n_beams();
    if parallel {
        // Chunk the beams so each task reuses one scratch across its chunk;
        // chunks are emitted in beam order, so the event order matches the
        // sequential path exactly.
        let chunk = beam_chunk_size(n);
        (0..n.div_ceil(chunk.max(1)))
            .into_par_iter()
            .flat_map_iter(|c| {
                let mut bs = BeamScratch::default();
                let mut acc = Vec::new();
                for b in c * chunk..((c + 1) * chunk).min(n) {
                    beam_crossings_in(beams, on, b, gate, grain, &mut bs, &mut acc);
                }
                acc
            })
            .collect()
    } else {
        let mut bs = BeamScratch::default();
        let mut out = Vec::new();
        for b in 0..n {
            beam_crossings_in(beams, on, b, gate, grain, &mut bs, &mut out);
        }
        out
    }
}

/// Beams per parallel discovery task: a few chunks per thread for load
/// balance while amortizing one scratch allocation over the whole chunk.
/// Chunking affects grouping only, never results — events stay in beam
/// order regardless.
fn beam_chunk_size(n_beams: usize) -> usize {
    n_beams
        .div_ceil((rayon::current_num_threads() * 4).max(1))
        .max(1)
}

/// Inversion pairs (bottom order vs top order) of one beam's sub-edges,
/// left in `bs.pairs`.
fn beam_inversions_in(sub: &[SubEdge], gate: Option<&Gate>, grain: usize, bs: &mut BeamScratch) {
    bs.pairs.clear();
    let m = sub.len();
    if m < 2 {
        return;
    }
    bs.top_order.clear();
    bs.top_order.extend(0..m as u32);
    bs.top_order.sort_unstable_by_key(|&i| {
        let s = &sub[i as usize];
        (OrdF64::new(s.xt), OrdF64::new(s.xb), s.edge_id)
    });
    bs.rank.clear();
    bs.rank.resize(m, 0);
    for (t, &p) in bs.top_order.iter().enumerate() {
        bs.rank[p as usize] = t as u32;
    }
    if m >= grain.max(2) {
        bs.pairs = par_report_inversions_gated(&bs.rank, gate);
    } else {
        report_inversions_in(&bs.rank, &mut bs.inv, &mut bs.pairs);
    }
}

/// Crossings inside a single beam, intersected on `on`, appended to `out`.
fn beam_crossings_in(
    beams: &BeamSet,
    on: On<'_>,
    b: usize,
    gate: Option<&Gate>,
    grain: usize,
    bs: &mut BeamScratch,
    out: &mut Vec<CrossEvent>,
) {
    // Per-scanbeam interruption point: a tripped gate degrades every
    // remaining beam to an empty crossing list.
    if gate.is_some_and(|g| g.is_tripped()) {
        return;
    }
    let sub = beams.beam(b);
    // `sub` is in bottom order (xb, then xt); inversions against the top
    // order (xt, then xb) are exactly the crossing pairs.
    beam_inversions_in(sub, gate, grain, bs);
    if let Some(g) = gate {
        // Credit before materializing the events; a beam that would blow
        // `max_intersections` latches the gate instead of allocating O(k).
        if g.intersections_would_exceed(bs.pairs.len() as u64) {
            return;
        }
        g.meter().add_intersections(bs.pairs.len() as u64);
    }
    let (yb, yt) = (beams.y_bot(b), beams.y_top(b));
    out.reserve(bs.pairs.len());
    for (t, &(i, j)) in bs.pairs.iter().enumerate() {
        // A dense beam can hold millions of pairs; re-poll inside the O(k)
        // materialization so cancellation latency stays bounded by the
        // batch, not the beam.
        if t & 0xFFF == 0 && t > 0 && gate.is_some_and(|g| g.is_tripped()) {
            return;
        }
        let (sa, sb) = (&sub[i], &sub[j]);
        if sa.edge_id == sb.edge_id {
            continue; // an edge occurs once per beam, but stay defensive
        }
        let hit = match on {
            On::Edges(edges) => {
                let ea = edges[sa.edge_id as usize].segment();
                ea.intersect(&edges[sb.edge_id as usize].segment())
            }
            On::SubEdges => {
                let across = |s: &SubEdge| Segment::new(Point::new(s.xb, yb), Point::new(s.xt, yt));
                across(sa).intersect(&across(sb))
            }
        };
        // Collinear overlaps and rounding-phantom inversions carry no
        // transversal crossing; the parity classifier handles them without
        // an explicit intersection vertex.
        if let SegmentIntersection::At(p) = hit {
            out.push(CrossEvent {
                e1: sa.edge_id,
                e2: sb.edge_id,
                p,
            });
        }
    }
}

/// Reference oracle: O(n²) pairwise transversal-crossing finder used by
/// tests and the output-sensitivity benches. Counts only crossings strictly
/// interior to both segments (endpoint touching excluded), matching what
/// inversion discovery reports.
pub fn brute_force_crossings(edges: &[InputEdge]) -> Vec<CrossEvent> {
    let mut out = Vec::new();
    for i in 0..edges.len() {
        for j in i + 1..edges.len() {
            let (a, b) = (edges[i].segment(), edges[j].segment());
            if let SegmentIntersection::At(p) = a.intersect(&b) {
                let interior_a = p != a.a && p != a.b;
                let interior_b = p != b.a && p != b.b;
                if interior_a && interior_b {
                    out.push(CrossEvent {
                        e1: edges[i].id,
                        e2: edges[j].id,
                        p,
                    });
                }
            }
        }
    }
    out
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::beams::{BeamSet, ForcedSplits, PartitionBackend};
    use crate::edges::collect_edges;
    use crate::events::event_ys;
    use polyclip_geom::PolygonSet;
    use std::collections::HashSet;

    fn round_a(a: &PolygonSet, b: &PolygonSet) -> (Vec<InputEdge>, BeamSet) {
        let edges = collect_edges(a, b);
        let ys = event_ys(&edges, &[], false);
        let beams = BeamSet::build(
            &edges,
            ys,
            &ForcedSplits::empty(edges.len()),
            PartitionBackend::DirectScan,
            false,
        );
        (edges, beams)
    }

    fn discover(
        a: &PolygonSet,
        b: &PolygonSet,
        parallel: bool,
    ) -> (Vec<InputEdge>, Vec<CrossEvent>) {
        let (edges, beams) = round_a(a, b);
        let events = discover_intersections(&beams, &edges, parallel);
        (edges, events)
    }

    fn pair_set(events: &[CrossEvent]) -> HashSet<(u32, u32)> {
        events
            .iter()
            .map(|e| (e.e1.min(e.e2), e.e1.max(e.e2)))
            .collect()
    }

    #[test]
    fn overlapping_diamonds_cross_twice() {
        // Two diamonds offset horizontally: boundaries cross exactly twice.
        let a = PolygonSet::from_xy(&[(0.0, -1.0), (1.0, 0.0), (0.0, 1.0), (-1.0, 0.0)]);
        let b = a.translate(polyclip_geom::Point::new(1.0, 0.1)).clone();
        let (edges, events) = discover(&a, &b, false);
        assert_eq!(pair_set(&events), pair_set(&brute_force_crossings(&edges)));
        assert_eq!(pair_set(&events).len(), 2);
    }

    #[test]
    fn bowtie_self_intersection_found() {
        // The bow-tie's own edges cross once at its waist.
        let bow = PolygonSet::from_xy(&[(0.0, 0.0), (2.0, 2.0), (2.0, 0.0), (0.0, 2.0)]);
        let (edges, events) = discover(&bow, &PolygonSet::new(), false);
        let brute = brute_force_crossings(&edges);
        assert_eq!(pair_set(&events), pair_set(&brute));
        assert_eq!(events.len(), 1);
        let p = events[0].p;
        assert!((p.x - 1.0).abs() < 1e-12 && (p.y - 1.0).abs() < 1e-12);
    }

    #[test]
    fn disjoint_polygons_have_no_crossings() {
        let a = PolygonSet::from_xy(&[(0.0, 0.0), (1.0, 0.2), (0.5, 1.0)]);
        let b = a.translate(polyclip_geom::Point::new(10.0, 0.0));
        let (_, events) = discover(&a, &b, false);
        assert!(events.is_empty());
    }

    #[test]
    fn vertex_touching_is_not_a_crossing() {
        // Two triangles sharing exactly one vertex.
        let a = PolygonSet::from_xy(&[(0.0, 0.0), (2.0, 0.1), (1.0, 1.0)]);
        let b = PolygonSet::from_xy(&[(1.0, 1.0), (3.0, 1.2), (2.0, 2.0)]);
        let (_, events) = discover(&a, &b, false);
        assert!(events.is_empty(), "got {events:?}");
    }

    /// A star-shaped `n`-gon around `(cx, cy)` with pseudo-random radii in
    /// `[0.4, 1.0)` drawn from `seed` (nonzero): simple, and two of them
    /// with nearby centers cross many times.
    pub(crate) fn star(seed: u64, n: usize, cx: f64, cy: f64) -> PolygonSet {
        let mut s = seed;
        let mut rng = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s % 1000) as f64 / 1000.0
        };
        let pts: Vec<(f64, f64)> = (0..n)
            .map(|i| {
                let ang = (i as f64) * std::f64::consts::TAU / (n as f64);
                let r = 0.4 + 0.6 * rng();
                (cx + r * ang.cos(), cy + r * ang.sin())
            })
            .collect();
        PolygonSet::from_xy(&pts)
    }

    #[test]
    fn matches_bruteforce_on_random_star_polygons() {
        let a = star(0xabc123, 24, 0.0, 0.0);
        let b = star(0x987654, 24, 0.4, 0.3);
        let (edges, beams) = round_a(&a, &b);
        let brute = pair_set(&brute_force_crossings(&edges));
        assert!(!brute.is_empty());
        // `grain = 1` sends every beam to the parallel inversion reporter;
        // `BIG_BEAM` keeps these small beams on the sequential one. The two
        // reporters leave pair order unspecified, so compare sets. On the
        // Round-A set every sub-edge lies on its input edge, so the residual
        // pass must find the same pairs.
        for parallel in [false, true] {
            for grain in [1, BIG_BEAM] {
                let events = discover_intersections_gated(&beams, &edges, parallel, None, grain);
                assert_eq!(
                    pair_set(&events),
                    brute,
                    "parallel={parallel} grain={grain}: inversion discovery disagrees with brute force"
                );
                let residual = discover_residual_crossings(&beams, parallel, None, grain);
                assert_eq!(
                    pair_set(&residual),
                    brute,
                    "parallel={parallel} grain={grain}: residual discovery disagrees with brute force"
                );
            }
        }
    }

    #[test]
    fn grid_cross_hatch_counts() {
        // Thin vertical strips vs one fat diagonal band: each strip's two
        // long verticals cross the band's two long diagonals.
        let mut contours = Vec::new();
        for i in 0..5 {
            let x = i as f64;
            contours.push(polyclip_geom::Contour::from_xy(&[
                (x, -5.0),
                (x + 0.2, -5.0),
                (x + 0.2, 5.0),
                (x, 5.0),
            ]));
        }
        let strips = PolygonSet::from_contours(contours);
        let band = PolygonSet::from_xy(&[(-6.0, -1.0), (6.0, -0.5), (6.0, 0.5), (-6.0, 1.0)]);
        let (edges, events) = discover(&strips, &band, false);
        assert_eq!(pair_set(&events), pair_set(&brute_force_crossings(&edges)));
        // 10 vertical edges × 2 near-horizontal band edges = 20 crossings.
        assert_eq!(pair_set(&events).len(), 20);
    }
}
