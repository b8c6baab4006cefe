//! Bentley–Ottmann plane sweep — the classical `O((n + k) log n)` segment
//! intersection algorithm the paper's related work builds on (\[2\],
//! \[15\], \[16\] of the paper). Serves as an independent baseline and
//! oracle for the inversion-based discovery of Lemma 4: both must report
//! exactly the same transversal crossing pairs.
//!
//! This is a reference implementation for inputs in general position: the
//! sweep status is kept as a sorted vector (logarithmic search, linear
//! update), which favours simplicity and testability over asymptotics; the
//! production path in this workspace is the inversion-based discovery,
//! whose per-beam structure parallelizes — the very point of the paper.

use crate::cross::CrossEvent;
use crate::edges::InputEdge;
use polyclip_geom::{OrdF64, Point, SegmentIntersection};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum EventKind {
    /// Lower endpoint: insert into the status.
    Start,
    /// Upper endpoint: remove from the status.
    End,
    /// Two neighbours cross: swap them.
    Cross(u32, u32),
}

#[derive(Clone, Copy, Debug)]
struct Event {
    y: OrdF64,
    x: OrdF64,
    kind: EventKind,
    /// Edge for Start/End events (unused for Cross).
    edge: u32,
}

impl PartialEq for Event {
    fn eq(&self, o: &Self) -> bool {
        (self.y, self.x) == (o.y, o.x)
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, o: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(o))
    }
}
impl Ord for Event {
    fn cmp(&self, o: &Self) -> std::cmp::Ordering {
        // Bottom-to-top, left-to-right; kind breaks ties so that End events
        // run before Start events at shared vertices (remove-then-insert).
        (self.y, self.x, kind_rank(self.kind)).cmp(&(o.y, o.x, kind_rank(o.kind)))
    }
}

fn kind_rank(k: EventKind) -> u8 {
    match k {
        EventKind::End => 0,
        EventKind::Cross(..) => 1,
        EventKind::Start => 2,
    }
}

/// Report all transversal crossings by a bottom-to-top plane sweep.
///
/// Pairs touching only at endpoints are not reported (matching the
/// inversion discovery's contract). Inputs must be in general position for
/// exact agreement; degenerate inputs may report duplicates, which are
/// deduplicated before returning.
pub fn bentley_ottmann(edges: &[InputEdge]) -> Vec<CrossEvent> {
    let mut queue: BinaryHeap<Reverse<Event>> = BinaryHeap::with_capacity(2 * edges.len());
    for e in edges {
        queue.push(Reverse(Event {
            y: OrdF64::new(e.lo.y),
            x: OrdF64::new(e.lo.x),
            kind: EventKind::Start,
            edge: e.id,
        }));
        queue.push(Reverse(Event {
            y: OrdF64::new(e.hi.y),
            x: OrdF64::new(e.hi.x),
            kind: EventKind::End,
            edge: e.id,
        }));
    }

    // Status: active edge ids ordered left-to-right at the sweep position.
    let mut status: Vec<u32> = Vec::new();
    let mut out: Vec<CrossEvent> = Vec::new();
    let mut seen: std::collections::HashSet<(u32, u32)> = Default::default();

    // x of `edge` slightly above the event point (slope as tiebreak).
    let x_key = |edge: u32, y: f64, x_hint: f64| -> (f64, f64) {
        let e = &edges[edge as usize];
        let x = if y <= e.lo.y {
            e.lo.x
        } else if y >= e.hi.y {
            e.hi.x
        } else {
            e.x_at_y(y)
        };
        let slope = (e.hi.x - e.lo.x) / (e.hi.y - e.lo.y);
        let _ = x_hint;
        (x, slope)
    };

    let mut check = |a: u32,
                     b: u32,
                     out: &mut Vec<CrossEvent>,
                     queue: &mut BinaryHeap<Reverse<Event>>,
                     cur_y: f64| {
        let (ea, eb) = (&edges[a as usize], &edges[b as usize]);
        if let SegmentIntersection::At(p) = ea.segment().intersect(&eb.segment()) {
            // Interior crossing only (endpoint touches excluded).
            let interior = p != ea.lo && p != ea.hi && p != eb.lo && p != eb.hi;
            if interior && p.y >= cur_y && seen.insert((a.min(b), a.max(b))) {
                out.push(CrossEvent { e1: a, e2: b, p });
                queue.push(Reverse(Event {
                    y: OrdF64::new(p.y),
                    x: OrdF64::new(p.x),
                    kind: EventKind::Cross(a, b),
                    edge: a,
                }));
            }
        }
    };

    while let Some(Reverse(ev)) = queue.pop() {
        let y = ev.y.get();
        match ev.kind {
            EventKind::Start => {
                let e = &edges[ev.edge as usize];
                let key = (e.lo.x, (e.hi.x - e.lo.x) / (e.hi.y - e.lo.y));
                let pos = status.partition_point(|&s| x_key(s, y, key.0) < key);
                status.insert(pos, ev.edge);
                if pos > 0 {
                    check(status[pos - 1], ev.edge, &mut out, &mut queue, y);
                }
                if pos + 1 < status.len() {
                    check(ev.edge, status[pos + 1], &mut out, &mut queue, y);
                }
            }
            EventKind::End => {
                if let Some(pos) = status.iter().position(|&s| s == ev.edge) {
                    status.remove(pos);
                    if pos > 0 && pos < status.len() {
                        check(status[pos - 1], status[pos], &mut out, &mut queue, y);
                    }
                }
            }
            EventKind::Cross(a, b) => {
                // Swap the two in the status; check new neighbour pairs.
                let (pa, pb) = (
                    status.iter().position(|&s| s == a),
                    status.iter().position(|&s| s == b),
                );
                if let (Some(pa), Some(pb)) = (pa, pb) {
                    status.swap(pa, pb);
                    let (lo, hi) = (pa.min(pb), pa.max(pb));
                    if lo > 0 {
                        check(status[lo - 1], status[lo], &mut out, &mut queue, y);
                    }
                    if hi + 1 < status.len() {
                        check(status[hi], status[hi + 1], &mut out, &mut queue, y);
                    }
                }
            }
        }
    }
    out
}

/// Pair set helper shared by the oracle tests.
pub fn pair_set(events: &[CrossEvent]) -> std::collections::HashSet<(u32, u32)> {
    events
        .iter()
        .map(|e| (e.e1.min(e.e2), e.e1.max(e.e2)))
        .collect()
}

#[allow(dead_code)]
fn _unused(_: Point) {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::beams::{BeamSet, ForcedSplits, PartitionBackend};
    use crate::cross::{brute_force_crossings, discover_intersections};
    use crate::edges::collect_edges;
    use crate::events::event_ys;
    use polyclip_geom::PolygonSet;

    fn blob(seed: u64, cx: f64, cy: f64, n: usize) -> PolygonSet {
        let mut s = seed;
        let mut rng = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s % 1000) as f64 / 1000.0
        };
        let pts: Vec<(f64, f64)> = (0..n)
            .map(|i| {
                let ang = i as f64 / n as f64 * std::f64::consts::TAU;
                let r = 0.4 + 0.6 * rng();
                (cx + r * ang.cos(), cy + r * ang.sin())
            })
            .collect();
        PolygonSet::from_xy(&pts)
    }

    #[test]
    fn agrees_with_bruteforce_on_random_blobs() {
        for seed in [1u64, 7, 42, 1234] {
            let a = blob(seed, 0.0, 0.0, 18);
            let b = blob(seed ^ 0xff, 0.4, 0.25, 18);
            let edges = collect_edges(&a, &b);
            let bo = bentley_ottmann(&edges);
            let brute = brute_force_crossings(&edges);
            assert_eq!(pair_set(&bo), pair_set(&brute), "seed {seed}");
        }
    }

    #[test]
    fn agrees_with_inversion_discovery() {
        let a = blob(9, 0.0, 0.0, 24);
        let b = blob(77, 0.3, 0.2, 24);
        let edges = collect_edges(&a, &b);
        let bo = bentley_ottmann(&edges);
        let ys = event_ys(&edges, &[], false);
        let beams = BeamSet::build(
            &edges,
            ys,
            &ForcedSplits::empty(edges.len()),
            PartitionBackend::DirectScan,
            false,
        );
        let inv = discover_intersections(&beams, &edges, false);
        assert_eq!(pair_set(&bo), pair_set(&inv));
    }

    #[test]
    fn simple_cross_pair() {
        // Two diamonds crossing twice.
        let a = PolygonSet::from_xy(&[(0.0, -1.0), (1.0, 0.0), (0.0, 1.0), (-1.0, 0.0)]);
        let b = a.translate(polyclip_geom::Point::new(1.0, 0.1));
        let edges = collect_edges(&a, &b);
        assert_eq!(bentley_ottmann(&edges).len(), 2);
    }

    #[test]
    fn disjoint_and_empty() {
        let a = blob(5, 0.0, 0.0, 12);
        let b = blob(6, 10.0, 0.0, 12);
        let edges = collect_edges(&a, &b);
        assert!(bentley_ottmann(&edges).is_empty());
        assert!(bentley_ottmann(&[]).is_empty());
    }

    #[test]
    fn self_intersection_found() {
        let bow = PolygonSet::from_xy(&[(0.0, 0.0), (2.0, 2.0), (2.0, 0.0), (0.0, 2.0)]);
        let edges = collect_edges(&bow, &PolygonSet::new());
        let evs = bentley_ottmann(&edges);
        assert_eq!(evs.len(), 1);
        assert!((evs[0].p.x - 1.0).abs() < 1e-12);
    }

    #[test]
    fn dense_crosshatch() {
        // 6 vertical strips × one wide band: 12 crossings per band side.
        let mut contours = Vec::new();
        for i in 0..6 {
            let x = i as f64;
            contours.push(polyclip_geom::Contour::from_xy(&[
                (x, -5.0),
                (x + 0.3, -5.0),
                (x + 0.3, 5.0),
                (x, 5.0),
            ]));
        }
        let strips = PolygonSet::from_contours(contours);
        let band = PolygonSet::from_xy(&[(-1.0, -1.0), (7.0, -0.8), (7.0, 0.8), (-1.0, 1.0)]);
        let edges = collect_edges(&strips, &band);
        let bo = bentley_ottmann(&edges);
        let brute = brute_force_crossings(&edges);
        assert_eq!(pair_set(&bo), pair_set(&brute));
        assert_eq!(bo.len(), 24);
    }
}
