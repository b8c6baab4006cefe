//! Event-point schedule: the sorted, distinct y-coordinates (Step 1).

use crate::edges::InputEdge;
use polyclip_geom::OrdF64;
use rayon::prelude::*;

/// Sorted, deduplicated event y-coordinates of all edge endpoints, plus any
/// `extra` values (Round B adds the intersection y's here). Consecutive
/// events bound the scanbeams; because duplicates are removed, every
/// scanbeam has strictly positive height — "intervals with `y_i` equal to
/// `y_{i+1}` are not considered as they do not form a valid scanbeam".
/// `parallel` sorts with `par_sort_unstable`, else with `sort_unstable`.
/// Both give the same y's; only where the edges hold both `-0.0` and
/// `+0.0`, which compare equal, may the surviving zero's sign differ.
pub fn event_ys(edges: &[InputEdge], extra: &[f64], parallel: bool) -> Vec<f64> {
    let mut ord = Vec::with_capacity(2 * edges.len() + extra.len());
    for e in edges {
        ord.push(OrdF64::new(e.lo.y));
        ord.push(OrdF64::new(e.hi.y));
    }
    ord.extend(extra.iter().map(|&y| OrdF64::new(y)));
    if parallel {
        ord.par_sort_unstable();
    } else {
        ord.sort_unstable();
    }
    ord.dedup();
    ord.iter().map(|y| y.get()).collect()
}

/// Index of `y` in the sorted event array. For event values this is an exact
/// lookup; for arbitrary values it returns the index of the scanline at or
/// below `y` (i.e. the beam containing `y` is `event_index(ys, y)` when `y`
/// is not itself an event).
#[inline]
pub fn event_index(ys: &[f64], y: f64) -> usize {
    // partition_point gives the count of events < y; for an exact event
    // value that is its index.
    ys.partition_point(|&v| v < y)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edges::collect_edges;
    use polyclip_geom::PolygonSet;

    fn tri(ys: [f64; 3]) -> PolygonSet {
        PolygonSet::from_xy(&[(0.0, ys[0]), (2.0, ys[1]), (1.0, ys[2])])
    }

    #[test]
    fn events_sorted_distinct() {
        let a = tri([0.0, 1.0, 2.0]);
        let b = tri([1.0, 3.0, 2.0]); // shares y = 1.0 and 2.0
        let edges = collect_edges(&a, &b);
        let ys = event_ys(&edges, &[], false);
        assert_eq!(ys, vec![0.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn extra_events_merge_in() {
        let a = tri([0.0, 0.5, 2.0]);
        let edges = collect_edges(&a, &PolygonSet::new());
        let ys = event_ys(&edges, &[1.25, 0.5], false);
        assert_eq!(ys, vec![0.0, 0.5, 1.25, 2.0]);
    }

    #[test]
    fn parallel_matches_sequential() {
        let a = tri([0.0, 1.0, 2.0]);
        let b = tri([-1.0, 0.5, 3.0]);
        let edges = collect_edges(&a, &b);
        assert_eq!(event_ys(&edges, &[], true), event_ys(&edges, &[], false));
    }

    #[test]
    fn exact_index_lookup() {
        let ys = [0.0, 0.5, 1.25, 2.0];
        assert_eq!(event_index(&ys, 0.0), 0);
        assert_eq!(event_index(&ys, 1.25), 2);
        assert_eq!(event_index(&ys, 2.0), 3);
        // Non-event value: two events are < 0.7, so it falls in beam 1..2.
        assert_eq!(event_index(&ys, 0.7), 2);
    }
}
