//! Segment tree with cover lists and output-sensitive stabbing queries.
//!
//! Section II-C of Puri & Prasad describes the data structure; Section III-E
//! uses it for Step 2 of the PRAM algorithm: *partition the polygon edges
//! into scanbeams*. Each edge's y-span is an interval over the elementary
//! intervals induced by the sorted event y-coordinates; a scanbeam's active
//! edges are exactly the intervals covering a stabbing point inside it.
//!
//! The paper's output-sensitive trick is reproduced faithfully:
//!
//! 1. every node carries `|c|`, the size of its cover list, so a **counting
//!    query** walks the root-to-leaf path in `O(log m)` without touching the
//!    edges;
//! 2. processor (slot) allocation happens once, from the exact counts, via a
//!    prefix sum;
//! 3. the **reporting queries** then fill disjoint output ranges in parallel.
//!
//! See [`SegmentTree::par_stab_all`] for the combined count→allocate→report
//! batch query used by the clipper.

use rayon::prelude::*;

/// A static segment tree over the elementary intervals induced by a sorted
/// sequence of breakpoints.
///
/// Intervals and queries are expressed in *elementary interval indices*; the
/// sweep layer is responsible for mapping `f64` y-coordinates to indices
/// (one binary search). This keeps the structure exact: no floating-point
/// comparisons happen inside the tree.
#[derive(Debug, Clone)]
pub struct SegmentTree {
    /// Number of elementary intervals (leaves before padding).
    n_leaves: usize,
    /// Leaf count padded to a power of two; the tree is implicit:
    /// node 1 is the root, node `i`'s children are `2i` and `2i+1`, leaves
    /// occupy `size..size + n_leaves`.
    size: usize,
    /// CSR layout of cover lists: `cover_items[cover_start[v]..cover_start[v+1]]`
    /// are the interval ids stored at node `v`.
    cover_start: Vec<usize>,
    cover_items: Vec<u32>,
}

impl SegmentTree {
    /// Build from `intervals`, each a half-open range `lo..hi` of elementary
    /// interval indices (`hi <= n_leaves`). Empty ranges are skipped.
    ///
    /// Sequential construction from per-node lists; the reference the
    /// pipeline's [`build_by_sort`](Self::build_by_sort) is checked against.
    pub fn build(n_leaves: usize, intervals: &[(usize, usize)]) -> Self {
        let size = n_leaves.next_power_of_two().max(1);
        let n_nodes = 2 * size;
        let mut lists: Vec<Vec<u32>> = vec![Vec::new(); n_nodes];
        for (id, &(lo, hi)) in intervals.iter().enumerate() {
            debug_assert!(hi <= n_leaves, "interval beyond leaf range");
            for v in cover_nodes(size, lo, hi) {
                lists[v].push(id as u32);
            }
        }
        let mut cover_start = Vec::with_capacity(n_nodes + 1);
        let mut cover_items = Vec::new();
        let mut acc = 0usize;
        for l in &lists {
            cover_start.push(acc);
            acc += l.len();
        }
        cover_start.push(acc);
        cover_items.reserve(acc);
        for l in lists {
            cover_items.extend(l);
        }
        SegmentTree {
            n_leaves,
            size,
            cover_start,
            cover_items,
        }
    }

    /// [`build`](Self::build) by one sort: the `(node, id)` cover pairs of
    /// all intervals are emitted, sorted by node, and sliced into CSR. Cover
    /// lists are identical to [`build`](Self::build)'s (each node's ids
    /// ascend in both).
    ///
    /// With `parallel`, the pairs are emitted and sorted in parallel —
    /// `O(N log N)` work for `N = Σ O(log m)` pairs, polylog span, mirroring
    /// the parallel segment-tree construction of Atallah et al. cited by
    /// the paper.
    pub fn build_by_sort(n_leaves: usize, intervals: &[(usize, usize)], parallel: bool) -> Self {
        let size = n_leaves.next_power_of_two().max(1);
        let n_nodes = 2 * size;
        let mut pairs: Vec<(u32, u32)> = Vec::new();
        if parallel {
            pairs.par_extend(
                intervals
                    .par_iter()
                    .enumerate()
                    .flat_map_iter(|(id, &(lo, hi))| {
                        cover_nodes(size, lo, hi)
                            .into_iter()
                            .map(move |v| (v as u32, id as u32))
                    }),
            );
            pairs.par_sort_unstable();
        } else {
            for (id, &(lo, hi)) in intervals.iter().enumerate() {
                debug_assert!(hi <= n_leaves, "interval beyond leaf range");
                pairs.extend(
                    cover_nodes(size, lo, hi)
                        .into_iter()
                        .map(|v| (v as u32, id as u32)),
                );
            }
            pairs.sort_unstable();
        }
        let mut cover_start = vec![0; n_nodes + 1];
        for &(v, _) in &pairs {
            cover_start[v as usize + 1] += 1;
        }
        for i in 0..n_nodes {
            cover_start[i + 1] += cover_start[i];
        }
        let cover_items = pairs.iter().map(|&(_, id)| id).collect();
        SegmentTree {
            n_leaves,
            size,
            cover_start,
            cover_items,
        }
    }

    /// Number of elementary intervals.
    #[inline]
    pub fn n_leaves(&self) -> usize {
        self.n_leaves
    }

    /// Total stored cover entries (Σ|c| over nodes) — the k' cost of Step 2.
    #[inline]
    pub fn total_cover_entries(&self) -> usize {
        self.cover_items.len()
    }

    #[inline]
    fn cover(&self, v: usize) -> &[u32] {
        &self.cover_items[self.cover_start[v]..self.cover_start[v + 1]]
    }

    /// Count the intervals covering elementary interval `leaf` by summing
    /// `|c|` along the root-to-leaf path — `O(log m)`, no edge touched.
    pub fn stab_count(&self, leaf: usize) -> usize {
        debug_assert!(leaf < self.n_leaves);
        let mut v = self.size + leaf;
        let mut count = 0;
        while v >= 1 {
            count += self.cover(v).len();
            if v == 1 {
                break;
            }
            v /= 2;
        }
        count
    }

    /// Append the ids of all intervals covering `leaf` to `out`.
    pub fn stab_report(&self, leaf: usize, out: &mut Vec<u32>) {
        debug_assert!(leaf < self.n_leaves);
        let mut v = self.size + leaf;
        loop {
            out.extend_from_slice(self.cover(v));
            if v == 1 {
                break;
            }
            v /= 2;
        }
    }

    /// Fill a pre-sized buffer with the covering ids (reporting phase of the
    /// count→allocate→report pattern). `dst.len()` must equal
    /// `stab_count(leaf)`.
    pub fn stab_fill(&self, leaf: usize, dst: &mut [u32]) {
        let mut v = self.size + leaf;
        let mut k = 0;
        loop {
            let c = self.cover(v);
            dst[k..k + c.len()].copy_from_slice(c);
            k += c.len();
            if v == 1 {
                break;
            }
            v /= 2;
        }
        debug_assert_eq!(k, dst.len());
    }

    /// Batched stabbing for every elementary interval `0..n_leaves`:
    /// the paper's Step 2. Returns `(offsets, items)` in CSR form where
    /// `items[offsets[i]..offsets[i+1]]` are the interval ids active in
    /// elementary interval (scanbeam) `i`.
    ///
    /// Phase 1 counts in parallel (`O(log m)` per query), phase 2 allocates
    /// exactly `k'` slots by prefix sum, phase 3 reports in parallel into
    /// disjoint ranges — the output-sensitive processor allocation of §III-E.
    pub fn par_stab_all(&self) -> (Vec<usize>, Vec<u32>) {
        self.par_stab_all_gated(None)
    }

    /// [`par_stab_all`](Self::par_stab_all) under a cooperative
    /// [`Gate`](polyclip_parprim::Gate).
    ///
    /// Gating: the count and report batches poll the gate per query, and a
    /// checkpoint sits between the two phases (before the `O(k')`
    /// allocation). When the gate trips the result is truncated/empty —
    /// callers must check the gate before using it.
    pub fn par_stab_all_gated(
        &self,
        gate: Option<&polyclip_parprim::Gate>,
    ) -> (Vec<usize>, Vec<u32>) {
        let counts: Vec<usize> = (0..self.n_leaves)
            .into_par_iter()
            .map(|i| {
                // Per-batch poll: remaining queries degrade to zero counts.
                if gate.is_some_and(|g| g.is_tripped()) {
                    return 0;
                }
                self.stab_count(i)
            })
            .collect();
        let mut offsets = Vec::with_capacity(self.n_leaves + 1);
        let mut total = 0usize;
        for &c in &counts {
            offsets.push(total);
            total += c;
        }
        offsets.push(total);
        if gate.is_some_and(|g| g.checkpoint().is_some()) {
            return (offsets, Vec::new());
        }
        let mut items = vec![0; total];
        let mut slices: Vec<&mut [u32]> = Vec::with_capacity(self.n_leaves);
        {
            let mut rest: &mut [u32] = &mut items;
            for &c in &counts {
                let (head, tail) = rest.split_at_mut(c);
                slices.push(head);
                rest = tail;
            }
        }
        slices.into_par_iter().enumerate().for_each(|(i, dst)| {
            if gate.is_some_and(|g| g.is_tripped()) {
                return;
            }
            self.stab_fill(i, dst);
        });
        (offsets, items)
    }
}

/// The canonical `O(log m)` node decomposition of range `lo..hi` over a
/// padded tree of `size` leaves (standard iterative segment-tree walk).
fn cover_nodes(size: usize, lo: usize, hi: usize) -> Vec<usize> {
    let mut out = Vec::new();
    if lo >= hi {
        return out;
    }
    let (mut l, mut r) = (lo + size, hi + size);
    while l < r {
        if l & 1 == 1 {
            out.push(l);
            l += 1;
        }
        if r & 1 == 1 {
            r -= 1;
            out.push(r);
        }
        l /= 2;
        r /= 2;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn brute(intervals: &[(usize, usize)], leaf: usize) -> HashSet<u32> {
        intervals
            .iter()
            .enumerate()
            .filter(|(_, &(lo, hi))| lo <= leaf && leaf < hi)
            .map(|(i, _)| i as u32)
            .collect()
    }

    #[test]
    fn figure1_style_small_tree() {
        // 4 elementary intervals, 3 segments.
        let intervals = [(0usize, 3usize), (1, 4), (2, 3)];
        let t = SegmentTree::build(4, &intervals);
        for leaf in 0..4 {
            let mut got = Vec::new();
            t.stab_report(leaf, &mut got);
            let got: HashSet<u32> = got.into_iter().collect();
            assert_eq!(got, brute(&intervals, leaf), "leaf {leaf}");
            assert_eq!(t.stab_count(leaf), got.len());
        }
    }

    #[test]
    fn cover_nodes_disjointly_partition_the_range() {
        // Every elementary interval inside [lo,hi) is covered by exactly one
        // node of the decomposition.
        let size = 16;
        for lo in 0..16 {
            for hi in lo..=16 {
                let nodes = cover_nodes(size, lo, hi);
                let mut covered = [0u32; 16];
                for v in nodes {
                    // Range of leaves under node v.
                    let mut first = v;
                    let mut last = v;
                    while first < size {
                        first *= 2;
                        last = last * 2 + 1;
                    }
                    for c in covered.iter_mut().take(last - size + 1).skip(first - size) {
                        *c += 1;
                    }
                }
                for (leaf, &c) in covered.iter().enumerate() {
                    let want = u32::from(lo <= leaf && leaf < hi);
                    assert_eq!(c, want, "lo={lo} hi={hi} leaf={leaf}");
                }
            }
        }
    }

    #[test]
    fn matches_bruteforce_on_random_intervals() {
        let mut s = 0xdeadbeefu64;
        let mut rng = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        let n_leaves = 37; // deliberately not a power of two
        let intervals: Vec<(usize, usize)> = (0..200)
            .map(|_| {
                let a = (rng() % n_leaves as u64) as usize;
                let b = (rng() % (n_leaves as u64 + 1)) as usize;
                (a.min(b), a.max(b))
            })
            .collect();
        let t = SegmentTree::build(n_leaves, &intervals);
        for leaf in 0..n_leaves {
            let mut got = Vec::new();
            t.stab_report(leaf, &mut got);
            let got: HashSet<u32> = got.into_iter().collect();
            assert_eq!(got, brute(&intervals, leaf), "leaf {leaf}");
        }
    }

    #[test]
    fn par_stab_all_csr_matches_pointwise_queries() {
        let intervals: Vec<(usize, usize)> = vec![(0, 10), (2, 5), (5, 9), (0, 1), (9, 10)];
        let t = SegmentTree::build(10, &intervals);
        let (offsets, items) = t.par_stab_all();
        assert_eq!(offsets.len(), 11);
        for leaf in 0..10 {
            let got: HashSet<u32> = items[offsets[leaf]..offsets[leaf + 1]]
                .iter()
                .copied()
                .collect();
            assert_eq!(got, brute(&intervals, leaf), "leaf {leaf}");
        }
        // Total entries are the paper's k' for this instance.
        assert_eq!(offsets[10], t.par_stab_all().1.len());
    }

    #[test]
    fn empty_and_degenerate_inputs() {
        let t = SegmentTree::build(1, &[]);
        assert_eq!(t.stab_count(0), 0);
        let t2 = SegmentTree::build(5, &[(2, 2), (3, 3)]); // empty ranges
        for leaf in 0..5 {
            assert_eq!(t2.stab_count(leaf), 0);
        }
        let (offsets, items) = t2.par_stab_all();
        assert_eq!(offsets, vec![0, 0, 0, 0, 0, 0]);
        assert!(items.is_empty());
    }

    #[test]
    fn sorted_build_matches_the_reference_build() {
        let intervals: Vec<(usize, usize)> =
            (0..300).map(|i| (i % 40, 40 + (i * 11) % 61)).collect();
        let reference = SegmentTree::build(100, &intervals);
        let (ref_offsets, ref_items) = reference.par_stab_all();
        for parallel in [false, true] {
            let t = SegmentTree::build_by_sort(100, &intervals, parallel);
            assert_eq!(t.cover_start, reference.cover_start);
            assert_eq!(t.cover_items, reference.cover_items);
            let (offsets, items) = t.par_stab_all_gated(None);
            assert_eq!(offsets, ref_offsets);
            assert_eq!(items, ref_items);
        }
    }

    #[test]
    fn full_cover_interval_sits_high_in_the_tree() {
        // One interval covering everything must be stored on O(1) nodes
        // near the root, not on every leaf.
        let t = SegmentTree::build(64, &[(0, 64)]);
        assert_eq!(t.total_cover_entries(), 1);
        for leaf in 0..64 {
            assert_eq!(t.stab_count(leaf), 1);
        }
    }
}
