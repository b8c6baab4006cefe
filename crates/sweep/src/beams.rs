//! Scanbeam partitioning (Step 2 of Algorithm 1).
//!
//! Every non-horizontal edge is split at each event y interior to its span,
//! producing *sub-edges* that span exactly one scanbeam. The split vertices
//! are the paper's **virtual vertices**; their total count is the k' term of
//! the output-sensitive complexity. Two backends implement the partition:
//!
//! * [`PartitionBackend::DirectScan`] — count sub-edges per edge, prefix-sum,
//!   scatter, sort by (beam, x): the plain count→allocate→fill pattern;
//! * [`PartitionBackend::SegmentTree`] — the paper's §III-E construction: a
//!   segment tree over the event intervals answers "which edges are active
//!   in beam i" with counting queries first and reporting queries after the
//!   output-sensitive allocation.
//!
//! Both produce identical [`BeamSet`]s (asserted in tests); the bench suite
//! compares their cost (ablation `ablation_partition_backend`).

use crate::edges::{InputEdge, Source};
use crate::events::event_index;
use crate::scratch::SweepScratch;
use polyclip_geom::OrdF64;
use polyclip_parprim::Gate;
use polyclip_segtree::SegmentTree;
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
    pub fn build(n_edges: usize, triples: Vec<(u32, f64, f64)>) -> Self {
        Self::build_in(n_edges, &triples, &mut SweepScratch::default())
    }

    /// [`build`](Self::build) from a borrowed triple slice into reused
    /// buffers: the sort/dedup working copy and the CSR arrays come from
    /// `scratch`, so per-round rebuilds of the forced-split table allocate
    /// nothing once capacity is established. Hand the table back with
    /// [`recycle`](Self::recycle).
    pub fn build_in(
        n_edges: usize,
        triples: &[(u32, f64, f64)],
        scratch: &mut SweepScratch,
    ) -> Self {
        let mut buf = std::mem::take(&mut scratch.triples);
        buf.clear();
        buf.extend_from_slice(triples);
        buf.sort_unstable_by(|a, b| (a.0, OrdF64::new(a.1)).cmp(&(b.0, OrdF64::new(b.1))));
        buf.dedup_by(|a, b| a.0 == b.0 && a.1 == b.1);
        let (mut start, mut items) = scratch.take_forced();
        start.resize(n_edges + 1, 0);
        for &(id, _, _) in buf.iter() {
            start[id as usize + 1] += 1;
        }
        for i in 0..n_edges {
            start[i + 1] += start[i];
        }
        items.extend(buf.drain(..).map(|(_, y, x)| (y, x)));
        scratch.triples = buf;
        ForcedSplits { start, items }
    }

    /// Hand the CSR arrays back to `scratch` for the next
    /// [`build_in`](Self::build_in).
    pub fn recycle(self, scratch: &mut SweepScratch) {
        scratch.give_forced(self.start, self.items);
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

/// Which implementation performs the Step-2 partition.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum PartitionBackend {
    /// Count → prefix sum → scatter → sort. Default.
    #[default]
    DirectScan,
    /// Parallel segment tree with count-then-report queries (§III-E).
    SegmentTree,
}

/// Result of [`BeamSet::refine_incremental`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RefineOutcome {
    /// The set was patched in place; `beams_rebuilt` dirty beams were
    /// re-split and re-sorted, every other beam was kept verbatim.
    Incremental {
        /// Number of dirty beams recomputed.
        beams_rebuilt: usize,
    },
    /// The dirty fraction exceeded the threshold (or a new scanline fell
    /// outside the schedule); the caller must perform a full rebuild.
    TooDirty,
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
    /// Partition `edges` into the scanbeams bounded by `ys`.
    ///
    /// `ys` must contain every edge endpoint y (and every forced split y);
    /// `parallel` switches the fill and sort to rayon.
    pub fn build(
        edges: &[InputEdge],
        ys: Vec<f64>,
        forced: &ForcedSplits,
        backend: PartitionBackend,
        parallel: bool,
    ) -> Self {
        Self::build_gated(edges, ys, forced, backend, parallel, None)
    }

    /// [`build`](Self::build) under a cooperative [`Gate`]: the splitter
    /// fill polls per input edge, the segment-tree path uses the gated
    /// count-then-report queries, and the final sort is skipped once the
    /// gate trips. Sub-edge incidences (the paper's `k'` scale) are credited
    /// to the gate's work meter. A tripped gate leaves the `BeamSet`
    /// truncated — callers must check the gate before using it.
    pub fn build_gated(
        edges: &[InputEdge],
        ys: Vec<f64>,
        forced: &ForcedSplits,
        backend: PartitionBackend,
        parallel: bool,
        gate: Option<&Gate>,
    ) -> Self {
        Self::build_gated_in(
            edges,
            ys,
            forced,
            backend,
            parallel,
            gate,
            &mut SweepScratch::default(),
        )
    }

    /// [`build_gated`](Self::build_gated) into a reused [`SweepScratch`]:
    /// the sub-edge array, CSR offsets, segment-tree buffers and the
    /// count→allocate→fill working arrays all come from the arena, so
    /// refinement rounds ≥ 2 (and later slabs on the same worker) reuse
    /// round-1 capacity instead of reallocating. Output is bit-identical to
    /// [`build_gated`](Self::build_gated): the fill produces the same sub-edge multiset and the
    /// final sort key `(beam, xb, xt, edge_id)` is a strict total order.
    /// Hand the set back with [`recycle`](Self::recycle).
    pub fn build_gated_in(
        edges: &[InputEdge],
        ys: Vec<f64>,
        forced: &ForcedSplits,
        backend: PartitionBackend,
        parallel: bool,
        gate: Option<&Gate>,
        scratch: &mut SweepScratch,
    ) -> Self {
        let n_beams = ys.len().saturating_sub(1);
        let tripped = || gate.is_some_and(|g| g.is_tripped());
        let mut sub = scratch.take_sub();
        match backend {
            PartitionBackend::DirectScan => {
                if parallel {
                    // Count → allocate → fill: each edge owns a disjoint
                    // slice sized by its beam span, so the fill is parallel
                    // and the sub-edge buffer is reused across rounds.
                    let counts = &mut scratch.counts;
                    counts.clear();
                    counts.par_extend(
                        edges
                            .par_iter()
                            .map(|e| event_index(&ys, e.hi.y) - event_index(&ys, e.lo.y)),
                    );
                    let total: usize = counts.iter().sum();
                    sub.resize(total, DUMMY_SUB);
                    let mut slices: Vec<&mut [SubEdge]> = Vec::with_capacity(edges.len());
                    let mut rest: &mut [SubEdge] = &mut sub;
                    for &c in counts.iter() {
                        let (head, tail) = rest.split_at_mut(c);
                        slices.push(head);
                        rest = tail;
                    }
                    slices
                        .into_par_iter()
                        .zip(edges.par_iter())
                        .for_each(|(dst, e)| {
                            // Per-edge interruption point: remaining edges
                            // degrade to placeholder fills.
                            if tripped() {
                                dst.fill(DUMMY_SUB);
                                return;
                            }
                            for (d, s) in dst.iter_mut().zip(EdgeSplitter::new(e, &ys, forced)) {
                                *d = s;
                            }
                        });
                } else {
                    // Per-edge interruption point: a tripped gate degrades
                    // the remaining splitters to empty iterators.
                    let splitter = |e| {
                        let mut sp = EdgeSplitter::new(e, &ys, forced);
                        if tripped() {
                            sp.cur = sp.end;
                        }
                        sp
                    };
                    sub.extend(edges.iter().flat_map(splitter));
                }
            }
            PartitionBackend::SegmentTree => {
                // Intervals in elementary-beam index space.
                let intervals = &mut scratch.intervals;
                intervals.clear();
                intervals.extend(
                    edges
                        .iter()
                        .map(|e| (event_index(&ys, e.lo.y), event_index(&ys, e.hi.y))),
                );
                scratch.credit_reuse(scratch.tree.reusable_bytes());
                let tree =
                    SegmentTree::build_in(n_beams, &scratch.intervals, parallel, &mut scratch.tree);
                tree.par_stab_all_in(gate, &mut scratch.stab);
                if !tripped() {
                    // Reporting phase: each (beam, edge) pair becomes a
                    // sub-edge; beams own disjoint contiguous slices.
                    let offsets = &scratch.stab.offsets;
                    let items = &scratch.stab.items;
                    sub.resize(items.len(), DUMMY_SUB);
                    if parallel {
                        let mut slices: Vec<&mut [SubEdge]> = Vec::with_capacity(n_beams);
                        let mut rest: &mut [SubEdge] = &mut sub;
                        for b in 0..n_beams {
                            let (head, tail) = rest.split_at_mut(offsets[b + 1] - offsets[b]);
                            slices.push(head);
                            rest = tail;
                        }
                        slices.into_par_iter().enumerate().for_each(|(b, dst)| {
                            for (d, &id) in dst.iter_mut().zip(&items[offsets[b]..offsets[b + 1]]) {
                                *d = sub_edge_for(&edges[id as usize], &ys, b, forced);
                            }
                        });
                    } else {
                        let mut k = 0;
                        for b in 0..n_beams {
                            for &id in &items[offsets[b]..offsets[b + 1]] {
                                sub[k] = sub_edge_for(&edges[id as usize], &ys, b, forced);
                                k += 1;
                            }
                        }
                    }
                }
                tree.recycle(&mut scratch.tree);
            }
        };

        if let Some(g) = gate {
            g.meter().add_events(sub.len() as u64);
            g.meter()
                .record_scratch_bytes((sub.len() * std::mem::size_of::<SubEdge>()) as u64);
        }
        // CSR over beams, counted *before* ordering (the counts are
        // order-independent): having the offsets first lets the ordering
        // pass run per beam instead of as one global sort.
        let mut beam_start = scratch.take_beam_start();
        beam_start.resize(n_beams + 1, 0);
        for s in &sub {
            beam_start[s.beam as usize + 1] += 1;
        }
        for i in 0..n_beams {
            beam_start[i + 1] += beam_start[i];
        }

        if !tripped() {
            sort_sub_by_beam(
                &mut sub,
                &beam_start,
                n_beams,
                parallel,
                gate,
                &mut scratch.counts,
            );
        }

        BeamSet {
            ys,
            beam_start,
            sub,
        }
    }

    /// Hand the set's buffers (event schedule, sub-edge array, CSR offsets)
    /// back to `scratch` for the next build or refinement round.
    pub fn recycle(self, scratch: &mut SweepScratch) {
        scratch.give_ys(self.ys);
        scratch.give_sub(self.sub);
        scratch.give_beam_start(self.beam_start);
    }

    /// Incrementally refine the partition after a round discovered new split
    /// scanlines, instead of rebuilding the whole set.
    ///
    /// `new_ys` are the event y's the round appended (residual-crossing
    /// heights; unsorted, duplicates allowed) and `forced` is the *complete*
    /// updated forced-split table. Each new y classifies one or two beams as
    /// **dirty**:
    ///
    /// * a y strictly inside beam `b` splits `b` into two fragments — `b` is
    ///   dirty;
    /// * a y equal to an existing scanline adds no beam, but the forced x of
    ///   edges crossing that scanline changed — both adjacent beams are
    ///   dirty.
    ///
    /// Every edge active in a dirty beam is re-split and re-sorted there;
    /// clean beams keep their sub-edges verbatim (only the beam index is
    /// renumbered), which is sound because a new forced entry either sits at
    /// a new interior y (inside a dirty beam) or at an existing scanline
    /// whose two adjacent beams are dirty — no clean beam's boundary data
    /// changes. Because `x_on_edge` is a pure function and the sort key
    /// `(beam, xb, xt, edge_id)` is a strict total order per beam, the
    /// patched set is **bit-identical** to a full rebuild on the merged
    /// schedule (property-tested against both backends).
    ///
    /// Returns [`RefineOutcome::TooDirty`] — caller must fall back to a full
    /// rebuild — when the dirty fraction exceeds `max_dirty_fraction` or a
    /// new y falls outside the current schedule. The fill runs parallel over
    /// beams when `parallel` is set and the patched set is at least `grain`
    /// sub-edges.
    #[allow(clippy::too_many_arguments)]
    pub fn refine_incremental(
        &mut self,
        edges: &[InputEdge],
        forced: &ForcedSplits,
        new_ys: &[f64],
        max_dirty_fraction: f64,
        grain: usize,
        parallel: bool,
        gate: Option<&Gate>,
        scratch: &mut SweepScratch,
    ) -> RefineOutcome {
        let n_beams = self.n_beams();
        if n_beams == 0 {
            return RefineOutcome::TooDirty;
        }
        // Classify each new scanline. Plain f64 equality against the
        // schedule matches the OrdF64 dedup of `event_ys` (no NaN here, and
        // ±0.0 compare equal under both).
        let mut splits = std::mem::take(&mut scratch.splits);
        let mut dirty = std::mem::take(&mut scratch.dirty);
        splits.clear();
        dirty.clear();
        dirty.resize(n_beams, false);
        for &y in new_ys {
            let idx = self.ys.partition_point(|&v| v < y);
            if idx < self.ys.len() && self.ys[idx] == y {
                if idx > 0 {
                    dirty[idx - 1] = true;
                }
                if idx < n_beams {
                    dirty[idx] = true;
                }
            } else if idx == 0 || idx > n_beams {
                // Outside the schedule: the beam structure itself grows;
                // this cannot happen for genuine residual crossings, so
                // don't complicate the patch path for it.
                scratch.splits = splits;
                scratch.dirty = dirty;
                return RefineOutcome::TooDirty;
            } else {
                dirty[idx - 1] = true;
                splits.push((idx as u32 - 1, y));
            }
        }
        splits.sort_unstable_by(|a, b| (a.0, OrdF64::new(a.1)).cmp(&(b.0, OrdF64::new(b.1))));
        splits.dedup_by(|a, b| a.0 == b.0 && a.1 == b.1);
        let beams_rebuilt = dirty.iter().filter(|&&d| d).count();
        if beams_rebuilt as f64 > max_dirty_fraction * n_beams as f64 {
            scratch.splits = splits;
            scratch.dirty = dirty;
            return RefineOutcome::TooDirty;
        }

        // CSR over old beams into `splits`, plus output offsets: old beam b
        // becomes `splits_of_b + 1` fragments of `old_count` sub-edges each
        // (every old sub-edge spans the whole old beam, hence every
        // fragment).
        let mut split_start = std::mem::take(&mut scratch.split_start);
        split_start.clear();
        split_start.reserve(n_beams + 1);
        split_start.push(0);
        {
            let mut si = 0usize;
            for b in 0..n_beams {
                while si < splits.len() && (splits[si].0 as usize) == b {
                    si += 1;
                }
                split_start.push(si);
            }
        }

        // Merged schedule: old scanlines with each beam's interior splits
        // spliced in — exactly what `event_ys` would produce.
        let mut new_ys_vec = scratch.take_ys();
        new_ys_vec.reserve(self.ys.len() + splits.len());
        for b in 0..n_beams {
            new_ys_vec.push(self.ys[b]);
            for &(_, y) in &splits[split_start[b]..split_start[b + 1]] {
                new_ys_vec.push(y);
            }
        }
        new_ys_vec.push(self.ys[n_beams]);

        let mut new_total = 0usize;
        let mut recomputed = 0usize;
        for b in 0..n_beams {
            let nfrag = split_start[b + 1] - split_start[b] + 1;
            let cnt = self.beam(b).len();
            new_total += nfrag * cnt;
            if dirty[b] {
                recomputed += nfrag * cnt;
            }
        }
        if let Some(g) = gate {
            g.meter().add_events(recomputed as u64);
            g.meter()
                .record_scratch_bytes((new_total * std::mem::size_of::<SubEdge>()) as u64);
        }

        let mut new_sub = scratch.take_sub();
        new_sub.resize(new_total, DUMMY_SUB);
        {
            let tripped = || gate.is_some_and(|g| g.is_tripped());
            let fill_beam = |b: usize, dst: &mut [SubEdge]| {
                let old = self.beam(b);
                let base = (b + split_start[b]) as u32;
                if !dirty[b] {
                    // Clean beam: copy verbatim, renumbering the beam index.
                    for (d, s) in dst.iter_mut().zip(old) {
                        let mut c = *s;
                        c.beam = base;
                        *d = c;
                    }
                    return;
                }
                if tripped() {
                    dst.fill(DUMMY_SUB);
                    return;
                }
                let cnt = old.len();
                let s_range = &splits[split_start[b]..split_start[b + 1]];
                let nfrag = s_range.len() + 1;
                for (ei, s) in old.iter().enumerate() {
                    let e = &edges[s.edge_id as usize];
                    let mut x_lo = x_on_edge(e, self.ys[b], forced);
                    for f in 0..nfrag {
                        let y_hi = if f < s_range.len() {
                            s_range[f].1
                        } else {
                            self.ys[b + 1]
                        };
                        let x_hi = x_on_edge(e, y_hi, forced);
                        dst[f * cnt + ei] = SubEdge {
                            beam: base + f as u32,
                            xb: x_lo,
                            xt: x_hi,
                            src: s.src,
                            winding: s.winding,
                            edge_id: s.edge_id,
                        };
                        x_lo = x_hi;
                    }
                }
                for f in 0..nfrag {
                    dst[f * cnt..(f + 1) * cnt].sort_unstable_by_key(|s| s.order_key());
                }
            };
            if parallel && new_total >= grain {
                let mut slices: Vec<&mut [SubEdge]> = Vec::with_capacity(n_beams);
                let mut rest: &mut [SubEdge] = &mut new_sub;
                for b in 0..n_beams {
                    let nfrag = split_start[b + 1] - split_start[b] + 1;
                    let (head, tail) = rest.split_at_mut(nfrag * self.beam(b).len());
                    slices.push(head);
                    rest = tail;
                }
                slices
                    .into_par_iter()
                    .enumerate()
                    .for_each(|(b, dst)| fill_beam(b, dst));
            } else {
                let mut off = 0usize;
                for b in 0..n_beams {
                    let nfrag = split_start[b + 1] - split_start[b] + 1;
                    let len = nfrag * self.beam(b).len();
                    fill_beam(b, &mut new_sub[off..off + len]);
                    off += len;
                }
            }
        }

        // New per-beam CSR: every fragment of old beam b holds `old_count`
        // sub-edges.
        let mut new_start = scratch.take_beam_start();
        new_start.reserve(n_beams + splits.len() + 1);
        let mut acc = 0usize;
        for b in 0..n_beams {
            let nfrag = split_start[b + 1] - split_start[b] + 1;
            let cnt = self.beam(b).len();
            for _ in 0..nfrag {
                new_start.push(acc);
                acc += cnt;
            }
        }
        new_start.push(acc);
        debug_assert_eq!(acc, new_total);

        let old_ys = std::mem::replace(&mut self.ys, new_ys_vec);
        let old_sub = std::mem::replace(&mut self.sub, new_sub);
        let old_start = std::mem::replace(&mut self.beam_start, new_start);
        scratch.give_ys(old_ys);
        scratch.give_sub(old_sub);
        scratch.give_beam_start(old_start);
        scratch.splits = splits;
        scratch.dirty = dirty;
        scratch.split_start = split_start;
        RefineOutcome::Incremental { beams_rebuilt }
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

/// Order `sub` by [`SubEdge::order_key`], given the per-beam CSR offsets:
/// an in-place bucket permutation by beam (`O(total)` swaps) followed by
/// independent per-beam sorts. The key is total (edge ids are unique within
/// a beam), so the result is bit-identical to a global unstable sort by the
/// same key — but the comparison depth drops from `log total` to
/// `log beam_len`, the per-beam phase parallelizes over beams, and both
/// phases poll the gate at bounded intervals, where a single global sort is
/// uninterruptible for its whole `O(total log total)` run. A trip mid-pass
/// leaves `sub` partially ordered — callers must check the gate.
fn sort_sub_by_beam(
    sub: &mut [SubEdge],
    beam_start: &[usize],
    n_beams: usize,
    parallel: bool,
    gate: Option<&Gate>,
    cursor: &mut Vec<usize>,
) {
    let tripped = || gate.is_some_and(|g| g.is_tripped());
    cursor.clear();
    cursor.extend_from_slice(&beam_start[..n_beams]);
    let mut ops = 0usize;
    for b in 0..n_beams {
        // Buckets below `b` are already complete, so every remaining
        // misplaced element swaps directly into its final bucket; each
        // element moves at most once.
        let end = beam_start[b + 1];
        while cursor[b] < end {
            ops += 1;
            if ops & 0xFFFF == 0 && tripped() {
                return;
            }
            let tb = sub[cursor[b]].beam as usize;
            if tb == b {
                cursor[b] += 1;
            } else {
                let dst = cursor[tb];
                cursor[tb] += 1;
                sub.swap(cursor[b], dst);
            }
        }
    }
    if parallel {
        let mut slices: Vec<&mut [SubEdge]> = Vec::with_capacity(n_beams);
        let mut rest: &mut [SubEdge] = sub;
        for b in 0..n_beams {
            let (head, tail) = rest.split_at_mut(beam_start[b + 1] - beam_start[b]);
            slices.push(head);
            rest = tail;
        }
        slices.into_par_iter().for_each(|s| {
            if s.len() > 1 && !tripped() {
                s.sort_unstable_by_key(|e| e.order_key());
            }
        });
    } else {
        for b in 0..n_beams {
            if tripped() {
                return;
            }
            sub[beam_start[b]..beam_start[b + 1]].sort_unstable_by_key(|e| e.order_key());
        }
    }
}

/// Compute the sub-edge of `e` in `beam` (both boundary x's).
fn sub_edge_for(e: &InputEdge, ys: &[f64], beam: usize, forced: &ForcedSplits) -> SubEdge {
    let yb = ys[beam];
    let yt = ys[beam + 1];
    SubEdge {
        beam: beam as u32,
        xb: x_on_edge(e, yb, forced),
        xt: x_on_edge(e, yt, forced),
        src: e.src,
        winding: e.winding,
        edge_id: e.id,
    }
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
    fn new(e: &'a InputEdge, ys: &'a [f64], forced: &'a ForcedSplits) -> Self {
        let i0 = event_index(ys, e.lo.y);
        let i1 = event_index(ys, e.hi.y);
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

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.end - self.cur;
        (n, Some(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edges::collect_edges;
    use crate::events::{event_ys, event_ys_in};
    use polyclip_geom::PolygonSet;

    fn beams_of(
        p: &PolygonSet,
        q: &PolygonSet,
        backend: PartitionBackend,
        parallel: bool,
    ) -> (Vec<InputEdge>, BeamSet) {
        let edges = collect_edges(p, q);
        let ys = event_ys(&edges, &[], false);
        let forced = ForcedSplits::empty(edges.len());
        let bs = BeamSet::build(&edges, ys, &forced, backend, parallel);
        (edges, bs)
    }

    #[test]
    fn triangle_splits_into_two_beams() {
        // Triangle with apex between the base corners' y's.
        let p = PolygonSet::from_xy(&[(0.0, 0.0), (4.0, 1.0), (2.0, 2.0)]);
        let (edges, bs) = beams_of(&p, &PolygonSet::new(), PartitionBackend::DirectScan, false);
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
        let (_, bs) = beams_of(&p, &q, PartitionBackend::DirectScan, false);
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
        let p = PolygonSet::from_xy(&[(0.0, 0.0), (5.0, 0.5), (4.0, 3.0), (1.0, 2.5)]);
        let q = PolygonSet::from_xy(&[(2.0, 1.0), (6.0, 1.5), (3.0, 4.0)]);
        for parallel in [false, true] {
            let (_, a) = beams_of(&p, &q, PartitionBackend::DirectScan, parallel);
            let (_, b) = beams_of(&p, &q, PartitionBackend::SegmentTree, parallel);
            assert_eq!(a.n_beams(), b.n_beams());
            assert_eq!(a.total_sub_edges(), b.total_sub_edges());
            for i in 0..a.n_beams() {
                let (sa, sb) = (a.beam(i), b.beam(i));
                assert_eq!(sa.len(), sb.len(), "beam {i}");
                for (x, y) in sa.iter().zip(sb) {
                    assert_eq!(x.edge_id, y.edge_id);
                    assert_eq!(x.xb.to_bits(), y.xb.to_bits());
                    assert_eq!(x.xt.to_bits(), y.xt.to_bits());
                }
            }
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
        let forced = ForcedSplits::build(edges.len(), vec![(diag.id, 2.0, 0.75)]);
        let bs = BeamSet::build(&edges, ys, &forced, PartitionBackend::DirectScan, false);
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
            vec![(0, 1.0, 5.0), (0, 1.0, 5.0), (0, 2.0, 6.0), (1, 1.0, 7.0)],
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
        let (_, a) = beams_of(&p, &q, PartitionBackend::DirectScan, false);
        let (_, b) = beams_of(&p, &q, PartitionBackend::DirectScan, true);
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

    /// Forced triples for `new_ys`: every edge strictly spanning a new y
    /// gets a forced vertex there, mimicking what intersection discovery
    /// feeds the engine.
    fn triples_at(edges: &[InputEdge], new_ys: &[f64]) -> Vec<(u32, f64, f64)> {
        let mut t = Vec::new();
        for &y in new_ys {
            for e in edges {
                if e.lo.y < y && y < e.hi.y {
                    t.push((e.id, y, e.x_at_y(y)));
                }
            }
        }
        t
    }

    #[test]
    fn incremental_refine_matches_full_rebuild() {
        let p = PolygonSet::from_xy(&[(0.0, 0.0), (5.0, 0.5), (4.0, 3.0), (1.0, 2.5)]);
        let q = PolygonSet::from_xy(&[(2.0, 1.0), (6.0, 1.5), (3.0, 4.0)]);
        let edges = collect_edges(&p, &q);
        // Round-2 scanlines: two interior, one landing exactly on an
        // existing event (1.0) so the forced-x-at-existing-scanline path is
        // exercised, plus a duplicate.
        let extra = [0.8, 1.0, 2.2, 0.8];
        let triples = triples_at(&edges, &extra);
        for backend in [PartitionBackend::DirectScan, PartitionBackend::SegmentTree] {
            for parallel in [false, true] {
                let mut scratch = SweepScratch::new();
                let ys0 = event_ys(&edges, &[], parallel);
                let empty = ForcedSplits::empty(edges.len());
                let mut inc = BeamSet::build_gated_in(
                    &edges,
                    ys0,
                    &empty,
                    backend,
                    parallel,
                    None,
                    &mut scratch,
                );
                let forced = ForcedSplits::build(edges.len(), triples.clone());
                let out = inc.refine_incremental(
                    &edges,
                    &forced,
                    &extra,
                    1.0,
                    4,
                    parallel,
                    None,
                    &mut scratch,
                );
                assert!(
                    matches!(out, RefineOutcome::Incremental { beams_rebuilt } if beams_rebuilt > 0),
                    "{out:?}"
                );
                let ys1 = event_ys(&edges, &extra, parallel);
                let full = BeamSet::build(&edges, ys1, &forced, backend, parallel);
                assert_identical(&inc, &full);
            }
        }
    }

    #[test]
    fn incremental_refine_multi_round_reuses_capacity() {
        let p = PolygonSet::from_xy(&[(0.0, 0.0), (5.0, 0.5), (4.0, 3.0), (1.0, 2.5)]);
        let q = PolygonSet::from_xy(&[(2.0, 1.0), (6.0, 1.5), (3.0, 4.0)]);
        let edges = collect_edges(&p, &q);
        let mut scratch = SweepScratch::new();
        let ys0 = event_ys_in(&edges, &[], false, &mut scratch);
        let empty = ForcedSplits::empty(edges.len());
        let mut inc = BeamSet::build_gated_in(
            &edges,
            ys0,
            &empty,
            PartitionBackend::DirectScan,
            false,
            None,
            &mut scratch,
        );
        scratch.take_reused_bytes();
        let mut extra_all: Vec<f64> = Vec::new();
        for round_ys in [[0.8, 2.2], [1.4, 0.9]] {
            extra_all.extend_from_slice(&round_ys);
            let forced = ForcedSplits::build(edges.len(), triples_at(&edges, &extra_all));
            let out = inc.refine_incremental(
                &edges,
                &forced,
                &round_ys,
                1.0,
                4,
                false,
                None,
                &mut scratch,
            );
            assert!(matches!(out, RefineOutcome::Incremental { .. }), "{out:?}");
        }
        let ysf = event_ys(&edges, &extra_all, false);
        let forced = ForcedSplits::build(edges.len(), triples_at(&edges, &extra_all));
        let full = BeamSet::build(&edges, ysf, &forced, PartitionBackend::DirectScan, false);
        assert_identical(&inc, &full);
        // Round 2 drew its sub-edge / schedule buffers from round-1 capacity.
        assert!(scratch.take_reused_bytes() > 0);
        assert!(scratch.high_water_bytes() > 0);
    }

    #[test]
    fn incremental_refine_rejects_out_of_schedule_and_high_dirt() {
        let p = PolygonSet::from_xy(&[(0.0, 0.0), (4.0, 1.0), (2.0, 2.0)]);
        let edges = collect_edges(&p, &PolygonSet::new());
        let mut scratch = SweepScratch::new();
        let ys = event_ys(&edges, &[], false);
        let empty = ForcedSplits::empty(edges.len());
        let mut bs = BeamSet::build(&edges, ys, &empty, PartitionBackend::DirectScan, false);
        let before = bs.clone();
        // y below the whole schedule → structural growth → TooDirty.
        let out = bs.refine_incremental(&edges, &empty, &[-1.0], 1.0, 4, false, None, &mut scratch);
        assert_eq!(out, RefineOutcome::TooDirty);
        // Every beam dirty with a 10% budget → TooDirty. Neither call may
        // have modified the set.
        let out = bs.refine_incremental(
            &edges,
            &empty,
            &[0.5, 1.5],
            0.1,
            4,
            false,
            None,
            &mut scratch,
        );
        assert_eq!(out, RefineOutcome::TooDirty);
        assert_identical(&bs, &before);
    }
}
