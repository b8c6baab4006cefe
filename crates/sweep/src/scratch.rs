//! Reusable scratch arenas for the sweep hot path.
//!
//! The refinement loop of the engine rebuilds the event schedule, the
//! [`BeamSet`](crate::beams::BeamSet), the forced-split table and the
//! crossing lists once per round; Algorithm 2 additionally repeats the whole
//! cycle once per slab. Every one of those structures is sized by the
//! *output* (`n + k + k'`), so the allocator traffic of round 2 is a
//! near-exact replay of round 1. [`SweepScratch`] keeps the backing buffers
//! alive between rounds (and, held per worker, between slabs): structures are
//! built *into* the arena with the `*_in` constructors and handed back with
//! their `recycle` methods, so the steady state allocates nothing.
//!
//! The arena also counts the bytes of capacity that were reused instead of
//! freshly allocated (credited each time a non-empty buffer is taken), and
//! reports the capacity it holds; the engine publishes both on the work
//! meter at the end of every call.

use crate::beams::SubEdge;
use crate::cross::CrossEvent;
use polyclip_geom::OrdF64;
use polyclip_parprim::inversions::InvScratch;
use polyclip_segtree::{StabScratch, TreeScratch};

fn vec_bytes<T>(v: &Vec<T>) -> u64 {
    (v.capacity() * std::mem::size_of::<T>()) as u64
}

/// Per-beam working buffers for inversion discovery: the top-order
/// permutation, its rank array, the merge-sort scratch of the reporter and
/// the reported pairs. One of these lives in [`SweepScratch`] for the
/// sequential path; the parallel path keeps one per rayon fold segment.
#[derive(Debug, Default)]
pub struct BeamScratch {
    pub(crate) top_order: Vec<u32>,
    pub(crate) rank: Vec<u32>,
    pub(crate) inv: InvScratch,
    pub(crate) pairs: Vec<(usize, usize)>,
}

impl BeamScratch {
    fn capacity_bytes(&self) -> u64 {
        vec_bytes(&self.top_order)
            + vec_bytes(&self.rank)
            + self.inv.capacity_bytes()
            + vec_bytes(&self.pairs)
    }
}

/// Reusable buffers threaded through the sweep pipeline (see module docs).
///
/// All fields are crate-private; external callers only create one
/// (`SweepScratch::default()`), pass it by `&mut` into the `*_in` entry
/// points, and read the [`capacity_bytes`](Self::capacity_bytes) /
/// [`take_reused_bytes`](Self::take_reused_bytes) statistics.
#[derive(Debug, Default)]
pub struct SweepScratch {
    /// Sort buffer for the event schedule.
    pub(crate) ord_ys: Vec<OrdF64>,
    /// Pool for the `f64` event schedule a `BeamSet` takes ownership of.
    pub(crate) ys: Vec<f64>,
    /// Pool for the sub-edge array of a `BeamSet`.
    pub(crate) sub: Vec<SubEdge>,
    /// Pool for the per-beam CSR offsets of a `BeamSet`.
    pub(crate) beam_start: Vec<usize>,
    /// The direct-scan partition's per-beam difference array, then its
    /// per-beam fill cursors.
    pub(crate) counts: Vec<usize>,
    /// Each edge's beam span `[i0, i1)`, for both partition backends.
    pub(crate) intervals: Vec<(usize, usize)>,
    /// Segment-tree construction buffers (cover pairs + recycled CSR).
    pub(crate) tree: TreeScratch,
    /// Segment-tree batched stabbing buffers.
    pub(crate) stab: StabScratch,
    /// Sort/dedup buffer for forced-split triples.
    pub(crate) triples: Vec<(u32, f64, f64)>,
    /// Pool for the CSR offsets of a `ForcedSplits`.
    pub(crate) forced_start: Vec<usize>,
    /// Pool for the `(y, x)` items of a `ForcedSplits`.
    pub(crate) forced_items: Vec<(f64, f64)>,
    /// Pool for discovered crossing events.
    pub(crate) events: Vec<CrossEvent>,
    /// Sequential per-beam inversion buffers.
    pub(crate) beam: BeamScratch,
    reused_bytes: u64,
}

impl SweepScratch {
    pub fn new() -> Self {
        Self::default()
    }

    /// Total heap capacity currently parked in the arena (bytes). Buffers
    /// lent out to a live `BeamSet`/`ForcedSplits` are not counted until
    /// recycled.
    pub fn capacity_bytes(&self) -> u64 {
        vec_bytes(&self.ord_ys)
            + vec_bytes(&self.ys)
            + vec_bytes(&self.sub)
            + vec_bytes(&self.beam_start)
            + vec_bytes(&self.counts)
            + vec_bytes(&self.intervals)
            + self.tree.capacity_bytes()
            + self.stab.capacity_bytes()
            + vec_bytes(&self.triples)
            + vec_bytes(&self.forced_start)
            + vec_bytes(&self.forced_items)
            + vec_bytes(&self.events)
            + self.beam.capacity_bytes()
    }

    /// Cumulative bytes of capacity taken from the arena non-empty (i.e.
    /// reused instead of freshly allocated) since the last call; resets the
    /// counter so per-round / per-slab deltas can be attributed.
    pub fn take_reused_bytes(&mut self) -> u64 {
        std::mem::take(&mut self.reused_bytes)
    }

    /// Credit `bytes` of capacity as reused rather than freshly allocated.
    pub(crate) fn credit_reuse(&mut self, bytes: u64) {
        self.reused_bytes += bytes;
    }

    pub(crate) fn take_ys(&mut self) -> Vec<f64> {
        self.reused_bytes += vec_bytes(&self.ys);
        let mut v = std::mem::take(&mut self.ys);
        v.clear();
        v
    }

    /// Return an event schedule obtained from
    /// [`event_ys_in`](crate::events::event_ys_in) whose `BeamSet` was never built.
    pub fn give_ys(&mut self, v: Vec<f64>) {
        self.ys = v;
    }

    pub(crate) fn take_sub(&mut self) -> Vec<SubEdge> {
        self.reused_bytes += vec_bytes(&self.sub);
        let mut v = std::mem::take(&mut self.sub);
        v.clear();
        v
    }

    pub(crate) fn give_sub(&mut self, v: Vec<SubEdge>) {
        self.sub = v;
    }

    pub(crate) fn take_beam_start(&mut self) -> Vec<usize> {
        self.reused_bytes += vec_bytes(&self.beam_start);
        let mut v = std::mem::take(&mut self.beam_start);
        v.clear();
        v
    }

    pub(crate) fn give_beam_start(&mut self, v: Vec<usize>) {
        self.beam_start = v;
    }

    pub(crate) fn take_forced(&mut self) -> (Vec<usize>, Vec<(f64, f64)>) {
        self.reused_bytes += vec_bytes(&self.forced_start) + vec_bytes(&self.forced_items);
        let mut s = std::mem::take(&mut self.forced_start);
        let mut i = std::mem::take(&mut self.forced_items);
        s.clear();
        i.clear();
        (s, i)
    }

    pub(crate) fn give_forced(&mut self, start: Vec<usize>, items: Vec<(f64, f64)>) {
        self.forced_start = start;
        self.forced_items = items;
    }

    pub(crate) fn take_events(&mut self) -> Vec<CrossEvent> {
        self.reused_bytes += vec_bytes(&self.events);
        let mut v = std::mem::take(&mut self.events);
        v.clear();
        v
    }

    /// Return a consumed crossing list obtained from one of the
    /// `discover_*_in` entry points.
    pub fn give_events(&mut self, v: Vec<CrossEvent>) {
        self.events = v;
    }
}
