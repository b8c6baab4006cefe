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
//! The arena also keeps two counters the bench suite reports:
//! a high-water mark of the total capacity held (observed at each recycle
//! point) and the cumulative bytes of capacity that were reused instead of
//! freshly allocated (credited each time a non-empty buffer is taken).

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
/// points, and read the [`high_water_bytes`](Self::high_water_bytes) /
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
    /// Per-edge / per-beam counts for the count→allocate→fill passes.
    pub(crate) counts: Vec<usize>,
    /// Edge y-span intervals for the segment-tree backend.
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
    /// Interior split points `(old beam, y)` of an incremental refinement.
    pub(crate) splits: Vec<(u32, f64)>,
    /// Dirty flags per old beam of an incremental refinement.
    pub(crate) dirty: Vec<bool>,
    /// CSR over old beams into `splits`.
    pub(crate) split_start: Vec<usize>,
    reused_bytes: u64,
    hwm_bytes: u64,
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
            + vec_bytes(&self.splits)
            + vec_bytes(&self.dirty)
            + vec_bytes(&self.split_start)
    }

    /// Largest total capacity observed at a recycle point (bytes) since the
    /// arena was created or [`reset_high_water`](Self::reset_high_water) was
    /// last called.
    pub fn high_water_bytes(&self) -> u64 {
        self.hwm_bytes
    }

    /// Re-baseline the high-water mark to the capacity currently parked in
    /// the arena. Callers that keep one arena alive across many independent
    /// clips (the prepared-layer scratch pool) call this when checking an
    /// arena out, so [`high_water_bytes`](Self::high_water_bytes) reports
    /// the peak of *this* call instead of the process-lifetime maximum.
    pub fn reset_high_water(&mut self) {
        self.hwm_bytes = self.capacity_bytes();
    }

    /// Cumulative bytes of capacity taken from the arena non-empty (i.e.
    /// reused instead of freshly allocated) since the last call; resets the
    /// counter so per-round / per-slab deltas can be attributed.
    pub fn take_reused_bytes(&mut self) -> u64 {
        std::mem::take(&mut self.reused_bytes)
    }

    /// Update the high-water mark; called whenever buffers come home.
    pub(crate) fn note_hwm(&mut self) {
        self.hwm_bytes = self.hwm_bytes.max(self.capacity_bytes());
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
        self.note_hwm();
    }

    pub(crate) fn take_sub(&mut self) -> Vec<SubEdge> {
        self.reused_bytes += vec_bytes(&self.sub);
        let mut v = std::mem::take(&mut self.sub);
        v.clear();
        v
    }

    pub(crate) fn give_sub(&mut self, v: Vec<SubEdge>) {
        self.sub = v;
        self.note_hwm();
    }

    pub(crate) fn take_beam_start(&mut self) -> Vec<usize> {
        self.reused_bytes += vec_bytes(&self.beam_start);
        let mut v = std::mem::take(&mut self.beam_start);
        v.clear();
        v
    }

    pub(crate) fn give_beam_start(&mut self, v: Vec<usize>) {
        self.beam_start = v;
        self.note_hwm();
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
        self.note_hwm();
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
        self.note_hwm();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reset_high_water_rebaselines_to_current_capacity() {
        let mut s = SweepScratch::new();
        s.give_ys(Vec::with_capacity(1024));
        let hwm = s.high_water_bytes();
        assert!(hwm >= 1024 * std::mem::size_of::<f64>() as u64);
        // Lending the big buffer out leaves the mark untouched...
        let lent = s.take_ys();
        assert_eq!(s.high_water_bytes(), hwm);
        // ...and resetting re-baselines to what is actually parked now.
        s.reset_high_water();
        assert_eq!(s.high_water_bytes(), s.capacity_bytes());
        assert!(s.high_water_bytes() < hwm);
        drop(lent);
    }
}
