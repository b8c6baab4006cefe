//! Parallel primitives underpinning the PRAM algorithm of Puri & Prasad
//! (ICPP 2014).
//!
//! The paper's central claim is that output-sensitive polygon clipping can be
//! built from *nothing but* sorting and prefix sums (plus a segment tree for
//! the partitioning step). This crate provides those building blocks:
//!
//! * [`scan`] — sequential and parallel prefix sums (inclusive/exclusive) and
//!   the parity prefix test of the paper's Lemma 3;
//! * [`pack`](mod@pack) — array packing / stream compaction and
//!   [`scatter_offsets`], the prefix-sum step of the *count → allocate →
//!   fill* pattern the paper uses for output-sensitive processor allocation;
//! * [`sort`] — parallel merge sort with a parallel merge (the practical
//!   stand-in for Cole's pipelined mergesort used in the PRAM analysis);
//! * [`inversions`] — inversion counting and **inversion-pair reporting**
//!   (the paper's Lemma 4: an extended merge sort whose merge step counts and
//!   then reports cross-inversions, which identify intersecting edge pairs
//!   within a scanbeam);
//! * [`interrupt`] — cooperative cancellation tokens, work meters, and the
//!   execution [`Gate`] checked at coarse checkpoints so the whole pipeline
//!   can run under deadlines and work budgets;
//! * [`stealpool`] — a work-stealing deque pool (owner LIFO, thief FIFO
//!   steal-half) for executing over-decomposed chunk sets whose per-chunk
//!   costs are too irregular for static assignment.

pub mod interrupt;
pub mod inversions;
pub mod pack;
pub mod scan;
pub mod segscan;
pub mod sort;
pub mod stealpool;

pub use interrupt::{CancelToken, Gate, MeterSnapshot, TripReason, WorkMeter};
pub use inversions::{
    count_inversions, par_count_inversions, par_report_inversions, par_report_inversions_gated,
    report_inversions, report_inversions_in, InvScratch,
};
pub use pack::{pack, par_dedup_adjacent, par_pack, par_pack_indexed, scatter_offsets};
pub use scan::{exclusive_scan, inclusive_scan, par_exclusive_scan, par_inclusive_scan};
pub use segscan::{flags_from_offsets, par_seg_inclusive_scan, seg_inclusive_scan};
pub use sort::{
    par_merge, par_merge_sort, par_merge_sort_gated, par_sort_dedup, par_sort_dedup_gated,
};
pub use stealpool::StealStats;

/// Default sequential cutoff below which parallel routines fall back to their
/// sequential counterparts. Chosen so that rayon task overhead stays well
/// under the work per task.
pub const SEQ_CUTOFF: usize = 4096;
