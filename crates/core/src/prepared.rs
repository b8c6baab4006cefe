//! Compile-once, clip-many prepared geometry for cross-request reuse.
//!
//! Every Algorithm-2 call re-derives the same subject-side state from raw
//! contours: sanitization, the sorted event schedule, per-contour bounding
//! extents, the contour→slab binning. When one base layer (a country map, a
//! zoning layer) is clipped millions of times against small queries — the
//! service workload `polyclip-serve` targets — all of that work is
//! redundant after the first call. [`PreparedLayer`] freezes it once,
//! behind an `Arc`, and [`clip_prepared`] performs only the query-side
//! work per call:
//!
//! * **frozen at build** (immutable, shared): the sanitized subject
//!   contours and their repair record, the sorted deduplicated subject
//!   event schedule, per-contour y-extents (the input to slab binning),
//!   and the subject bounding box;
//! * **per call** (query-sized): query sanitization, the query's event
//!   y's merged into the frozen schedule by order-statistic selection
//!   (no re-sort of the subject side), slab-span binning of both sides
//!   from cached extents (`SlabIndex::from_spans` — the pass that
//!   re-reads every subject vertex on the cold path is skipped), band
//!   clipping, the per-slab scanbeam runs, and the merge;
//! * **pooled across calls**: [`SweepScratch`] arenas — the beam-schedule
//!   / sub-edge / segment-tree skeletons a worker allocates are returned
//!   to the layer's pool and checked out by the next clip, so the
//!   steady-state request allocates almost nothing. Checkout re-baselines
//!   the arena's high-water mark, keeping
//!   [`PhaseTimes::arena_hwm_bytes`](crate::algo2::PhaseTimes) a
//!   *per-call* peak.
//!
//! Because the slab boundaries the cold path derives from the *combined*
//! event schedule are reproduced here exactly (the merged quantiles are
//! computed by two-array selection over the frozen and query schedules),
//! every slab worker sees bit-identical inputs, and the output is
//! bit-identical to the cold
//! [`try_clip_pair_slabs`](crate::algo2::try_clip_pair_slabs) — asserted
//! by the `prepared` proptest and by `bench_prepared` before any timing is
//! recorded.
//!
//! The one divergence is *work*, not output: a slab whose bucket provably
//! cannot contribute — an intersection with no query contours in the slab,
//! or an empty bucket — is recorded as completed without running the
//! engine. Its partial output is empty either way; the cold path spends
//! engine time discovering that, the prepared path does not. Stats
//! counters (`n_edges`, `k_intersections`, …) therefore reflect the
//! reduced work.
//!
//! ```
//! use polyclip_core::prepared::{clip_prepared, PreparedLayer};
//! use polyclip_core::{BoolOp, ClipOptions};
//! use polyclip_geom::PolygonSet;
//!
//! let base = PolygonSet::from_xy(&[(0.0, 0.0), (8.0, 0.0), (8.0, 8.0), (0.0, 8.0)]);
//! let layer = PreparedLayer::build(&base, &ClipOptions::default()).unwrap();
//! for i in 0..4 {
//!     let q = PolygonSet::from_xy(&[
//!         (i as f64, 1.0), (i as f64 + 1.0, 1.0),
//!         (i as f64 + 1.0, 2.0), (i as f64, 2.0),
//!     ]);
//!     let r = clip_prepared(&layer, &q, BoolOp::Intersection, 4, &ClipOptions::default());
//!     assert_eq!(r.output.len(), 1);
//!     assert!(r.stats.prepared_reused);
//! }
//! ```

use crate::algo2::{drive_grid, drive_single_slab, Algo2Result, SlabDrive};
use crate::budget;
use crate::classify::BoolOp;
use crate::engine::ClipOptions;
use crate::resilience::{ClipError, Degradation, InputRole};
use crate::sanitize::{sanitize_set, SanitizeOptions};
use crate::slabindex::{SlabIndex, Span};
use polyclip_geom::{BBox, OrdF64, PolygonSet};
use polyclip_parprim::par_sort_dedup_gated;
use polyclip_sweep::SweepScratch;
use rayon::prelude::*;
use std::borrow::Cow;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Default cap on arenas kept warm between clips; beyond this the pool
/// stops growing and surplus arenas are dropped on check-in (bounds
/// steady-state memory under a concurrency spike). Override per layer with
/// [`PreparedLayer::build_with_pool_limit`].
const MAX_POOLED_ARENAS: usize = 16;

/// An immutable, `Send + Sync` snapshot of everything about a subject layer
/// that does not depend on the query: build once (in parallel), share
/// behind an [`Arc`], clip concurrently with [`clip_prepared`] /
/// [`try_clip_prepared`]. See the module docs for the frozen / per-call
/// split.
#[derive(Debug)]
pub struct PreparedLayer {
    /// The subject as every clip will see it (sanitized iff the build
    /// options asked for it).
    subject: PolygonSet,
    /// The input-repair record from build-time sanitization, replayed into
    /// every clip's degradation report exactly as the cold path would
    /// produce it.
    repairs: usize,
    degradation: Option<Degradation>,
    /// Sorted, deduplicated event y's of the subject — the frozen half of
    /// the Step-1 schedule.
    ys: Vec<OrdF64>,
    /// Per-contour y-extent `(ymin, ymax)`, in contour order;
    /// `(INFINITY, NEG_INFINITY)` marks an empty bbox. The input to
    /// per-call slab binning.
    extents: Vec<(f64, f64)>,
    /// Bounding box of the whole subject.
    bbox: BBox,
    /// Wall clock the build consumed — reported on every clip as
    /// [`PhaseTimes::prepare_build`](crate::algo2::PhaseTimes) so callers
    /// can account amortization.
    build_time: Duration,
    /// Warm [`SweepScratch`] arenas shared by all clips on this layer.
    pool: Mutex<Vec<SweepScratch>>,
    /// Check-in cap for the pool: surplus arenas beyond this are dropped.
    /// A checkout against an empty pool always makes a fresh arena, so an
    /// undersized pool costs allocations, never progress.
    pool_limit: usize,
}

impl PreparedLayer {
    /// Freeze a subject layer: reject non-finite input, sanitize (honoring
    /// `opts.sanitize`), sort the event schedule and cache per-contour
    /// extents — all in parallel on the current rayon pool. The returned
    /// layer is immutable; clip it with [`clip_prepared`] using the *same*
    /// sanitize setting for bit-identity with the cold path.
    pub fn build(subject: &PolygonSet, opts: &ClipOptions) -> Result<Arc<Self>, ClipError> {
        Self::build_with_pool_limit(subject, opts, MAX_POOLED_ARENAS)
    }

    /// [`build`](Self::build) with an explicit scratch-pool check-in cap.
    /// `0` disables pooling entirely (every clip allocates fresh arenas);
    /// a cap below the expected concurrency still serves every request —
    /// checkouts against an empty pool fall back to fresh arenas — it just
    /// trades allocations for memory. The default cap is 16.
    pub fn build_with_pool_limit(
        subject: &PolygonSet,
        opts: &ClipOptions,
        pool_limit: usize,
    ) -> Result<Arc<Self>, ClipError> {
        let t0 = Instant::now();
        let gate = opts.budget.arm();
        budget::check(&gate)?;
        if let Some((contour, vertex)) = subject.first_non_finite() {
            return Err(ClipError::NonFiniteInput {
                role: InputRole::Subject,
                contour,
                vertex,
            });
        }

        let mut repairs = 0usize;
        let mut degradation = None;
        let subject = if opts.sanitize {
            let (s, rep) = sanitize_set(subject, &SanitizeOptions::repairs_only());
            if !rep.is_clean() {
                repairs = rep.total();
                degradation = Some(Degradation::InputRepaired {
                    role: InputRole::Subject,
                    repairs: rep,
                });
            }
            s.into_owned()
        } else {
            subject.clone()
        };

        let ys: Vec<OrdF64> = par_sort_dedup_gated(
            subject
                .contours()
                .iter()
                .flat_map(|c| c.points().iter().map(|p| OrdF64::new(p.y)))
                .collect(),
            Some(&gate),
        );
        budget::check(&gate)?;

        let extents: Vec<(f64, f64)> = subject
            .contours()
            .par_iter()
            .map(|c| {
                let bb = c.bbox();
                if bb.is_empty() {
                    (f64::INFINITY, f64::NEG_INFINITY)
                } else {
                    (bb.ymin, bb.ymax)
                }
            })
            .collect();
        let bbox = subject.bbox();

        Ok(Arc::new(PreparedLayer {
            subject,
            repairs,
            degradation,
            ys,
            extents,
            bbox,
            build_time: t0.elapsed(),
            pool: Mutex::new(Vec::new()),
            pool_limit,
        }))
    }

    /// The frozen subject, as every clip sees it.
    pub fn subject(&self) -> &PolygonSet {
        &self.subject
    }

    /// Distinct event scanlines in the frozen schedule.
    pub fn event_count(&self) -> usize {
        self.ys.len()
    }

    /// Input repairs the build-time sanitizer performed.
    pub fn repairs(&self) -> usize {
        self.repairs
    }

    /// Bounding box of the frozen subject.
    pub fn bbox(&self) -> BBox {
        self.bbox
    }

    /// Wall clock the build consumed.
    pub fn build_time(&self) -> Duration {
        self.build_time
    }

    /// Arenas currently parked in the scratch pool (diagnostics).
    pub fn pooled_arenas(&self) -> usize {
        self.lock_pool().len()
    }

    fn lock_pool(&self) -> std::sync::MutexGuard<'_, Vec<SweepScratch>> {
        // The lock only guards a Vec push/pop; a thread that panicked while
        // holding it cannot have left the Vec inconsistent.
        self.pool.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Check a warm arena out of the pool (or make a fresh one), with its
    /// high-water mark re-baselined so the caller observes a per-call peak.
    fn checkout(&self) -> SweepScratch {
        let mut s = self.lock_pool().pop().unwrap_or_default();
        s.reset_high_water();
        s
    }

    /// Return an arena to the pool for the next clip.
    fn checkin(&self, s: SweepScratch) {
        let mut pool = self.lock_pool();
        if pool.len() < self.pool_limit {
            pool.push(s);
        }
    }
}

/// The `k`-th smallest element (0-based) of the union of two individually
/// sorted, strictly increasing, mutually disjoint arrays — O(log) binary
/// search for the partition point, no merged array materialized. This is
/// how the prepared path reads quantiles of the combined event schedule
/// without re-sorting the frozen side.
fn select_merged(a: &[OrdF64], b: &[OrdF64], k: usize) -> f64 {
    debug_assert!(k < a.len() + b.len());
    // Find the number of elements taken from `a` among the k smallest: the
    // unique i in [max(0, k - |b|), min(k, |a|)] with a[i-1] < b[k-i] and
    // b[k-i-1] < a[i] (guards at the ends). Disjointness makes every
    // comparison strict, so the partition is unique.
    let mut lo = k.saturating_sub(b.len());
    let mut hi = k.min(a.len());
    while lo < hi {
        let i = (lo + hi) / 2;
        let j = k - i;
        if j > 0 && i < a.len() && a[i] < b[j - 1] {
            lo = i + 1;
        } else {
            hi = i;
        }
    }
    let (i, j) = (lo, k - lo);
    match (a.get(i), b.get(j)) {
        (Some(x), Some(y)) => x.get().min(y.get()),
        (Some(x), None) => x.get(),
        (None, Some(y)) => y.get(),
        (None, None) => unreachable!("k < |a| + |b|"),
    }
}

/// [`crate::algo2::slab_boundaries`] over the *virtual* merge of the frozen
/// subject schedule `a` and the query-only schedule `b` (sorted, disjoint
/// from `a`): same first/last elements, same interior quantile indices,
/// same duplicate-collapse rule — bit-identical boundaries to the cold
/// path's, computed in O(p log(|a| + |b|)).
fn merged_boundaries(a: &[OrdF64], b: &[OrdF64], n_slabs: usize) -> Vec<f64> {
    let m = a.len() + b.len();
    if m == 0 {
        return Vec::new();
    }
    let mut out: Vec<f64> = Vec::with_capacity(n_slabs + 1);
    let mut prev = select_merged(a, b, 0);
    out.push(prev);
    for i in 1..n_slabs {
        let y = select_merged(a, b, i * (m - 1) / n_slabs);
        if y > prev {
            out.push(y);
            prev = y;
        }
    }
    let last = select_merged(a, b, m - 1);
    if last > prev {
        out.push(last);
    }
    out
}

/// Clip a query polygon against a prepared layer — the lenient wrapper
/// over [`try_clip_prepared`]: errors yield an empty result.
pub fn clip_prepared(
    layer: &PreparedLayer,
    query: &PolygonSet,
    op: BoolOp,
    n_slabs: usize,
    opts: &ClipOptions,
) -> Algo2Result {
    try_clip_prepared(layer, query, op, n_slabs, opts).unwrap_or_default()
}

/// Fallible prepared clip. Bit-identical in output to
/// [`try_clip_pair_slabs`](crate::algo2::try_clip_pair_slabs) called with
/// `(layer.subject(), query)` under the same options.
///
/// Performs only query-side work (see the module docs), then hands the
/// fan-out to the same driver as the cold path, with two provenance marks
/// in the result: [`ClipStats::prepared_reused`](crate::ClipStats::prepared_reused)
/// is true and
/// [`PhaseTimes::prepare_build`](crate::algo2::PhaseTimes::prepare_build)
/// carries the layer's one-time build cost.
pub fn try_clip_prepared(
    layer: &PreparedLayer,
    query: &PolygonSet,
    op: BoolOp,
    n_slabs: usize,
    opts: &ClipOptions,
) -> Result<Algo2Result, ClipError> {
    let t_start = Instant::now();
    // Same arming discipline as the cold path: the budget becomes absolute
    // here, per-call — concurrent clips on one layer each get their own
    // gate, meter and cancel scope.
    let gate = opts.budget.arm();
    let recovery_gate = opts.budget.cancel_only().arm();
    budget::check(&gate)?;
    if let Some((contour, vertex)) = query.first_non_finite() {
        return Err(ClipError::NonFiniteInput {
            role: InputRole::Clip,
            contour,
            vertex,
        });
    }

    // Query-side sanitization only; the subject's repairs were performed at
    // build time and their record is replayed here, in the same
    // subject-then-clip order the cold path reports.
    let t_san = Instant::now();
    let mut pre_degradations: Vec<Degradation> = Vec::new();
    let mut pre_repairs = 0usize;
    if opts.sanitize {
        pre_repairs += layer.repairs;
        if let Some(d) = &layer.degradation {
            pre_degradations.push(d.clone());
        }
    }
    let query_gate = if opts.sanitize {
        let (q, rep) = sanitize_set(query, &SanitizeOptions::repairs_only());
        if !rep.is_clean() {
            pre_repairs += rep.total();
            pre_degradations.push(Degradation::InputRepaired {
                role: InputRole::Clip,
                repairs: rep,
            });
        }
        q
    } else {
        Cow::Borrowed(query)
    };
    let query = &*query_gate;
    let t_sanitize = t_san.elapsed();

    let seq = ClipOptions {
        parallel: false,
        sanitize: false,
        validate_output: false,
        budget: opts.budget.cancel_only(),
        ..opts.clone()
    };

    // Step 1, query side only: the query's event y's that are not already
    // on the frozen schedule. The combined schedule is then read by
    // order-statistic selection — the frozen side is never re-sorted.
    let mut extra: Vec<OrdF64> = query
        .contours()
        .iter()
        .flat_map(|c| c.points().iter().map(|p| OrdF64::new(p.y)))
        .collect();
    extra.sort_unstable();
    extra.dedup();
    extra.retain(|y| layer.ys.binary_search(y).is_err());
    budget::check(&gate)?;

    let merged_len = layer.ys.len() + extra.len();
    let drive = SlabDrive {
        subject: &layer.subject,
        clip_p: query,
        op,
        opts,
        seq: &seq,
        gate: &gate,
        recovery_gate: &recovery_gate,
        pre_repairs,
        pre_degradations,
        t_start,
        t_sanitize,
        prepare_build: layer.build_time,
        prepared_reused: true,
    };

    if merged_len < 2 || n_slabs <= 1 {
        let mut scratch = layer.checkout();
        let r = drive_single_slab(drive, &mut scratch);
        layer.checkin(scratch);
        return r;
    }

    let boundaries = merged_boundaries(&layer.ys, &extra, n_slabs);
    let slabs = boundaries.len() - 1;

    // Slab spans for both sides without touching a single subject vertex:
    // the subject from its frozen extents, the query from fresh bboxes.
    let t_ix = Instant::now();
    let n_query = query.contours().len();
    let mut spans: Vec<Span> = Vec::with_capacity(layer.extents.len() + n_query);
    for &(ymin, ymax) in &layer.extents {
        spans.push(Span::of_extent(ymin, ymax, &boundaries));
    }
    for c in query.contours() {
        let bb = c.bbox();
        spans.push(if bb.is_empty() {
            Span::NONE
        } else {
            Span::of_extent(bb.ymin, bb.ymax, &boundaries)
        });
    }

    // Query-side pruning: count subject and query contours per slab (by
    // difference arrays over the spans) and mark the slabs whose partial
    // output is provably empty. An intersection needs both sides present;
    // any op needs at least one. Skipped slabs are completed without
    // running the engine — same output, less work (see module docs).
    let mut subject_diff = vec![0i64; slabs + 1];
    let mut query_diff = vec![0i64; slabs + 1];
    for (i, sp) in spans.iter().enumerate() {
        if let Some((lo, hi)) = sp.range() {
            let diff = if i < layer.extents.len() {
                &mut subject_diff
            } else {
                &mut query_diff
            };
            diff[lo] += 1;
            diff[hi + 1] -= 1;
        }
    }
    let mut skip = vec![false; slabs];
    let (mut s_run, mut q_run) = (0i64, 0i64);
    for (s, flag) in skip.iter_mut().enumerate() {
        s_run += subject_diff[s];
        q_run += query_diff[s];
        *flag = match op {
            BoolOp::Intersection => s_run == 0 || q_run == 0,
            _ => s_run == 0 && q_run == 0,
        };
    }

    let index = SlabIndex::from_spans(&layer.subject, query, spans, &boundaries);
    // A refining plan wants the merged event schedule for y-split
    // candidates; both halves are sorted and disjoint (`extra` kept only
    // y's absent from the frozen schedule), so one linear merge rebuilds
    // it. An unrefined plan never splits and skips the merge.
    let mut ys: Vec<OrdF64> = Vec::new();
    if opts.grid.oversub > 0 {
        ys.reserve(merged_len);
        let (mut i, mut j) = (0, 0);
        while i < layer.ys.len() && j < extra.len() {
            if layer.ys[i] < extra[j] {
                ys.push(layer.ys[i]);
                i += 1;
            } else {
                ys.push(extra[j]);
                j += 1;
            }
        }
        ys.extend_from_slice(&layer.ys[i..]);
        ys.extend_from_slice(&extra[j..]);
    }
    let plan = crate::grid::plan_grid(&boundaries, &index, &ys, &opts.grid, n_slabs);
    let t_index = t_ix.elapsed();
    drive_grid(
        drive,
        &plan,
        &index,
        Some(&skip),
        t_index,
        n_slabs,
        || layer.checkout(),
        |s| layer.checkin(s),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo2::{slab_boundaries, try_clip_pair_slabs};
    use crate::engine::eo_area;
    use polyclip_geom::contour::rect;

    fn seq() -> ClipOptions {
        ClipOptions::sequential()
    }

    fn sq(x0: f64, y0: f64, x1: f64, y1: f64) -> PolygonSet {
        PolygonSet::from_contour(rect(x0, y0, x1, y1))
    }

    #[test]
    fn layer_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<PreparedLayer>();
        assert_send_sync::<Arc<PreparedLayer>>();
    }

    #[test]
    fn select_merged_matches_materialized_merge() {
        let a: Vec<OrdF64> = [0.0, 1.5, 2.0, 7.0, 9.0]
            .iter()
            .map(|&y| OrdF64::new(y))
            .collect();
        let b: Vec<OrdF64> = [-1.0, 0.5, 3.0, 8.0, 10.0, 11.0]
            .iter()
            .map(|&y| OrdF64::new(y))
            .collect();
        let mut merged: Vec<OrdF64> = a.iter().chain(&b).copied().collect();
        merged.sort_unstable();
        for (k, want) in merged.iter().enumerate() {
            assert_eq!(select_merged(&a, &b, k), want.get(), "k = {k}");
        }
        // One side empty, both directions.
        for k in 0..a.len() {
            assert_eq!(select_merged(&a, &[], k), a[k].get());
            assert_eq!(select_merged(&[], &a, k), a[k].get());
        }
    }

    #[test]
    fn merged_boundaries_match_slab_boundaries_of_the_union() {
        let a: Vec<OrdF64> = (0..40).map(|i| OrdF64::new(i as f64 * 0.7)).collect();
        let b: Vec<OrdF64> = (0..17)
            .map(|i| OrdF64::new(i as f64 * 1.31 + 0.05))
            .collect();
        let mut merged: Vec<OrdF64> = a.iter().chain(&b).copied().collect();
        merged.sort_unstable();
        merged.dedup();
        for p in [1usize, 2, 3, 4, 8, 64] {
            assert_eq!(
                merged_boundaries(&a, &b, p),
                slab_boundaries(&merged, p),
                "p = {p}"
            );
        }
    }

    #[test]
    fn prepared_matches_cold_on_offset_squares() {
        let a = sq(0.0, 0.0, 4.0, 12.0);
        let layer = PreparedLayer::build(&a, &seq()).unwrap();
        let b = sq(1.0, 1.0, 5.0, 11.0);
        for op in [
            BoolOp::Intersection,
            BoolOp::Union,
            BoolOp::Difference,
            BoolOp::Xor,
        ] {
            for p in [1usize, 2, 4, 8] {
                let cold = try_clip_pair_slabs(&a, &b, op, p, &seq()).unwrap();
                let warm = try_clip_prepared(&layer, &b, op, p, &seq()).unwrap();
                assert_eq!(cold.output, warm.output, "op {op:?} p {p}");
                assert_eq!(cold.slabs, warm.slabs, "op {op:?} p {p}");
                assert!(warm.stats.prepared_reused);
                assert!(!cold.stats.prepared_reused);
            }
        }
    }

    #[test]
    fn intersection_skips_query_free_slabs() {
        // Subject spans y ∈ [0, 16]; a tiny query in the bottom corner. At
        // p = 8 most slabs hold no query contour and must be skipped: their
        // clip time is exactly zero and the result is still exact.
        let mut contours = Vec::new();
        for i in 0..16 {
            contours.push(rect(0.0, i as f64, 4.0, i as f64 + 0.9));
        }
        let a = PolygonSet::from_contours(contours);
        let layer = PreparedLayer::build(&a, &seq()).unwrap();
        let q = sq(0.5, 0.1, 1.5, 0.8);
        let warm = try_clip_prepared(&layer, &q, BoolOp::Intersection, 8, &seq()).unwrap();
        let cold = try_clip_pair_slabs(&a, &q, BoolOp::Intersection, 8, &seq()).unwrap();
        assert_eq!(warm.output, cold.output);
        assert!((eo_area(&warm.output) - 0.7).abs() < 1e-9);
        let skipped = warm
            .times
            .per_slab_clip
            .iter()
            .filter(|d| **d == Duration::ZERO)
            .count();
        assert!(
            skipped >= warm.slabs / 2,
            "skipped {skipped}/{}",
            warm.slabs
        );
        // All slabs count as completed; none were lost.
        assert_eq!(warm.stats.completed_slabs, warm.slabs);
    }

    #[test]
    fn build_records_sanitizer_repairs_and_replays_them() {
        use polyclip_geom::{Contour, Point};
        // Duplicate vertex: the sanitizer repairs it at build time, and
        // every prepared clip replays the same degradation the cold path
        // reports.
        let dirty = PolygonSet::from_contours(vec![Contour::from_raw(vec![
            Point::new(0.0, 0.0),
            Point::new(4.0, 0.0),
            Point::new(4.0, 0.0),
            Point::new(4.0, 4.0),
            Point::new(0.0, 4.0),
        ])]);
        let opts = ClipOptions::default();
        let layer = PreparedLayer::build(&dirty, &opts).unwrap();
        assert!(layer.repairs() > 0);
        let q = sq(1.0, 1.0, 3.0, 3.0);
        let warm = try_clip_prepared(&layer, &q, BoolOp::Intersection, 4, &opts).unwrap();
        let cold = try_clip_pair_slabs(&dirty, &q, BoolOp::Intersection, 4, &opts).unwrap();
        assert_eq!(warm.output, cold.output);
        assert_eq!(warm.degradations, cold.degradations);
        assert_eq!(warm.stats.input_repairs, cold.stats.input_repairs);
    }

    #[test]
    fn build_rejects_non_finite_subject() {
        let bad = PolygonSet::from_xy(&[(0.0, 0.0), (f64::NAN, 1.0), (1.0, 1.0)]);
        assert!(matches!(
            PreparedLayer::build(&bad, &seq()),
            Err(ClipError::NonFiniteInput { .. })
        ));
    }

    #[test]
    fn clip_rejects_non_finite_query() {
        let layer = PreparedLayer::build(&sq(0.0, 0.0, 1.0, 1.0), &seq()).unwrap();
        let bad = PolygonSet::from_xy(&[(0.0, 0.0), (f64::INFINITY, 1.0), (1.0, 1.0)]);
        assert!(matches!(
            try_clip_prepared(&layer, &bad, BoolOp::Union, 4, &seq()),
            Err(ClipError::NonFiniteInput {
                role: InputRole::Clip,
                ..
            })
        ));
    }

    #[test]
    fn scratch_pool_is_reused_across_clips() {
        let layer = PreparedLayer::build(&sq(0.0, 0.0, 4.0, 12.0), &seq()).unwrap();
        assert_eq!(layer.pooled_arenas(), 0);
        let q = sq(1.0, 1.0, 3.0, 11.0);
        clip_prepared(&layer, &q, BoolOp::Intersection, 4, &seq());
        let after_first = layer.pooled_arenas();
        assert!(after_first >= 1);
        // The second clip checks arenas back out and returns them.
        let r = clip_prepared(&layer, &q, BoolOp::Intersection, 4, &seq());
        assert!(layer.pooled_arenas() >= 1);
        assert!(
            r.times.arena_reused_bytes > 0,
            "arena capacity must be replayed"
        );
    }

    #[test]
    fn empty_query_yields_empty_intersection_and_full_union() {
        let a = sq(0.0, 0.0, 4.0, 12.0);
        let layer = PreparedLayer::build(&a, &seq()).unwrap();
        let empty = PolygonSet::new();
        let i = clip_prepared(&layer, &empty, BoolOp::Intersection, 4, &seq());
        assert!(i.output.is_empty());
        let u = clip_prepared(&layer, &empty, BoolOp::Union, 4, &seq());
        assert!((eo_area(&u.output) - 48.0).abs() < 1e-9);
        // Cold twin agrees bit-for-bit.
        let cold_u = try_clip_pair_slabs(&a, &empty, BoolOp::Union, 4, &seq()).unwrap();
        assert_eq!(u.output, cold_u.output);
    }

    #[test]
    fn refined_grid_matches_default_grid_prepared() {
        let a = PolygonSet::from_xy(&[(0.0, 0.0), (4.0, 0.3), (5.0, 9.7), (0.5, 10.0)]);
        let layer = PreparedLayer::build(&a, &seq()).unwrap();
        let b = PolygonSet::from_xy(&[(2.0, -1.0), (6.0, 4.0), (3.0, 11.0), (1.0, 5.0)]);
        let refined = ClipOptions {
            grid: crate::grid::GridConfig::refined(),
            ..seq()
        };
        for op in [BoolOp::Intersection, BoolOp::Union, BoolOp::Xor] {
            for p in [2usize, 4, 8] {
                let grid = try_clip_prepared(&layer, &b, op, p, &refined).unwrap();
                let cold = try_clip_pair_slabs(&a, &b, op, p, &refined).unwrap();
                let plain = try_clip_prepared(&layer, &b, op, p, &seq()).unwrap();
                assert_eq!(grid.output, cold.output, "op {op:?} p {p}");
                assert!(
                    (eo_area(&grid.output) - eo_area(&plain.output)).abs() < 1e-9,
                    "op {op:?} p {p}"
                );
            }
        }
    }
}
