//! Compile-once, clip-many prepared geometry for cross-request reuse.
//!
//! Algorithm 2 ([`crate::algo2`]) splits into a subject half and a query
//! half. The subject half sanitizes the subject, sorts its event y's and
//! caches its per-contour y-extents; a cold
//! [`try_clip_pair_slabs`](crate::algo2::try_clip_pair_slabs) runs it on
//! every call. When one base layer (a country map, a zoning layer) is
//! clipped millions of times against small queries — the service workload
//! `polyclip-serve` targets — that work is redundant after the first call.
//! [`PreparedLayer`] runs the subject half once and keeps its result behind
//! an `Arc`, and [`clip_prepared`] runs only the query half per call:
//!
//! * **frozen at build** (immutable, shared): the sanitized subject
//!   contours and their repair record, the sorted deduplicated subject
//!   event schedule, per-contour y-extents (the input to slab binning),
//!   and the subject bounding box;
//! * **per call** (query-sized): query sanitization, the query's event
//!   y's merged into the frozen schedule by order-statistic selection
//!   (no re-sort of the subject side), slab-span binning of both sides
//!   from the frozen extents and the query's bboxes, band clipping, the
//!   per-cell scanbeam runs, and the merge. Each call allocates its own
//!   sweep buffers and frees them when it returns.
//!
//! A cold call and a prepared clip run the same query half on the same
//! frozen data, so the output is bit-identical to the cold
//! [`try_clip_pair_slabs`](crate::algo2::try_clip_pair_slabs). The
//! `prepared` proptest asserts it, and so checks reuse: one subject frozen
//! once, against a subject frozen per call, and
//! `clip_prepared_matches_cold_on_gis_layer_and_blob` checks the service's
//! shapes: a flattened Table III layer under small boxes, and a blob.
//!
//! Both paths also do the same work: a slab whose output is provably empty
//! — an intersection slab without a query (or subject) contour — completes
//! without running the engine, and inside the slabs that do run the
//! engine's bbox cull drops, for ∩, every contour whose bbox misses the
//! other operand's bbox, for − every query contour whose bbox misses the
//! layer's. The cull is what sizes a point query at p = 1 (the service's
//! setting) to the layer contours the query can reach rather than the
//! whole layer.
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

use crate::algo2::{clip_frozen, Algo2Result, Armed, Frozen};
use crate::budget;
use crate::classify::BoolOp;
use crate::engine::ClipOptions;
use crate::resilience::ClipError;
use polyclip_geom::{BBox, PolygonSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// An immutable, `Send + Sync` snapshot of everything about a subject layer
/// that does not depend on the query: build once, share
/// behind an [`Arc`], clip concurrently with [`clip_prepared`] /
/// [`try_clip_prepared`]. See the module docs for the frozen / per-call
/// split.
#[derive(Debug)]
pub struct PreparedLayer {
    /// Algorithm 2's subject half — the sanitized subject, its repair
    /// record, its event schedule and per-contour extents — frozen once.
    frozen: Frozen<'static>,
    /// Bounding box of the whole subject.
    bbox: BBox,
    /// Wall clock the build consumed — reported on every clip as
    /// [`PhaseTimes::prepare_build`](crate::algo2::PhaseTimes) so callers
    /// can account amortization.
    build_time: Duration,
}

impl PreparedLayer {
    /// Freeze a subject layer: reject non-finite input, sanitize (honoring
    /// `opts.sanitize`), sort the event schedule and cache per-contour
    /// extents. The returned layer is immutable; clip it with
    /// [`clip_prepared`] using the *same* sanitize setting for bit-identity
    /// with the cold path.
    pub fn build(subject: &PolygonSet, opts: &ClipOptions) -> Result<Arc<Self>, ClipError> {
        let t0 = Instant::now();
        let gate = opts.budget.arm();
        budget::check(&gate)?;
        let frozen = Frozen::new(subject, opts, &gate)?.into_owned();
        let bbox = frozen.subject.bbox();
        Ok(Arc::new(PreparedLayer {
            frozen,
            bbox,
            build_time: t0.elapsed(),
        }))
    }

    /// The frozen subject, as every clip sees it.
    pub fn subject(&self) -> &PolygonSet {
        &self.frozen.subject
    }

    /// Distinct event scanlines in the frozen schedule.
    pub fn event_count(&self) -> usize {
        self.frozen.ys.len()
    }

    /// Input repairs the build-time sanitizer performed.
    pub fn repairs(&self) -> usize {
        self.frozen.repairs.total()
    }

    /// Bounding box of the frozen subject.
    pub fn bbox(&self) -> BBox {
        self.bbox
    }

    /// Wall clock the build consumed.
    pub fn build_time(&self) -> Duration {
        self.build_time
    }
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
/// Arms its gates and runs Algorithm 2's query half — the same code a cold
/// call runs after freezing its subject — on the layer's frozen subject,
/// with two provenance marks in the result:
/// [`ClipStats::prepared_reused`](crate::ClipStats::prepared_reused)
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
    let armed = Armed::new(opts)?;
    clip_frozen(
        &layer.frozen,
        query,
        op,
        n_slabs,
        opts,
        &armed,
        Some(layer.build_time),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo2::try_clip_pair_slabs;
    use crate::engine::eo_area;
    use crate::resilience::InputRole;
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
        let skipped = |r: &Algo2Result| -> Vec<bool> {
            r.times
                .per_slab_clip
                .iter()
                .map(|d| *d == Duration::ZERO)
                .collect()
        };
        let n_skipped = skipped(&warm).iter().filter(|&&z| z).count();
        assert!(
            n_skipped >= warm.slabs / 2,
            "skipped {n_skipped}/{}",
            warm.slabs
        );
        // The cold call runs the same query half: it skips the same slabs.
        assert_eq!(skipped(&cold), skipped(&warm));
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
