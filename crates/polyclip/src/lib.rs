//! # polyclip — output-sensitive parallel polygon clipping
//!
//! A from-scratch Rust implementation of Puri & Prasad, *"Output-Sensitive
//! Parallel Algorithm for Polygon Clipping"* (ICPP 2014): a parallelization
//! of Vatti-style plane-sweep clipping built from prefix sums, parallel
//! merge sort with inversion reporting, and segment trees — plus the
//! practical multi-threaded slab-partitioning clipper the paper evaluates on
//! GIS data.
//!
//! ## Capabilities
//!
//! * boolean operations (∩, ∪, \, ⊕) on **arbitrary** polygons: convex,
//!   concave, multi-contour, holes, self-intersecting — under even-odd or
//!   nonzero fill rules;
//! * **output-sensitive** cost `O((n + k + k') log(n + k + k'))`: work scales
//!   with the number of intersections actually present;
//! * sequential mode (a GPC-equivalent scanbeam clipper) and parallel modes:
//!   fine-grained per-scanbeam parallelism (Algorithm 1) and slab
//!   partitioning (Algorithm 2);
//! * GIS layer overlay (pairwise feature intersection, whole-layer union)
//!   with slab load balancing;
//! * classical baselines: Sutherland–Hodgman, Liang–Barsky,
//!   Greiner–Hormann;
//! * synthetic workload generators replicating the paper's Table III
//!   datasets.
//!
//! ## Quick start
//!
//! ```
//! use polyclip::prelude::*;
//!
//! let subject = PolygonSet::from_xy(&[(0.0, 0.0), (4.0, 0.0), (4.0, 4.0), (0.0, 4.0)]);
//! let clip_p = PolygonSet::from_xy(&[(2.0, 2.0), (6.0, 2.0), (6.0, 6.0), (2.0, 6.0)]);
//!
//! let result = clip(&subject, &clip_p, BoolOp::Intersection, &ClipOptions::default());
//! assert!((eo_area(&result) - 4.0).abs() < 1e-9);
//! ```
//!
//! ## Error handling
//!
//! Every lenient entry point (`clip`, `clip_pair_slabs`, the overlay
//! functions) has a fallible `try_*` twin returning typed
//! [`ClipError`](prelude::ClipError)s for non-finite inputs and
//! unrecoverable slab failures, and a [`ClipOutcome`](prelude::ClipOutcome)
//! listing the [`Degradation`](prelude::Degradation)s the pipeline absorbed
//! (sanitized contours, slab retries/fallbacks, refinement exhaustion):
//!
//! ```
//! use polyclip::prelude::*;
//!
//! let subject = PolygonSet::from_xy(&[(0.0, 0.0), (4.0, 0.0), (4.0, 4.0), (0.0, 4.0)]);
//! let clip_p = PolygonSet::from_xy(&[(2.0, 2.0), (6.0, 2.0), (6.0, 6.0), (2.0, 6.0)]);
//!
//! let outcome = try_clip_with_stats(&subject, &clip_p, BoolOp::Intersection,
//!                                   &ClipOptions::default()).unwrap();
//! assert!(outcome.is_clean());
//! // `strict()` refuses lossy degradations (accepted residuals, dropped
//! // fragments) while letting exact recoveries (retries, fallbacks) pass.
//! let (result, _stats) = outcome.strict().unwrap();
//! assert!((eo_area(&result) - 4.0).abs() < 1e-9);
//!
//! // Non-finite coordinates are rejected up front, not propagated as NaN.
//! let bad = PolygonSet::from_xy(&[(0.0, 0.0), (f64::NAN, 1.0), (1.0, 1.0)]);
//! let err = try_clip(&bad, &clip_p, BoolOp::Union, &ClipOptions::default());
//! assert!(matches!(err, Err(ClipError::NonFiniteInput { .. })));
//! ```
//!
//! ## Dirty input
//!
//! Real-world GIS data arrives with duplicate vertices, spikes, and
//! collinear runs. The engine's sanitizer (on by default via
//! [`ClipOptions`](prelude::ClipOptions)`::sanitize`) repairs such input
//! before the sweep and records the repair as a
//! [`Degradation::InputRepaired`](prelude::Degradation). Lenient callers get
//! the repaired answer; `strict()` callers get a typed rejection instead:
//!
//! ```
//! use polyclip::prelude::*;
//!
//! // A square with a duplicated corner and a zero-width spike.
//! let dirty = PolygonSet::from_contours(vec![Contour::from_raw(vec![
//!     Point::new(0.0, 0.0),
//!     Point::new(4.0, 0.0),
//!     Point::new(4.0, 0.0),            // duplicate vertex
//!     Point::new(5.0, 0.0),
//!     Point::new(4.0, 0.0),            // ...and back: a spike
//!     Point::new(4.0, 4.0),
//!     Point::new(0.0, 4.0),
//! ])]);
//! let clip_p = PolygonSet::from_xy(&[(2.0, 2.0), (6.0, 2.0), (6.0, 6.0), (2.0, 6.0)]);
//!
//! let outcome = try_clip_with_stats(&dirty, &clip_p, BoolOp::Intersection,
//!                                   &ClipOptions::default()).unwrap();
//! assert!(outcome
//!     .degradations
//!     .iter()
//!     .any(|d| matches!(d, Degradation::InputRepaired { .. })));
//! // The lenient answer is the clipped repaired polygon...
//! assert!((eo_area(&outcome.result) - 4.0).abs() < 1e-9);
//! // ...but strict() refuses to pretend the input was clean.
//! assert!(matches!(outcome.strict(), Err(ClipError::DirtyInput { .. })));
//! ```
//!
//! ## Crate map
//!
//! | re-export | crate | contents |
//! |---|---|---|
//! | [`geom`] | `polyclip-geom` | points, segments, contours, robust predicates |
//! | [`parprim`] | `polyclip-parprim` | scans, packing, inversions, budget gate, steal pool |
//! | [`segtree`] | `polyclip-segtree` | segment tree, count-then-report queries (the paper's Step 2, test reference) |
//! | [`sweep`] | `polyclip-sweep` | scanbeams, virtual vertices, intersection discovery |
//! | [`seqclip`] | `polyclip-seqclip` | Sutherland–Hodgman, Liang–Barsky, Greiner–Hormann |
//! | [`core`] | `polyclip-core` | the clipping engine, Algorithm 1 & 2, layer overlay |
//! | [`datagen`] | `polyclip-datagen` | synthetic & Table III workload generators |

pub use polyclip_core as core;
pub use polyclip_datagen as datagen;
pub use polyclip_geom as geom;
pub use polyclip_parprim as parprim;
pub use polyclip_segtree as segtree;
pub use polyclip_seqclip as seqclip;
pub use polyclip_sweep as sweep;

// The README's Rust snippets, compiled and run as doctests so they cannot
// drift from the API.
#[cfg(doctest)]
#[doc = include_str!("../../../README.md")]
struct ReadmeDoctests;

/// The most common imports in one place.
pub mod prelude {
    pub use polyclip_core::algo2::clip_pair_slabs;
    pub use polyclip_core::GridConfig;
    pub use polyclip_core::{
        clip, clip_with_stats, dissolve, eo_area, measure_op, overlay_difference,
        overlay_intersection, overlay_union, Algo2Result, BoolOp, ClipOptions, ClipStats, Layer,
        OverlayResult, PhaseTimes, SlabAssignment,
    };
    pub use polyclip_core::{clip_prepared, try_clip_prepared, PreparedLayer};
    pub use polyclip_core::{
        compare_outputs, ClipOracle, DiffReport, FosterOverfeltOracle, OracleError, ScanbeamOracle,
        ORACLE_REL_TOL,
    };
    pub use polyclip_core::{intersection_all, subtract_all, union_all, xor_all};
    pub use polyclip_core::{sanitize_set, SanitizeOptions, SanitizeReport};
    pub use polyclip_core::{
        trapezoids, triangulate, validate, Trapezoid, ValidationReport, Violation,
    };
    pub use polyclip_core::{
        try_clip, try_clip_pair_slabs, try_clip_with_stats, try_overlay_difference,
        try_overlay_intersection, try_overlay_union, ClipError, ClipOutcome, Degradation,
        FaultPlan, InputRole, RepairRung,
    };
    pub use polyclip_core::{CancelToken, ExecBudget, MeterSnapshot, WorkMeter};
    pub use polyclip_geom::{BBox, Contour, FillRule, Point, PolygonSet};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_reexports_work_end_to_end() {
        let a = PolygonSet::from_xy(&[(0.0, 0.0), (2.0, 0.0), (2.0, 2.0), (0.0, 2.0)]);
        let b = a.translate(Point::new(1.0, 1.0));
        let i = clip(&a, &b, BoolOp::Intersection, &ClipOptions::default());
        assert!((eo_area(&i) - 1.0).abs() < 1e-9);
        let r = clip_pair_slabs(&a, &b, BoolOp::Union, 2, &ClipOptions::sequential());
        assert!((eo_area(&r.output) - 7.0).abs() < 1e-9);
    }

    #[test]
    fn prepared_layer_facade_build_once_clip_many() {
        let base = PolygonSet::from_xy(&[(0.0, 0.0), (4.0, 0.0), (4.0, 4.0), (0.0, 4.0)]);
        let layer = PreparedLayer::build(&base, &ClipOptions::default()).unwrap();
        let q = PolygonSet::from_xy(&[(1.0, 1.0), (3.0, 1.0), (3.0, 3.0), (1.0, 3.0)]);
        let r = clip_prepared(&layer, &q, BoolOp::Intersection, 2, &ClipOptions::default());
        assert!((eo_area(&r.output) - 4.0).abs() < 1e-9);
        assert!(r.stats.prepared_reused);
    }
}
