//! Output-sensitive parallel polygon clipping — the core algorithms of
//! Puri & Prasad, *"Output-Sensitive Parallel Algorithm for Polygon
//! Clipping"*, ICPP 2014.
//!
//! # What lives here
//!
//! * [`engine`] — the scanbeam boolean engine (our from-scratch equivalent of
//!   Vatti's algorithm / the GPC library): Algorithm 1 of the paper, with a
//!   sequential mode and a parallel mode in which every phase (event sort,
//!   partition, intersection discovery, per-beam classification, merge)
//!   takes its parallel code path. On the vendored rayon stand-in only
//!   `rayon::join` starts threads: the event sort above
//!   `parprim::SEQ_CUTOFF` keys and the `ops::union_all`/`xor_all`
//!   reduction use it, while the `par_iter` loops (per-beam discovery and
//!   classification among them) run sequentially;
//! * [`classify`] — per-scanbeam region classification (Lemmas 1–3: edge
//!   labels alternate, contributing vertices by parity prefix sums);
//! * [`horizontal`] — reconstruction of horizontal boundary runs between
//!   adjacent scanbeams (the paper's Figure 6 merge, expressed as interval
//!   symmetric differences that cancel shared partial-polygon borders);
//! * [`stitch`] — cancellation of opposite boundary fragments and extraction
//!   of closed output contours, plus removal of the *virtual vertices* k'
//!   ("removed finally by array packing");
//! * [`algo2`] — the multi-threaded slab-partitioning clipper (Algorithm 2)
//!   with per-phase timers matching Figure 9;
//! * [`slabindex`] — the output-sensitive contour-to-slab binning pass that
//!   feeds each Algorithm-2 worker only the contours overlapping its slab;
//! * [`overlay`] — clipping two *sets* of polygons (GIS layers), with the
//!   paper's replication strategy and an improved unique-owner assignment;
//! * [`sanitize`](mod@sanitize) — the degeneracy-hardened front door: counted repair of
//!   dirty input (duplicate/collinear/spike vertices, zero-area contours)
//!   before it reaches the sweep;
//! * [`prepared`] — compile-once, clip-many: an immutable
//!   [`PreparedLayer`] freezing the subject-side
//!   work of Algorithm 2 for cross-request reuse, clipped concurrently with
//!   only query-side cost;
//! * [`budget`] — bounded execution: deadlines, cooperative cancellation,
//!   and work/memory budgets enforced at coarse pipeline checkpoints;
//! * [`oracle`] — cross-implementation differential verification: the
//!   [`ClipOracle`] trait over the engine and the independent
//!   Foster–Overfelt clipper, with a region-area comparator;
//! * [`stats`] — the n / k / k' instrumentation demonstrating output
//!   sensitivity.
//!
//! # Quick start
//!
//! ```
//! use polyclip_core::{clip, BoolOp, ClipOptions};
//! use polyclip_geom::PolygonSet;
//!
//! let a = PolygonSet::from_xy(&[(0.0, 0.0), (2.0, 0.0), (2.0, 2.0), (0.0, 2.0)]);
//! let b = PolygonSet::from_xy(&[(1.0, 1.0), (3.0, 1.0), (3.0, 3.0), (1.0, 3.0)]);
//! let out = clip(&a, &b, BoolOp::Intersection, &ClipOptions::default());
//! assert_eq!(out.contours().len(), 1);
//! assert!((out.contours()[0].area() - 1.0).abs() < 1e-9);
//! ```

pub mod algo2;
pub mod budget;
pub mod classify;
pub mod engine;
pub mod grid;
pub mod horizontal;
pub mod ops;
pub mod oracle;
pub mod overlay;
pub mod pram;
pub mod prepared;
pub mod resilience;
pub mod sanitize;
pub mod slabindex;
pub mod stats;
pub mod stitch;
pub mod tess;
pub mod validate;

pub use algo2::{clip_pair_slabs, try_clip_pair_slabs, Algo2Result, PhaseTimes};
pub use budget::{CancelToken, ExecBudget, MeterSnapshot, WorkMeter};
pub use classify::BoolOp;
pub use engine::{
    clip, clip_with_stats, dissolve, eo_area, measure_op, try_clip, try_clip_with_stats,
    ClipOptions,
};
pub use grid::GridConfig;
pub use ops::{intersection_all, subtract_all, union_all, xor_all};
pub use oracle::{
    compare_outputs, ClipOracle, DiffReport, FosterOverfeltOracle, OracleError, ScanbeamOracle,
    ORACLE_REL_TOL,
};
pub use overlay::{
    overlay_difference, overlay_intersection, overlay_union, try_overlay_difference,
    try_overlay_intersection, try_overlay_union, Layer, OverlayResult, SlabAssignment,
};
pub use pram::{pram_cost, PhaseCost, PramCostModel};
pub use prepared::{clip_prepared, try_clip_prepared, PreparedLayer};
pub use resilience::{ClipError, ClipOutcome, Degradation, FaultPlan, InputRole, RepairRung};
pub use sanitize::{sanitize_set, SanitizeOptions, SanitizeReport};
pub use slabindex::{SlabEntry, SlabIndex};
pub use stats::ClipStats;
pub use stitch::stitch_counted;
pub use tess::{trapezoids, triangulate, Trapezoid};
pub use validate::{assert_canonical, is_degenerate, validate, ValidationReport, Violation};
