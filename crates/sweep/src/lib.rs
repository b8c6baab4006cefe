//! Scanbeam machinery for the parallel plane-sweep clipper.
//!
//! This crate realizes Steps 1–2 of the paper's Algorithm 1 and the
//! intersection-discovery machinery of Lemma 4:
//!
//! * [`edges`] — turning polygon sets into normalized sweep edges (bottom →
//!   top, with winding direction), dropping horizontal and degenerate edges
//!   (the paper assumes horizontal edges away; we instead handle them by
//!   construction: they span no scanbeam and the engine's horizontal-boundary
//!   reconstruction regenerates any horizontal output geometry);
//! * [`events`] — the sorted, deduplicated event-y schedule (the scanbeam
//!   table);
//! * [`beams`] — partitioning edges into scanbeams by splitting each edge at
//!   every event y interior to its span. The split points are the paper's
//!   **virtual vertices** (contributing the k' term of the complexity),
//!   written by one direct count→scan→scatter pass;
//! * [`cross`] — discovering the k edge intersections *output-sensitively*:
//!   within a scanbeam every active sub-edge spans the full beam, so a pair
//!   crosses iff its order at the bottom scanline differs from its order at
//!   the top scanline — an inversion, reported by the merge sort of
//!   [`polyclip_parprim::inversions`] (Lemma 4).

pub mod beams;
pub mod bo;
pub mod cross;
pub mod edges;
pub mod events;

pub use beams::{BeamSet, ForcedSplits, SubEdge};
pub use bo::bentley_ottmann;
pub use cross::{discover_intersections, discover_intersections_gated, CrossEvent};
pub use edges::{collect_edges, collect_edges_refs, InputEdge, Source};
pub use events::{event_index, event_ys};
