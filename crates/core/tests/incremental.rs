//! Incremental-refinement equivalence: patching dirty beams in place on
//! refinement rounds ≥ 2 must be a pure optimization. For random polygon
//! pairs on a duplicate-heavy half-integer grid — and for the degeneracy
//! torture generators that drive multi-round refinement — every boolean
//! operation, sweep partition backend, parallel mode, and slab count must
//! produce **bit-identical** output, identical counters (modulo the two
//! fields that *describe* the optimization), and identical degradation
//! reports with `incremental_refine` on and off.

use polyclip_core::algo2::try_clip_pair_slabs;
use polyclip_core::stats::ClipStats;
use polyclip_core::{try_clip_with_stats, BoolOp, ClipOptions, GridConfig};
use polyclip_datagen::degenerate::{shingled_strips, sliver_fan};
use polyclip_geom::{Contour, Point, PolygonSet};
use polyclip_sweep::PartitionBackend;
use proptest::prelude::*;

const ALL_OPS: [BoolOp; 4] = [
    BoolOp::Intersection,
    BoolOp::Union,
    BoolOp::Difference,
    BoolOp::Xor,
];

/// Zero the two counters that legitimately differ between the incremental
/// and full-rebuild paths; everything else in [`ClipStats`] must match
/// bit for bit.
fn scrub(mut s: ClipStats) -> ClipStats {
    s.refine_rounds_incremental = 0;
    s.beams_rebuilt = 0;
    s
}

fn opts_with(parallel: bool, backend: PartitionBackend, incremental: bool) -> ClipOptions {
    ClipOptions {
        parallel,
        backend,
        incremental_refine: incremental,
        ..ClipOptions::default()
    }
}

fn xorshift(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

/// A random polygon set on a half-integer grid. The coarse grid makes
/// shared scanlines, coincident crossings and flat contours common —
/// exactly the geometry where the dirty-beam classification
/// (`partition_point` against the carried-over schedule) could disagree
/// with a from-scratch rebuild.
fn grid_set(seed: u64, max_contours: u64) -> PolygonSet {
    let mut s = seed | 1;
    let n = 1 + xorshift(&mut s) % max_contours;
    let mut contours = Vec::new();
    for _ in 0..n {
        let k = 3 + xorshift(&mut s) % 7;
        let pts: Vec<(f64, f64)> = (0..k)
            .map(|_| {
                let x = (xorshift(&mut s) % 20) as f64 * 0.5;
                let y = (xorshift(&mut s) % 14) as f64 * 0.5;
                (x, y)
            })
            .collect();
        contours.push(Contour::from_xy(&pts));
    }
    PolygonSet::from_contours(contours)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn incremental_refine_is_bit_identical_to_full_rebuild(
        seed_a in 1u64..u64::MAX,
        seed_b in 1u64..u64::MAX,
    ) {
        let a = grid_set(seed_a, 4);
        let b = grid_set(seed_b, 3);
        for op in ALL_OPS {
            for parallel in [false, true] {
                for backend in [PartitionBackend::DirectScan, PartitionBackend::SegmentTree] {
                    let on = try_clip_with_stats(
                        &a, &b, op, &opts_with(parallel, backend, true),
                    ).unwrap();
                    let off = try_clip_with_stats(
                        &a, &b, op, &opts_with(parallel, backend, false),
                    ).unwrap();
                    let ctx = format!("op {op:?} parallel {parallel} backend {backend:?}");
                    prop_assert_eq!(&on.result, &off.result, "output: {}", ctx);
                    prop_assert_eq!(scrub(on.stats), scrub(off.stats), "stats: {}", ctx);
                    prop_assert_eq!(
                        on.degradations.len(), off.degradations.len(),
                        "degradations: {}", ctx
                    );
                    // The full-rebuild path must never report incremental work.
                    prop_assert_eq!(off.stats.refine_rounds_incremental, 0);
                    prop_assert_eq!(off.stats.beams_rebuilt, 0);
                }
            }
        }
    }
}

/// The degeneracy torture pair used throughout the budget tests: jittered
/// strip seams crossing a sliver fan. Crossings discovered in round 1 add
/// scanlines that expose further crossings, driving the refinement loop
/// through multiple rounds — the regime the incremental patch exists for.
fn torture_pair() -> (PolygonSet, PolygonSet) {
    // Sized so refinement runs several rounds without hitting MAX_REFINE
    // and the per-round dirty fraction stays under the rebuild threshold
    // (calibrated: 6 rounds, every round ≥ 2 served incrementally).
    let subject = shingled_strips(5, Point::new(-1.0, -1.0), 2.0, 2.0, 10, 1e-6);
    let clip_p = sliver_fan(6, Point::new(0.0, 0.0), 1.4, 8);
    (subject, clip_p)
}

// On a workload with several refinement rounds, every round after the
// first must be served by the dirty-beam patch — zero full rebuilds —
// while the output stays bit-identical to the rebuild-every-round path.
// This is the acceptance criterion of the optimization: if a round falls
// back (TooDirty, out-of-schedule scanline), `refine_rounds_incremental`
// drops below `refine_rounds - 1` and this test fails.
#[test]
fn torture_workload_refines_incrementally_without_rebuilds() {
    let (subject, clip_p) = torture_pair();
    for parallel in [false, true] {
        // `grain: Some(1)` forces the beam-parallel fill paths even on
        // beams below the built-in cutoff, so both fill strategies are
        // exercised regardless of workload size.
        for grain in [None, Some(1)] {
            for backend in [PartitionBackend::DirectScan, PartitionBackend::SegmentTree] {
                let mut on = opts_with(parallel, backend, true);
                on.grain = grain;
                let mut off = opts_with(parallel, backend, false);
                off.grain = grain;
                let inc = try_clip_with_stats(&subject, &clip_p, BoolOp::Union, &on).unwrap();
                let full = try_clip_with_stats(&subject, &clip_p, BoolOp::Union, &off).unwrap();
                let ctx = format!("parallel {parallel} grain {grain:?} backend {backend:?}");
                assert!(
                    inc.stats.refine_rounds >= 3,
                    "{ctx}: torture case too tame ({} rounds) — the incremental \
                     path never engaged",
                    inc.stats.refine_rounds
                );
                // Every round after the first was an in-place patch. (When
                // MAX_REFINE is exhausted the loop's final iteration patches
                // once more before breaking, so the counter may reach
                // `refine_rounds`; it must never fall *below* rounds - 1,
                // which would mean a TooDirty full-rebuild fallback.)
                assert!(
                    inc.stats.refine_rounds_incremental >= inc.stats.refine_rounds - 1,
                    "{ctx}: a refinement round fell back to a full rebuild \
                     ({} incremental of {} rounds)",
                    inc.stats.refine_rounds_incremental,
                    inc.stats.refine_rounds
                );
                assert!(
                    inc.stats.beams_rebuilt > 0,
                    "{ctx}: no dirty beams re-split"
                );
                assert_eq!(inc.result, full.result, "{ctx}: output differs");
                assert_eq!(scrub(inc.stats), scrub(full.stats), "{ctx}: stats differ");
            }
        }
    }
}

// Algorithm 2 inherits the guarantee: per-cell engines run with the same
// `incremental_refine` switch and reuse one scratch arena per worker, so
// the equivalence must hold through the cell fan-out and merge — for the
// default and a refining cell plan, at slab counts 1 and 4.
#[test]
fn algo2_is_bit_identical_with_and_without_incremental_refine() {
    let (subject, clip_p) = torture_pair();
    for op in ALL_OPS {
        for slabs in [1usize, 4] {
            for grid in [GridConfig::default(), GridConfig::refined()] {
                let run = |incremental: bool| {
                    let opts = ClipOptions {
                        grid,
                        ..opts_with(false, PartitionBackend::DirectScan, incremental)
                    };
                    try_clip_pair_slabs(&subject, &clip_p, op, slabs, &opts).unwrap()
                };
                let (on, off) = (run(true), run(false));
                let ctx = format!("op {op:?} slabs {slabs} grid {grid:?}");
                assert_eq!(on.output, off.output, "{ctx}: output differs");
                assert_eq!(scrub(on.stats), scrub(off.stats), "{ctx}: stats differ");
                assert_eq!(
                    on.degradations.len(),
                    off.degradations.len(),
                    "{ctx}: degradations differ"
                );
            }
        }
    }
}
