//! Partition equivalence: the output-sensitive slab index and the cell
//! plan must be a pure optimization of the original Algorithm-2 partition,
//! which band-clipped both full inputs into every slab (O(n·p)). That
//! original survives here only as the test-side reference [`full_scan`].
//! For random polygon pairs — including duplicate-heavy event schedules,
//! degenerate (flat) contours, and invalid contours injected past the
//! validity filter — every boolean operation and slab count must produce
//! **bit-identical** output, identical engine counters
//! ([`polyclip_core::ClipStats`] is timer-free and `Eq`), and identical
//! degradation reports under the default (unrefined) cell plan — and the
//! same plan run on the threaded stealing pool must not differ by a bit.

use polyclip_core::algo2::{clip_pair_slabs, merge_slab_outputs, slab_boundaries};
use polyclip_core::sanitize::{sanitize_set, SanitizeOptions};
use polyclip_core::{
    try_clip_with_stats, BoolOp, ClipOptions, ClipStats, Degradation, GridConfig, InputRole,
};
use polyclip_geom::{Contour, OrdF64, PolygonSet};
use polyclip_seqclip::band_clip;
use proptest::prelude::*;
use std::borrow::Cow;

fn xorshift(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

/// A random polygon set on a half-integer grid: the coarse grid makes
/// duplicate y's (shared scanlines, collapsed quantiles) and flat/degenerate
/// contours common, which is exactly where the two partition paths could
/// diverge. Occasionally an invalid 2-point contour is smuggled in through
/// `contours_mut`, bypassing the constructor's validity filter — both
/// paths must agree on dropping it.
fn gen_set(seed: u64, max_contours: u64) -> PolygonSet {
    let mut s = seed | 1;
    let n = 1 + xorshift(&mut s) % max_contours;
    let mut contours = Vec::new();
    for _ in 0..n {
        let k = 3 + xorshift(&mut s) % 6;
        let pts: Vec<(f64, f64)> = (0..k)
            .map(|_| {
                let x = (xorshift(&mut s) % 24) as f64 * 0.5;
                let y = (xorshift(&mut s) % 16) as f64 * 0.5;
                (x, y)
            })
            .collect();
        contours.push(Contour::from_xy(&pts));
    }
    let mut p = PolygonSet::from_contours(contours);
    if xorshift(&mut s).is_multiple_of(4) {
        let y0 = (xorshift(&mut s) % 16) as f64 * 0.5;
        p.contours_mut()
            .push(Contour::from_xy(&[(0.0, y0), (2.0, y0 + 1.0)]));
    }
    p
}

/// What [`full_scan`] reports: the fields of `Algo2Result` that carry no
/// timings.
struct Reference {
    output: PolygonSet,
    stats: ClipStats,
    degradations: Vec<Degradation>,
    slabs: usize,
}

/// The original full-scan Algorithm 2: sanitize both operands once, cut the
/// event schedule into equal-count slabs, band-clip both *full* inputs into
/// every slab, clip each slab on the sequential engine, and merge at the
/// interior boundaries in one pass.
fn full_scan(
    a: &PolygonSet,
    b: &PolygonSet,
    op: BoolOp,
    n_slabs: usize,
    o: &ClipOptions,
) -> Reference {
    let mut repairs = 0;
    let mut degradations = Vec::new();
    let mut sanitized = |set: &PolygonSet, role: InputRole| -> PolygonSet {
        if !o.sanitize {
            return set.clone();
        }
        let (s, rep) = sanitize_set(set, &SanitizeOptions::repairs_only());
        if !rep.is_clean() {
            repairs += rep.total();
            degradations.push(Degradation::InputRepaired { role, repairs: rep });
        }
        Cow::into_owned(s)
    };
    let (a, b) = (
        sanitized(a, InputRole::Subject),
        sanitized(b, InputRole::Clip),
    );
    let seq = ClipOptions {
        parallel: false,
        sanitize: false,
        validate_output: false,
        ..o.clone()
    };
    let mut ys: Vec<OrdF64> = a
        .contours()
        .iter()
        .chain(b.contours())
        .flat_map(|c| c.points().iter().map(|p| OrdF64::new(p.y)))
        .collect();
    ys.sort_unstable();
    ys.dedup();

    if ys.len() < 2 || n_slabs <= 1 {
        let one = try_clip_with_stats(&a, &b, op, &seq).expect("clean clip");
        let mut stats = one.stats;
        stats.input_repairs += repairs;
        stats.completed_slabs = 1;
        stats.total_slabs = 1;
        degradations.extend(one.degradations);
        return Reference {
            output: one.result,
            stats,
            degradations,
            slabs: 1,
        };
    }

    let boundaries = slab_boundaries(&ys, n_slabs);
    let slabs = boundaries.len() - 1;
    let mut stats = ClipStats {
        input_repairs: repairs,
        ..ClipStats::default()
    };
    let mut parts = Vec::with_capacity(slabs);
    for w in boundaries.windows(2) {
        let (sa, sb) = (band_clip(&a, w[0], w[1]), band_clip(&b, w[0], w[1]));
        let one = try_clip_with_stats(&sa, &sb, op, &seq).expect("clean clip");
        stats.absorb(&one.stats);
        degradations.extend(one.degradations);
        parts.push(one.result);
    }
    stats.completed_slabs = slabs;
    stats.total_slabs = slabs;

    let output = merge_slab_outputs(parts.into_iter(), &boundaries[1..slabs], &seq);
    Reference {
        output,
        stats,
        degradations,
        slabs,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn slab_index_is_bit_identical_to_full_scan(
        seed_a in 1u64..u64::MAX,
        seed_b in 1u64..u64::MAX,
    ) {
        let a = gen_set(seed_a, 4);
        let b = gen_set(seed_b, 3);
        for op in [
            BoolOp::Intersection,
            BoolOp::Union,
            BoolOp::Difference,
            BoolOp::Xor,
        ] {
            let opts = ClipOptions::sequential();
            for slabs in [1usize, 3, 4, 8] {
                let full = full_scan(&a, &b, op, slabs, &opts);
                let ix = clip_pair_slabs(&a, &b, op, slabs, &opts);
                let ctx = format!("op {op:?} slabs {slabs}");
                prop_assert_eq!(&full.output, &ix.output, "output: {}", ctx);
                prop_assert_eq!(full.stats, ix.stats, "stats: {}", ctx);
                prop_assert_eq!(
                    &full.degradations,
                    &ix.degradations,
                    "degradations: {}",
                    ctx
                );
                prop_assert_eq!(full.slabs, ix.slabs, "slab count: {}", ctx);
            }
        }
    }

    /// A refining config without a split budget (`max_cells: 0`) plans
    /// exactly the base slabs but runs them on the stealing pool, min(p,
    /// available parallelism) workers wide instead of on the calling
    /// thread: work-stealing execution notwithstanding, the output, stats
    /// and degradations are bit-identical to the default plan under every
    /// op and slab count.
    #[test]
    fn matched_adaptive_grid_is_bit_identical_to_slab_index(
        seed_a in 1u64..u64::MAX,
        seed_b in 1u64..u64::MAX,
    ) {
        let a = gen_set(seed_a, 4);
        let b = gen_set(seed_b, 3);
        let pooled = GridConfig { oversub: 1, max_cells: 0, ..GridConfig::default() };
        for op in [
            BoolOp::Intersection,
            BoolOp::Union,
            BoolOp::Difference,
            BoolOp::Xor,
        ] {
            let plain = ClipOptions::sequential();
            let threaded = ClipOptions { grid: pooled, ..plain.clone() };
            for slabs in [1usize, 3, 4, 8] {
                let ix = clip_pair_slabs(&a, &b, op, slabs, &plain);
                let grid = clip_pair_slabs(&a, &b, op, slabs, &threaded);
                let ctx = format!("op {op:?} slabs {slabs}");
                prop_assert_eq!(&grid.output, &ix.output, "output: {}", ctx);
                prop_assert_eq!(grid.stats, ix.stats, "stats: {}", ctx);
                prop_assert_eq!(
                    &grid.degradations,
                    &ix.degradations,
                    "degradations: {}",
                    ctx
                );
                prop_assert_eq!(grid.slabs, ix.slabs, "slab count: {}", ctx);
            }
        }
    }

    /// Under a refining grid config the cell decomposition is finer than
    /// the slabs, so bit-identity to the reference is not promised — but
    /// the plan must still be deterministic (same plan, same pool output
    /// regardless of steal order) and agree with the default plan on the
    /// measured region.
    #[test]
    fn refined_adaptive_grid_is_deterministic_and_area_exact(
        seed_a in 1u64..u64::MAX,
        seed_b in 1u64..u64::MAX,
    ) {
        let a = gen_set(seed_a, 4);
        let b = gen_set(seed_b, 3);
        let plain = ClipOptions::sequential();
        let refined = ClipOptions {
            grid: GridConfig { oversub: 4, ..GridConfig::default() },
            ..ClipOptions::sequential()
        };
        for op in [BoolOp::Intersection, BoolOp::Union, BoolOp::Xor] {
            for slabs in [1usize, 4] {
                let g1 = clip_pair_slabs(&a, &b, op, slabs, &refined);
                let g2 = clip_pair_slabs(&a, &b, op, slabs, &refined);
                let ix = clip_pair_slabs(&a, &b, op, slabs, &plain);
                let ctx = format!("op {op:?} slabs {slabs}");
                prop_assert_eq!(&g1.output, &g2.output, "determinism: {}", ctx);
                let (ga, ia) = (
                    polyclip_core::eo_area(&g1.output),
                    polyclip_core::eo_area(&ix.output),
                );
                prop_assert!(
                    (ga - ia).abs() <= 1e-9 * ia.abs().max(1.0),
                    "area: {} grid {} slab {}", ctx, ga, ia
                );
            }
        }
    }
}
