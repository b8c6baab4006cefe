//! Layer-overlay equivalence: the ∩ and − overlays must return exactly
//! what clipping each of their tasks on its own returns, in slab order.
//! The test-side reference [`per_task`] cuts the slabs and assigns the
//! tasks the way the overlay module documents, then runs every assigned
//! task through [`try_clip_with_stats`] — one fresh engine call per task,
//! no slab driver — and keeps a replicated task's first output.

use polyclip_core::algo2::slab_boundaries;
use polyclip_core::overlay::candidate_pairs;
use polyclip_core::{
    try_clip_with_stats, try_overlay_difference, try_overlay_intersection, BoolOp, ClipOptions,
    Degradation, Layer, SlabAssignment,
};
use polyclip_datagen::{generate_layer, table3_spec};
use polyclip_geom::contour::rect;
use polyclip_geom::{BBox, FillRule, OrdF64, PolygonSet};

/// The overlay ops under test.
#[derive(Clone, Copy, Debug)]
enum Op {
    Intersection(SlabAssignment),
    Difference,
}

/// What [`per_task`] reports: the fields of `OverlayResult` that carry no
/// timings.
#[derive(Debug, PartialEq)]
struct Reference {
    features: Vec<PolygonSet>,
    tasks_executed: usize,
    degradations: Vec<Degradation>,
}

/// Equal-event-count slab boundaries over the sorted, deduplicated events;
/// one unbounded slab when fewer than two distinct events exist.
fn cut(events: impl Iterator<Item = f64>, p: usize) -> Vec<f64> {
    let mut ys: Vec<OrdF64> = events.map(OrdF64::new).collect();
    ys.sort_unstable();
    ys.dedup();
    if ys.len() >= 2 {
        slab_boundaries(&ys, p)
    } else {
        vec![f64::NEG_INFINITY, f64::INFINITY]
    }
}

/// The slab holding `y`, clamped to the valid slabs.
fn slab_of(boundaries: &[f64], y: f64) -> usize {
    let n = boundaries.len() - 1;
    boundaries[1..n].partition_point(|&b| b <= y).min(n - 1)
}

/// The reference overlay. ∩ cuts both layers' MBR y-extents and runs one
/// task `a_i ∩ b_j` per candidate pair, owned by the slab holding the
/// bottom of the pair's y-overlap or replicated into every slab the overlap
/// touches; − cuts the `a` features' MBR bottoms and runs one task per
/// `a` feature, owned by the slab holding its bottom: `a_i` minus its
/// partners' concatenation under `NonZero`, or `a_i` itself when it has no
/// partner.
fn per_task(a: &Layer, b: &Layer, op: Op, p: usize, o: &ClipOptions) -> Reference {
    let boxes = |l: &Layer| -> Vec<BBox> { l.features.iter().map(|f| f.bbox()).collect() };
    let (boxes_a, boxes_b) = (boxes(a), boxes(b));
    let pairs = candidate_pairs(&boxes_a, &boxes_b);
    let clip = |s: &PolygonSet, c: &PolygonSet, op: BoolOp, o: &ClipOptions| {
        try_clip_with_stats(s, c, op, o).expect("clean input clips")
    };
    let mut runs = Vec::new();
    match op {
        Op::Intersection(assignment) => {
            let events = boxes_a
                .iter()
                .chain(&boxes_b)
                .flat_map(|bb| [bb.ymin, bb.ymax]);
            let boundaries = cut(events, p);
            let mut slabs: Vec<Vec<usize>> = vec![Vec::new(); boundaries.len() - 1];
            for (t, &(i, j)) in pairs.iter().enumerate() {
                let (ba, bb) = (&boxes_a[i as usize], &boxes_b[j as usize]);
                let (lo, hi) = (ba.ymin.max(bb.ymin), ba.ymax.min(bb.ymax));
                match assignment {
                    SlabAssignment::UniqueOwner => slabs[slab_of(&boundaries, lo)].push(t),
                    SlabAssignment::Replicate => {
                        for (s, list) in slabs.iter_mut().enumerate() {
                            if boundaries[s] <= hi && lo <= boundaries[s + 1] {
                                list.push(t);
                            }
                        }
                    }
                }
            }
            for t in slabs.into_iter().flatten() {
                let (i, j) = pairs[t];
                let (fa, fb) = (&a.features[i as usize], &b.features[j as usize]);
                runs.push((t, clip(fa, fb, BoolOp::Intersection, o)));
            }
        }
        Op::Difference => {
            let nonzero = ClipOptions {
                fill_rule: FillRule::NonZero,
                ..o.clone()
            };
            let mut partners: Vec<Vec<u32>> = vec![Vec::new(); a.len()];
            for &(i, j) in &pairs {
                partners[i as usize].push(j);
            }
            let live = || boxes_a.iter().enumerate().filter(|(_, bb)| !bb.is_empty());
            let boundaries = cut(live().map(|(_, bb)| bb.ymin), p);
            let mut slabs: Vec<Vec<usize>> = vec![Vec::new(); boundaries.len() - 1];
            for (i, bb) in live() {
                slabs[slab_of(&boundaries, bb.ymin)].push(i);
            }
            for i in slabs.into_iter().flatten() {
                let fa = &a.features[i];
                let outcome = if partners[i].is_empty() {
                    polyclip_core::ClipOutcome {
                        result: fa.clone(),
                        ..Default::default()
                    }
                } else {
                    let mut mask = PolygonSet::new();
                    for &j in &partners[i] {
                        mask.extend(b.features[j as usize].clone());
                    }
                    clip(fa, &mask, BoolOp::Difference, &nonzero)
                };
                runs.push((i, outcome));
            }
        }
    }
    let tasks_executed = runs.len();
    let mut kept = std::collections::HashSet::new();
    let mut features = Vec::new();
    let mut degradations = Vec::new();
    for (t, outcome) in runs {
        degradations.extend(outcome.degradations);
        if !outcome.result.is_empty() && kept.insert(t) {
            features.push(outcome.result);
        }
    }
    Reference {
        features,
        tasks_executed,
        degradations,
    }
}

fn grid_layer(nx: usize, ny: usize, cell: f64, size: f64, off: f64) -> Layer {
    let mut features = Vec::new();
    for i in 0..nx {
        for j in 0..ny {
            let (x, y) = (off + i as f64 * cell, off + j as f64 * cell);
            features.push(PolygonSet::from_contour(rect(x, y, x + size, y + size)));
        }
    }
    Layer::new(features)
}

/// Tall strips spanning every slab, so `Replicate` really replicates.
fn strip_layer(dx: f64, dy: f64) -> Layer {
    Layer::new(
        (0..6)
            .map(|i| {
                let x = i as f64 * 2.0 + dx;
                PolygonSet::from_contour(rect(x, dy, x + 1.5, 20.0 + dy))
            })
            .collect(),
    )
}

/// The layer pairs under test: two offset grids, the strips, and a small
/// Table III pair (layers 1 and 2).
fn instances() -> Vec<(&'static str, Layer, Layer)> {
    vec![
        (
            "grid",
            grid_layer(5, 5, 1.0, 0.9, 0.0),
            grid_layer(5, 5, 1.0, 0.9, 0.45),
        ),
        ("strips", strip_layer(0.0, 0.0), strip_layer(0.7, 1.0)),
        (
            "table3",
            Layer::new(generate_layer(&table3_spec(1), 0.004, 1)),
            Layer::new(generate_layer(&table3_spec(2), 0.004, 2)),
        ),
    ]
}

#[test]
fn overlay_features_match_per_task_reference() {
    let o = ClipOptions::sequential();
    for (name, a, b) in instances() {
        assert!(!a.is_empty() && !b.is_empty(), "{name}: empty layer");
        for op in [
            Op::Intersection(SlabAssignment::UniqueOwner),
            Op::Intersection(SlabAssignment::Replicate),
            Op::Difference,
        ] {
            for p in [1usize, 2, 4] {
                let r = match op {
                    Op::Intersection(assignment) => {
                        try_overlay_intersection(&a, &b, p, assignment, &o)
                    }
                    Op::Difference => try_overlay_difference(&a, &b, p, &o),
                }
                .unwrap();
                let want = per_task(&a, &b, op, p, &o);
                assert!(!want.features.is_empty(), "{name} {op:?} p={p}: trivial");
                let got = Reference {
                    features: r.features,
                    tasks_executed: r.tasks_executed,
                    degradations: r.degradations,
                };
                assert!(got == want, "{name} {op:?} p={p}: overlay differs");
            }
        }
    }
}
