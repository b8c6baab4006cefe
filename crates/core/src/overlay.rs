//! Layer overlay — clipping two *sets* of polygons (Section IV, last part).
//!
//! GIS workloads clip whole layers against each other (the paper's
//! real-world experiments: urban areas × state boundaries, two telecom GML
//! layers). The paper's approach: build the event list from the polygons'
//! MBR y-coordinates, partition it into `p` slabs with equal event counts,
//! assign polygons to slabs by MBR overlap — **replicating** polygons that
//! span several slabs, then eliminating redundant outputs — and run one
//! sequential plane-sweep clipper per slab.
//!
//! Two assignment strategies are provided:
//!
//! * [`SlabAssignment::Replicate`] — the paper's scheme: a candidate pair is
//!   processed in *every* slab its y-overlap touches, producing duplicate
//!   outputs that are removed in a post-pass;
//! * [`SlabAssignment::UniqueOwner`] — each pair is owned by exactly the
//!   slab containing `max(ymin_a, ymin_b)` (the bottom of its y-overlap), so
//!   no duplicates exist by construction. This is our documented
//!   improvement; the `ablation_slab_assignment` bench quantifies the
//!   redundant work the replication scheme performs.
//!
//! Intersection and erase share one driver, which is Algorithm 2's slab
//! pattern applied to features: each op supplies only its task list and
//! its per-task engine call. Every slab clips its tasks in order under
//! Algorithm 2's recovery ladder, and the run reports its timings as a
//! [`PhaseTimes`]. A task clips whole features, so
//! it keeps the caller's [`ClipOptions::sanitize`] and
//! [`ClipOptions::validate_output`] (Algorithm 2 turns both off inside its
//! band-clipped cells to protect their seam vertices). The layer union is
//! Algorithm 2 itself, run on the merged layers.

use crate::algo2::{
    run_slab_ladder, slab_boundaries, try_clip_pair_slabs, Algo2Result, PhaseTimes, SlabGates,
};
use crate::budget::{self, Gate};
use crate::classify::BoolOp;
use crate::engine::{try_clip_with_stats_gated, ClipOptions};
use crate::resilience::{ClipError, ClipOutcome, Degradation, InputRole};
use polyclip_geom::{BBox, FillRule, OrdF64, PolygonSet};
use rayon::prelude::*;
use std::time::{Duration, Instant};

/// A GIS layer: a collection of features, each a polygon set (so features
/// may carry holes or multiple rings).
#[derive(Clone, Debug, Default)]
pub struct Layer {
    /// The features of the layer.
    pub features: Vec<PolygonSet>,
}

impl Layer {
    /// Build a layer from features, dropping empty ones.
    pub fn new(features: Vec<PolygonSet>) -> Self {
        Layer {
            features: features.into_iter().filter(|f| !f.is_empty()).collect(),
        }
    }

    /// Number of features ("Polys" in the paper's Table III).
    pub fn len(&self) -> usize {
        self.features.len()
    }

    /// True if the layer has no features.
    pub fn is_empty(&self) -> bool {
        self.features.is_empty()
    }

    /// Total edge count ("Edges" in Table III).
    pub fn edge_count(&self) -> usize {
        self.features.iter().map(|f| f.edge_count()).sum()
    }

    /// Bounding box of the layer.
    pub fn bbox(&self) -> BBox {
        self.features
            .iter()
            .fold(BBox::EMPTY, |b, f| b.union(&f.bbox()))
    }

    /// All features merged into one polygon set (for whole-layer booleans).
    pub fn merged(&self) -> PolygonSet {
        let mut out = PolygonSet::new();
        for f in &self.features {
            out.extend(f.clone());
        }
        out
    }
}

/// How candidate pairs are assigned to slabs.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum SlabAssignment {
    /// The paper's replication scheme (duplicates removed afterwards).
    Replicate,
    /// Each pair owned by the slab containing the bottom of its y-overlap.
    #[default]
    UniqueOwner,
}

/// Result of a layer overlay.
#[derive(Clone, Debug, Default)]
pub struct OverlayResult {
    /// Non-empty per-task outputs, in slab order.
    pub features: Vec<PolygonSet>,
    /// MBR-overlapping candidate pairs examined.
    pub candidate_pairs: usize,
    /// Tasks executed, every replica counted: one per candidate pair (∩)
    /// or per non-empty `a` feature (−), more under
    /// [`SlabAssignment::Replicate`].
    pub tasks_executed: usize,
    /// Phase timers of the shared slab driver: candidate pairs, slab cut
    /// and task assignment in `index`; each slab's clip time in
    /// `per_slab_clip` (the Figure 11 load profile), with a zero
    /// `per_slab_partition` entry per slab; failed ladder attempts in
    /// `retry_total`; the run's work meter in `work`; the wall clock in
    /// `total`.
    pub times: PhaseTimes,
    /// Degradations absorbed across all slab workers, in slab order.
    pub degradations: Vec<Degradation>,
}

/// Reject layers carrying non-finite coordinates before their MBR events
/// enter any ordered structure. `contour`/`vertex` index into the first
/// offending feature.
fn gate_layer(layer: &Layer, role: InputRole) -> Result<(), ClipError> {
    for f in &layer.features {
        if let Some((contour, vertex)) = f.first_non_finite() {
            return Err(ClipError::NonFiniteInput {
                role,
                contour,
                vertex,
            });
        }
    }
    Ok(())
}

/// One overlay op's slab work: the MBR event y's its slabs are cut from
/// (unsorted, duplicates allowed) and its tasks, each with the y-range
/// `(lo, hi)` that assigns it to slabs.
type OverlayPlan<T> = (Vec<OrdF64>, Vec<(T, f64, f64)>);

/// The one driver behind the ∩ and − overlays — Algorithm 2's slab pattern
/// applied to features. It arms one gate for the whole overlay (every task
/// on every slab shares it, so the deadline spans the operation, not a
/// single clip), rejects non-finite layers, asks `plan` for the op's events
/// and tasks given both layers' MBRs and candidate pairs, cuts the events
/// into equal-count slabs and assigns each task to the slab holding `lo`
/// ([`SlabAssignment::UniqueOwner`]) or to every slab `[lo, hi]` touches
/// ([`SlabAssignment::Replicate`]). Each slab then clips its tasks in order
/// with `clip`, under Algorithm 2's recovery ladder. Without a watchdog the slab's first attempt runs on the global
/// gate itself, so any error from it propagates.
fn drive_overlay<T: Sync>(
    a: &Layer,
    b: &Layer,
    n_slabs: usize,
    assignment: SlabAssignment,
    opts: &ClipOptions,
    plan: impl FnOnce(&[BBox], &[BBox], &[(u32, u32)]) -> OverlayPlan<T>,
    clip: impl Fn(&T, &ClipOptions, &Gate) -> Result<ClipOutcome, ClipError> + Sync,
) -> Result<OverlayResult, ClipError> {
    let t_start = Instant::now();
    let gate = opts.budget.arm();
    let recovery = opts.budget.cancel_only().arm();
    budget::check(&gate)?;
    gate_layer(a, InputRole::Subject)?;
    gate_layer(b, InputRole::Clip)?;
    // Workers clip whole features, so unlike Algorithm 2's band-clipped
    // cells each task keeps the caller's sanitize and output-validation
    // settings. The armed gate comes by reference; only the cancel token
    // rides in the options.
    let seq = ClipOptions {
        parallel: false,
        budget: opts.budget.cancel_only(),
        ..opts.clone()
    };

    let t_plan = Instant::now();
    let boxes_a: Vec<BBox> = a.features.iter().map(|f| f.bbox()).collect();
    let boxes_b: Vec<BBox> = b.features.iter().map(|f| f.bbox()).collect();
    let pairs = candidate_pairs(&boxes_a, &boxes_b);
    let (mut ys, tasks) = plan(&boxes_a, &boxes_b, &pairs);
    ys.par_sort_unstable();
    ys.dedup();
    budget::check(&gate)?;
    let boundaries = if ys.len() >= 2 {
        slab_boundaries(&ys, n_slabs.max(1))
    } else {
        vec![f64::NEG_INFINITY, f64::INFINITY]
    };
    let mut slabs: Vec<Vec<u32>> = vec![Vec::new(); boundaries.len() - 1];
    for (t, &(_, lo, hi)) in tasks.iter().enumerate() {
        match assignment {
            SlabAssignment::UniqueOwner => slabs[slab_of(&boundaries, lo)].push(t as u32),
            SlabAssignment::Replicate => {
                for (s, list) in slabs.iter_mut().enumerate() {
                    if boundaries[s] <= hi && lo <= boundaries[s + 1] {
                        list.push(t as u32);
                    }
                }
            }
        }
    }
    let t_index = t_plan.elapsed();
    let tasks_executed = slabs.iter().map(Vec::len).sum();

    let gates = SlabGates {
        attempt: &gate,
        global: &gate,
        recovery: &recovery,
    };
    let runs = slabs
        .par_iter()
        .enumerate()
        .map(|(slab, list)| {
            run_slab_ladder(slab, &seq, &gates, |o, g| {
                let t0 = Instant::now();
                let mut outs: Vec<(u32, PolygonSet)> = Vec::with_capacity(list.len());
                let mut degradations = Vec::new();
                for &t in list {
                    // Coarse per-task checkpoint between engine calls.
                    budget::check(g)?;
                    let outcome = clip(&tasks[t as usize].0, o, g)?;
                    degradations.extend(outcome.degradations);
                    if !outcome.result.is_empty() {
                        outs.push((t, outcome.result));
                    }
                }
                Ok((outs, degradations, t0.elapsed()))
            })
        })
        .collect::<Result<Vec<_>, ClipError>>()?;

    // Collect in slab order, keeping each task's first output: replicated
    // tasks are the paper's "redundant output polygons … eliminated as a
    // post-processing step".
    let mut kept = vec![false; tasks.len()];
    let mut features = Vec::new();
    let mut degradations = Vec::new();
    let mut per_slab_clip = Vec::with_capacity(runs.len());
    let mut retry_total = Duration::ZERO;
    for run in runs {
        let (outs, slab_degradations, t_clip) = run.out;
        per_slab_clip.push(t_clip);
        retry_total += run.t_retry;
        degradations.extend(slab_degradations);
        degradations.extend(run.recovery);
        for (t, out) in outs {
            if !std::mem::replace(&mut kept[t as usize], true) {
                features.push(out);
            }
        }
    }
    Ok(OverlayResult {
        features,
        candidate_pairs: pairs.len(),
        tasks_executed,
        times: PhaseTimes {
            index: t_index,
            per_slab_partition: vec![Duration::ZERO; per_slab_clip.len()],
            per_slab_clip,
            retry_total,
            total: t_start.elapsed(),
            work: gate.meter().snapshot(),
            ..PhaseTimes::default()
        },
        degradations,
    })
}

/// Intersect two layers: pairwise intersection of MBR-overlapping features,
/// distributed over `n_slabs` slab workers.
///
/// Lenient wrapper over [`try_overlay_intersection`]: errors yield an
/// empty result.
pub fn overlay_intersection(
    a: &Layer,
    b: &Layer,
    n_slabs: usize,
    assignment: SlabAssignment,
    opts: &ClipOptions,
) -> OverlayResult {
    try_overlay_intersection(a, b, n_slabs, assignment, opts).unwrap_or_default()
}

/// Fallible layer intersection: one task per candidate pair, spanning the
/// y-overlap of its two MBRs, over slabs cut from both layers' MBR y-extents
/// (the paper's event list). Every slab runs under the recovery ladder of
/// [`try_clip_pair_slabs`].
pub fn try_overlay_intersection(
    a: &Layer,
    b: &Layer,
    n_slabs: usize,
    assignment: SlabAssignment,
    opts: &ClipOptions,
) -> Result<OverlayResult, ClipError> {
    drive_overlay(
        a,
        b,
        n_slabs,
        assignment,
        opts,
        |boxes_a, boxes_b, pairs| {
            let events = boxes_a
                .iter()
                .chain(boxes_b)
                .flat_map(|bb| [OrdF64::new(bb.ymin), OrdF64::new(bb.ymax)])
                .collect();
            let tasks = pairs
                .iter()
                .map(|&(i, j)| {
                    let (ba, bb) = (&boxes_a[i as usize], &boxes_b[j as usize]);
                    ((i, j), ba.ymin.max(bb.ymin), ba.ymax.min(bb.ymax))
                })
                .collect();
            (events, tasks)
        },
        |&(i, j), o, g| {
            let (fa, fb) = (&a.features[i as usize], &b.features[j as usize]);
            try_clip_with_stats_gated(fa, fb, BoolOp::Intersection, o, g)
        },
    )
}

/// Union of two layers: whole-layer boolean via the slab-partitioned
/// Algorithm 2.
///
/// Features are concatenated and evaluated under the **nonzero** fill rule,
/// so sibling features that overlap *within* a layer still merge (under
/// even-odd parity an overlap of two same-layer features would read as a
/// hole). Features must be consistently oriented (outer rings CCW, holes
/// CW), which every generator and engine output in this workspace is.
pub fn overlay_union(a: &Layer, b: &Layer, n_slabs: usize, opts: &ClipOptions) -> Algo2Result {
    try_overlay_union(a, b, n_slabs, opts).unwrap_or_default()
}

/// Fallible layer union; see [`overlay_union`]. Slab workers inherit
/// Algorithm 2's panic isolation via [`try_clip_pair_slabs`].
pub fn try_overlay_union(
    a: &Layer,
    b: &Layer,
    n_slabs: usize,
    opts: &ClipOptions,
) -> Result<Algo2Result, ClipError> {
    let ma = a.merged();
    let mb = b.merged();
    if ma.is_empty() && mb.is_empty() {
        return Ok(Algo2Result::default());
    }
    // The budget (deadline and all) rides along untouched: Algorithm 2
    // arms it at its own entry, which is the public boundary here.
    let opts = ClipOptions {
        fill_rule: FillRule::NonZero,
        ..opts.clone()
    };
    try_clip_pair_slabs(&ma, &mb, BoolOp::Union, n_slabs, &opts)
}

/// Erase overlay: each feature of `a` minus the union of its overlapping
/// `b` features (the GIS "erase" operation). Pair discovery and slab
/// distribution follow [`overlay_intersection`].
pub fn overlay_difference(
    a: &Layer,
    b: &Layer,
    n_slabs: usize,
    opts: &ClipOptions,
) -> OverlayResult {
    try_overlay_difference(a, b, n_slabs, opts).unwrap_or_default()
}

/// Fallible erase overlay; see [`overlay_difference`]. One task per
/// non-empty `a` feature with its partner list, owned by the slab holding
/// its MBR bottom, over slabs cut from the `a` features' MBR bottoms. Slab
/// workers run under the same recovery ladder as
/// [`try_overlay_intersection`].
pub fn try_overlay_difference(
    a: &Layer,
    b: &Layer,
    n_slabs: usize,
    opts: &ClipOptions,
) -> Result<OverlayResult, ClipError> {
    // The mask is the concatenation of a feature's partners, read under the
    // nonzero rule so overlapping partners do not cancel.
    let nonzero = ClipOptions {
        fill_rule: FillRule::NonZero,
        ..opts.clone()
    };
    drive_overlay(
        a,
        b,
        n_slabs,
        SlabAssignment::UniqueOwner,
        &nonzero,
        |boxes_a, _, pairs| {
            let mut partners: Vec<Vec<u32>> = vec![Vec::new(); boxes_a.len()];
            for &(i, j) in pairs {
                partners[i as usize].push(j);
            }
            let mut events = Vec::new();
            let mut tasks = Vec::new();
            for ((i, bb), partners) in boxes_a.iter().enumerate().zip(partners) {
                if !bb.is_empty() {
                    events.push(OrdF64::new(bb.ymin));
                    tasks.push(((i as u32, partners), bb.ymin, bb.ymin));
                }
            }
            (events, tasks)
        },
        |(i, partners), o, g| {
            let fa = &a.features[*i as usize];
            if partners.is_empty() {
                return Ok(ClipOutcome {
                    result: fa.clone(),
                    ..ClipOutcome::default()
                });
            }
            let mut mask = PolygonSet::new();
            for &j in partners {
                mask.extend(b.features[j as usize].clone());
            }
            try_clip_with_stats_gated(fa, &mask, BoolOp::Difference, o, g)
        },
    )
}

/// MBR-overlapping (a, b) feature pairs via a bottom-up interval sweep.
pub fn candidate_pairs(boxes_a: &[BBox], boxes_b: &[BBox]) -> Vec<(u32, u32)> {
    #[derive(Clone, Copy)]
    struct Item {
        ymin: f64,
        idx: u32,
        from_a: bool,
    }
    let mut items: Vec<Item> = Vec::with_capacity(boxes_a.len() + boxes_b.len());
    for (i, bb) in boxes_a.iter().enumerate() {
        if !bb.is_empty() {
            items.push(Item {
                ymin: bb.ymin,
                idx: i as u32,
                from_a: true,
            });
        }
    }
    for (j, bb) in boxes_b.iter().enumerate() {
        if !bb.is_empty() {
            items.push(Item {
                ymin: bb.ymin,
                idx: j as u32,
                from_a: false,
            });
        }
    }
    items.sort_unstable_by_key(|it| OrdF64::new(it.ymin));

    let mut active_a: Vec<u32> = Vec::new();
    let mut active_b: Vec<u32> = Vec::new();
    let mut out = Vec::new();
    for it in items {
        // Expire boxes that end below the incoming box.
        active_a.retain(|&i| boxes_a[i as usize].ymax >= it.ymin);
        active_b.retain(|&j| boxes_b[j as usize].ymax >= it.ymin);
        if it.from_a {
            let ba = &boxes_a[it.idx as usize];
            for &j in &active_b {
                let bb = &boxes_b[j as usize];
                if ba.xmin <= bb.xmax && bb.xmin <= ba.xmax {
                    out.push((it.idx, j));
                }
            }
            active_a.push(it.idx);
        } else {
            let bb = &boxes_b[it.idx as usize];
            for &i in &active_a {
                let ba = &boxes_a[i as usize];
                if ba.xmin <= bb.xmax && bb.xmin <= ba.xmax {
                    out.push((i, it.idx));
                }
            }
            active_b.push(it.idx);
        }
    }
    out
}

/// Slab index containing `y` (clamped to valid slabs).
fn slab_of(boundaries: &[f64], y: f64) -> usize {
    let n = boundaries.len() - 1;
    boundaries[1..n].partition_point(|&b| b <= y).min(n - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{clip, eo_area};
    use polyclip_geom::contour::rect;

    fn grid_layer(nx: usize, ny: usize, cell: f64, size: f64, off: f64) -> Layer {
        let mut features = Vec::new();
        for i in 0..nx {
            for j in 0..ny {
                let x = off + i as f64 * cell;
                let y = off + j as f64 * cell;
                features.push(PolygonSet::from_contour(rect(x, y, x + size, y + size)));
            }
        }
        Layer::new(features)
    }

    #[test]
    fn candidate_pairs_match_bruteforce() {
        let a = grid_layer(4, 4, 1.0, 0.8, 0.0);
        let b = grid_layer(4, 4, 1.0, 0.8, 0.5);
        let boxes_a: Vec<BBox> = a.features.iter().map(|f| f.bbox()).collect();
        let boxes_b: Vec<BBox> = b.features.iter().map(|f| f.bbox()).collect();
        let mut got = candidate_pairs(&boxes_a, &boxes_b);
        got.sort_unstable();
        let mut want = Vec::new();
        for (i, ba) in boxes_a.iter().enumerate() {
            for (j, bb) in boxes_b.iter().enumerate() {
                if ba.intersects(bb) {
                    want.push((i as u32, j as u32));
                }
            }
        }
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn intersection_area_matches_for_both_assignments() {
        let a = grid_layer(5, 5, 1.0, 0.9, 0.0);
        let b = grid_layer(5, 5, 1.0, 0.9, 0.45);
        let opts = ClipOptions::sequential();
        // Ground truth: whole-layer intersection via the engine.
        let truth = eo_area(&clip(&a.merged(), &b.merged(), BoolOp::Intersection, &opts));
        for assignment in [SlabAssignment::UniqueOwner, SlabAssignment::Replicate] {
            for slabs in [1usize, 2, 4] {
                let r = overlay_intersection(&a, &b, slabs, assignment, &opts);
                let area: f64 = r.features.iter().map(eo_area).sum();
                assert!(
                    (area - truth).abs() < 1e-9,
                    "{assignment:?} slabs={slabs}: {area} vs {truth}"
                );
            }
        }
    }

    #[test]
    fn replication_executes_more_tasks_but_same_output() {
        // Tall features spanning many slabs force replication overhead.
        // Offsetting layer B vertically creates distinct MBR events so the
        // slab partition actually produces several slabs.
        let mut feats = Vec::new();
        for i in 0..6 {
            let x = i as f64 * 2.0;
            feats.push(PolygonSet::from_contour(rect(x, 0.0, x + 1.5, 20.0)));
        }
        let a = Layer::new(feats.clone());
        let b = Layer::new(
            feats
                .iter()
                .map(|f| f.translate(polyclip_geom::Point::new(0.7, 1.0)))
                .collect(),
        );
        let opts = ClipOptions::sequential();
        let uo = overlay_intersection(&a, &b, 4, SlabAssignment::UniqueOwner, &opts);
        let rp = overlay_intersection(&a, &b, 4, SlabAssignment::Replicate, &opts);
        assert_eq!(uo.candidate_pairs, rp.candidate_pairs);
        assert!(rp.tasks_executed > uo.tasks_executed);
        let area_uo: f64 = uo.features.iter().map(eo_area).sum();
        let area_rp: f64 = rp.features.iter().map(eo_area).sum();
        assert!((area_uo - area_rp).abs() < 1e-9);
        assert_eq!(uo.features.len(), rp.features.len());
    }

    #[test]
    fn union_of_layers_dissolves_overlaps() {
        let a = grid_layer(3, 1, 1.0, 1.2, 0.0); // overlapping horizontally
        let b = Layer::new(vec![]);
        let r = overlay_union(&a, &b, 2, &ClipOptions::sequential());
        // Three 1.2-wide squares at x = 0,1,2 overlapping: union is one
        // contour spanning [0, 3.2] × [0, 1.2].
        assert_eq!(r.output.len(), 1);
        assert!((eo_area(&r.output) - 3.2 * 1.2).abs() < 1e-9);
    }

    #[test]
    fn empty_layers() {
        let e = Layer::default();
        let a = grid_layer(2, 2, 1.0, 0.5, 0.0);
        let r = overlay_intersection(
            &a,
            &e,
            4,
            SlabAssignment::UniqueOwner,
            &ClipOptions::sequential(),
        );
        assert!(r.features.is_empty());
        assert_eq!(r.candidate_pairs, 0);
        let u = overlay_union(&e, &e, 4, &ClipOptions::sequential());
        assert!(u.output.is_empty());
    }

    #[test]
    fn layer_statistics() {
        let a = grid_layer(3, 2, 1.0, 0.5, 0.0);
        assert_eq!(a.len(), 6);
        assert_eq!(a.edge_count(), 24);
        assert!(!a.is_empty());
        let bb = a.bbox();
        assert_eq!((bb.xmin, bb.ymin), (0.0, 0.0));
    }

    #[test]
    fn difference_erases_overlaps() {
        // a: row of squares plus one square above them; b: one band
        // overlapping the middle of each square in the row, and one block
        // covering the square above whole.
        let mut a = grid_layer(4, 1, 2.0, 1.0, 0.0);
        a.features
            .push(PolygonSet::from_contour(rect(0.0, 3.0, 1.0, 4.0)));
        let b = Layer::new(vec![
            PolygonSet::from_contour(rect(-1.0, 0.25, 9.0, 0.75)),
            PolygonSet::from_contour(rect(-1.0, 2.5, 2.0, 4.5)),
        ]);
        let opts = ClipOptions::sequential();
        for p in [1usize, 2, 4] {
            let r = overlay_difference(&a, &b, p, &opts);
            // Each square in the row loses a 1 × 0.5 stripe; the covered
            // square is erased but still ran its task.
            let area: f64 = r.features.iter().map(eo_area).sum();
            assert!((area - 4.0 * 0.5).abs() < 1e-9, "p {p}: area = {area}");
            assert_eq!(r.features.len(), 4, "p {p}");
            assert_eq!(r.tasks_executed, 5, "p {p}");
        }
        // Features with no partners pass through untouched.
        let far = Layer::new(vec![PolygonSet::from_contour(rect(100.0, 0.0, 101.0, 1.0))]);
        let r2 = overlay_difference(&far, &b, 2, &opts);
        assert_eq!(r2.features.len(), 1);
        assert!((eo_area(&r2.features[0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn difference_with_multiple_overlapping_masks() {
        // Two b features overlapping each other over one a feature: the
        // nonzero-union mask must not double-cancel.
        let a = Layer::new(vec![PolygonSet::from_contour(rect(0.0, 0.0, 4.0, 4.0))]);
        let b = Layer::new(vec![
            PolygonSet::from_contour(rect(1.0, 1.0, 3.0, 3.0)),
            PolygonSet::from_contour(rect(2.0, 2.0, 3.5, 3.5)),
        ]);
        let r = overlay_difference(&a, &b, 1, &ClipOptions::sequential());
        let area: f64 = r.features.iter().map(eo_area).sum();
        // mask area = 4 + 2.25 − overlap 1 = 5.25 → 16 − 5.25 = 10.75.
        assert!((area - 10.75).abs() < 1e-9, "area = {area}");
    }

    #[test]
    fn slab_of_clamps() {
        let b = [0.0, 1.0, 2.0, 3.0];
        assert_eq!(slab_of(&b, -5.0), 0);
        assert_eq!(slab_of(&b, 0.5), 0);
        assert_eq!(slab_of(&b, 1.0), 1);
        assert_eq!(slab_of(&b, 2.5), 2);
        assert_eq!(slab_of(&b, 99.0), 2);
    }
}
