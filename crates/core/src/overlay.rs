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

use crate::algo2::{slab_boundaries, try_clip_pair_slabs, Algo2Result};
use crate::budget::{self, Gate};
use crate::classify::BoolOp;
use crate::engine::{try_clip_with_stats_gated, ClipOptions};
use crate::resilience::{self, ClipError, Degradation, InputRole};
use polyclip_geom::{BBox, OrdF64, PolygonSet};
use polyclip_parprim::par_sort_dedup_gated;
use rayon::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
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
    /// Non-empty per-pair outputs.
    pub features: Vec<PolygonSet>,
    /// MBR-overlapping candidate pairs examined.
    pub candidate_pairs: usize,
    /// Pair-tasks executed (> `candidate_pairs` under replication).
    pub tasks_executed: usize,
    /// Per-slab clip time (the Figure 11 load profile).
    pub per_slab_clip: Vec<Duration>,
    /// Time spent building candidate pairs and slab assignment.
    pub partition: Duration,
    /// End-to-end wall clock.
    pub total: Duration,
    /// Degradations absorbed across all slab workers, in slab order.
    pub degradations: Vec<Degradation>,
}

impl OverlayResult {
    /// Max/mean per-slab clip-time ratio (1.0 = perfectly balanced).
    pub fn load_imbalance(&self) -> f64 {
        if self.per_slab_clip.is_empty() {
            return 1.0;
        }
        let sum: f64 = self.per_slab_clip.iter().map(Duration::as_secs_f64).sum();
        let avg = sum / self.per_slab_clip.len() as f64;
        if avg == 0.0 {
            return 1.0;
        }
        let max = self
            .per_slab_clip
            .iter()
            .map(Duration::as_secs_f64)
            .fold(0.0f64, f64::max);
        max / avg
    }
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

/// Run one overlay slab worker through the same recovery ladder as
/// Algorithm 2's slabs: attempt, retry, pristine-sequential fallback. The
/// `work` closure receives the engine options to use for that attempt (the
/// fallback strips the fault plan, which is what makes a recovered slab
/// bit-identical to an unfaulted run) and returns the slab's outputs plus
/// any engine degradations it observed.
/// The first attempt runs under the overlay's armed global gate; recovery
/// attempts (retry, pristine) run on the cancel-only `recovery` gate —
/// budget-exempt but interruptible, like Algorithm 2's ladder. Budget trips
/// and cancellation are typed errors and propagate immediately.
fn run_overlay_slab<T>(
    slab: usize,
    seq: &ClipOptions,
    gate: &Gate,
    recovery: &Gate,
    work: impl Fn(&ClipOptions, &Gate) -> Result<(T, Vec<Degradation>), ClipError>,
) -> Result<(T, Vec<Degradation>, Duration), ClipError> {
    let attempt_with = |opts: &ClipOptions, g: &Gate, attempt: u32| {
        catch_unwind(AssertUnwindSafe(|| {
            resilience::maybe_panic_slab(opts, slab, attempt);
            let t0 = Instant::now();
            work(opts, g).map(|(outs, degradations)| (outs, degradations, t0.elapsed()))
        }))
        .map_err(|p| resilience::panic_message(p.as_ref()))
    };

    let mut last_panic = String::new();
    for (attempt, g) in [(0u32, gate), (1u32, recovery)] {
        match attempt_with(seq, g, attempt) {
            Ok(Ok((outs, mut degradations, took))) => {
                if attempt > 0 {
                    degradations.push(Degradation::SlabRetry { slab });
                }
                return Ok((outs, degradations, took));
            }
            Ok(Err(e)) => return Err(e),
            Err(msg) => last_panic = msg,
        }
    }
    match attempt_with(&resilience::pristine(seq), recovery, 2) {
        Ok(Ok((outs, mut degradations, took))) => {
            degradations.push(Degradation::SlabFallback { slab });
            Ok((outs, degradations, took))
        }
        Ok(Err(e)) => Err(e),
        Err(msg) => Err(ClipError::SlabPanic {
            slab,
            message: if msg.is_empty() { last_panic } else { msg },
        }),
    }
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

/// Fallible layer intersection with per-slab panic isolation: each slab
/// worker runs under `catch_unwind` with the retry → pristine-fallback
/// ladder of [`try_clip_pair_slabs`].
pub fn try_overlay_intersection(
    a: &Layer,
    b: &Layer,
    n_slabs: usize,
    assignment: SlabAssignment,
    opts: &ClipOptions,
) -> Result<OverlayResult, ClipError> {
    let t_start = Instant::now();
    // One armed gate for the whole overlay: every pair task on every slab
    // shares it, so the deadline spans the operation, not a single clip.
    let gate = opts.budget.arm();
    let recovery_gate = opts.budget.cancel_only().arm();
    budget::check(&gate)?;
    gate_layer(a, InputRole::Subject)?;
    gate_layer(b, InputRole::Clip)?;
    let seq = ClipOptions {
        parallel: false,
        sanitize: false,
        validate_output: false,
        budget: opts.budget.cancel_only(),
        ..opts.clone()
    };

    let t_part = Instant::now();
    let boxes_a: Vec<BBox> = a.features.iter().map(|f| f.bbox()).collect();
    let boxes_b: Vec<BBox> = b.features.iter().map(|f| f.bbox()).collect();
    let pairs = candidate_pairs(&boxes_a, &boxes_b);

    // Slab boundaries from the MBR event y's (the paper's event list),
    // sorted and deduplicated in parallel above the parprim cutoff.
    let ys: Vec<OrdF64> = par_sort_dedup_gated(
        boxes_a
            .iter()
            .chain(&boxes_b)
            .flat_map(|bb| [OrdF64::new(bb.ymin), OrdF64::new(bb.ymax)])
            .collect(),
        Some(&gate),
    );
    budget::check(&gate)?;
    let n_slabs = n_slabs.max(1);
    let boundaries = if ys.len() >= 2 {
        slab_boundaries(&ys, n_slabs)
    } else {
        vec![f64::NEG_INFINITY, f64::INFINITY]
    };
    let slabs = boundaries.len() - 1;

    // Assign pair tasks to slabs.
    let mut tasks: Vec<Vec<(u32, u32)>> = vec![Vec::new(); slabs];
    for &(i, j) in &pairs {
        let (ba, bb) = (&boxes_a[i as usize], &boxes_b[j as usize]);
        let lo = ba.ymin.max(bb.ymin);
        let hi = ba.ymax.min(bb.ymax);
        match assignment {
            SlabAssignment::UniqueOwner => {
                tasks[slab_of(&boundaries, lo)].push((i, j));
            }
            SlabAssignment::Replicate => {
                for (s, t) in tasks.iter_mut().enumerate() {
                    if boundaries[s] <= hi && lo <= boundaries[s + 1] {
                        t.push((i, j));
                    }
                }
            }
        }
    }
    let partition = t_part.elapsed();
    let tasks_executed: usize = tasks.iter().map(Vec::len).sum();

    // Clip each slab's pair list sequentially; slabs in parallel, each
    // under the recovery ladder.
    type SlabOutput = (Vec<((u32, u32), PolygonSet)>, Vec<Degradation>, Duration);
    let slab_results: Vec<Result<SlabOutput, ClipError>> = tasks
        .par_iter()
        .enumerate()
        .map(|(slab, list)| {
            run_overlay_slab(slab, &seq, &gate, &recovery_gate, |engine_opts, g| {
                let mut degradations = Vec::new();
                let mut outs: Vec<((u32, u32), PolygonSet)> = Vec::with_capacity(list.len());
                for &(i, j) in list {
                    // Coarse per-pair checkpoint between engine calls.
                    budget::check(g)?;
                    let outcome = try_clip_with_stats_gated(
                        &a.features[i as usize],
                        &b.features[j as usize],
                        BoolOp::Intersection,
                        engine_opts,
                        g,
                    )?;
                    degradations.extend(outcome.degradations);
                    if !outcome.result.is_empty() {
                        outs.push(((i, j), outcome.result));
                    }
                }
                Ok((outs, degradations))
            })
        })
        .collect();

    // Collect, removing replicated duplicates (same pair id) — the paper's
    // "redundant output polygons … eliminated as a post-processing step".
    let mut per_slab_clip: Vec<Duration> = Vec::with_capacity(slab_results.len());
    let mut degradations: Vec<Degradation> = Vec::new();
    let mut seen: std::collections::HashSet<(u32, u32)> = std::collections::HashSet::new();
    let mut features = Vec::new();
    for r in slab_results {
        let (outs, slab_degradations, took) = r?;
        per_slab_clip.push(took);
        degradations.extend(slab_degradations);
        for (pair, out) in outs {
            if seen.insert(pair) {
                features.push(out);
            }
        }
    }

    Ok(OverlayResult {
        features,
        candidate_pairs: pairs.len(),
        tasks_executed,
        per_slab_clip,
        partition,
        total: t_start.elapsed(),
        degradations,
    })
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
        fill_rule: polyclip_geom::FillRule::NonZero,
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

/// Fallible erase overlay; see [`overlay_difference`]. Slab workers run
/// under the same recovery ladder as [`try_overlay_intersection`].
pub fn try_overlay_difference(
    a: &Layer,
    b: &Layer,
    n_slabs: usize,
    opts: &ClipOptions,
) -> Result<OverlayResult, ClipError> {
    let t_start = Instant::now();
    let gate = opts.budget.arm();
    let recovery_gate = opts.budget.cancel_only().arm();
    budget::check(&gate)?;
    gate_layer(a, InputRole::Subject)?;
    gate_layer(b, InputRole::Clip)?;
    let seq = ClipOptions {
        parallel: false,
        sanitize: false,
        validate_output: false,
        budget: opts.budget.cancel_only(),
        ..opts.clone()
    };
    let t_part = Instant::now();
    let boxes_a: Vec<BBox> = a.features.iter().map(|f| f.bbox()).collect();
    let boxes_b: Vec<BBox> = b.features.iter().map(|f| f.bbox()).collect();
    let pairs = candidate_pairs(&boxes_a, &boxes_b);

    // Group the b-partners of every a feature.
    let mut partners: Vec<Vec<u32>> = vec![Vec::new(); a.features.len()];
    for &(i, j) in &pairs {
        partners[i as usize].push(j);
    }

    // One task per a-feature, owned by the slab containing its MBR bottom.
    let ys: Vec<OrdF64> = par_sort_dedup_gated(
        boxes_a
            .iter()
            .filter(|bb| !bb.is_empty())
            .map(|bb| OrdF64::new(bb.ymin))
            .collect(),
        Some(&gate),
    );
    budget::check(&gate)?;
    let boundaries = if ys.len() >= 2 {
        slab_boundaries(&ys, n_slabs.max(1))
    } else {
        vec![f64::NEG_INFINITY, f64::INFINITY]
    };
    let slabs = boundaries.len() - 1;
    let mut tasks: Vec<Vec<u32>> = vec![Vec::new(); slabs];
    for (i, bb) in boxes_a.iter().enumerate() {
        if !bb.is_empty() {
            tasks[slab_of(&boundaries, bb.ymin)].push(i as u32);
        }
    }
    let partition = t_part.elapsed();
    let tasks_executed: usize = tasks.iter().map(Vec::len).sum();

    type SlabOutput = (Vec<PolygonSet>, Vec<Degradation>, Duration);
    let slab_results: Vec<Result<SlabOutput, ClipError>> = tasks
        .par_iter()
        .enumerate()
        .map(|(slab, list)| {
            run_overlay_slab(slab, &seq, &gate, &recovery_gate, |engine_opts, g| {
                let mut degradations = Vec::new();
                let mut outs: Vec<PolygonSet> = Vec::with_capacity(list.len());
                for &i in list {
                    budget::check(g)?;
                    let fa = &a.features[i as usize];
                    if partners[i as usize].is_empty() {
                        outs.push(fa.clone());
                        continue;
                    }
                    // Subtract the union of overlapping b features.
                    let mut mask = PolygonSet::new();
                    for &j in &partners[i as usize] {
                        mask.extend(b.features[j as usize].clone());
                    }
                    let nz = ClipOptions {
                        fill_rule: polyclip_geom::FillRule::NonZero,
                        sanitize: false,
                        validate_output: false,
                        ..engine_opts.clone()
                    };
                    let outcome = try_clip_with_stats_gated(fa, &mask, BoolOp::Difference, &nz, g)?;
                    degradations.extend(outcome.degradations);
                    if !outcome.result.is_empty() {
                        outs.push(outcome.result);
                    }
                }
                Ok((outs, degradations))
            })
        })
        .collect();

    let mut per_slab_clip: Vec<Duration> = Vec::with_capacity(slab_results.len());
    let mut degradations: Vec<Degradation> = Vec::new();
    let mut features: Vec<PolygonSet> = Vec::new();
    for r in slab_results {
        let (outs, slab_degradations, took) = r?;
        per_slab_clip.push(took);
        degradations.extend(slab_degradations);
        features.extend(outs);
    }
    Ok(OverlayResult {
        tasks_executed,
        candidate_pairs: pairs.len(),
        features,
        per_slab_clip,
        partition,
        total: t_start.elapsed(),
        degradations,
    })
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
