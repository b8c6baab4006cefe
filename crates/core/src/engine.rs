//! The scanbeam boolean engine — Algorithm 1 of the paper.
//!
//! The pipeline matches the paper's steps exactly:
//!
//! 1. **Step 1** — sort the event y's (endpoint schedule);
//! 2. **Step 2** — partition the edges into scanbeams (virtual vertices k');
//! 3. **Lemma 4** — discover the k intersections by per-beam inversion
//!    reporting, then rebuild the scanbeams with the intersection events so
//!    every beam becomes crossing-free (the two beam builds are the paper's
//!    "additional processors are requested a constant number of times");
//! 4. **Step 3** — classify every scanbeam independently (Lemmas 1–3),
//!    emitting boundary fragments and kept intervals;
//! 5. **Step 4** — merge partial polygons: horizontal interval symmetric
//!    differences between adjacent beams, cancellation, and stitching.
//!
//! With `parallel = true` every phase runs on rayon (parallel sort,
//! parallel partition, parallel per-beam discovery/classification, parallel
//! cancellation sort); with `false` the same code paths run sequentially —
//! this sequential mode is the repository's stand-in for the GPC library
//! used by the paper's Algorithm 2 (same algorithm family, same
//! asymptotics).

use crate::budget::{self, ExecBudget, Gate};
use crate::classify::{classify_beam, BeamOutput, BoolOp};
use crate::horizontal::horizontal_edges;
use crate::resilience::{
    self, ClipError, ClipOutcome, Degradation, FaultPlan, InputRole, RepairRung,
};
use crate::sanitize::{sanitize_set, SanitizeOptions};
use crate::stats::ClipStats;
use crate::stitch::stitch_counted;
use crate::validate::{is_degenerate, sanitize_counted};
use polyclip_geom::{Contour, FillRule, Point, PolygonSet};
use polyclip_sweep::cross::{discover_residual_crossings_in, CrossEvent};
use polyclip_sweep::{
    collect_edges, collect_edges_refs, discover_intersections_in, event_ys_in, BeamSet,
    ForcedSplits, InputEdge, PartitionBackend, RefineOutcome, SweepScratch, BIG_BEAM,
};
use rayon::prelude::*;
use std::borrow::Cow;

/// Configuration for the scanbeam engine.
#[derive(Clone, Debug)]
pub struct ClipOptions {
    /// Fill rule interpreting the inputs (the paper uses even-odd parity).
    pub fill_rule: FillRule,
    /// Run every phase on the rayon pool (Algorithm 1) or sequentially
    /// (the GPC-equivalent baseline).
    pub parallel: bool,
    /// Step-2 partition implementation (direct scan vs segment tree).
    pub backend: PartitionBackend,
    /// Keep the k' virtual vertices in the output instead of packing them
    /// away (useful for inspecting the scanbeam structure).
    pub keep_virtual: bool,
    /// Snap-rounding grid cell for intersection vertices. `0.0` (the
    /// default) disables snapping — results are bit-identical to the
    /// pre-snap engine. When positive, every discovered crossing is
    /// rounded onto the uniform grid of this cell size *if* the rounded
    /// point still lies on both crossing edges' spans (verified before
    /// use; otherwise the exact crossing is kept). Snapping collapses
    /// near-coincident intersection clusters that would otherwise produce
    /// ulp-thin scanbeams and sliver contours, at the cost of perturbing
    /// crossing vertices by at most half a cell diagonal.
    pub snap_cell: f64,
    /// Run the input sanitizer on both operands before clipping (see
    /// [`crate::sanitize`](mod@crate::sanitize)): repairs duplicate/collinear/spike vertices
    /// and culls zero-area contours, recording any surgery as
    /// [`Degradation::InputRepaired`]. Clean input passes through
    /// borrowed, untouched — repairs never change the enclosed region,
    /// so clean-input results are identical with or without this flag.
    /// Orientation is never touched (it is semantic under nonzero
    /// winding).
    pub sanitize: bool,
    /// Validate the output against the engine's canonical-output
    /// guarantees and, on violation, run the self-repair ladder
    /// (re-dissolve → tightened snap re-clip → pristine sequential
    /// re-clip), recording [`Degradation::OutputRepaired`]. Off by
    /// default: the engine's output is canonical by construction and the
    /// check costs a validation sweep.
    pub validate_output: bool,
    /// Deterministic fault plan for resilience testing. Inert unless the
    /// `fault-injection` cargo feature is enabled.
    pub faults: FaultPlan,
    /// Execution budget: wall-clock deadline, cooperative cancellation,
    /// and work caps (see [`crate::budget`]). The default is unlimited,
    /// and an unlimited budget produces bit-identical output to a build
    /// without the budget machinery.
    pub budget: ExecBudget,
    /// Patch the scanbeam structure in place on refinement rounds ≥ 2
    /// (re-splitting only the beams that gained new scanlines) instead of
    /// rebuilding it from scratch. Output is bit-identical either way —
    /// the incremental patch is property-tested against the full rebuild —
    /// so this is purely a performance switch; it falls back to a full
    /// rebuild automatically when too many beams are dirty.
    pub incremental_refine: bool,
    /// Sequential-cutoff override for the beam-granular phases
    /// (intersection discovery's per-beam parallel reporter, the
    /// incremental-refinement fill). `None` uses the built-in
    /// [`polyclip_sweep::BIG_BEAM`] cutoff; small values force the
    /// parallel paths on small inputs (useful for testing), large values
    /// keep small workloads sequential and amortization-friendly.
    pub grain: Option<usize>,
    /// Algorithm-2 cell planning (ignored by every other path):
    /// over-decomposition factor, cell-count ceiling, and whether column
    /// (vertical) splits are allowed. The default plans one cell per
    /// event-quantile slab and runs them on the calling thread;
    /// [`crate::grid::GridConfig::refined`] splits heavy slabs into ~6
    /// cells per worker on the work-stealing pool.
    pub grid: crate::grid::GridConfig,
}

impl Default for ClipOptions {
    fn default() -> Self {
        ClipOptions {
            fill_rule: FillRule::EvenOdd,
            parallel: true,
            backend: PartitionBackend::DirectScan,
            keep_virtual: false,
            snap_cell: 0.0,
            sanitize: true,
            validate_output: false,
            faults: FaultPlan::default(),
            budget: ExecBudget::default(),
            incremental_refine: true,
            grain: None,
            grid: crate::grid::GridConfig::default(),
        }
    }
}

impl ClipOptions {
    /// Sequential configuration (the baseline of Figures 8/10/12).
    pub fn sequential() -> Self {
        ClipOptions {
            parallel: false,
            ..Default::default()
        }
    }
}

/// Everything the classification phase needs: crossing-free scanbeams plus
/// the discovered intersection count.
pub(crate) struct Prepared {
    pub(crate) edges: Vec<InputEdge>,
    pub(crate) beams: BeamSet,
    pub(crate) k: usize,
}

/// Snap `y` onto the nearest existing event scanline when it falls within
/// the snap tolerance — intersection events landing ulps away from a vertex
/// scanline would otherwise create unsplittably thin scanbeams.
fn snap_to_events(ys: &[f64], y: f64) -> f64 {
    let i = ys.partition_point(|&v| v < y);
    let mut best = y;
    let mut best_d = f64::INFINITY;
    for j in [i.wrapping_sub(1), i] {
        if let Some(&v) = ys.get(j) {
            let d = (y - v).abs();
            if d < best_d {
                best_d = d;
                best = v;
            }
        }
    }
    if best_d <= polyclip_sweep::edges::snap_tolerance(best) {
        best
    } else {
        y
    }
}

/// Snap a discovered crossing onto the uniform grid of cell size `cell`,
/// verified: the rounded point is used only when it still lies on both
/// crossing edges' spans, otherwise the exact crossing is kept (so
/// snapping can collapse sliver clusters but never move a vertex off its
/// generating edges). Identity when `cell <= 0`.
fn snap_crossing(p: Point, a: &InputEdge, b: &InputEdge, cell: f64) -> Point {
    if cell <= 0.0 {
        return p;
    }
    let s = p.snap_to_grid(cell);
    if s == p {
        return p;
    }
    let on_span = |e: &InputEdge| {
        s.x >= e.lo.x.min(e.hi.x) && s.x <= e.lo.x.max(e.hi.x) && s.y >= e.lo.y && s.y <= e.hi.y
    };
    if on_span(a) && on_span(b) {
        s
    } else {
        p
    }
}

/// Everything `prepare` absorbed and measured besides the scanbeam
/// structure itself: degradations plus the refinement counters.
#[derive(Debug, Default)]
pub(crate) struct PrepReport {
    pub(crate) degradations: Vec<Degradation>,
    pub(crate) refine_rounds: usize,
    pub(crate) refine_rounds_incremental: usize,
    pub(crate) beams_rebuilt: usize,
    pub(crate) residuals_accepted: usize,
    pub(crate) input_repairs: usize,
}

/// Input gate: reject non-finite coordinates (they poison the event
/// ordering), run the vertex-repair sanitizer when configured (recording
/// any surgery), then drop contours that provably cannot contribute area,
/// recording the drops. Borrows the input untouched in the clean case.
fn gate_input<'a>(
    p: &'a PolygonSet,
    role: InputRole,
    opts: &ClipOptions,
    report: &mut PrepReport,
) -> Result<Cow<'a, PolygonSet>, ClipError> {
    if let Some((contour, vertex)) = p.first_non_finite() {
        return Err(ClipError::NonFiniteInput {
            role,
            contour,
            vertex,
        });
    }
    let repaired = if opts.sanitize {
        let (repaired, repairs) = sanitize_set(p, &SanitizeOptions::repairs_only());
        if !repairs.is_clean() {
            report.input_repairs += repairs.total();
            report
                .degradations
                .push(Degradation::InputRepaired { role, repairs });
        }
        repaired
    } else {
        Cow::Borrowed(p)
    };
    let (gated, dropped) = match repaired {
        Cow::Borrowed(q) => sanitize_counted(q),
        Cow::Owned(q) => {
            let (g, dropped) = sanitize_counted(&q);
            (Cow::Owned(g.into_owned()), dropped)
        }
    };
    if dropped > 0 {
        report.degradations.push(Degradation::SanitizedInput {
            role,
            dropped_contours: dropped,
        });
    }
    Ok(gated)
}

/// [`gate_input`] over a borrowed contour slice: the same non-finite
/// rejection and degenerate-contour sanitization, with the slice position as
/// the reported contour index. Borrows the slice untouched in the clean
/// case.
fn gate_refs<'a, 'b>(
    contours: &'b [&'a Contour],
    role: InputRole,
    report: &mut PrepReport,
) -> Result<Cow<'b, [&'a Contour]>, ClipError> {
    for (ci, c) in contours.iter().enumerate() {
        if let Some(vertex) = c.first_non_finite() {
            return Err(ClipError::NonFiniteInput {
                role,
                contour: ci,
                vertex,
            });
        }
    }
    let dropped = contours.iter().filter(|c| is_degenerate(c)).count();
    if dropped == 0 {
        return Ok(Cow::Borrowed(contours));
    }
    report.degradations.push(Degradation::SanitizedInput {
        role,
        dropped_contours: dropped,
    });
    Ok(Cow::Owned(
        contours
            .iter()
            .copied()
            .filter(|c| !is_degenerate(c))
            .collect(),
    ))
}

/// Rounds A and B: events, partition, intersection discovery, re-partition.
/// `Ok(None)` means the gated instance has nothing to sweep (empty result).
pub(crate) fn prepare(
    subject: &PolygonSet,
    clip: &PolygonSet,
    opts: &ClipOptions,
    report: &mut PrepReport,
    gate: &Gate,
    scratch: &mut SweepScratch,
) -> Result<Option<Prepared>, ClipError> {
    let subject = gate_input(subject, InputRole::Subject, opts, report)?;
    let clip = gate_input(clip, InputRole::Clip, opts, report)?;
    budget::check(gate)?;
    let edges = collect_edges(&subject, &clip);
    prepare_edges(edges, opts, report, gate, scratch)
}

/// [`prepare`] over borrowed contour slices — identical non-finite and
/// degeneracy gating, no `PolygonSet` materialization. Deliberately skips
/// [`ClipOptions::sanitize`]: this is the slab-worker hot path, whose
/// band-clipped contours carry exactly-collinear seam vertices that the
/// merge's fragment cancellation depends on.
pub(crate) fn prepare_refs(
    subject: &[&Contour],
    clip: &[&Contour],
    opts: &ClipOptions,
    report: &mut PrepReport,
    gate: &Gate,
    scratch: &mut SweepScratch,
) -> Result<Option<Prepared>, ClipError> {
    let subject = gate_refs(subject, InputRole::Subject, report)?;
    let clip = gate_refs(clip, InputRole::Clip, report)?;
    budget::check(gate)?;
    let edges = collect_edges_refs(&subject, &clip);
    prepare_edges(edges, opts, report, gate, scratch)
}

/// Full rebuild threshold for incremental refinement: when more than this
/// fraction of the beams is dirty, patching costs about as much as
/// rebuilding and the full rebuild's better cache behavior wins.
const DIRTY_REBUILD_FRACTION: f64 = 0.25;

/// The shared back half of preparation, from normalized sweep edges onward.
fn prepare_edges(
    edges: Vec<InputEdge>,
    opts: &ClipOptions,
    report: &mut PrepReport,
    gate: &Gate,
    scratch: &mut SweepScratch,
) -> Result<Option<Prepared>, ClipError> {
    if edges.is_empty() {
        return Ok(None);
    }
    let grain = opts.grain.unwrap_or(BIG_BEAM);
    let ys_a = event_ys_in(&edges, &[], opts.parallel, scratch);
    if ys_a.len() < 2 {
        scratch.give_ys(ys_a);
        return Ok(None);
    }
    let empty_forced = ForcedSplits::empty(edges.len());
    let beams_a = BeamSet::build_gated_in(
        &edges,
        ys_a,
        &empty_forced,
        opts.backend,
        opts.parallel,
        Some(gate),
        scratch,
    );
    budget::check(gate)?;
    let crossings =
        discover_intersections_in(&beams_a, &edges, opts.parallel, Some(gate), grain, scratch);
    budget::check(gate)?;

    // Turn crossings into forced splits (both edges share the intersection
    // vertex exactly) and extra events.
    let mut triples: Vec<(u32, f64, f64)> = Vec::with_capacity(2 * crossings.len());
    let mut extra: Vec<f64> = Vec::with_capacity(crossings.len());
    let mut k_pairs: Vec<(u32, u32)> = Vec::with_capacity(crossings.len());
    for (ci, c) in crossings.iter().enumerate() {
        // k can reach millions; bound the cancellation latency of this
        // O(k) post-processing pass the same way the discovery loops do.
        if ci & 0x1FFF == 0 && ci > 0 {
            budget::check(gate)?;
        }
        let cp = snap_crossing(
            c.p,
            &edges[c.e1 as usize],
            &edges[c.e2 as usize],
            opts.snap_cell,
        );
        let py = snap_to_events(&beams_a.ys, cp.y);
        let mut applied = false;
        for eid in [c.e1, c.e2] {
            let e = &edges[eid as usize];
            if py > e.lo.y && py < e.hi.y {
                triples.push((eid, py, cp.x));
                applied = true;
            }
        }
        if applied {
            extra.push(py);
        }
        k_pairs.push((c.e1.min(c.e2), c.e1.max(c.e2)));
    }
    beams_a.recycle(scratch);
    scratch.give_events(crossings);
    k_pairs.sort_unstable();
    k_pairs.dedup();
    let k = k_pairs.len();

    // Round B with fixed-point refinement: rounding can leave residual
    // crossings inside numerically degenerate beams (two intersections of a
    // nearly horizontal edge rounding to inconsistent y's). Re-discover on
    // the bent sub-edge geometry and re-split until crossing-free; each
    // iteration only adds events strictly inside an offending beam, so the
    // loop terminates (bounded further by MAX_REFINE as a belt-and-braces).
    //
    // Round 1 builds the scanbeam structure from scratch; rounds ≥ 2 patch
    // it incrementally (only beams that gained a scanline are re-split;
    // see [`BeamSet::refine_incremental`]) unless too much of it is dirty,
    // in which case the round falls back to a full rebuild — the result is
    // bit-identical either way. All builds draw from `scratch`, so even
    // the fallback reuses the previous round's capacity.
    const MAX_REFINE: usize = 8;
    let forced_exhaust = resilience::fault_exhaust_refinement(opts);
    let mut beams: Option<BeamSet> = None;
    // New events appended by the previous iteration's residual pass:
    // exactly the scanlines an incremental patch must splice in.
    let mut round_mark = 0usize;
    // Fault injection can pre-spend the round budget so the exhaustion
    // path runs on the very first iteration.
    let mut refine = if forced_exhaust { MAX_REFINE } else { 0 };
    loop {
        budget::check(gate)?;
        let forced = ForcedSplits::build_in(edges.len(), &triples, scratch);
        let mut patched = false;
        if opts.incremental_refine {
            if let Some(b) = beams.as_mut() {
                match b.refine_incremental(
                    &edges,
                    &forced,
                    &extra[round_mark..],
                    DIRTY_REBUILD_FRACTION,
                    grain,
                    opts.parallel,
                    Some(gate),
                    scratch,
                ) {
                    RefineOutcome::Incremental { beams_rebuilt } => {
                        report.refine_rounds_incremental += 1;
                        report.beams_rebuilt += beams_rebuilt;
                        patched = true;
                    }
                    RefineOutcome::TooDirty => {}
                }
            }
        }
        if !patched {
            if let Some(old) = beams.take() {
                old.recycle(scratch);
            }
            let ys_b = event_ys_in(&edges, &extra, opts.parallel, scratch);
            beams = Some(BeamSet::build_gated_in(
                &edges,
                ys_b,
                &forced,
                opts.backend,
                opts.parallel,
                Some(gate),
                scratch,
            ));
        }
        let bs = beams.as_ref().expect("built or patched above");
        budget::check(gate)?;
        refine += 1;
        if refine > MAX_REFINE {
            // Bound hit: count what is left so the degradation report is
            // concrete. A genuine (unfaulted) run only lands here after
            // MAX_REFINE rounds that each made progress.
            let leftover_v =
                discover_residual_crossings_in(bs, opts.parallel, Some(gate), grain, scratch);
            let leftover = leftover_v.len();
            scratch.give_events(leftover_v);
            forced.recycle(scratch);
            budget::check(gate)?;
            if leftover > 0 || forced_exhaust {
                report.degradations.push(Degradation::RefinementExhausted {
                    rounds: MAX_REFINE,
                    residual_crossings: leftover,
                });
            }
            break;
        }
        let mut residual =
            discover_residual_crossings_in(bs, opts.parallel, Some(gate), grain, scratch);
        budget::check(gate)?;
        if resilience::fault_residual_storm(opts) && refine == 1 {
            // Synthetic crossing pinned to an edge endpoint: never strictly
            // interior to the edge, so it cannot force a split — this
            // drives the accept-residuals path below deterministically.
            residual.push(CrossEvent {
                e1: 0,
                e2: 0,
                p: edges[0].lo,
            });
        }
        if residual.is_empty() {
            scratch.give_events(residual);
            forced.recycle(scratch);
            break;
        }
        round_mark = extra.len();
        let mut progressed = false;
        for c in &residual {
            let cp = snap_crossing(
                c.p,
                &edges[c.e1 as usize],
                &edges[c.e2 as usize],
                opts.snap_cell,
            );
            for eid in [c.e1, c.e2] {
                let e = &edges[eid as usize];
                if cp.y > e.lo.y && cp.y < e.hi.y {
                    let t = (eid, cp.y, cp.x);
                    if !triples.contains(&t) {
                        triples.push(t);
                        progressed = true;
                    }
                }
            }
            extra.push(cp.y);
        }
        let n_residual = residual.len();
        scratch.give_events(residual);
        forced.recycle(scratch);
        if !progressed {
            // The remaining residuals sit inside beams already at the
            // resolution limit; the cancellation/stitch phase degrades
            // gracefully (a dropped sliver walk), so accept — and report.
            report.residuals_accepted += n_residual;
            report.degradations.push(Degradation::ResidualsAccepted {
                residual_crossings: n_residual,
            });
            break;
        }
    }
    report.refine_rounds = refine.min(MAX_REFINE);
    Ok(Some(Prepared {
        edges,
        beams: beams.expect("round loop always builds"),
        k,
    }))
}

/// Classify every beam (Step 3), in parallel when configured. Polls the
/// gate per scanbeam; on a trip the remaining beams yield empty outputs and
/// the typed error is returned instead of the truncated classification.
fn classify_all(
    p: &Prepared,
    op: BoolOp,
    opts: &ClipOptions,
    gate: &Gate,
) -> Result<Vec<BeamOutput>, ClipError> {
    let beams = &p.beams;
    let run = |i: usize| {
        if gate.is_tripped() {
            return BeamOutput::default();
        }
        classify_beam(
            beams.beam(i),
            beams.y_bot(i),
            beams.y_top(i),
            op,
            opts.fill_rule,
        )
    };
    let outputs = if opts.parallel {
        (0..beams.n_beams()).into_par_iter().map(run).collect()
    } else {
        (0..beams.n_beams()).map(run).collect()
    };
    budget::check(gate)?;
    Ok(outputs)
}

/// Perform a boolean operation, returning the result, its statistics, and
/// every degradation absorbed on the way — or a [`ClipError`] when no
/// result can be produced (non-finite input coordinates).
///
/// This is the engine's fallible entry point; [`clip_with_stats`] and
/// [`clip`] are lenient wrappers over it. Call
/// [`ClipOutcome::strict`] on the returned outcome to additionally reject
/// lossy degradations (accepted residual crossings, exhausted refinement,
/// dropped stitch fragments).
pub fn try_clip_with_stats(
    subject: &PolygonSet,
    clip: &PolygonSet,
    op: BoolOp,
    opts: &ClipOptions,
) -> Result<ClipOutcome, ClipError> {
    // Arm the budget exactly once at the public boundary: the relative
    // deadline becomes absolute here, and every nested phase below shares
    // this gate by reference.
    let gate = opts.budget.arm();
    budget::check(&gate)?;
    try_clip_with_stats_gated(subject, clip, op, opts, &gate)
}

/// [`try_clip_with_stats`] against an already-armed gate — the re-entry
/// point for drivers (slab workers, overlay workers) that arm one budget
/// for a whole multi-clip operation and share it across engine calls.
pub(crate) fn try_clip_with_stats_gated(
    subject: &PolygonSet,
    clip: &PolygonSet,
    op: BoolOp,
    opts: &ClipOptions,
    gate: &Gate,
) -> Result<ClipOutcome, ClipError> {
    try_clip_with_stats_in(subject, clip, op, opts, gate, &mut SweepScratch::new())
}

/// [`try_clip_with_stats_gated`] against a caller-owned [`SweepScratch`] —
/// the innermost re-entry point for workers (Algorithm 2's slab workers)
/// that keep one arena per worker and reuse its capacity across clips.
pub(crate) fn try_clip_with_stats_in(
    subject: &PolygonSet,
    clip: &PolygonSet,
    op: BoolOp,
    opts: &ClipOptions,
    gate: &Gate,
    scratch: &mut SweepScratch,
) -> Result<ClipOutcome, ClipError> {
    let mut report = PrepReport::default();
    let prepared = prepare(subject, clip, opts, &mut report, gate, scratch)?;
    let mut outcome = clip_prepared(prepared, report, op, opts, gate, scratch)?;
    if opts.validate_output {
        repair_output(subject, clip, op, opts, &mut outcome);
    }
    Ok(outcome)
}

/// The output self-repair ladder: validate the result and, on violation,
/// escalate through increasingly expensive re-derivations until one
/// validates — re-dissolve the output, re-clip with a tightened snap
/// grid, re-clip on the pristine sequential engine — keeping the original
/// if every rung still violates. Every invocation (repaired or not) is
/// recorded as [`Degradation::OutputRepaired`].
pub(crate) fn repair_output(
    subject: &PolygonSet,
    clip: &PolygonSet,
    op: BoolOp,
    opts: &ClipOptions,
    outcome: &mut ClipOutcome,
) {
    let violations = crate::validate::validate(&outcome.result).violations.len();
    if violations == 0 {
        return;
    }
    // Internal re-derivations must not sanitize (the inputs were already
    // gated), must not re-validate (no recursion), and run budget-exempt
    // but cancellable: the failing attempt already consumed the allowance,
    // and a repair that re-armed the deadline would double it.
    let internal = ClipOptions {
        sanitize: false,
        validate_output: false,
        budget: opts.budget.cancel_only(),
        ..opts.clone()
    };

    let mut rung = RepairRung::Unrepaired;

    // Rung 1: re-dissolve the output. Cheap — proportional to the output,
    // not the inputs — and fixes most stitch-level defects (duplicate
    // vertices, crossing slivers).
    let redissolved = dissolve(&outcome.result, &internal);
    if crate::validate::validate(&redissolved).is_canonical() {
        outcome.result = redissolved;
        rung = RepairRung::Redissolve;
    } else {
        // Rung 2: re-clip with a tightened snap grid, collapsing the
        // near-coincident crossings that produced the violation. Doubling
        // an explicit cell widens the grid; otherwise derive one from the
        // input extent.
        let cell = if opts.snap_cell > 0.0 {
            opts.snap_cell * 2.0
        } else {
            let bb = subject.bbox().union(&clip.bbox());
            let span = (bb.xmax - bb.xmin).max(bb.ymax - bb.ymin);
            if span.is_finite() && span > 0.0 {
                span * polyclip_geom::EPS_BOUNDARY
            } else {
                polyclip_geom::EPS_BOUNDARY
            }
        };
        let snapped = ClipOptions {
            snap_cell: cell,
            ..internal.clone()
        };
        if let Ok(o) = try_clip_with_stats(subject, clip, op, &snapped) {
            if crate::validate::validate(&o.result).is_canonical() {
                outcome.result = o.result;
                rung = RepairRung::TightenedSnap;
            }
        }
        // Rung 3: pristine sequential re-clip.
        if rung == RepairRung::Unrepaired {
            let pristine = resilience::pristine(&internal);
            if let Ok(o) = try_clip_with_stats(subject, clip, op, &pristine) {
                if crate::validate::validate(&o.result).is_canonical() {
                    outcome.result = o.result;
                    rung = RepairRung::PristineSequential;
                }
            }
        }
    }
    outcome.stats.output_repairs += 1;
    outcome.stats.out_contours = outcome.result.len();
    outcome.stats.out_vertices = outcome.result.vertex_count();
    outcome
        .degradations
        .push(Degradation::OutputRepaired { rung, violations });
}

/// [`try_clip_with_stats`] over borrowed contour slices.
///
/// The slab-index hot path of Algorithm 2 hands each slab worker a mix of
/// borrowed (fully-inside) and freshly band-clipped contours; this entry
/// point runs the identical pipeline on such a view, so its result is
/// bit-identical to building a [`PolygonSet`] from the same contours and
/// calling [`try_clip_with_stats`] (invalid contours must be pre-filtered,
/// as [`PolygonSet::push`] would).
pub fn try_clip_refs_with_stats(
    subject: &[&Contour],
    clip: &[&Contour],
    op: BoolOp,
    opts: &ClipOptions,
) -> Result<ClipOutcome, ClipError> {
    let gate = opts.budget.arm();
    budget::check(&gate)?;
    try_clip_refs_gated(subject, clip, op, opts, &gate)
}

/// [`try_clip_refs_with_stats`] against an already-armed gate (slab-worker
/// re-entry; see [`try_clip_with_stats_gated`]).
pub(crate) fn try_clip_refs_gated(
    subject: &[&Contour],
    clip: &[&Contour],
    op: BoolOp,
    opts: &ClipOptions,
    gate: &Gate,
) -> Result<ClipOutcome, ClipError> {
    try_clip_refs_in(subject, clip, op, opts, gate, &mut SweepScratch::new())
}

/// [`try_clip_refs_gated`] against a caller-owned [`SweepScratch`] (see
/// [`try_clip_with_stats_in`]).
pub(crate) fn try_clip_refs_in(
    subject: &[&Contour],
    clip: &[&Contour],
    op: BoolOp,
    opts: &ClipOptions,
    gate: &Gate,
    scratch: &mut SweepScratch,
) -> Result<ClipOutcome, ClipError> {
    let mut report = PrepReport::default();
    let prepared = prepare_refs(subject, clip, opts, &mut report, gate, scratch)?;
    clip_prepared(prepared, report, op, opts, gate, scratch)
}

/// Classification + merge + stitching: the shared tail of the two fallible
/// entry points above, from a prepared scanbeam structure to the outcome.
fn clip_prepared(
    prepared: Option<Prepared>,
    mut report: PrepReport,
    op: BoolOp,
    opts: &ClipOptions,
    gate: &Gate,
    scratch: &mut SweepScratch,
) -> Result<ClipOutcome, ClipError> {
    let Some(p) = prepared else {
        return Ok(ClipOutcome {
            result: PolygonSet::new(),
            stats: ClipStats::default(),
            degradations: report.degradations,
        });
    };
    let outputs = classify_all(&p, op, opts, gate)?;

    // Gather boundary fragments: verticals from the beams, horizontals from
    // the scanline symmetric differences (Step 4's merge of partial
    // polygons).
    let n_beams = p.beams.n_beams();
    let empty: &[(f64, f64)] = &[];
    let hline = |j: usize| -> Vec<(Point, Point)> {
        let below = if j > 0 {
            outputs[j - 1].top.as_slice()
        } else {
            empty
        };
        let above = if j < n_beams {
            outputs[j].bottom.as_slice()
        } else {
            empty
        };
        horizontal_edges(below, above, p.beams.ys[j])
    };
    let mut all_edges: Vec<(Point, Point)> = if opts.parallel {
        let mut v: Vec<(Point, Point)> = outputs
            .par_iter()
            .flat_map_iter(|o| o.edges.iter().copied())
            .collect();
        v.par_extend((0..=n_beams).into_par_iter().flat_map_iter(hline));
        v
    } else {
        let mut v: Vec<(Point, Point)> = outputs
            .iter()
            .flat_map(|o| o.edges.iter().copied())
            .collect();
        v.extend((0..=n_beams).flat_map(hline));
        v
    };

    // Drop degenerate fragments defensively (zero-length can appear from
    // zero-width spans at vertices).
    all_edges.retain(|(a, b)| a != b);

    // Every fragment contributes at most two output vertices: meter the
    // gathered count against `max_output_vertices` *before* paying for the
    // stitch.
    gate.meter().add_vertices(all_edges.len() as u64);
    budget::check(gate)?;

    let (contours, dropped) = stitch_counted(all_edges, !opts.keep_virtual);
    if dropped > 0 {
        report
            .degradations
            .push(Degradation::DroppedFragments { fragments: dropped });
    }
    let out = PolygonSet::from_contours(contours);

    let stats = ClipStats {
        n_edges: p.edges.len(),
        n_events: p.beams.ys.len(),
        n_beams,
        k_intersections: p.k,
        k_prime: p.beams.total_sub_edges() - p.edges.len(),
        n_subedges: p.beams.total_sub_edges(),
        out_contours: out.len(),
        out_vertices: out.vertex_count(),
        refine_rounds: report.refine_rounds,
        refine_rounds_incremental: report.refine_rounds_incremental,
        beams_rebuilt: report.beams_rebuilt,
        residuals_accepted: report.residuals_accepted,
        slab_retries: 0,
        input_repairs: report.input_repairs,
        output_repairs: 0,
        completed_slabs: 0,
        total_slabs: 0,
        prepared_reused: false,
    };
    // Hand the scanbeam buffers back so the next clip on this worker's
    // arena reuses them, and publish the arena counters on the meter.
    p.beams.recycle(scratch);
    gate.meter().record_scratch_bytes(scratch.capacity_bytes());
    gate.meter().add_scratch_reused(scratch.take_reused_bytes());
    Ok(ClipOutcome {
        result: out,
        stats,
        degradations: report.degradations,
    })
}

/// Fallible boolean operation: like [`clip`], but returns the
/// [`ClipOutcome`] (result + stats + degradation report) or a typed
/// [`ClipError`] instead of silently absorbing bad input.
pub fn try_clip(
    subject: &PolygonSet,
    clip_p: &PolygonSet,
    op: BoolOp,
    opts: &ClipOptions,
) -> Result<ClipOutcome, ClipError> {
    try_clip_with_stats(subject, clip_p, op, opts)
}

/// Perform a boolean operation, returning the result and its statistics.
///
/// Lenient wrapper over [`try_clip_with_stats`]: rejected input (non-finite
/// coordinates) yields an empty result, degradations are absorbed silently.
pub fn clip_with_stats(
    subject: &PolygonSet,
    clip: &PolygonSet,
    op: BoolOp,
    opts: &ClipOptions,
) -> (PolygonSet, ClipStats) {
    match try_clip_with_stats(subject, clip, op, opts) {
        Ok(o) => (o.result, o.stats),
        Err(_) => (PolygonSet::new(), ClipStats::default()),
    }
}

/// Perform a boolean operation on two polygon sets.
///
/// This is the library's main entry point: arbitrary (convex, concave,
/// multi-contour, self-intersecting) inputs, output-sensitive cost, exact
/// parity semantics under the configured fill rule. It never panics and
/// never fails: inputs it cannot process (non-finite coordinates) produce
/// an empty result. Use [`try_clip`] to observe errors and degradations.
pub fn clip(
    subject: &PolygonSet,
    clip_p: &PolygonSet,
    op: BoolOp,
    opts: &ClipOptions,
) -> PolygonSet {
    clip_with_stats(subject, clip_p, op, opts).0
}

/// Area of the boolean result, computed from the kept trapezoids without
/// constructing output contours. Independent of the stitching code, which
/// makes it the test oracle for the constructed output's area.
pub fn measure_op(
    subject: &PolygonSet,
    clip_p: &PolygonSet,
    op: BoolOp,
    opts: &ClipOptions,
) -> f64 {
    let gate = Gate::unlimited();
    let Ok(Some(p)) = prepare(
        subject,
        clip_p,
        opts,
        &mut PrepReport::default(),
        &gate,
        &mut SweepScratch::new(),
    ) else {
        return 0.0;
    };
    let Ok(outputs) = classify_all(&p, op, opts, &gate) else {
        return 0.0;
    };
    outputs.iter().map(|o| o.area).sum()
}

/// The even-odd measure (area) of a polygon set — meaningful for arbitrary,
/// including self-intersecting, inputs.
pub fn eo_area(p: &PolygonSet) -> f64 {
    measure_op(
        p,
        &PolygonSet::new(),
        BoolOp::Union,
        &ClipOptions::default(),
    )
}

/// Canonicalize a polygon set: resolve self-intersections and overlaps into
/// clean, properly oriented contours (outer CCW, holes CW) under the fill
/// rule. Also the merge ("Step 8") used by Algorithm 2 to fuse per-slab
/// partial outputs: shared slab-boundary runs cancel during stitching.
pub fn dissolve(p: &PolygonSet, opts: &ClipOptions) -> PolygonSet {
    clip(p, &PolygonSet::new(), BoolOp::Union, opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use polyclip_geom::contour::rect;
    use polyclip_geom::point::pt;

    fn sq(x0: f64, y0: f64, x1: f64, y1: f64) -> PolygonSet {
        PolygonSet::from_contour(rect(x0, y0, x1, y1))
    }

    fn opts_seq() -> ClipOptions {
        ClipOptions::sequential()
    }

    #[test]
    fn intersection_of_offset_squares() {
        for opts in [opts_seq(), ClipOptions::default()] {
            let (out, stats) = clip_with_stats(
                &sq(0.0, 0.0, 2.0, 2.0),
                &sq(1.0, 1.0, 3.0, 3.0),
                BoolOp::Intersection,
                &opts,
            );
            assert_eq!(out.len(), 1, "parallel={}", opts.parallel);
            let c = &out.contours()[0];
            assert!((c.signed_area() - 1.0).abs() < 1e-12);
            assert_eq!(c.len(), 4);
            // The two boundary crossings involve horizontal edges, which
            // never enter the sweep: k counts sweep-edge crossings only.
            assert_eq!(stats.k_intersections, 0);
            assert_eq!(stats.out_contours, 1);
        }
    }

    #[test]
    fn union_of_offset_squares() {
        let out = clip(
            &sq(0.0, 0.0, 2.0, 2.0),
            &sq(1.0, 1.0, 3.0, 3.0),
            BoolOp::Union,
            &opts_seq(),
        );
        assert_eq!(out.len(), 1);
        assert!((out.contours()[0].signed_area() - 7.0).abs() < 1e-12);
        // The union is an L-ish octagon: 8 corners.
        assert_eq!(out.contours()[0].len(), 8);
    }

    #[test]
    fn difference_of_offset_squares() {
        let out = clip(
            &sq(0.0, 0.0, 2.0, 2.0),
            &sq(1.0, 1.0, 3.0, 3.0),
            BoolOp::Difference,
            &opts_seq(),
        );
        assert_eq!(out.len(), 1);
        assert!((out.contours()[0].signed_area() - 3.0).abs() < 1e-12);
        assert!(!out.contains(pt(1.5, 1.5), FillRule::EvenOdd));
        assert!(out.contains(pt(0.5, 0.5), FillRule::EvenOdd));
    }

    #[test]
    fn xor_of_offset_squares() {
        let out = clip(
            &sq(0.0, 0.0, 2.0, 2.0),
            &sq(1.0, 1.0, 3.0, 3.0),
            BoolOp::Xor,
            &opts_seq(),
        );
        // Two L-shaped pieces touching at two points, or contours totalling
        // area 6 under even-odd.
        assert!((eo_area(&out) - 6.0).abs() < 1e-9);
    }

    #[test]
    fn disjoint_and_nested_cases() {
        let a = sq(0.0, 0.0, 1.0, 1.0);
        let b = sq(5.0, 5.0, 6.0, 6.0);
        assert!(clip(&a, &b, BoolOp::Intersection, &opts_seq()).is_empty());
        let u = clip(&a, &b, BoolOp::Union, &opts_seq());
        assert_eq!(u.len(), 2);

        let outer = sq(0.0, 0.0, 4.0, 4.0);
        let inner = sq(1.0, 1.0, 2.0, 2.0);
        let d = clip(&outer, &inner, BoolOp::Difference, &opts_seq());
        assert_eq!(d.len(), 2); // ring: outer CCW + hole CW
        let areas: Vec<f64> = d.contours().iter().map(|c| c.signed_area()).collect();
        assert!(areas.iter().any(|&x| (x - 16.0).abs() < 1e-12));
        assert!(areas.iter().any(|&x| (x + 1.0).abs() < 1e-12));
        assert!(!d.contains(pt(1.5, 1.5), FillRule::EvenOdd));
    }

    #[test]
    fn identical_inputs() {
        let a = sq(0.0, 0.0, 2.0, 2.0);
        let i = clip(&a, &a, BoolOp::Intersection, &opts_seq());
        assert!((eo_area(&i) - 4.0).abs() < 1e-9);
        let d = clip(&a, &a, BoolOp::Difference, &opts_seq());
        assert!(eo_area(&d) < 1e-9);
        let x = clip(&a, &a, BoolOp::Xor, &opts_seq());
        assert!(eo_area(&x) < 1e-9);
    }

    #[test]
    fn self_intersecting_subject_bowtie() {
        // Bow-tie ∩ square covering the left lobe only.
        let bow = PolygonSet::from_xy(&[(0.0, 0.0), (2.0, 2.0), (2.0, 0.0), (0.0, 2.0)]);
        let left = sq(0.0, 0.0, 1.0, 2.0);
        let out = clip(&bow, &left, BoolOp::Intersection, &opts_seq());
        // Left lobe is the triangle (0,0), (1,1), (0,2): area 1.
        assert!((eo_area(&out) - 1.0).abs() < 1e-9, "area={}", eo_area(&out));
        assert!(out.contains(pt(0.25, 1.0), FillRule::EvenOdd));
        assert!(!out.contains(pt(0.9, 1.9), FillRule::EvenOdd));
    }

    #[test]
    fn triangles_with_crossing_boundaries() {
        let a = PolygonSet::from_xy(&[(0.0, 0.0), (4.0, 0.0), (2.0, 3.0)]);
        let b = PolygonSet::from_xy(&[(0.0, 2.0), (4.0, 2.0), (2.0, -1.0)]);
        let (out, stats) = clip_with_stats(&a, &b, BoolOp::Intersection, &opts_seq());
        assert!(stats.k_intersections > 0);
        let area = eo_area(&out);
        let oracle = measure_op(&a, &b, BoolOp::Intersection, &opts_seq());
        assert!(
            (area - oracle).abs() < 1e-9,
            "stitched {area} vs measured {oracle}"
        );
        assert!(area > 0.0);
    }

    #[test]
    fn horizontal_edges_in_input_are_handled() {
        // Both squares have horizontal edges; results must still be exact.
        let out = clip(
            &sq(0.0, 0.0, 2.0, 1.0),
            &sq(1.0, 0.0, 3.0, 1.0),
            BoolOp::Intersection,
            &opts_seq(),
        );
        assert_eq!(out.len(), 1);
        assert!((out.contours()[0].signed_area() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn shared_edges_between_inputs() {
        // Two squares sharing the full edge x=2: union is one rectangle,
        // intersection is empty (zero area), difference is the left square.
        let a = sq(0.0, 0.0, 2.0, 2.0);
        let b = sq(2.0, 0.0, 4.0, 2.0);
        let u = clip(&a, &b, BoolOp::Union, &opts_seq());
        assert_eq!(u.len(), 1);
        assert!((u.contours()[0].signed_area() - 8.0).abs() < 1e-12);
        assert_eq!(u.contours()[0].len(), 4, "shared edge must dissolve");
        let i = clip(&a, &b, BoolOp::Intersection, &opts_seq());
        assert!(eo_area(&i) < 1e-12);
        let d = clip(&a, &b, BoolOp::Difference, &opts_seq());
        assert!((eo_area(&d) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn parallel_and_sequential_agree_exactly() {
        let a = PolygonSet::from_xy(&[(0.0, 0.0), (5.0, 0.5), (4.0, 3.0), (1.0, 2.5)]);
        let b = PolygonSet::from_xy(&[(2.0, -1.0), (6.0, 1.5), (3.0, 4.0)]);
        for op in [
            BoolOp::Intersection,
            BoolOp::Union,
            BoolOp::Difference,
            BoolOp::Xor,
        ] {
            let s = clip(&a, &b, op, &opts_seq());
            let p = clip(&a, &b, op, &ClipOptions::default());
            assert_eq!(s, p, "op {op:?} must be deterministic across modes");
        }
    }

    #[test]
    fn segment_tree_backend_agrees() {
        let a = PolygonSet::from_xy(&[(0.0, 0.0), (5.0, 0.5), (4.0, 3.0), (1.0, 2.5)]);
        let b = PolygonSet::from_xy(&[(2.0, -1.0), (6.0, 1.5), (3.0, 4.0)]);
        let mut o1 = opts_seq();
        let mut o2 = opts_seq();
        o2.backend = PartitionBackend::SegmentTree;
        o1.backend = PartitionBackend::DirectScan;
        assert_eq!(
            clip(&a, &b, BoolOp::Union, &o1),
            clip(&a, &b, BoolOp::Union, &o2)
        );
    }

    #[test]
    fn empty_inputs() {
        let a = sq(0.0, 0.0, 1.0, 1.0);
        let e = PolygonSet::new();
        assert_eq!(
            clip(&a, &e, BoolOp::Union, &opts_seq()),
            dissolve(&a, &opts_seq())
        );
        assert!(clip(&a, &e, BoolOp::Intersection, &opts_seq()).is_empty());
        assert!(clip(&e, &e, BoolOp::Union, &opts_seq()).is_empty());
        let d = clip(&a, &e, BoolOp::Difference, &opts_seq());
        assert!((eo_area(&d) - 1.0).abs() < 1e-12);
        // Difference with empty subject.
        assert!(clip(&e, &a, BoolOp::Difference, &opts_seq()).is_empty());
    }

    #[test]
    fn stats_track_output_sensitivity() {
        // Diamonds so the crossings involve non-horizontal edges.
        let a = PolygonSet::from_xy(&[(1.0, 0.0), (2.0, 1.0), (1.0, 2.0), (0.0, 1.0)]);
        let b = a.translate(pt(1.0, 0.0));
        let (_, s) = clip_with_stats(&a, &b, BoolOp::Intersection, &opts_seq());
        assert_eq!(s.n_edges, 8);
        assert_eq!(s.k_intersections, 2);
        assert!(s.k_prime > 0); // edges split at interior scanlines
        assert_eq!(s.n_subedges, s.n_edges + s.k_prime);
        assert!(s.processor_bound() >= s.n_edges + s.k_intersections);
    }

    #[test]
    fn virtual_vertices_can_be_kept() {
        let a = sq(0.0, 0.0, 2.0, 2.0);
        let b = sq(1.0, 0.5, 3.0, 1.5); // splits a's verticals
        let mut keep = opts_seq();
        keep.keep_virtual = true;
        let with_virtual = clip(&a, &b, BoolOp::Difference, &keep);
        let without = clip(&a, &b, BoolOp::Difference, &opts_seq());
        assert!(with_virtual.vertex_count() > without.vertex_count());
        assert!((eo_area(&with_virtual) - eo_area(&without)).abs() < 1e-9);
    }

    #[test]
    fn concave_star_against_square() {
        // A 5-pointed star (self-intersecting pentagram) against a square.
        let star: Vec<(f64, f64)> = (0..5)
            .map(|i| {
                let ang =
                    std::f64::consts::FRAC_PI_2 + (i as f64) * 4.0 * std::f64::consts::PI / 5.0;
                (ang.cos(), ang.sin())
            })
            .collect();
        let star = PolygonSet::from_xy(&star);
        let square = sq(-2.0, -2.0, 2.0, 2.0);
        let i = measure_op(&star, &square, BoolOp::Intersection, &opts_seq());
        let star_area = eo_area(&star);
        assert!((i - star_area).abs() < 1e-9, "star inside square: ∩ = star");
        let (out, stats) = clip_with_stats(&star, &square, BoolOp::Intersection, &opts_seq());
        // The pentagram has 5 self-crossings; the two on its nearly
        // horizontal chord (shoulder-to-shoulder, ulps of y-extent) are
        // handled by the horizontal reconstruction after vertex snapping
        // rather than as sweep crossings, so k counts the remaining three.
        assert!(stats.k_intersections >= 3, "pentagram self-intersections");
        assert!((eo_area(&out) - star_area).abs() < 1e-9);
    }

    // A budget trip must leave the scratch arena structurally valid: the
    // next clip through the same arena has to succeed and match a
    // fresh-arena run bit for bit. The dense cap sweep lands trips in
    // every phase — Round-A discovery, the crossing post-process, and the
    // incremental refinement rounds ≥ 2 (the workload runs several; see
    // the `incremental` equivalence suite) — so a patch round interrupted
    // halfway through its CSR splice is covered, not just clean-phase
    // boundaries.
    #[test]
    fn tripped_scratch_arena_stays_reusable() {
        use polyclip_datagen::degenerate::{shingled_strips, sliver_fan};
        let subject = shingled_strips(5, pt(-1.0, -1.0), 2.0, 2.0, 10, 1e-6);
        let clip_p = sliver_fan(6, pt(0.0, 0.0), 1.4, 8);
        let opts = ClipOptions::default();
        let baseline = try_clip_with_stats(&subject, &clip_p, BoolOp::Union, &opts).unwrap();
        assert!(
            baseline.stats.refine_rounds >= 3 && baseline.stats.refine_rounds_incremental >= 2,
            "workload must drive incremental refinement: {:?}",
            baseline.stats
        );

        let mut scratch = SweepScratch::new();
        let mut trips = 0usize;
        for cap in 1..=96u64 {
            let tight = ClipOptions {
                budget: ExecBudget {
                    max_intersections: Some(cap),
                    ..Default::default()
                },
                ..ClipOptions::default()
            };
            let gate = tight.budget.arm();
            match try_clip_with_stats_in(
                &subject,
                &clip_p,
                BoolOp::Union,
                &tight,
                &gate,
                &mut scratch,
            ) {
                Err(ClipError::BudgetExceeded { .. }) => trips += 1,
                Ok(_) => {}
                Err(e) => panic!("cap {cap}: unexpected error {e:?}"),
            }
            let clean_gate = opts.budget.arm();
            let reused = try_clip_with_stats_in(
                &subject,
                &clip_p,
                BoolOp::Union,
                &opts,
                &clean_gate,
                &mut scratch,
            )
            .unwrap();
            assert_eq!(reused.result, baseline.result, "cap {cap}: output differs");
            assert_eq!(reused.stats, baseline.stats, "cap {cap}: stats differ");
        }
        assert!(
            trips >= 8,
            "cap sweep never tripped mid-run ({trips} trips)"
        );
    }

    #[test]
    fn measure_matches_stitched_area_on_random_quads() {
        let mut s = 0x5eedu64;
        let mut rng = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s % 10_000) as f64 / 10_000.0
        };
        for trial in 0..30 {
            let quad = |rng: &mut dyn FnMut() -> f64| {
                PolygonSet::from_xy(&[
                    (rng() * 4.0, rng() * 4.0),
                    (rng() * 4.0, rng() * 4.0),
                    (rng() * 4.0, rng() * 4.0),
                    (rng() * 4.0, rng() * 4.0),
                ])
            };
            let a = quad(&mut rng);
            let b = quad(&mut rng);
            for op in [
                BoolOp::Intersection,
                BoolOp::Union,
                BoolOp::Difference,
                BoolOp::Xor,
            ] {
                let stitched = eo_area(&clip(&a, &b, op, &opts_seq()));
                let measured = measure_op(&a, &b, op, &opts_seq());
                assert!(
                    (stitched - measured).abs() < 1e-6 * (1.0 + measured.abs()),
                    "trial {trial} op {op:?}: stitched {stitched} vs measured {measured}"
                );
            }
        }
    }
}
