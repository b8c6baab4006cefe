//! Algorithm 2 — the multi-threaded slab-partitioning clipper.
//!
//! The practical algorithm of the paper's Section IV, for a pair of
//! (multi-)polygons:
//!
//! 1. sort the distinct vertex y's (Steps 1–2);
//! 2. compute the bounding rectangle of the union (Step 3);
//! 3. partition the y-range into `p` horizontal slabs containing roughly
//!    equal numbers of event points (the paper's load-balancing heuristic:
//!    "every thread gets roughly equal number of local event points");
//! 4. in parallel, clip both inputs to each slab (`rectangleClip`, realized
//!    by [`polyclip_seqclip::band_clip`]) and run the **sequential** scanbeam
//!    engine inside the slab (Steps 4–6; the paper plugs in GPC here, we
//!    plug in our GPC-equivalent);
//! 5. merge the per-slab partial outputs (Step 8): contours that touch a
//!    slab boundary are dissolved together — their shared boundary runs
//!    cancel — while interior contours pass through untouched.
//!
//! Per-phase wall-clock timers reproduce the partition/clip/merge breakdown
//! of the paper's Figure 9 and the per-slab load profile of Figure 11.
//!
//! Partitioning is **output-sensitive**: instead of every slab worker
//! scanning the full inputs (O(n·p) bbox tests), one shared [`SlabIndex`]
//! bins each contour into the contiguous range of slabs its y-extent
//! overlaps, and each worker touches only its own bucket — O(n + Σ
//! overlaps) total. Contours fully inside their slab are passed to the
//! engine by reference, without clipping or cloning; only boundary-crossing
//! contours go through the band clip, into a reusable per-worker scratch
//! buffer.
//!
//! Every multi-slab run executes a [`GridPlan`] through one driver. The
//! default [`crate::grid::GridConfig`] plans one cell per event-quantile
//! slab and runs the cells in plan order on the calling thread; a refining
//! config (`oversub > 0`) splits heavy slabs into finer cells and runs them
//! on the work-stealing pool ([`polyclip_parprim::stealpool`]). Step 8 is
//! one pass: each cell decomposes its own output inside its pool job, and
//! a single serial stitch on the calling thread dissolves every seam.

use crate::budget::{self, Gate, MeterSnapshot};
use crate::classify::BoolOp;
use crate::engine::{try_clip_refs_in, try_clip_with_stats_in, ClipOptions};
use crate::grid::{Cell, GridPlan};
use crate::resilience::{self, ClipError, ClipOutcome, Degradation, InputRole};
use crate::slabindex::SlabIndex;
use crate::stats::ClipStats;
use polyclip_geom::{Contour, OrdF64, Point, PolygonSet};
use polyclip_parprim::{par_sort_dedup_gated, stealpool};
use polyclip_seqclip::{band_clip_contour_into, xband_clip_contour_into};
use polyclip_sweep::SweepScratch;
use std::borrow::Cow;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Wall-clock phase breakdown of one Algorithm-2 or overlay run (Figure 9 /
/// 11 data). An overlay has no sanitize pass, per-slab partition or merge:
/// its candidate pairs, slab cut and task assignment land in
/// [`PhaseTimes::index`] and each slab's task clips in
/// [`PhaseTimes::per_slab_clip`].
#[derive(Clone, Debug, Default)]
pub struct PhaseTimes {
    /// Up-front input sanitization across both operands. Zero when
    /// [`ClipOptions::sanitize`] is off; a single read-only scan (no
    /// allocation) when the input is clean.
    pub sanitize: Duration,
    /// Shared slab-index build (contour binning) plus cell planning. Zero
    /// on single-slab runs.
    pub index: Duration,
    /// Time each slab spent in `rectangleClip` (partitioning, Steps 4–5).
    pub per_slab_partition: Vec<Duration>,
    /// Time each slab spent clipping (Step 6) — the Figure 11 load profile.
    pub per_slab_clip: Vec<Duration>,
    /// Step-8 merge time: every cell's output decomposition (run inside
    /// its pool job) plus the serial finish, [`PhaseTimes::merge_serial`].
    pub merge: Duration,
    /// Wall clock consumed by failed slab attempts before a recovery
    /// attempt succeeded (panicked attempts, watchdog-cancelled attempts).
    /// Kept out of [`PhaseTimes::per_slab_clip`] so the Figure-11 load
    /// profile and [`PhaseTimes::load_imbalance`] reflect only the work
    /// each slab's *successful* clip did.
    pub retry_total: Duration,
    /// End-to-end wall clock.
    pub total: Duration,
    /// Work-meter totals for the run (intersections found, events
    /// processed, output fragments gathered) — the counters
    /// [`crate::ExecBudget`] limits are enforced against — plus the
    /// scratch-arena accounting: `peak_scratch_bytes` is the high-water
    /// mark of arena capacity on any single worker (the steady-state
    /// memory cost of arena reuse), `scratch_reused_bytes` the capacity
    /// reused instead of freshly allocated across all rounds and cells
    /// (the allocator traffic the arenas removed).
    pub work: MeterSnapshot,
    /// One-time build cost of the [`crate::prepared::PreparedLayer`] that
    /// served this call, for amortization accounting (how many clips pay
    /// off the compile). Zero on cold runs.
    pub prepare_build: Duration,
    /// Chunks executed by a worker other than the one whose deque they were
    /// first pushed onto — the stealing pool's rebalancing traffic.
    pub chunks_stolen: u64,
    /// Total wall clock spent inside steal attempts (scanning and draining
    /// victim deques), summed across workers.
    pub steal: Duration,
    /// Per-worker busy time on the stealing pool: wall clock spent executing
    /// cells (clip plus output decomposition), indexed by worker. One lane
    /// for unrefined plans, which run on the calling thread; empty on
    /// single-slab runs.
    pub per_worker_busy: Vec<Duration>,
    /// The slice of [`PhaseTimes::merge`] that ran serially on the calling
    /// thread after the fan-out, i.e. is not attributable to any worker's
    /// lane: the concatenate–split–stitch finish.
    pub merge_serial: Duration,
}

impl PhaseTimes {
    /// Mean partition time across slabs.
    pub fn partition_avg(&self) -> Duration {
        avg(&self.per_slab_partition)
    }

    /// Mean clip time across slabs.
    pub fn clip_avg(&self) -> Duration {
        avg(&self.per_slab_clip)
    }

    /// Total partition-phase work: the shared index build plus every slab's
    /// own partitioning time (the Figure 9 "partition" bar).
    pub fn partition_total(&self) -> Duration {
        self.index + self.per_slab_partition.iter().sum::<Duration>()
    }

    /// Total clip-phase work summed across slabs (the Figure 9 "clip" bar).
    pub fn clip_total(&self) -> Duration {
        self.per_slab_clip.iter().sum()
    }

    /// Critical-path load imbalance: 1.0 is perfect balance (Figure 11). A
    /// single lane (or none) is perfectly balanced by definition.
    ///
    /// The numerator is the busiest lane *plus* the serial merge residual
    /// ([`PhaseTimes::merge_serial`]) — the critical path a run actually
    /// waits on — and the denominator is the mean lane plus the residual's
    /// fair share, `merge_serial / lanes`:
    ///
    /// ```text
    /// LI = (max_lane + merge_serial) / (mean_lane + merge_serial / lanes)
    /// ```
    ///
    /// When the pool ran two or more workers the lanes are
    /// [`PhaseTimes::per_worker_busy`] (each worker's total chunk-execution
    /// time); otherwise they are [`PhaseTimes::per_slab_clip`], the load
    /// each cell would put on its own thread — a one-lane busy histogram
    /// would report 1.0 whatever the balance. Earlier revisions dropped the
    /// merge term entirely, which let a run with a long serial Step-8 tail
    /// report a flattering ratio; folding the serial residual into both
    /// sides makes LI → 1.0 require genuinely balanced *end-to-end*
    /// critical paths. Retry time ([`PhaseTimes::retry_total`]) stays
    /// excluded: a slab that panicked or was watchdog-cancelled and then
    /// recovered would otherwise report its failed attempt as load.
    pub fn load_imbalance(&self) -> f64 {
        let lanes = if self.per_worker_busy.len() < 2 {
            &self.per_slab_clip
        } else {
            &self.per_worker_busy
        };
        if lanes.len() <= 1 {
            return 1.0;
        }
        let mean = avg(lanes).as_secs_f64();
        let serial = self.merge_serial.as_secs_f64();
        let denom = mean + serial / lanes.len() as f64;
        if denom == 0.0 {
            return 1.0;
        }
        let max = lanes
            .iter()
            .map(Duration::as_secs_f64)
            .fold(0.0f64, f64::max);
        (max + serial) / denom
    }
}

fn avg(v: &[Duration]) -> Duration {
    if v.is_empty() {
        return Duration::ZERO;
    }
    v.iter().sum::<Duration>() / v.len() as u32
}

/// Result of an Algorithm-2 run.
#[derive(Clone, Debug, Default)]
pub struct Algo2Result {
    /// The clipped polygon set.
    pub output: PolygonSet,
    /// Phase timers.
    pub times: PhaseTimes,
    /// Number of slabs actually used (≤ requested when few events exist).
    pub slabs: usize,
    /// Engine counters aggregated across the slab workers (sums, except
    /// `refine_rounds` which takes the per-slab maximum).
    pub stats: ClipStats,
    /// Degradations absorbed across all slabs, in slab order.
    pub degradations: Vec<Degradation>,
}

/// One slab worker's contribution: its partial output plus everything the
/// aggregate needs (stats, degradations, phase timings).
struct SlabPartial {
    output: PolygonSet,
    stats: ClipStats,
    degradations: Vec<Degradation>,
    t_partition: Duration,
    t_clip: Duration,
    /// Time burned by attempts that failed (panic or watchdog trip) before
    /// this partial was produced; aggregated into
    /// [`PhaseTimes::retry_total`], never into the per-slab load profile.
    t_retry: Duration,
}

impl SlabPartial {
    /// A laddered engine run (outcome, partition time, clip time) as a
    /// partial: a recovery rung lands in the degradations and counts as a
    /// slab retry.
    fn from_ladder(run: Laddered<(ClipOutcome, Duration, Duration)>) -> Self {
        let (outcome, t_partition, t_clip) = run.out;
        let mut degradations = outcome.degradations;
        let mut stats = outcome.stats;
        if let Some(d) = run.recovery {
            stats.slab_retries += 1;
            degradations.push(d);
        }
        SlabPartial {
            output: outcome.result,
            stats,
            degradations,
            t_partition,
            t_clip,
            t_retry: run.t_retry,
        }
    }
}

/// The gates a slab worker runs under.
pub(crate) struct SlabGates<'a> {
    /// First-attempt gate: the global gate's child carrying this slab's
    /// watchdog deadline (or the global gate itself when no watchdog
    /// applies). Shares the cancel token, meter and work limits.
    pub(crate) attempt: &'a Gate,
    /// The armed global gate — consulted after a slab-level trip to decide
    /// whether the whole run is over (global trip → propagate) or only the
    /// watchdog fired (global clean → re-ladder the slab).
    pub(crate) global: &'a Gate,
    /// Recovery gate for retry/pristine attempts: cancel-only. A slab whose
    /// watchdog deadline fired must be retried without it to make progress,
    /// and re-arming the work caps would double-charge rediscovered work —
    /// but recovery must stay interruptible.
    pub(crate) recovery: &'a Gate,
}

/// What [`run_slab_ladder`] hands back: the successful attempt's output and
/// how the slab got there.
pub(crate) struct Laddered<T> {
    pub(crate) out: T,
    /// [`Degradation::SlabRetry`] or [`Degradation::SlabFallback`] when a
    /// recovery attempt produced `out`; `None` when attempt 0 did.
    pub(crate) recovery: Option<Degradation>,
    /// Wall clock burned by the attempts that failed before `out`.
    pub(crate) t_retry: Duration,
}

/// Run one slab through the recovery ladder — the one ladder every
/// Algorithm-2 cell, the single-slab path and every layer-overlay slab
/// share.
///
/// Attempt 0 runs the configured engine under the slab's watchdog gate; if
/// the worker panics — or the watchdog deadline fires while the global gate
/// is still clean — attempt 1 retries the identical computation on the
/// cancel-only recovery gate (transient faults, one slow slab); if that
/// dies too, a final attempt re-runs the slab on the *pristine*
/// configuration — sequential, direct-scan beam partition, fault plan
/// stripped. The pristine attempt computes the same band on the same engine
/// family, so a successful fallback is bit-identical to an unfaulted run.
/// Only when all three attempts die does the slab surface
/// [`ClipError::SlabPanic`]. Cancellation and global budget trips always
/// propagate immediately: retrying cannot help, and the caller asked to
/// stop. A slab without a watchdog passes the global gate as `attempt`, so
/// every error of its attempt 0 propagates.
pub(crate) fn run_slab_ladder<T, F>(
    slab: usize,
    seq: &ClipOptions,
    gates: &SlabGates<'_>,
    scratch: &mut SweepScratch,
    body: F,
) -> Result<Laddered<T>, ClipError>
where
    F: Fn(&ClipOptions, &Gate, &mut SweepScratch) -> Result<T, ClipError>,
{
    // The arena stays structurally valid across failed attempts (taken
    // buffers are replaced by empty vectors), so retries and the pristine
    // fallback reuse whatever capacity the dead attempt established.
    let mut attempt_with =
        |opts: &ClipOptions, gate: &Gate, attempt: u32| -> Result<Result<T, ClipError>, String> {
            catch_unwind(AssertUnwindSafe(|| {
                resilience::maybe_panic_slab(opts, slab, attempt);
                resilience::maybe_stall_slab(opts, slab, attempt);
                body(opts, gate, &mut *scratch)
            }))
            .map_err(|p| resilience::panic_message(p.as_ref()))
        };

    // Attempt 0: configured engine, watchdog gate.
    let mut t_retry = Duration::ZERO;
    let mut last_panic = String::new();
    let t0 = Instant::now();
    match attempt_with(seq, gates.attempt, 0) {
        Ok(Ok(out)) => {
            return Ok(Laddered {
                out,
                recovery: None,
                t_retry,
            })
        }
        Ok(Err(e)) => {
            // Geometry errors are deterministic, cancellation is final; a
            // budget trip is re-ladderable only when it was this slab's
            // watchdog — a tripped global gate ends the whole run.
            if !budget::is_budget_trip(&e) {
                return Err(e);
            }
            if let Some(r) = gates.global.checkpoint() {
                return Err(budget::trip_error(r, gates.global));
            }
            t_retry += t0.elapsed();
        }
        Err(msg) => {
            last_panic = msg;
            t_retry += t0.elapsed();
        }
    }

    // Attempt 1: identical retry on the cancel-only recovery gate.
    let t1 = Instant::now();
    match attempt_with(seq, gates.recovery, 1) {
        Ok(Ok(out)) => {
            return Ok(Laddered {
                out,
                recovery: Some(Degradation::SlabRetry { slab }),
                t_retry,
            })
        }
        // Deterministic under the recovery gate (no deadline or caps left
        // to trip): propagate, including cancellation.
        Ok(Err(e)) => return Err(e),
        Err(msg) => {
            if !msg.is_empty() {
                last_panic = msg;
            }
            t_retry += t1.elapsed();
        }
    }

    // Attempt 2: pristine sequential fallback, still cancellable.
    match attempt_with(&resilience::pristine(seq), gates.recovery, 2) {
        Ok(Ok(out)) => Ok(Laddered {
            out,
            recovery: Some(Degradation::SlabFallback { slab }),
            t_retry,
        }),
        Ok(Err(e)) => Err(e),
        Err(msg) => Err(ClipError::SlabPanic {
            slab,
            message: if msg.is_empty() { last_panic } else { msg },
        }),
    }
}

/// Clip a pair of polygon sets with the slab-partitioned Algorithm 2.
///
/// `n_slabs` is the paper's `p` (one slab per thread). `opts` configures
/// fill rule etc.; the per-cell engine always runs sequentially,
/// parallelism comes from the cell fan-out, exactly as in the paper. The
/// default [`ClipOptions::grid`] plans one cell per slab and runs the cells
/// in slab order on the calling thread; a refining config runs its cells
/// on the work-stealing pool, min(`n_slabs`, available parallelism, cells)
/// workers wide.
///
/// Lenient wrapper over [`try_clip_pair_slabs`]: errors (non-finite input,
/// a slab dead on every recovery attempt) yield an empty result.
pub fn clip_pair_slabs(
    subject: &PolygonSet,
    clip_p: &PolygonSet,
    op: BoolOp,
    n_slabs: usize,
    opts: &ClipOptions,
) -> Algo2Result {
    try_clip_pair_slabs(subject, clip_p, op, n_slabs, opts).unwrap_or_default()
}

/// Fallible Algorithm 2 with per-slab panic isolation.
///
/// Every cell worker runs under `catch_unwind`; a panicked cell is retried
/// once and then recomputed on the pristine sequential engine (see
/// [`Degradation::SlabRetry`] / [`Degradation::SlabFallback`]). Errors are
/// typed: non-finite inputs are rejected up front, and a cell that dies on
/// every rung of the ladder surfaces as [`ClipError::SlabPanic`].
/// [`ClipOptions::grid`] picks the cell plan.
pub fn try_clip_pair_slabs(
    subject: &PolygonSet,
    clip_p: &PolygonSet,
    op: BoolOp,
    n_slabs: usize,
    opts: &ClipOptions,
) -> Result<Algo2Result, ClipError> {
    let t_start = Instant::now();
    // Arm the budget exactly once, at this public boundary: the relative
    // deadline becomes absolute here, and every slab worker below shares
    // the gate (via per-slab watchdog children). The recovery gate keeps
    // only the cancel token — see [`SlabGates::recovery`].
    let gate = opts.budget.arm();
    let recovery_gate = opts.budget.cancel_only().arm();
    budget::check(&gate)?;
    // Non-finite coordinates would poison the event ordering below before
    // any slab worker (and its input gate) ever runs; reject them here.
    for (set, role) in [(subject, InputRole::Subject), (clip_p, InputRole::Clip)] {
        if let Some((contour, vertex)) = set.first_non_finite() {
            return Err(ClipError::NonFiniteInput {
                role,
                contour,
                vertex,
            });
        }
    }

    // Up-front sanitization of both operands (once, not per slab), so
    // every worker sees the repaired geometry and the repairs are reported
    // exactly once. Slab workers and the merge then run with sanitization
    // and output validation off: band clipping deliberately creates
    // exactly-collinear seam vertices that fragment cancellation depends
    // on, and the output ladder runs once on the merged result below.
    let t_san = Instant::now();
    let mut pre_degradations: Vec<Degradation> = Vec::new();
    let mut pre_repairs = 0usize;
    let repairs_only = crate::sanitize::SanitizeOptions::repairs_only();
    let (subject_gate, clip_gate) = if opts.sanitize {
        let (s, s_rep) = crate::sanitize::sanitize_set(subject, &repairs_only);
        if !s_rep.is_clean() {
            pre_repairs += s_rep.total();
            pre_degradations.push(Degradation::InputRepaired {
                role: InputRole::Subject,
                repairs: s_rep,
            });
        }
        let (c, c_rep) = crate::sanitize::sanitize_set(clip_p, &repairs_only);
        if !c_rep.is_clean() {
            pre_repairs += c_rep.total();
            pre_degradations.push(Degradation::InputRepaired {
                role: InputRole::Clip,
                repairs: c_rep,
            });
        }
        (s, c)
    } else {
        (
            std::borrow::Cow::Borrowed(subject),
            std::borrow::Cow::Borrowed(clip_p),
        )
    };
    let (subject, clip_p) = (&*subject_gate, &*clip_gate);
    let t_sanitize = t_san.elapsed();

    // Slab workers receive the armed gate explicitly; the budget carried in
    // their options is reduced to the cancel token so nothing downstream
    // can re-arm the deadline.
    let seq = ClipOptions {
        parallel: false,
        sanitize: false,
        validate_output: false,
        budget: opts.budget.cancel_only(),
        ..opts.clone()
    };

    // Steps 1–3: event schedule and bounding rectangle. Above the parprim
    // cutoff the sort-and-dedup runs on the rayon pool (parallel merge sort
    // + dedup-by-pack); below it, the classic sequential idiom.
    let ys: Vec<OrdF64> = par_sort_dedup_gated(
        subject
            .contours()
            .iter()
            .chain(clip_p.contours())
            .flat_map(|c| c.points().iter().map(|p| OrdF64::new(p.y)))
            .collect(),
        Some(&gate),
    );
    budget::check(&gate)?;

    let drive = SlabDrive {
        subject,
        clip_p,
        op,
        opts,
        seq: &seq,
        gate: &gate,
        recovery_gate: &recovery_gate,
        pre_repairs,
        pre_degradations,
        t_start,
        t_sanitize,
        prepare_build: Duration::ZERO,
        prepared_reused: false,
    };

    if ys.len() < 2 || n_slabs <= 1 {
        return drive_single_slab(drive, &mut SweepScratch::new());
    }

    // Equal-event-count slab boundaries over [ymin, ymax], one shared
    // binning pass over both inputs (instead of p full scans), and the cell
    // plan on top. The plan is a pure function of the boundaries, the index
    // and the event schedule — worker count enters only as the paper's p
    // (the requested slab count), never the machine's thread count, so
    // results are machine-independent.
    let boundaries = slab_boundaries(&ys, n_slabs);
    let t_ix = Instant::now();
    let index = SlabIndex::build(subject, clip_p, &boundaries);
    let plan = crate::grid::plan_grid(&boundaries, &index, &ys, &opts.grid, n_slabs);
    let t_index = t_ix.elapsed();
    drive_grid(
        drive,
        &plan,
        &index,
        None,
        t_index,
        n_slabs,
        SweepScratch::new,
        drop,
    )
}

/// Everything the drivers need beyond the partition source: the inputs as
/// the workers will see them (already sanitized), armed gates, per-worker
/// options, pre-aggregated sanitize results, and the provenance fields that
/// end up in [`PhaseTimes`]. Shared by the cold path
/// ([`try_clip_pair_slabs`]) and the prepared path
/// ([`crate::prepared::try_clip_prepared`]).
pub(crate) struct SlabDrive<'a> {
    pub subject: &'a PolygonSet,
    pub clip_p: &'a PolygonSet,
    pub op: BoolOp,
    /// The caller's options (consulted for `validate_output`,
    /// `budget.allow_partial` and `grid`).
    pub opts: &'a ClipOptions,
    /// Worker options: sequential, sanitize/validate off, cancel-only
    /// budget.
    pub seq: &'a ClipOptions,
    /// The armed global gate.
    pub gate: &'a Gate,
    /// The armed cancel-only recovery gate.
    pub recovery_gate: &'a Gate,
    pub pre_repairs: usize,
    pub pre_degradations: Vec<Degradation>,
    pub t_start: Instant,
    pub t_sanitize: Duration,
    pub prepare_build: Duration,
    pub prepared_reused: bool,
}

/// Degenerate instance or a single slab: one unbanded worker, still under
/// the recovery ladder (slab index 0). No watchdog — the slab IS the run,
/// so its deadline is the global one.
pub(crate) fn drive_single_slab(
    d: SlabDrive<'_>,
    scratch: &mut SweepScratch,
) -> Result<Algo2Result, ClipError> {
    let gates = SlabGates {
        attempt: d.gate,
        global: d.gate,
        recovery: d.recovery_gate,
    };
    // The engine only reads the inputs, so the one unbanded slab borrows
    // them whole.
    let partial = run_slab_ladder(0, d.seq, &gates, scratch, |opts, gate, scratch| {
        let t0 = Instant::now();
        try_clip_with_stats_in(d.subject, d.clip_p, d.op, opts, gate, scratch)
            .map(|outcome| (outcome, Duration::ZERO, t0.elapsed()))
    })
    .map(SlabPartial::from_ladder)?;
    let t_retry = partial.t_retry;
    let mut stats = partial.stats;
    stats.input_repairs += d.pre_repairs;
    stats.prepared_reused = d.prepared_reused;
    stats.completed_slabs = 1;
    stats.total_slabs = 1;
    let mut degradations = d.pre_degradations;
    degradations.extend(partial.degradations);
    let mut outcome = ClipOutcome {
        result: partial.output,
        stats,
        degradations,
    };
    if d.opts.validate_output {
        crate::engine::repair_output(d.subject, d.clip_p, d.op, d.opts, &mut outcome);
    }
    d.gate
        .meter()
        .record_scratch_bytes(scratch.high_water_bytes());
    let work = d.gate.meter().snapshot();
    let times = PhaseTimes {
        sanitize: d.t_sanitize,
        index: Duration::ZERO,
        per_slab_partition: vec![Duration::ZERO],
        per_slab_clip: vec![partial.t_clip],
        merge: Duration::ZERO,
        retry_total: t_retry,
        total: d.t_start.elapsed(),
        work,
        prepare_build: d.prepare_build,
        ..Default::default()
    };
    Ok(Algo2Result {
        output: outcome.result,
        times,
        slabs: 1,
        stats: outcome.stats,
        degradations: outcome.degradations,
    })
}

/// Lazily-computed slab-banded contour pieces shared by the refined cells
/// of one base slab, indexed by (slab, position-in-bucket). A refined cell
/// re-bands the already-small slab piece instead of rescanning the full
/// contour, cutting the flat O(contour × cells) partition cost down to
/// O(contour × slabs) + O(piece × cells) — the difference between a 40k-
/// vertex blob scanned 8× per slab and scanned once. Pieces are pure
/// functions of the inputs, so racing `OnceLock` initializations are
/// benign and plan-determinism is preserved.
struct SlabBandMemo {
    pieces: Vec<OnceLock<Contour>>,
    /// CSR offsets mirroring the index's buckets.
    bucket_off: Vec<usize>,
    /// Each base slab's full y-band, reconstructed as the envelope of its
    /// cells (keeps the planner's outer-band convention verbatim).
    band: Vec<(f64, f64)>,
    /// Per-contour bounding boxes by global contour id —
    /// [`Contour::bbox`] is an O(vertices) scan, far too hot to repeat
    /// once per (cell, entry).
    bboxes: Vec<OnceLock<polyclip_geom::BBox>>,
}

impl SlabBandMemo {
    fn new(plan: &GridPlan, index: &SlabIndex<'_>) -> Self {
        let n = index.n_slabs();
        let mut bucket_off = Vec::with_capacity(n + 1);
        bucket_off.push(0usize);
        let mut max_id = 0u32;
        for s in 0..n {
            for e in index.slab(s) {
                max_id = max_id.max(e.contour);
            }
            bucket_off.push(bucket_off[s] + index.slab(s).len());
        }
        let mut band = vec![(f64::INFINITY, f64::NEG_INFINITY); n];
        for c in &plan.cells {
            let b = &mut band[c.slab];
            b.0 = b.0.min(c.y0);
            b.1 = b.1.max(c.y1);
        }
        SlabBandMemo {
            pieces: (0..bucket_off[n]).map(|_| OnceLock::new()).collect(),
            bucket_off,
            band,
            bboxes: (0..=max_id as usize).map(|_| OnceLock::new()).collect(),
        }
    }

    /// The slab-banded piece for bucket entry `k` of `slab`, computed on
    /// first use by whichever cell job gets there first.
    fn piece(&self, slab: usize, k: usize, c: &Contour, scratch: &mut Vec<Point>) -> &Contour {
        let (y0, y1) = self.band[slab];
        self.pieces[self.bucket_off[slab] + k]
            .get_or_init(|| band_clip_contour_into(c, y0, y1, scratch))
    }

    fn bbox(&self, id: u32, c: &Contour) -> polyclip_geom::BBox {
        *self.bboxes[id as usize].get_or_init(|| c.bbox())
    }
}

/// The cell body. An unrefined cell walks its slab's bucket of the shared
/// index: fully-inside contours are borrowed with no clipping, boundary
/// crossers are band-clipped into one reusable scratch buffer, and the
/// contour sequence is exactly what `band_clip` of both full inputs would
/// have produced — same contours, same order, same validity filtering — so
/// the engine sees a bit-identical instance. A refined cell re-tests each
/// bucket entry against the cell rectangle, y-band-clips first (cuts are
/// computed from the *original* edges, so y-siblings produce bit-identical
/// seam vertices), then x-band-clips the y-banded contour (both x-siblings
/// clip the same y-banded input, so column-seam vertices are bit-identical
/// too).
#[allow(clippy::too_many_arguments)]
fn run_cell(
    cell_id: usize,
    cell: &Cell,
    index: &SlabIndex<'_>,
    memo: Option<&SlabBandMemo>,
    op: BoolOp,
    seq: &ClipOptions,
    gates: &SlabGates<'_>,
    sweep_scratch: &mut SweepScratch,
) -> Result<SlabPartial, ClipError> {
    // Per-entry dispositions for the second pass. `PolygonSet::push`
    // silently drops invalid (< 3 point) contours, so the same filter
    // applies here.
    const SKIP: u32 = u32::MAX;
    const BORROW: u32 = u32::MAX - 1;
    run_slab_ladder(cell_id, seq, gates, sweep_scratch, |opts, gate, sweep| {
        let entries = index.slab(cell.slab);
        let (ylo, yhi) = (cell.y0, cell.y1);
        let (xlo, xhi) = (cell.x0, cell.x1);
        let t0 = Instant::now();
        let mut scratch: Vec<Point> = Vec::new();
        let mut xscratch: Vec<Point> = Vec::new();
        let mut arena: Vec<Contour> = Vec::new();
        let mut slots: Vec<u32> = Vec::with_capacity(entries.len());
        for (k, e) in entries.iter().enumerate() {
            let c = index.contour(e.contour);
            if !cell.refined {
                if e.inside {
                    slots.push(if c.is_valid() { BORROW } else { SKIP });
                } else {
                    let clipped = band_clip_contour_into(c, ylo, yhi, &mut scratch);
                    if clipped.is_valid() {
                        slots.push(arena.len() as u32);
                        arena.push(clipped);
                    } else {
                        slots.push(SKIP);
                    }
                }
                continue;
            }
            let bb = match memo {
                Some(m) => m.bbox(e.contour, c),
                None => c.bbox(),
            };
            if bb.ymax < ylo || bb.ymin > yhi || bb.xmax < xlo || bb.xmin > xhi {
                slots.push(SKIP);
                continue;
            }
            let inside_y = ylo <= bb.ymin && bb.ymax <= yhi;
            let inside_x = cell.x_unbounded() || (xlo <= bb.xmin && bb.xmax <= xhi);
            if inside_y && inside_x {
                slots.push(if c.is_valid() { BORROW } else { SKIP });
                continue;
            }
            // For a contour that straddles the slab band, band it into the
            // slab once (memoized, shared with the slab's other cells) and
            // re-band the piece into this cell's narrower range; contours
            // already inside the slab band (`e.inside`) have no piece to
            // share, so they band straight off the original.
            let yc: Cow<'_, Contour> = if inside_y {
                Cow::Borrowed(c)
            } else if let Some(m) = memo.filter(|_| !e.inside) {
                let piece = m.piece(cell.slab, k, c, &mut scratch);
                if !piece.is_valid() {
                    slots.push(SKIP);
                    continue;
                }
                let (sy0, sy1) = m.band[cell.slab];
                if ylo <= sy0 && sy1 <= yhi {
                    Cow::Borrowed(piece)
                } else {
                    Cow::Owned(band_clip_contour_into(piece, ylo, yhi, &mut scratch))
                }
            } else {
                Cow::Owned(band_clip_contour_into(c, ylo, yhi, &mut scratch))
            };
            if !yc.is_valid() {
                slots.push(SKIP);
                continue;
            }
            let cut = if inside_x {
                yc.into_owned()
            } else {
                xband_clip_contour_into(&yc, xlo, xhi, &mut xscratch)
            };
            if cut.is_valid() {
                slots.push(arena.len() as u32);
                arena.push(cut);
            } else {
                slots.push(SKIP);
            }
        }
        let mut subject_refs: Vec<&Contour> = Vec::new();
        let mut clip_refs: Vec<&Contour> = Vec::new();
        for (e, &slot) in entries.iter().zip(&slots) {
            let c = match slot {
                SKIP => continue,
                BORROW => index.contour(e.contour),
                i => &arena[i as usize],
            };
            if index.is_subject(e.contour) {
                subject_refs.push(c);
            } else {
                clip_refs.push(c);
            }
        }
        let t_partition = t0.elapsed();
        let t1 = Instant::now();
        try_clip_refs_in(&subject_refs, &clip_refs, op, opts, gate, sweep)
            .map(|outcome| (outcome, t_partition, t1.elapsed()))
    })
    .map(SlabPartial::from_ladder)
}

/// One cell's landed contribution, parked in its slot until the driver
/// consumes it.
#[derive(Default)]
struct CellDone {
    /// The output already decomposed for the single-pass seam dissolve
    /// (the expensive half of Step 8, done on the worker's clock). Empty
    /// for a skipped or lost cell.
    frag: SeamFragment,
    stats: ClipStats,
    degradations: Vec<Degradation>,
    t_partition: Duration,
    t_clip: Duration,
    t_retry: Duration,
    t_decompose: Duration,
    /// Lost to a budget trip under `allow_partial` (or never run): its
    /// fragment is empty and it counts in the `PartialResult` degradation.
    lost: bool,
}

fn lock<'a, T>(m: &'a Mutex<T>) -> std::sync::MutexGuard<'a, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Steps 4–8, shared by the cold and prepared paths: executes the plan's
/// cells on the work-stealing pool, each cell under the recovery ladder and
/// its own watchdog, then finishes Step 8, salvages partial runs and runs
/// the output ladder once on the merged result.
///
/// `skip[s]` marks base slabs whose output is provably empty — the
/// prepared path's query-side pruning — whose cells are recorded as
/// completed with zero-duration partials instead of running the engine.
/// `acquire` / `release` supply each worker's scratch arena: the cold path
/// makes a fresh arena, the prepared path checks arenas out of the layer's
/// cross-request pool.
///
/// `workers` is the paper's `p` — it sizes the pool, never the plan, so
/// output depends only on the plan. Each cell decomposes its output for the
/// seam dissolve inside its own pool job; only the final
/// concatenate–split–stitch pass runs serially, on the calling thread.
#[allow(clippy::too_many_arguments)]
pub(crate) fn drive_grid<A, R>(
    d: SlabDrive<'_>,
    plan: &GridPlan,
    index: &SlabIndex<'_>,
    skip: Option<&[bool]>,
    t_index: Duration,
    workers: usize,
    acquire: A,
    release: R,
) -> Result<Algo2Result, ClipError>
where
    A: Fn() -> SweepScratch + Sync,
    R: Fn(SweepScratch) + Sync,
{
    let cells = plan.cells.len();
    let (gate, recovery_gate) = (d.gate, d.recovery_gate);
    // Pool width. An unrefined plan runs on the calling thread: extra
    // workers cut its latency but grow peak RSS far more, through glibc's
    // per-thread malloc arenas (EXPERIMENTS.md). A refining plan runs at the
    // requested p, capped by the hardware (extra threads on an
    // oversubscribed host only add scheduling noise — the *plan* is a pure
    // function of p, so output is identical at any width) and by the cell
    // count (idle workers have nothing to steal).
    let n_workers = if d.opts.grid.oversub == 0 {
        1
    } else {
        let hw = std::thread::available_parallelism().map_or(usize::MAX, usize::from);
        workers.max(1).min(hw).min(cells.max(1))
    };

    // Per-cell watchdog deadlines from the plan's mass shares: twice the
    // fair share of the remaining time, floored at the uniform share (so
    // tiny cells are not starved) and capped at the global deadline —
    // generous enough that balanced runs never trip it, tight enough that
    // one runaway cell is cancelled and re-laddered while its siblings
    // finish.
    let now = Instant::now();
    let deadlines: Vec<Option<Instant>> = (0..cells)
        .map(|i| {
            let deadline = gate.deadline()?;
            let remaining = deadline.saturating_duration_since(now);
            let uniform = 1.0 / cells as f64;
            let share = if plan.total_mass == 0 {
                uniform
            } else {
                plan.cells[i].mass as f64 / plan.total_mass as f64
            };
            let frac = (2.0 * share.max(uniform)).min(1.0);
            Some(now + remaining.mul_f64(frac))
        })
        .collect();

    let results: Vec<Mutex<Option<CellDone>>> = (0..cells).map(|_| Mutex::new(None)).collect();
    // Lazily-populated per-worker scratch arenas: a worker's later cells
    // replay the capacity its first cell allocated.
    let scratches: Vec<Mutex<Option<SweepScratch>>> =
        (0..n_workers).map(|_| Mutex::new(None)).collect();
    let fatal: Mutex<Option<ClipError>> = Mutex::new(None);
    let first_trip: Mutex<Option<ClipError>> = Mutex::new(None);
    let abort = AtomicBool::new(false);

    // Slab-banded piece memo for refined cells (absent on an unrefined
    // plan, where each cell IS its slab and bands straight off the index).
    let memo = plan
        .cells
        .iter()
        .any(|c| c.refined)
        .then(|| SlabBandMemo::new(plan, index));

    // Seeded in reverse: each deque's owner pops LIFO, so every worker
    // starts on its earliest cell and a one-worker run goes in plan order.
    // The watchdog deadlines above are armed up front, so a stall in an
    // early cell would otherwise also expire the deadlines of the cells
    // queued behind it.
    let seeds: Vec<usize> = (0..cells).rev().collect();
    let stop = || abort.load(Ordering::Acquire) || gate.poll().is_some();
    let exec = |worker: usize, i: usize| -> Vec<usize> {
        let cell = &plan.cells[i];
        let mut res = CellDone::default();
        // A provably-empty slab completes with a zero-duration partial.
        if !skip.is_some_and(|s| s[cell.slab]) {
            let mut guard = lock(&scratches[worker]);
            let scratch = guard.get_or_insert_with(&acquire);
            let watchdog = gate.child_with_deadline(deadlines[i]);
            let gates = SlabGates {
                attempt: &watchdog,
                global: gate,
                recovery: recovery_gate,
            };
            match run_cell(i, cell, index, memo.as_ref(), d.op, d.seq, &gates, scratch) {
                Ok(p) => {
                    res.stats = p.stats;
                    res.degradations = p.degradations;
                    res.t_partition = p.t_partition;
                    res.t_clip = p.t_clip;
                    res.t_retry = p.t_retry;
                    let td = Instant::now();
                    res.frag = decompose_fragment(p.output, &plan.seam_ys, &plan.seam_xs);
                    res.t_decompose = td.elapsed();
                }
                Err(e) if d.opts.budget.allow_partial && budget::is_budget_trip(&e) => {
                    res.lost = true;
                    lock(&first_trip).get_or_insert(e);
                }
                Err(e) => {
                    lock(&fatal).get_or_insert(e);
                    abort.store(true, Ordering::Release);
                    return Vec::new();
                }
            }
        }
        *lock(&results[i]) = Some(res);
        Vec::new()
    };
    let (pool_stats, _leftover) = stealpool::run(n_workers, seeds, stop, exec);

    for s in &scratches {
        if let Some(sc) = lock(s).take() {
            release(sc);
        }
    }
    if let Some(e) = fatal.into_inner().unwrap_or_else(|e| e.into_inner()) {
        return Err(e);
    }
    let mut first_trip = first_trip.into_inner().unwrap_or_else(|e| e.into_inner());
    // A tripped global gate ends the run in strict mode; under
    // `allow_partial` the unexecuted cells become lost partials below.
    if let Some(r) = gate.poll() {
        let e = budget::trip_error(r, gate);
        if !d.opts.budget.allow_partial || !budget::is_budget_trip(&e) {
            return Err(e);
        }
        if first_trip.is_none() {
            first_trip = Some(e);
        }
    }

    let mut stats = ClipStats {
        input_repairs: d.pre_repairs,
        prepared_reused: d.prepared_reused,
        ..ClipStats::default()
    };
    let mut degradations: Vec<Degradation> = d.pre_degradations;
    let mut per_slab_partition: Vec<Duration> = Vec::with_capacity(cells);
    let mut per_slab_clip: Vec<Duration> = Vec::with_capacity(cells);
    let mut frags: Vec<SeamFragment> = Vec::with_capacity(cells);
    let mut retry_total = Duration::ZERO;
    let mut decompose_total = Duration::ZERO;
    let mut lost = 0usize;
    for slot in results {
        let res = slot
            .into_inner()
            .unwrap_or_else(|e| e.into_inner())
            .unwrap_or_else(|| CellDone {
                lost: true,
                ..CellDone::default()
            });
        if res.lost {
            lost += 1;
        } else {
            per_slab_partition.push(res.t_partition);
            per_slab_clip.push(res.t_clip);
            retry_total += res.t_retry;
            decompose_total += res.t_decompose;
            stats.absorb(&res.stats);
            degradations.extend(res.degradations);
        }
        frags.push(res.frag);
    }
    let completed = cells - lost;
    if completed == 0 {
        return Err(first_trip.expect("no cells completed without a recorded trip"));
    }
    stats.completed_slabs = completed;
    stats.total_slabs = cells;
    if lost > 0 {
        degradations.push(Degradation::PartialResult {
            completed_slabs: completed,
            total_slabs: cells,
        });
    }

    // Step 8: the cells already decomposed their outputs; what is left is
    // the serial concatenate–split–stitch pass.
    let t_finish = Instant::now();
    let output = finish_merge(frags);
    let merge_serial = t_finish.elapsed();

    // Output ladder on the merged result (once, not per cell).
    let (output, stats, degradations) = if d.opts.validate_output {
        let mut outcome = ClipOutcome {
            result: output,
            stats,
            degradations,
        };
        crate::engine::repair_output(d.subject, d.clip_p, d.op, d.opts, &mut outcome);
        (outcome.result, outcome.stats, outcome.degradations)
    } else {
        (output, stats, degradations)
    };

    let work = gate.meter().snapshot();
    Ok(Algo2Result {
        output,
        times: PhaseTimes {
            sanitize: d.t_sanitize,
            index: t_index,
            per_slab_partition,
            per_slab_clip,
            merge: decompose_total + merge_serial,
            retry_total,
            total: d.t_start.elapsed(),
            work,
            prepare_build: d.prepare_build,
            chunks_stolen: pool_stats.stolen,
            steal: pool_stats.steal_time,
            per_worker_busy: pool_stats.worker_busy,
            merge_serial,
        },
        slabs: cells,
        stats,
        degradations,
    })
}

/// Slab boundaries with roughly equal event counts per slab; first and last
/// are the extreme event y's, interior boundaries are event quantiles.
/// Empty input yields no boundaries (no slabs to cut).
pub fn slab_boundaries(sorted_ys: &[OrdF64], n_slabs: usize) -> Vec<f64> {
    let m = sorted_ys.len();
    let Some(first) = sorted_ys.first() else {
        return Vec::new();
    };
    let mut b: Vec<f64> = Vec::with_capacity(n_slabs + 1);
    let mut prev = first.get();
    b.push(prev);
    for i in 1..n_slabs {
        let idx = i * (m - 1) / n_slabs;
        let y = sorted_ys[idx].get();
        if y > prev {
            b.push(y);
            prev = y;
        }
    }
    let last = sorted_ys[m - 1].get();
    if last > prev {
        b.push(last);
    }
    b
}

/// Fuse per-slab partial outputs (Step 8).
///
/// Strictly interior contours pass through untouched. Contours touching an
/// interior slab boundary are decomposed into directed edges; the
/// horizontal runs lying on a boundary are split at the union of both
/// sides' endpoints (band-clip cut vertices are bit-identical across the
/// seam, so after splitting, opposite runs cancel exactly); cancellation +
/// stitching then reassembles seamless contours. This is the paper's merge
/// of partial output polygons, done in O(touching · log) without re-running
/// the clipping engine.
pub fn merge_slab_outputs(
    parts: impl Iterator<Item = PolygonSet>,
    interior_boundaries: &[f64],
) -> PolygonSet {
    finish_merge(
        parts
            .map(|p| decompose_fragment(p, interior_boundaries, &[]))
            .collect(),
    )
}

/// One partial output, decomposed for the Step-8 dissolve: contours away
/// from every seam pass through whole, the rest as directed edges plus the
/// endpoints of their seam runs. The decomposition is embarrassingly
/// parallel per partial — grid cell workers run it eagerly on the stealing
/// pool — while [`finish_merge`] (concatenate, split, stitch) is the serial
/// residual.
#[derive(Default)]
struct SeamFragment {
    pass: PolygonSet,
    edges: Vec<(Point, Point)>,
    /// `(seam y, run-endpoint x)` pairs from horizontal runs on a y-seam.
    y_cuts: Vec<(OrdF64, OrdF64)>,
    /// `(seam x, run-endpoint y)` pairs from vertical runs on an x-seam.
    x_cuts: Vec<(OrdF64, OrdF64)>,
}

/// True when some value of the sorted `lines` falls in `[lo, hi]`.
#[inline]
fn touches_line(lines: &[f64], lo: f64, hi: f64) -> bool {
    let i = lines.partition_point(|&v| v < lo);
    i < lines.len() && lines[i] <= hi
}

/// Membership test against a sorted line set, under IEEE equality — the
/// same semantics as a `HashSet<OrdF64>` of the lines (`OrdF64` compares
/// via `partial_cmp`, so `-0.0` and `+0.0` are one line).
#[inline]
fn line_hit(lines: &[f64], v: f64) -> bool {
    let i = lines.partition_point(|&l| l < v);
    i < lines.len() && lines[i] == v
}

/// Decompose one partial against every seam line of the plan: horizontal
/// lines `y_lines` and vertical lines `x_lines`, both sorted ascending.
/// Treating each seam segment as its full line is sound because the cells
/// partition the plane into disjoint rectangles, so exactly-opposite
/// overlapping runs can only meet at a real seam; runs split at non-seam
/// crossings merely reassemble in stitching.
fn decompose_fragment(ps: PolygonSet, y_lines: &[f64], x_lines: &[f64]) -> SeamFragment {
    let mut frag = SeamFragment::default();
    for c in ps.into_contours() {
        let bb = c.bbox();
        if !touches_line(y_lines, bb.ymin, bb.ymax) && !touches_line(x_lines, bb.xmin, bb.xmax) {
            frag.pass.push(c);
            continue;
        }
        for e in c.edges() {
            if e.a.y == e.b.y && line_hit(y_lines, e.a.y) {
                frag.y_cuts.push((OrdF64::new(e.a.y), OrdF64::new(e.a.x)));
                frag.y_cuts.push((OrdF64::new(e.a.y), OrdF64::new(e.b.x)));
            } else if e.a.x == e.b.x && line_hit(x_lines, e.a.x) {
                frag.x_cuts.push((OrdF64::new(e.a.x), OrdF64::new(e.a.y)));
                frag.x_cuts.push((OrdF64::new(e.a.x), OrdF64::new(e.b.y)));
            }
            frag.edges.push((e.a, e.b));
        }
    }
    frag
}

/// Concatenate fragments in part order, split every seam run at the union
/// of both sides' endpoints, cancel and stitch. Produces exactly the
/// contour sequence the pre-fragment implementation did: pass-through
/// contours first in part order, then the stitched seam contours.
fn finish_merge(frags: Vec<SeamFragment>) -> PolygonSet {
    let mut pass = PolygonSet::new();
    let mut edges: Vec<(Point, Point)> = Vec::new();
    let mut y_cuts: crate::stitch::SeamCuts = HashMap::new();
    let mut x_cuts: crate::stitch::SeamCuts = HashMap::new();
    for f in frags {
        pass.extend(f.pass);
        edges.extend(f.edges);
        for (line, v) in f.y_cuts {
            y_cuts.entry(line).or_default().push(v);
        }
        for (line, v) in f.x_cuts {
            x_cuts.entry(line).or_default().push(v);
        }
    }
    if edges.is_empty() {
        return pass;
    }
    for cuts in y_cuts.values_mut().chain(x_cuts.values_mut()) {
        cuts.sort_unstable();
        cuts.dedup();
    }
    let split_edges = crate::stitch::split_seam_runs(edges, &y_cuts, &x_cuts);
    let stitched = crate::stitch::stitch(split_edges, true);
    pass.extend(PolygonSet::from_contours(stitched));
    pass
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{eo_area, measure_op};
    use polyclip_geom::contour::rect;
    use polyclip_geom::{FillRule, Point};

    fn sq(x0: f64, y0: f64, x1: f64, y1: f64) -> PolygonSet {
        PolygonSet::from_contour(rect(x0, y0, x1, y1))
    }

    fn seq() -> ClipOptions {
        ClipOptions::sequential()
    }

    fn refined() -> ClipOptions {
        ClipOptions {
            grid: crate::grid::GridConfig::refined(),
            ..seq()
        }
    }

    #[test]
    fn matches_engine_on_offset_squares_for_all_ops() {
        let a = sq(0.0, 0.0, 2.0, 2.0);
        let b = sq(1.0, 1.0, 3.0, 3.0);
        for op in [
            BoolOp::Intersection,
            BoolOp::Union,
            BoolOp::Difference,
            BoolOp::Xor,
        ] {
            for slabs in [1usize, 2, 3, 7] {
                let r = clip_pair_slabs(&a, &b, op, slabs, &seq());
                let want = measure_op(&a, &b, op, &seq());
                let got = eo_area(&r.output);
                assert!(
                    (got - want).abs() < 1e-9,
                    "op {op:?} slabs {slabs}: {got} vs {want}"
                );
            }
        }
    }

    #[test]
    fn union_across_slabs_is_seamless() {
        // One tall rectangle cut by many slab boundaries must come back as a
        // single 4-vertex contour: the dissolve removes every seam.
        let a = sq(0.0, 0.0, 1.0, 10.0);
        let b = sq(0.25, 2.0, 0.75, 8.0); // strictly inside a
        let r = clip_pair_slabs(&a, &b, BoolOp::Union, 6, &seq());
        assert_eq!(r.output.len(), 1, "contours: {:?}", r.output.len());
        assert_eq!(r.output.contours()[0].len(), 4);
        assert!((eo_area(&r.output) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn interior_contours_bypass_the_merge() {
        // Small islands strictly inside slabs pass through without dissolve;
        // correctness must be unaffected.
        let mut contours = Vec::new();
        for i in 0..8 {
            let y = i as f64 * 3.0;
            contours.push(rect(0.0, y + 0.2, 1.0, y + 0.8));
        }
        let a = PolygonSet::from_contours(contours);
        let b = sq(-1.0, -1.0, 2.0, 25.0);
        let r = clip_pair_slabs(&a, &b, BoolOp::Intersection, 4, &seq());
        assert_eq!(r.output.len(), 8);
        assert!((eo_area(&r.output) - 8.0 * 0.6).abs() < 1e-9);
    }

    #[test]
    fn phase_times_are_populated() {
        let a = sq(0.0, 0.0, 4.0, 12.0);
        let b = sq(1.0, 1.0, 5.0, 11.0);
        let r = clip_pair_slabs(&a, &b, BoolOp::Intersection, 3, &seq());
        assert!(r.slabs >= 2);
        assert_eq!(r.times.per_slab_clip.len(), r.slabs);
        assert_eq!(r.times.per_slab_partition.len(), r.slabs);
        assert!(r.times.total >= r.times.merge);
        assert!(r.times.load_imbalance() >= 1.0);
    }

    #[test]
    fn degenerate_single_slab_falls_back_to_sequential() {
        let a = sq(0.0, 0.0, 1.0, 1.0);
        let b = sq(0.5, 0.5, 1.5, 1.5);
        let r = clip_pair_slabs(&a, &b, BoolOp::Intersection, 1, &seq());
        assert_eq!(r.slabs, 1);
        assert!((eo_area(&r.output) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn more_slabs_than_events_is_safe() {
        let a = sq(0.0, 0.0, 1.0, 1.0);
        let b = sq(0.5, 0.5, 1.5, 1.5);
        let r = clip_pair_slabs(&a, &b, BoolOp::Union, 64, &seq());
        assert!((eo_area(&r.output) - 1.75).abs() < 1e-9);
    }

    #[test]
    fn concave_inputs_across_slabs() {
        // A comb-shaped subject spanning several slabs.
        let comb = PolygonSet::from_xy(&[
            (0.0, 0.0),
            (10.0, 0.0),
            (10.0, 6.0),
            (8.0, 6.0),
            (8.0, 2.0),
            (6.0, 2.0),
            (6.0, 6.0),
            (4.0, 6.0),
            (4.0, 2.0),
            (2.0, 2.0),
            (2.0, 6.0),
            (0.0, 6.0),
        ]);
        let b = sq(1.0, 1.0, 9.0, 5.0);
        for slabs in [2usize, 3, 5] {
            let r = clip_pair_slabs(&comb, &b, BoolOp::Intersection, slabs, &seq());
            let want = measure_op(&comb, &b, BoolOp::Intersection, &seq());
            assert!((eo_area(&r.output) - want).abs() < 1e-9, "slabs={slabs}");
        }
    }

    #[test]
    fn difference_result_has_correct_membership() {
        let a = sq(0.0, 0.0, 4.0, 8.0);
        let b = sq(1.0, 1.0, 3.0, 7.0);
        let r = clip_pair_slabs(&a, &b, BoolOp::Difference, 4, &seq());
        assert!(!r.output.contains(Point::new(2.0, 4.0), FillRule::EvenOdd));
        assert!(r.output.contains(Point::new(0.5, 4.0), FillRule::EvenOdd));
        assert!((eo_area(&r.output) - (32.0 - 12.0)).abs() < 1e-9);
    }

    #[test]
    fn slab_boundaries_of_empty_input_is_empty() {
        assert!(slab_boundaries(&[], 4).is_empty());
    }

    #[test]
    fn try_variant_matches_lenient_variant() {
        let a = sq(0.0, 0.0, 4.0, 8.0);
        let b = sq(1.0, 1.0, 3.0, 7.0);
        let r = try_clip_pair_slabs(&a, &b, BoolOp::Difference, 4, &seq()).unwrap();
        let l = clip_pair_slabs(&a, &b, BoolOp::Difference, 4, &seq());
        assert_eq!(r.output, l.output);
        assert!(r.degradations.is_empty());
        assert_eq!(r.stats.slab_retries, 0);
        assert!(r.stats.n_edges > 0, "per-slab stats must aggregate");
    }

    #[test]
    fn slab_boundaries_are_strictly_increasing() {
        let ys: Vec<OrdF64> = (0..100).map(|i| OrdF64::new((i / 10) as f64)).collect();
        let b = slab_boundaries(&ys, 8);
        for w in b.windows(2) {
            assert!(w[0] < w[1]);
        }
        assert_eq!(*b.first().unwrap(), 0.0);
        assert_eq!(*b.last().unwrap(), 9.0);
    }

    #[test]
    fn slab_boundaries_collapse_duplicate_heavy_quantiles() {
        // Inputs whose event y's are dominated by a few values: quantile
        // picks collide, and the boundaries must stay strictly increasing
        // with at most the requested number of slabs — never empty bands.
        for (distinct, reps, requested) in [
            (2usize, 50usize, 8usize),
            (3, 33, 16),
            (1, 100, 4),
            (5, 7, 64),
        ] {
            let ys: Vec<OrdF64> = (0..distinct * reps)
                .map(|i| OrdF64::new((i % distinct) as f64))
                .collect();
            let ys = par_sort_dedup_gated(ys, None);
            let b = slab_boundaries(&ys, requested);
            for w in b.windows(2) {
                assert!(w[0] < w[1], "distinct={distinct} requested={requested}");
            }
            let slabs = b.len().saturating_sub(1);
            assert!(
                slabs <= requested,
                "distinct={distinct}: {slabs} slabs > {requested} requested"
            );
            // Never more slabs than distinct event gaps.
            assert!(slabs <= distinct.saturating_sub(1));
            if distinct >= 2 {
                assert_eq!(*b.first().unwrap(), 0.0);
                assert_eq!(*b.last().unwrap(), (distinct - 1) as f64);
            }
        }
    }

    #[test]
    fn single_slab_is_perfectly_balanced() {
        let a = sq(0.0, 0.0, 1.0, 1.0);
        let b = sq(0.5, 0.5, 1.5, 1.5);
        let r = clip_pair_slabs(&a, &b, BoolOp::Intersection, 1, &seq());
        assert_eq!(r.slabs, 1);
        assert_eq!(r.times.load_imbalance(), 1.0);
        assert_eq!(r.times.index, Duration::ZERO);
        assert_eq!(r.times.partition_total(), Duration::ZERO);
        assert_eq!(r.times.clip_total(), r.times.per_slab_clip[0]);
    }

    #[test]
    fn phase_totals_sum_index_and_per_slab_times() {
        let t = PhaseTimes {
            sanitize: Duration::ZERO,
            index: Duration::from_millis(3),
            per_slab_partition: vec![Duration::from_millis(1), Duration::from_millis(2)],
            per_slab_clip: vec![Duration::from_millis(5), Duration::from_millis(7)],
            merge: Duration::from_millis(11),
            retry_total: Duration::ZERO,
            total: Duration::from_millis(29),
            ..Default::default()
        };
        assert_eq!(t.partition_total(), Duration::from_millis(6));
        assert_eq!(t.clip_total(), Duration::from_millis(12));
        assert!(t.load_imbalance() > 1.0);
        // Without a serial residual, LI is the plain max/mean ratio.
        assert!((t.load_imbalance() - 7.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn load_imbalance_folds_in_the_serial_merge_residual() {
        // Slab lanes of 5 ms and 7 ms with an 11 ms serial merge:
        // LI = (7 + 11) / (6 + 11/2) = 18 / 11.5.
        let t = PhaseTimes {
            per_slab_clip: vec![Duration::from_millis(5), Duration::from_millis(7)],
            merge: Duration::from_millis(11),
            merge_serial: Duration::from_millis(11),
            ..Default::default()
        };
        assert!((t.load_imbalance() - 18.0 / 11.5).abs() < 1e-12);
        // Pool lanes take precedence over the slab lanes when present, and
        // a fully serial merge with balanced lanes still reports > 1.
        let p = PhaseTimes {
            per_slab_clip: vec![Duration::from_millis(5), Duration::from_millis(7)],
            per_worker_busy: vec![Duration::from_millis(6), Duration::from_millis(6)],
            merge_serial: Duration::from_millis(6),
            ..Default::default()
        };
        assert!((p.load_imbalance() - 12.0 / 9.0).abs() < 1e-12);
    }

    #[test]
    fn load_imbalance_reads_slab_lanes_when_the_pool_ran_one_worker() {
        // An unrefined plan runs on one pool worker: its single busy lane
        // would read 1.0 whatever the balance, so LI falls back to the
        // per-cell clip times, (7 + 11) / (6 + 11/2) as above.
        let t = PhaseTimes {
            per_slab_clip: vec![Duration::from_millis(5), Duration::from_millis(7)],
            per_worker_busy: vec![Duration::from_millis(12)],
            merge: Duration::from_millis(11),
            merge_serial: Duration::from_millis(11),
            ..Default::default()
        };
        assert!((t.load_imbalance() - 18.0 / 11.5).abs() < 1e-12);
    }

    #[test]
    fn pool_width_is_one_unless_the_config_refines() {
        // Dense stacked strips: heavy enough that the refining config
        // splits them into many cells.
        let contours: Vec<_> = (0..120)
            .map(|i| rect(0.0, i as f64 * 0.25, 4.0, i as f64 * 0.25 + 0.2))
            .collect();
        let a = PolygonSet::from_contours(contours);
        let b = sq(1.0, 0.0, 3.0, 30.0);
        let r = clip_pair_slabs(&a, &b, BoolOp::Union, 4, &seq());
        assert_eq!(r.slabs, 4);
        assert_eq!(r.times.per_worker_busy.len(), 1);

        let g = clip_pair_slabs(&a, &b, BoolOp::Union, 4, &refined());
        let hw = std::thread::available_parallelism().map_or(1, usize::from);
        assert!(g.slabs > 4, "expected refinement");
        assert_eq!(g.times.per_worker_busy.len(), 4.min(hw).min(g.slabs));
    }

    #[test]
    fn full_scan_backend_matches_slab_index_backend() {
        // The original Algorithm-2 partition band-clipped both *full*
        // inputs into every slab. The default plan bins contours by the
        // slab index instead; output and engine counters must not differ.
        let a = PolygonSet::from_xy(&[(0.0, 0.0), (4.0, 0.3), (5.0, 9.7), (0.5, 10.0)]);
        let b = PolygonSet::from_xy(&[(2.0, -1.0), (6.0, 4.0), (3.0, 11.0), (1.0, 5.0)]);
        let mut ys: Vec<OrdF64> = a
            .contours()
            .iter()
            .chain(b.contours())
            .flat_map(|c| c.points().iter().map(|p| OrdF64::new(p.y)))
            .collect();
        ys.sort_unstable();
        ys.dedup();
        for op in [BoolOp::Intersection, BoolOp::Union, BoolOp::Xor] {
            for slabs in [2usize, 4, 8] {
                let boundaries = slab_boundaries(&ys, slabs);
                let n = boundaries.len() - 1;
                let mut stats = ClipStats::default();
                let mut parts = Vec::with_capacity(n);
                for w in boundaries.windows(2) {
                    let (sa, sb) = (
                        polyclip_seqclip::band_clip(&a, w[0], w[1]),
                        polyclip_seqclip::band_clip(&b, w[0], w[1]),
                    );
                    let one = crate::engine::try_clip_with_stats(&sa, &sb, op, &seq())
                        .expect("clean clip");
                    stats.absorb(&one.stats);
                    parts.push(one.result);
                }
                stats.completed_slabs = n;
                stats.total_slabs = n;
                let full = merge_slab_outputs(parts.into_iter(), &boundaries[1..n]);
                let indexed = clip_pair_slabs(&a, &b, op, slabs, &seq());
                assert_eq!(full, indexed.output, "op {op:?} slabs {slabs}");
                assert_eq!(stats, indexed.stats, "op {op:?} slabs {slabs}");
                assert_eq!(n, indexed.slabs, "op {op:?} slabs {slabs}");
            }
        }
    }

    #[test]
    fn matched_adaptive_grid_is_bit_identical_to_slab_index() {
        // A refining config without a split budget plans exactly the base
        // slabs but runs them on the stealing pool, min(p, available
        // parallelism) workers wide: output, stats and degradations must
        // match the default plan on the calling thread bit for bit.
        let a = PolygonSet::from_xy(&[(0.0, 0.0), (4.0, 0.3), (5.0, 9.7), (0.5, 10.0)]);
        let b = PolygonSet::from_xy(&[(2.0, -1.0), (6.0, 4.0), (3.0, 11.0), (1.0, 5.0)]);
        let pooled = crate::grid::GridConfig {
            oversub: 1,
            max_cells: 0,
        };
        for op in [BoolOp::Intersection, BoolOp::Union, BoolOp::Xor] {
            for slabs in [2usize, 4, 8] {
                let indexed = clip_pair_slabs(&a, &b, op, slabs, &seq());
                let grid = clip_pair_slabs(
                    &a,
                    &b,
                    op,
                    slabs,
                    &ClipOptions {
                        grid: pooled,
                        ..seq()
                    },
                );
                let tag = format!("op {op:?} slabs {slabs}");
                assert_eq!(grid.output, indexed.output, "{tag}");
                assert_eq!(grid.stats, indexed.stats, "{tag}");
                assert_eq!(grid.degradations, indexed.degradations, "{tag}");
                assert_eq!(grid.slabs, indexed.slabs, "{tag}");
            }
        }
    }

    #[test]
    fn adaptive_grid_default_config_is_deterministic_and_correct() {
        // Dense stacked strips force y-refinement under the refining
        // config: heavy enough per slab to clear the planner's 64-mass
        // floor.
        let contours: Vec<_> = (0..120)
            .map(|i| rect(0.0, i as f64 * 0.25, 4.0, i as f64 * 0.25 + 0.2))
            .collect();
        let a = PolygonSet::from_contours(contours);
        let b = sq(1.0, 0.0, 3.0, 30.0);
        for op in [BoolOp::Intersection, BoolOp::Union] {
            let runs: Vec<Algo2Result> = (0..2)
                .map(|_| clip_pair_slabs(&a, &b, op, 4, &refined()))
                .collect();
            assert_eq!(
                runs[0].output, runs[1].output,
                "op {op:?} not deterministic"
            );
            let want = measure_op(&a, &b, op, &seq());
            assert!(
                (eo_area(&runs[0].output) - want).abs() < 1e-9,
                "op {op:?}: area {} want {want}",
                eo_area(&runs[0].output)
            );
            assert!(runs[0].slabs > 4, "expected refinement beyond 4 slabs");
            assert!(!runs[0].times.per_worker_busy.is_empty());
            assert!(runs[0].times.load_imbalance() >= 1.0);
        }
    }

    #[test]
    fn adaptive_grid_survives_forced_column_splits() {
        // Two dense clusters whose vertices all sit on two event y's: no
        // interior event to split at, so the planner must go to columns —
        // and the column seams must dissolve without a trace.
        let mut contours = Vec::new();
        for i in 0..30 {
            let dx = (i % 2) as f64 * 6.0 + (i / 2) as f64 * 0.01;
            contours.push(rect(dx, 0.0, dx + 4.0, 10.0));
        }
        let a = PolygonSet::from_contours(contours);
        let b =
            PolygonSet::from_contours(vec![rect(1.0, 0.0, 3.0, 10.0), rect(7.0, 0.0, 9.0, 10.0)]);
        let grid = crate::grid::GridConfig {
            oversub: 8,
            ..Default::default()
        };
        for op in [BoolOp::Intersection, BoolOp::Union] {
            let g = clip_pair_slabs(&a, &b, op, 2, &ClipOptions { grid, ..seq() });
            let s = clip_pair_slabs(&a, &b, op, 2, &seq());
            assert!(
                (eo_area(&g.output) - eo_area(&s.output)).abs() < 1e-9,
                "op {op:?}: grid {} slab {}",
                eo_area(&g.output),
                eo_area(&s.output)
            );
            assert_eq!(g.output.len(), s.output.len(), "op {op:?}");
            assert!(
                g.slabs > s.slabs,
                "op {op:?}: no column refinement happened"
            );
        }
    }
}
