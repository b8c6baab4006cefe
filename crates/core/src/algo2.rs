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
//! contours go through the band clip, into a per-cell scratch buffer.
//!
//! Every run, p = 1 included, executes a [`GridPlan`] through one driver.
//! One slab is a one-cell plan on `[−∞, +∞]`: every contour lies inside it,
//! so the cell borrows both inputs whole and Step 8 has no seam to
//! dissolve. The default [`crate::grid::GridConfig`] plans one cell per
//! event-quantile slab and runs the cells in plan order on the calling
//! thread; a refining config (`oversub > 0`) splits heavy slabs into finer
//! cells at p > 1 and runs them on the work-stealing pool
//! ([`polyclip_parprim::stealpool`]). Step 8 is one pass: each cell
//! decomposes its own output inside its pool job, and a single serial
//! stitch on the calling thread dissolves every seam.
//!
//! The run splits into a subject half and a query half. The subject half
//! (`Frozen`) sanitizes the subject, sorts its event y's and caches its
//! per-contour y-extents. The query half does the rest: it sanitizes the
//! other operand, merges its y's into the frozen schedule by
//! order-statistic selection, bins both sides into slabs, skips the slabs
//! whose output is provably empty, and drives the plan. A cold
//! [`try_clip_pair_slabs`] freezes its subject for the one call;
//! [`crate::prepared::PreparedLayer`] freezes it once and runs only the
//! query half per clip. Both entries share every line after the freeze.

use crate::budget::{self, Gate, MeterSnapshot};
use crate::classify::BoolOp;
use crate::engine::{try_clip_refs, ClipOptions};
use crate::grid::{Cell, GridPlan};
use crate::resilience::{self, ClipError, ClipOutcome, Degradation, InputRole};
use crate::sanitize::{sanitize_set, SanitizeOptions, SanitizeReport};
use crate::slabindex::{SlabIndex, Span};
use crate::stats::ClipStats;
use polyclip_geom::{Contour, OrdF64, Point, PolygonSet};
use polyclip_parprim::stealpool;
use polyclip_seqclip::{band_clip_contour_into, xband_clip_contour_into};
use rayon::prelude::*;
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
    /// Shared slab-index build (contour binning) plus cell planning.
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
    /// Work-meter totals for the run: intersections found, events
    /// processed and output fragments gathered, summed over every engine
    /// call of the run — the counters [`crate::ExecBudget`] limits are
    /// enforced against.
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
    /// for unrefined plans (p = 1 included), which run on the calling
    /// thread; empty on overlay runs.
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

    /// What this run's wall clock would be on `lanes` cores: a projection
    /// from the phases one run measured, not a measurement.
    ///
    /// The serial phases (sanitize, index, merge) stay serial. The cells
    /// are list-scheduled: each cell's partition + clip, in plan order, goes
    /// onto the least-loaded of `max(lanes, 1)` lanes, and the busiest
    /// lane's total is the makespan. With `lanes` ≥ cells that is the
    /// slowest cell (each cell gets its own core); with one lane it is the
    /// sum of all cells.
    pub fn projected_wall(&self, lanes: usize) -> Duration {
        let cells = self.per_slab_partition.iter().zip(&self.per_slab_clip);
        let mut load = vec![Duration::ZERO; lanes.clamp(1, cells.len().max(1))];
        for (partition, clip) in cells {
            let lane = load.iter_mut().min().expect("at least one lane");
            *lane += *partition + *clip;
        }
        let makespan = load.into_iter().max().unwrap_or_default();
        self.sanitize + self.index + makespan + self.merge
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
/// Algorithm-2 cell and every layer-overlay slab share.
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
    body: F,
) -> Result<Laddered<T>, ClipError>
where
    F: Fn(&ClipOptions, &Gate) -> Result<T, ClipError>,
{
    let attempt_with =
        |opts: &ClipOptions, gate: &Gate, attempt: u32| -> Result<Result<T, ClipError>, String> {
            catch_unwind(AssertUnwindSafe(|| {
                resilience::maybe_panic_slab(opts, slab, attempt);
                resilience::maybe_stall_slab(opts, slab, attempt);
                body(opts, gate)
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
///
/// The cold entry: it freezes the subject for this one call (borrowing it
/// when the sanitizer has nothing to repair) and runs the same query half
/// as [`crate::prepared::try_clip_prepared`], so a cold and a prepared clip
/// of the same pair are bit-identical.
pub fn try_clip_pair_slabs(
    subject: &PolygonSet,
    clip_p: &PolygonSet,
    op: BoolOp,
    n_slabs: usize,
    opts: &ClipOptions,
) -> Result<Algo2Result, ClipError> {
    let armed = Armed::new(opts)?;
    let frozen = Frozen::new(subject, opts, &armed.gate)?;
    clip_frozen(&frozen, clip_p, op, n_slabs, opts, &armed, None)
}

/// The armed gates and start clock of one public Algorithm-2 call.
pub(crate) struct Armed {
    /// The global gate: deadline, work caps and cancel token.
    gate: Gate,
    /// The cancel-only recovery gate (see [`SlabGates::recovery`]).
    recovery: Gate,
    t_start: Instant,
}

impl Armed {
    /// Arm the budget exactly once, at a public boundary: the relative
    /// deadline becomes absolute here, and every slab worker below shares
    /// the gate (via per-cell watchdog children). Concurrent calls each get
    /// their own gate, meter and cancel scope.
    pub(crate) fn new(opts: &ClipOptions) -> Result<Self, ClipError> {
        let t_start = Instant::now();
        let gate = opts.budget.arm();
        let recovery = opts.budget.cancel_only().arm();
        budget::check(&gate)?;
        Ok(Armed {
            gate,
            recovery,
            t_start,
        })
    }
}

/// The subject half of Algorithm 2: everything about the subject that does
/// not depend on the other operand. A cold call builds one for itself;
/// [`crate::prepared::PreparedLayer`] keeps one for every clip.
#[derive(Debug)]
pub(crate) struct Frozen<'a> {
    /// The subject as every cell sees it, sanitized iff the freeze options
    /// asked for it; borrowed when there was nothing to repair.
    pub(crate) subject: Cow<'a, PolygonSet>,
    /// The sanitizer's repair record, replayed into every clip's report.
    pub(crate) repairs: SanitizeReport,
    /// Sorted, deduplicated event y's of the subject — its half of the
    /// Step-1 schedule.
    pub(crate) ys: Vec<OrdF64>,
    /// Per-contour y-extent `(ymin, ymax)`, in contour order;
    /// `(INFINITY, NEG_INFINITY)` marks an empty bbox. The subject's input
    /// to slab binning.
    extents: Vec<(f64, f64)>,
    /// Wall clock the sanitizer took.
    t_sanitize: Duration,
}

impl<'a> Frozen<'a> {
    /// Freeze a subject: reject non-finite input, sanitize (honoring
    /// `opts.sanitize`), sort the event schedule, check `gate` and cache
    /// per-contour extents.
    pub(crate) fn new(
        subject: &'a PolygonSet,
        opts: &ClipOptions,
        gate: &Gate,
    ) -> Result<Self, ClipError> {
        if let Some((contour, vertex)) = subject.first_non_finite() {
            return Err(ClipError::NonFiniteInput {
                role: InputRole::Subject,
                contour,
                vertex,
            });
        }
        let t_san = Instant::now();
        let (subject, repairs) = sanitized(subject, opts);
        let t_sanitize = t_san.elapsed();
        let mut ys = event_ys(&subject);
        ys.par_sort_unstable();
        ys.dedup();
        budget::check(gate)?;
        let extents = subject
            .contours()
            .iter()
            .map(|c| {
                let bb = c.bbox();
                if bb.is_empty() {
                    (f64::INFINITY, f64::NEG_INFINITY)
                } else {
                    (bb.ymin, bb.ymax)
                }
            })
            .collect();
        Ok(Frozen {
            subject,
            repairs,
            ys,
            extents,
            t_sanitize,
        })
    }

    /// Detach from the caller's subject, for a layer that outlives it.
    pub(crate) fn into_owned(self) -> Frozen<'static> {
        Frozen {
            subject: Cow::Owned(self.subject.into_owned()),
            repairs: self.repairs,
            ys: self.ys,
            extents: self.extents,
            t_sanitize: self.t_sanitize,
        }
    }
}

/// `set` as the cells will see it — repaired when `opts.sanitize` asks for
/// it — with the sanitizer's record (clean when it did not run).
fn sanitized<'a>(set: &'a PolygonSet, opts: &ClipOptions) -> (Cow<'a, PolygonSet>, SanitizeReport) {
    if opts.sanitize {
        sanitize_set(set, &SanitizeOptions::repairs_only())
    } else {
        (Cow::Borrowed(set), SanitizeReport::default())
    }
}

/// Every vertex y of `set`, unsorted.
fn event_ys(set: &PolygonSet) -> Vec<OrdF64> {
    set.contours()
        .iter()
        .flat_map(|c| c.points().iter().map(|p| OrdF64::new(p.y)))
        .collect()
}

/// The query half of Algorithm 2, shared by the cold and prepared entries:
/// everything after gate arming that depends on the other operand.
///
/// `prepare_build` is the layer's one-time build cost for a prepared clip
/// and `None` for a cold one, whose freeze ran inside this call (its
/// sanitize time then counts in [`PhaseTimes::sanitize`]).
pub(crate) fn clip_frozen(
    frozen: &Frozen<'_>,
    query: &PolygonSet,
    op: BoolOp,
    n_slabs: usize,
    opts: &ClipOptions,
    armed: &Armed,
    prepare_build: Option<Duration>,
) -> Result<Algo2Result, ClipError> {
    // Non-finite coordinates would poison the event ordering below before
    // any cell (and its input gate) ever runs; reject them here.
    if let Some((contour, vertex)) = query.first_non_finite() {
        return Err(ClipError::NonFiniteInput {
            role: InputRole::Clip,
            contour,
            vertex,
        });
    }

    // Query-side sanitization only: the subject was repaired at freeze
    // time, and its record is replayed here in subject-then-clip order, so
    // every cell sees the repaired geometry and each repair is reported
    // exactly once.
    let t_san = Instant::now();
    let (query, query_repairs) = sanitized(query, opts);
    let query = &*query;
    let mut t_sanitize = t_san.elapsed();
    if prepare_build.is_none() {
        t_sanitize += frozen.t_sanitize;
    }
    let subject_repairs = if opts.sanitize {
        frozen.repairs
    } else {
        SanitizeReport::default()
    };
    let mut pre_repairs = 0usize;
    let mut pre_degradations: Vec<Degradation> = Vec::new();
    for (role, repairs) in [
        (InputRole::Subject, subject_repairs),
        (InputRole::Clip, query_repairs),
    ] {
        if !repairs.is_clean() {
            pre_repairs += repairs.total();
            pre_degradations.push(Degradation::InputRepaired { role, repairs });
        }
    }

    // Cell workers receive the armed gate explicitly; the budget carried in
    // their options is reduced to the cancel token so nothing downstream
    // can re-arm the deadline. Sanitization and output validation are off
    // inside the cells: band clipping deliberately creates
    // exactly-collinear seam vertices that fragment cancellation depends
    // on, and the output ladder runs once on the merged result.
    let seq = ClipOptions {
        parallel: false,
        sanitize: false,
        validate_output: false,
        budget: opts.budget.cancel_only(),
        ..opts.clone()
    };

    // Step 1, query side: the query's event y's that are not already on
    // the frozen schedule. The combined schedule is then read by
    // order-statistic selection — the frozen side is never re-sorted.
    let gate = &armed.gate;
    let mut extra = event_ys(query);
    extra.par_sort_unstable();
    extra.dedup();
    extra.retain(|y| frozen.ys.binary_search(y).is_err());
    budget::check(gate)?;

    // Steps 2–3: equal-event-count slab boundaries, bit-identical to
    // `slab_boundaries` of the combined schedule. One slab — p ≤ 1, or
    // fewer than two distinct event y's — is one cell on [−∞, +∞]: every
    // contour is inside it, so the cell borrows the inputs whole.
    let merged_len = frozen.ys.len() + extra.len();
    let p = if merged_len < 2 { 1 } else { n_slabs.max(1) };
    let boundaries = if p == 1 {
        vec![f64::NEG_INFINITY, f64::INFINITY]
    } else {
        merged_boundaries(&frozen.ys, &extra, p)
    };
    let slabs = boundaries.len() - 1;

    // Slab spans for both sides without touching a single subject vertex:
    // the subject from its frozen extents, the query from fresh bboxes.
    let t_ix = Instant::now();
    let mut spans: Vec<Span> = Vec::with_capacity(frozen.extents.len() + query.contours().len());
    for &(ymin, ymax) in &frozen.extents {
        spans.push(Span::of_extent(ymin, ymax, &boundaries));
    }
    for c in query.contours() {
        let bb = c.bbox();
        spans.push(if bb.is_empty() {
            Span::NONE
        } else {
            Span::of_extent(bb.ymin, bb.ymax, &boundaries)
        });
    }

    let index = SlabIndex::from_spans(&frozen.subject, query, spans, &boundaries);
    // Mark the slabs whose output is provably empty: an intersection needs
    // both sides present, any op needs one. A bucket lists subject contours
    // before query contours, so its two ends tell which sides it holds.
    // Skipped slabs complete without running the engine.
    let skip: Vec<bool> = (0..slabs)
        .map(|s| {
            let bucket = index.slab(s);
            let has_subject = bucket.first().is_some_and(|e| index.is_subject(e.contour));
            let has_query = bucket.last().is_some_and(|e| !index.is_subject(e.contour));
            match op {
                BoolOp::Intersection => !(has_subject && has_query),
                _ => bucket.is_empty(),
            }
        })
        .collect();
    // A refining plan at p > 1 wants the combined event schedule for
    // y-split candidates; any other plan never splits and skips the merge.
    let ys = if opts.grid.oversub > 0 && p > 1 {
        merge_disjoint(&frozen.ys, &extra)
    } else {
        Vec::new()
    };
    let plan = crate::grid::plan_grid(&boundaries, &index, &ys, &opts.grid, p);
    let t_index = t_ix.elapsed();

    let drive = SlabDrive {
        subject: &frozen.subject,
        clip_p: query,
        op,
        opts,
        seq: &seq,
        armed,
        pre_repairs,
        pre_degradations,
        t_sanitize,
        prepare_build,
    };
    drive_grid(drive, &plan, &index, &skip, t_index, p)
}

/// The sorted union of two sorted, mutually disjoint event schedules, by
/// one linear merge.
fn merge_disjoint(a: &[OrdF64], b: &[OrdF64]) -> Vec<OrdF64> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        if a[i] < b[j] {
            out.push(a[i]);
            i += 1;
        } else {
            out.push(b[j]);
            j += 1;
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// The `k`-th smallest element (0-based) of the union of two individually
/// sorted, strictly increasing, mutually disjoint arrays — O(log) binary
/// search for the partition point, no merged array materialized. This is
/// how the query half reads quantiles of the combined event schedule
/// without re-sorting the frozen side.
fn select_merged(a: &[OrdF64], b: &[OrdF64], k: usize) -> f64 {
    debug_assert!(k < a.len() + b.len());
    // Find the number of elements taken from `a` among the k smallest: the
    // unique i in [max(0, k - |b|), min(k, |a|)] with a[i-1] < b[k-i] and
    // b[k-i-1] < a[i] (guards at the ends). Disjointness makes every
    // comparison strict, so the partition is unique.
    let mut lo = k.saturating_sub(b.len());
    let mut hi = k.min(a.len());
    while lo < hi {
        let i = (lo + hi) / 2;
        let j = k - i;
        if j > 0 && i < a.len() && a[i] < b[j - 1] {
            lo = i + 1;
        } else {
            hi = i;
        }
    }
    let (i, j) = (lo, k - lo);
    match (a.get(i), b.get(j)) {
        (Some(x), Some(y)) => x.get().min(y.get()),
        (Some(x), None) => x.get(),
        (None, Some(y)) => y.get(),
        (None, None) => unreachable!("k < |a| + |b|"),
    }
}

/// [`slab_boundaries`] over the *virtual* merge of the frozen subject
/// schedule `a` and the query-only schedule `b` (sorted, disjoint from
/// `a`): same first/last elements, same interior quantile indices, same
/// duplicate-collapse rule — bit-identical boundaries to those of the
/// materialized union, computed in O(p log(|a| + |b|)).
fn merged_boundaries(a: &[OrdF64], b: &[OrdF64], n_slabs: usize) -> Vec<f64> {
    let m = a.len() + b.len();
    if m == 0 {
        return Vec::new();
    }
    let mut out: Vec<f64> = Vec::with_capacity(n_slabs + 1);
    let mut prev = select_merged(a, b, 0);
    out.push(prev);
    for i in 1..n_slabs {
        let y = select_merged(a, b, i * (m - 1) / n_slabs);
        if y > prev {
            out.push(y);
            prev = y;
        }
    }
    let last = select_merged(a, b, m - 1);
    if last > prev {
        out.push(last);
    }
    out
}

/// Everything the driver needs beyond the plan and the index: the inputs
/// as the cells see them (already sanitized), the caller's armed gates,
/// the worker options, the pre-aggregated sanitize results, and the
/// provenance that ends up in [`PhaseTimes`] and [`ClipStats`].
struct SlabDrive<'a> {
    subject: &'a PolygonSet,
    clip_p: &'a PolygonSet,
    op: BoolOp,
    /// The caller's options (consulted for `validate_output`,
    /// `budget.allow_partial` and `grid`).
    opts: &'a ClipOptions,
    /// Worker options: sequential, sanitize/validate off, cancel-only
    /// budget.
    seq: &'a ClipOptions,
    armed: &'a Armed,
    pre_repairs: usize,
    pre_degradations: Vec<Degradation>,
    t_sanitize: Duration,
    /// The serving layer's build cost; `None` on a cold call.
    prepare_build: Option<Duration>,
}

/// Lazily-computed slab-banded contour pieces shared by the refined cells
/// of one base slab, indexed by the entry's position in the index. A
/// refined cell re-bands the already-small slab piece instead of rescanning
/// the full contour, cutting the flat O(contour × cells) partition cost
/// down to O(contour × slabs) + O(piece × cells) — the difference between a
/// 40k-vertex blob scanned 8× per slab and scanned once. Pieces are pure
/// functions of the inputs, so racing `OnceLock` initializations are
/// benign and plan-determinism is preserved.
struct SlabBandMemo {
    /// One slot per index entry.
    pieces: Vec<OnceLock<Contour>>,
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
        let max_id = (0..n)
            .flat_map(|s| index.slab(s))
            .map(|e| e.contour)
            .max()
            .unwrap_or(0);
        let mut band = vec![(f64::INFINITY, f64::NEG_INFINITY); n];
        for c in &plan.cells {
            let b = &mut band[c.slab];
            b.0 = b.0.min(c.y0);
            b.1 = b.1.max(c.y1);
        }
        SlabBandMemo {
            pieces: (0..index.len()).map(|_| OnceLock::new()).collect(),
            band,
            bboxes: (0..=max_id as usize).map(|_| OnceLock::new()).collect(),
        }
    }

    /// The slab-banded piece for index entry `at`, which lies in `slab`'s
    /// bucket, computed on first use by whichever cell job gets there
    /// first.
    fn piece(&self, at: usize, slab: usize, c: &Contour, scratch: &mut Vec<Point>) -> &Contour {
        let (y0, y1) = self.band[slab];
        self.pieces[at].get_or_init(|| band_clip_contour_into(c, y0, y1, scratch))
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
/// too). The one cell of a one-slab plan spans `[−∞, +∞]`, so every contour
/// is inside it and is borrowed whole.
///
/// The laddered result carries the engine outcome, the partition time and
/// the clip time.
fn run_cell(
    cell_id: usize,
    cell: &Cell,
    index: &SlabIndex<'_>,
    memo: Option<&SlabBandMemo>,
    op: BoolOp,
    seq: &ClipOptions,
    gates: &SlabGates<'_>,
) -> Result<Laddered<(ClipOutcome, Duration, Duration)>, ClipError> {
    // Per-entry dispositions for the second pass. `PolygonSet::push`
    // silently drops invalid (< 3 point) contours, so the same filter
    // applies here.
    const SKIP: u32 = u32::MAX;
    const BORROW: u32 = u32::MAX - 1;
    run_slab_ladder(cell_id, seq, gates, |opts, gate| {
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
                let at = index.bucket_start(cell.slab) + k;
                let piece = m.piece(at, cell.slab, c, &mut scratch);
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
        try_clip_refs(&subject_refs, &clip_refs, op, opts, gate)
            .map(|outcome| (outcome, t_partition, t1.elapsed()))
    })
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

impl CellDone {
    /// A laddered cell run (outcome, partition time, clip time) as a landed
    /// cell: a recovery rung lands in the degradations and counts as a slab
    /// retry, and the output is decomposed against the plan's seams on the
    /// worker's clock.
    fn landed(run: Laddered<(ClipOutcome, Duration, Duration)>, plan: &GridPlan) -> Self {
        let (outcome, t_partition, t_clip) = run.out;
        let mut degradations = outcome.degradations;
        let mut stats = outcome.stats;
        if let Some(d) = run.recovery {
            stats.slab_retries += 1;
            degradations.push(d);
        }
        let td = Instant::now();
        let frag = decompose_fragment(outcome.result, &plan.seam_ys, &plan.seam_xs);
        CellDone {
            frag,
            stats,
            degradations,
            t_partition,
            t_clip,
            t_retry: run.t_retry,
            t_decompose: td.elapsed(),
            lost: false,
        }
    }
}

fn lock<'a, T>(m: &'a Mutex<T>) -> std::sync::MutexGuard<'a, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Steps 4–8, the one driver: executes the plan's cells on the
/// work-stealing pool, each cell under the recovery ladder and its own
/// watchdog, then finishes Step 8, salvages partial runs and runs the
/// output ladder once on the merged result.
///
/// `skip[s]` marks base slabs whose output is provably empty, whose cells
/// are recorded as completed with zero-duration partials instead of
/// running the engine.
///
/// `workers` is the paper's `p` — it sizes the pool, never the plan, so
/// output depends only on the plan. Each cell decomposes its output for the
/// seam dissolve inside its own pool job; only the final
/// concatenate–split–stitch pass runs serially, on the calling thread.
fn drive_grid(
    d: SlabDrive<'_>,
    plan: &GridPlan,
    index: &SlabIndex<'_>,
    skip: &[bool],
    t_index: Duration,
    workers: usize,
) -> Result<Algo2Result, ClipError> {
    let cells = plan.cells.len();
    let (gate, recovery_gate) = (&d.armed.gate, &d.armed.recovery);
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
    let exec = |_worker: usize, i: usize| -> Vec<usize> {
        let cell = &plan.cells[i];
        let mut res = CellDone::default();
        // A provably-empty slab completes with a zero-duration partial.
        if !skip[cell.slab] {
            let watchdog = gate.child_with_deadline(deadlines[i]);
            let gates = SlabGates {
                attempt: &watchdog,
                global: gate,
                recovery: recovery_gate,
            };
            match run_cell(i, cell, index, memo.as_ref(), d.op, d.seq, &gates) {
                Ok(run) => res = CellDone::landed(run, plan),
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
        prepared_reused: d.prepare_build.is_some(),
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
            total: d.armed.t_start.elapsed(),
            work,
            prepare_build: d.prepare_build.unwrap_or_default(),
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
    let (mut pass, edges) = seam_split(frags);
    if !edges.is_empty() {
        pass.extend(PolygonSet::from_contours(crate::stitch::stitch(
            edges, true,
        )));
    }
    pass
}

/// The half of [`finish_merge`] before the stitch: the pass-through
/// contours in part order, and every fragment edge with its seam runs split
/// at the union of both sides' endpoints.
fn seam_split(frags: Vec<SeamFragment>) -> (PolygonSet, Vec<(Point, Point)>) {
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
        return (pass, edges);
    }
    for cuts in y_cuts.values_mut().chain(x_cuts.values_mut()) {
        cuts.sort_unstable();
        cuts.dedup();
    }
    (
        pass,
        crate::stitch::split_seam_runs(edges, &y_cuts, &x_cuts),
    )
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
    fn select_merged_matches_materialized_merge() {
        let a: Vec<OrdF64> = [0.0, 1.5, 2.0, 7.0, 9.0]
            .iter()
            .map(|&y| OrdF64::new(y))
            .collect();
        let b: Vec<OrdF64> = [-1.0, 0.5, 3.0, 8.0, 10.0, 11.0]
            .iter()
            .map(|&y| OrdF64::new(y))
            .collect();
        let mut merged: Vec<OrdF64> = a.iter().chain(&b).copied().collect();
        merged.sort_unstable();
        for (k, want) in merged.iter().enumerate() {
            assert_eq!(select_merged(&a, &b, k), want.get(), "k = {k}");
        }
        // One side empty, both directions.
        for k in 0..a.len() {
            assert_eq!(select_merged(&a, &[], k), a[k].get());
            assert_eq!(select_merged(&[], &a, k), a[k].get());
        }
    }

    #[test]
    fn merged_boundaries_match_slab_boundaries_of_the_union() {
        let a: Vec<OrdF64> = (0..40).map(|i| OrdF64::new(i as f64 * 0.7)).collect();
        let b: Vec<OrdF64> = (0..17)
            .map(|i| OrdF64::new(i as f64 * 1.31 + 0.05))
            .collect();
        let mut merged: Vec<OrdF64> = a.iter().chain(&b).copied().collect();
        merged.sort_unstable();
        merged.dedup();
        for p in [1usize, 2, 3, 4, 8, 64] {
            assert_eq!(
                merged_boundaries(&a, &b, p),
                slab_boundaries(&merged, p),
                "p = {p}"
            );
        }
    }

    #[test]
    fn merge_disjoint_matches_the_sorted_union() {
        let a: Vec<OrdF64> = (0..40).map(|i| OrdF64::new(i as f64 * 0.7)).collect();
        let b: Vec<OrdF64> = (0..17)
            .map(|i| OrdF64::new(i as f64 * 1.31 + 0.05))
            .collect();
        let mut union: Vec<OrdF64> = a.iter().chain(&b).copied().collect();
        union.sort_unstable();
        union.dedup();
        assert_eq!(merge_disjoint(&a, &b), union);
        assert_eq!(merge_disjoint(&b, &a), union);
        // One side empty, both directions.
        assert_eq!(merge_disjoint(&a, &[]), a);
        assert_eq!(merge_disjoint(&[], &b), b);
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
            let mut ys: Vec<OrdF64> = (0..distinct * reps)
                .map(|i| OrdF64::new((i % distinct) as f64))
                .collect();
            ys.par_sort_unstable();
            ys.dedup();
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
        // One slab is one cell: one partition entry, one busy lane.
        assert_eq!(r.times.per_slab_partition.len(), 1);
        assert_eq!(r.times.per_worker_busy.len(), 1);
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

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    #[test]
    fn critical_path_is_index_plus_slowest_slab_plus_merge() {
        // With a lane per cell the projection is the old critical path:
        // sanitize 1 + index 2 + slowest cell (1 + 10) + merge 3 = 17 ms.
        let times = PhaseTimes {
            sanitize: ms(1),
            index: ms(2),
            per_slab_partition: vec![ms(1), ms(2)],
            per_slab_clip: vec![ms(10), ms(5)],
            merge: ms(3),
            total: ms(23),
            ..Default::default()
        };
        for lanes in [2, 3, 64] {
            assert_eq!(times.projected_wall(lanes), ms(17), "lanes {lanes}");
        }
    }

    #[test]
    fn one_lane_projects_the_serial_sum() {
        let times = PhaseTimes {
            sanitize: ms(1),
            index: ms(2),
            per_slab_partition: vec![ms(1), ms(2)],
            per_slab_clip: vec![ms(10), ms(5)],
            merge: ms(3),
            ..Default::default()
        };
        // 1 + 2 + (11 + 7) + 3.
        assert_eq!(times.projected_wall(1), ms(24));
        // Zero lanes behave as one.
        assert_eq!(times.projected_wall(0), ms(24));
    }

    #[test]
    fn more_cells_than_lanes_share_lanes_by_list_schedule() {
        // Cells of 5, 4, 3, 3 ms on 2 lanes: 5 → A, 4 → B, 3 → B (7),
        // 3 → A (8). The makespan is 8 ms, not the slowest cell's 5.
        let times = PhaseTimes {
            per_slab_partition: vec![Duration::ZERO; 4],
            per_slab_clip: vec![ms(5), ms(4), ms(3), ms(3)],
            ..Default::default()
        };
        assert_eq!(times.projected_wall(2), ms(8));
        assert_eq!(times.projected_wall(4), ms(5));
        assert_eq!(times.projected_wall(1), ms(15));
        // A run with no cells projects its serial phases only.
        let empty = PhaseTimes {
            merge: ms(2),
            ..Default::default()
        };
        assert_eq!(empty.projected_wall(0), ms(2));
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

    #[test]
    fn step8_stitch_matches_the_hash_map_reference() {
        // Step 8's input: each slab's output decomposed against the seams,
        // concatenated and seam-split, for the torture corpus at 4 slabs.
        let mut stitched = 0usize;
        for seed in 0..8 {
            for case in polyclip_datagen::torture_corpus(seed) {
                let (a, b) = (&case.subject, &case.clip);
                let mut ys: Vec<OrdF64> = a
                    .contours()
                    .iter()
                    .chain(b.contours())
                    .flat_map(|c| c.points().iter().map(|p| OrdF64::new(p.y)))
                    .collect();
                ys.sort_unstable();
                ys.dedup();
                let boundaries = slab_boundaries(&ys, 4);
                let seams = &boundaries[1..boundaries.len() - 1];
                for op in [
                    BoolOp::Intersection,
                    BoolOp::Union,
                    BoolOp::Difference,
                    BoolOp::Xor,
                ] {
                    let frags = boundaries
                        .windows(2)
                        .map(|w| {
                            let part = crate::engine::clip(
                                &polyclip_seqclip::band_clip(a, w[0], w[1]),
                                &polyclip_seqclip::band_clip(b, w[0], w[1]),
                                op,
                                &seq(),
                            );
                            decompose_fragment(part, seams, &[])
                        })
                        .collect();
                    let (_, edges) = seam_split(frags);
                    stitched += usize::from(!edges.is_empty());
                    assert_eq!(
                        crate::stitch::stitch_counted(edges.clone(), true),
                        crate::stitch::tests::reference_stitch_counted(edges, true),
                        "{} seed {seed} op {op:?}",
                        case.name
                    );
                }
            }
        }
        assert!(stitched > 0, "no case reached the Step-8 stitch");
    }
}
