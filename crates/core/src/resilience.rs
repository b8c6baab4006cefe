//! Typed errors, the degradation ladder, and the fault-injection plan.
//!
//! The scanbeam pipeline is built to *degrade*, not to die: numerically
//! degenerate inputs, refinement that hits its iteration bound, or a slab
//! worker that panics are all absorbed, repaired where possible, and
//! **reported** instead of silently smoothed over (the pre-existing
//! behavior) or aborting the process.
//!
//! Three layers cooperate:
//!
//! * [`ClipError`] — the conditions under which a fallible entry point
//!   (`try_clip`, `try_clip_pair_slabs`, `try_overlay_intersection`, …)
//!   refuses to produce a result at all. Only non-finite input coordinates
//!   and a slab worker that keeps panicking through the whole recovery
//!   ladder reach this level.
//! * [`Degradation`] — everything the pipeline absorbed on the way to a
//!   result: dropped degenerate contours, refinement rounds that gave up,
//!   slab retries and sequential fallbacks, stitch walks that failed to
//!   close. Collected in [`ClipOutcome::degradations`], ordered by
//!   discovery. [`ClipOutcome::strict`] upgrades the lossy ones to errors
//!   for callers that need exactness guarantees.
//! * [`FaultPlan`] — a deterministic fault-injection layer (behind the
//!   `fault-injection` cargo feature) that lets tests panic a chosen slab
//!   worker, exhaust the refinement loop, or storm the residual-crossing
//!   accept path, proving the recovery machinery actually runs.

use crate::stats::ClipStats;
use polyclip_geom::PolygonSet;
use std::fmt;

/// Which operand of a clip call an error or degradation refers to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InputRole {
    /// The first operand (the polygon being clipped).
    Subject,
    /// The second operand (the clip polygon).
    Clip,
}

impl fmt::Display for InputRole {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InputRole::Subject => write!(f, "subject"),
            InputRole::Clip => write!(f, "clip"),
        }
    }
}

/// Why a fallible clipping entry point could not produce a result.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum ClipError {
    /// An input coordinate is NaN or infinite. The sweep orders events by
    /// y; a non-finite coordinate poisons that order, so these are rejected
    /// at the API boundary rather than detected mid-pipeline.
    NonFiniteInput {
        /// Which operand carries the offending coordinate.
        role: InputRole,
        /// Index of the offending contour within the operand.
        contour: usize,
        /// Index of the offending vertex within that contour.
        vertex: usize,
    },
    /// The crossing-refinement loop hit its iteration bound with residual
    /// crossings still unresolved (surfaced by [`ClipOutcome::strict`];
    /// the lenient entry points record it as a [`Degradation`] instead).
    RefinementExhausted {
        /// Refinement rounds executed before giving up.
        rounds: usize,
        /// Residual crossings still present when the loop stopped.
        residual_crossings: usize,
    },
    /// A slab worker panicked on every rung of the recovery ladder:
    /// first attempt, retry, and the pristine sequential fallback.
    SlabPanic {
        /// Index of the slab whose worker died.
        slab: usize,
        /// The panic payload, if it was a string.
        message: String,
    },
    /// Stitching dropped boundary fragments because some walks failed to
    /// close (surfaced by [`ClipOutcome::strict`]; the lenient entry
    /// points record it as a [`Degradation`] instead).
    StitchImbalance {
        /// Fragments consumed by walks that never closed.
        dropped_fragments: usize,
    },
    /// An input needed sanitizer repairs (duplicate/collinear/spike
    /// vertices, redundant ring closers, zero-area contours). The clip
    /// result is exact *for the repaired input*; strict callers asked to
    /// be told when the input they supplied was not what was clipped.
    /// Surfaced by [`ClipOutcome::strict`] from
    /// [`Degradation::InputRepaired`].
    DirtyInput {
        /// Which operand needed repairs.
        role: InputRole,
        /// What was repaired.
        repairs: crate::sanitize::SanitizeReport,
    },
    /// Post-clip validation found violations of the engine's output
    /// guarantees (surfaced by [`ClipOutcome::strict`] from
    /// [`Degradation::OutputRepaired`], whether or not the repair ladder
    /// managed to fix them).
    InvalidOutput {
        /// Number of violations found by [`crate::validate::validate`].
        violations: usize,
    },
    /// The wall-clock deadline in [`ExecBudget`](crate::ExecBudget) passed
    /// before the operation finished. The work done so far is discarded
    /// (unless Algorithm 2 salvaged completed slabs under
    /// `allow_partial`).
    DeadlineExceeded,
    /// A work limit (`max_intersections` / `max_output_vertices`) in
    /// [`ExecBudget`](crate::ExecBudget) was exceeded.
    BudgetExceeded {
        /// The work meter at the time the budget blew.
        work: polyclip_parprim::MeterSnapshot,
    },
    /// The [`CancelToken`](crate::CancelToken) was fired mid-operation.
    Cancelled,
}

impl fmt::Display for ClipError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClipError::NonFiniteInput {
                role,
                contour,
                vertex,
            } => write!(
                f,
                "non-finite coordinate in {role} input at contour {contour}, vertex {vertex}"
            ),
            ClipError::RefinementExhausted {
                rounds,
                residual_crossings,
            } => write!(
                f,
                "crossing refinement exhausted after {rounds} rounds with \
                 {residual_crossings} residual crossings"
            ),
            ClipError::SlabPanic { slab, message } => {
                write!(
                    f,
                    "slab {slab} worker panicked after retry and fallback: {message}"
                )
            }
            ClipError::StitchImbalance { dropped_fragments } => write!(
                f,
                "stitching dropped {dropped_fragments} boundary fragments from unclosed walks"
            ),
            ClipError::DirtyInput { role, repairs } => {
                write!(f, "{role} input needed sanitizer repairs: {repairs}")
            }
            ClipError::InvalidOutput { violations } => {
                write!(f, "output failed validation with {violations} violations")
            }
            ClipError::DeadlineExceeded => {
                write!(f, "execution deadline exceeded before the clip finished")
            }
            ClipError::BudgetExceeded { work } => write!(
                f,
                "work budget exceeded ({} intersections, {} events, {} vertices)",
                work.intersections, work.events, work.vertices
            ),
            ClipError::Cancelled => write!(f, "operation cancelled by caller"),
        }
    }
}

impl std::error::Error for ClipError {}

/// One graceful-degradation event absorbed on the way to a result.
///
/// Ordered by [`severity`](Degradation::severity): everything below
/// [`Degradation::ResidualsAccepted`] leaves the result exact; everything
/// at or above it means the result may differ from the true boolean result
/// by resolution-limit slivers (see [`Degradation::is_lossy`]).
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum Degradation {
    /// Degenerate contours (fewer than three vertices, or zero bbox
    /// extent) were dropped from an input before sweeping. Exact: such
    /// contours cannot contribute area.
    SanitizedInput {
        /// Which operand was sanitized.
        role: InputRole,
        /// How many contours were dropped.
        dropped_contours: usize,
    },
    /// A slab worker panicked once and succeeded on the retry. Exact:
    /// the retry runs the identical computation.
    SlabRetry {
        /// Index of the recovered slab.
        slab: usize,
    },
    /// A slab worker panicked twice and was recovered by re-running the
    /// slab on the pristine sequential engine (faults stripped). Exact: the
    /// fallback computes the same band on the same engine configuration
    /// family, bit-identical to an unfaulted run.
    SlabFallback {
        /// Index of the recovered slab.
        slab: usize,
    },
    /// The refinement loop stopped because the remaining residual
    /// crossings sit inside beams already at the floating-point resolution
    /// limit and no new split made progress. Lossy at sliver scale.
    ResidualsAccepted {
        /// Residual crossings accepted unresolved.
        residual_crossings: usize,
    },
    /// The refinement loop hit its iteration bound. Lossy at sliver scale.
    RefinementExhausted {
        /// Refinement rounds executed.
        rounds: usize,
        /// Residual crossings still present at the bound.
        residual_crossings: usize,
    },
    /// Stitching dropped fragments from walks that failed to close.
    /// Lossy: some boundary pieces are missing from the output contours.
    DroppedFragments {
        /// Fragments consumed by unclosed walks.
        fragments: usize,
    },
    /// The sanitizer repaired an input before clipping: redundant ring
    /// closers, duplicate/collinear/spike vertices, or zero-area contours
    /// were removed. The result is exact *for the repaired input* — the
    /// repairs themselves preserve enclosed area — but strict callers are
    /// told the input they supplied was not what was clipped.
    InputRepaired {
        /// Which operand was repaired.
        role: InputRole,
        /// Tally of the repairs performed.
        repairs: crate::sanitize::SanitizeReport,
    },
    /// Post-clip validation found the output violating the engine's
    /// canonical-output guarantees, and the self-repair ladder ran.
    /// Lossy: even a successful repair re-derived the result by a
    /// different route than the one requested.
    OutputRepaired {
        /// The highest rung of the repair ladder that ran.
        rung: RepairRung,
        /// Violations found in the original output.
        violations: usize,
    },
    /// The execution budget blew mid-run and, because
    /// [`ExecBudget::allow_partial`](crate::ExecBudget::allow_partial) was
    /// set, Algorithm 2 returned the union of the slabs that finished
    /// instead of discarding all completed work. Lossy by definition: the
    /// result covers only the completed slabs' bands. Also marked by
    /// `completed_slabs < total_slabs` in [`ClipStats`].
    PartialResult {
        /// Slabs whose results are included.
        completed_slabs: usize,
        /// Total slabs the run was partitioned into.
        total_slabs: usize,
    },
    /// A serving layer above the engine (`polyclip-serve`) altered how this
    /// request ran because the fleet was overloaded: output validation
    /// disabled, partial results forced, or the deadline tightened for a
    /// retry. The engine itself never emits this rung — it is the
    /// service-level extension of the ladder, appended by the server so
    /// clients see overload measures through the same reporting channel as
    /// engine degradations. Lossy: the caller got a best-effort answer
    /// shaped by load, not the configuration they asked for.
    ServiceDegraded {
        /// Overload level at execution time: 1 = output validation
        /// disabled, 2 = partial results forced, 3 = load shedding active
        /// (this request survived shedding but ran under maximum
        /// degradation).
        level: u8,
        /// Whether the request was retried with a tightened budget after a
        /// first-attempt budget trip.
        retried: bool,
    },
}

/// A rung of the output self-repair ladder, cheapest first. Recorded in
/// [`Degradation::OutputRepaired`] as the rung whose result was kept.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RepairRung {
    /// Re-dissolved the output through a union-with-empty pass.
    Redissolve,
    /// Re-clipped with a tightened snap-rounding grid.
    TightenedSnap,
    /// Re-clipped on the pristine sequential engine.
    PristineSequential,
    /// Every rung still produced violations; the original output was
    /// kept.
    Unrepaired,
}

impl fmt::Display for RepairRung {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RepairRung::Redissolve => write!(f, "re-dissolve"),
            RepairRung::TightenedSnap => write!(f, "tightened snap"),
            RepairRung::PristineSequential => write!(f, "pristine sequential re-clip"),
            RepairRung::Unrepaired => write!(f, "unrepaired"),
        }
    }
}

impl Degradation {
    /// Severity rank, higher is worse. Ranks 1–3 preserve exactness;
    /// rank 4 means the input was repaired (exact for the repaired input,
    /// but not the bytes the caller supplied); ranks 5+ mean the result
    /// may deviate by resolution-limit slivers.
    pub fn severity(&self) -> u8 {
        match self {
            Degradation::SanitizedInput { .. } => 1,
            Degradation::SlabRetry { .. } => 2,
            Degradation::SlabFallback { .. } => 3,
            Degradation::InputRepaired { .. } => 4,
            Degradation::ResidualsAccepted { .. } => 5,
            Degradation::RefinementExhausted { .. } => 6,
            Degradation::DroppedFragments { .. } => 7,
            Degradation::OutputRepaired { .. } => 8,
            Degradation::PartialResult { .. } => 9,
            Degradation::ServiceDegraded { .. } => 10,
        }
    }

    /// Whether [`ClipOutcome::strict`] escalates this degradation: either
    /// the result may differ from the true boolean result (by slivers at
    /// the floating-point resolution limit), or the input/output needed
    /// repairs a strict caller asked to be told about.
    pub fn is_lossy(&self) -> bool {
        self.severity() >= 4
    }

    /// The error this degradation escalates to under
    /// [`ClipOutcome::strict`], if it is lossy.
    fn as_error(&self) -> Option<ClipError> {
        match *self {
            Degradation::ResidualsAccepted { residual_crossings } => {
                Some(ClipError::RefinementExhausted {
                    rounds: 0,
                    residual_crossings,
                })
            }
            Degradation::RefinementExhausted {
                rounds,
                residual_crossings,
            } => Some(ClipError::RefinementExhausted {
                rounds,
                residual_crossings,
            }),
            Degradation::DroppedFragments { fragments } => Some(ClipError::StitchImbalance {
                dropped_fragments: fragments,
            }),
            Degradation::InputRepaired { role, repairs } => {
                Some(ClipError::DirtyInput { role, repairs })
            }
            Degradation::OutputRepaired { violations, .. } => {
                Some(ClipError::InvalidOutput { violations })
            }
            Degradation::PartialResult { .. } | Degradation::ServiceDegraded { .. } => {
                Some(ClipError::BudgetExceeded {
                    work: polyclip_parprim::MeterSnapshot::default(),
                })
            }
            _ => None,
        }
    }
}

impl fmt::Display for Degradation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Degradation::SanitizedInput {
                role,
                dropped_contours,
            } => {
                write!(
                    f,
                    "dropped {dropped_contours} degenerate contours from {role} input"
                )
            }
            Degradation::SlabRetry { slab } => write!(f, "slab {slab} recovered on retry"),
            Degradation::SlabFallback { slab } => {
                write!(f, "slab {slab} recovered via sequential fallback")
            }
            Degradation::ResidualsAccepted { residual_crossings } => {
                write!(
                    f,
                    "accepted {residual_crossings} residual crossings at resolution limit"
                )
            }
            Degradation::RefinementExhausted {
                rounds,
                residual_crossings,
            } => write!(
                f,
                "refinement bound hit after {rounds} rounds, {residual_crossings} residuals left"
            ),
            Degradation::DroppedFragments { fragments } => {
                write!(
                    f,
                    "dropped {fragments} fragments from unclosed stitch walks"
                )
            }
            Degradation::InputRepaired { role, repairs } => {
                write!(f, "repaired {role} input: {repairs}")
            }
            Degradation::OutputRepaired { rung, violations } => {
                write!(
                    f,
                    "output had {violations} validation violations, repaired via {rung}"
                )
            }
            Degradation::PartialResult {
                completed_slabs,
                total_slabs,
            } => write!(
                f,
                "budget blew mid-run: partial result covering {completed_slabs} of \
                 {total_slabs} slabs"
            ),
            Degradation::ServiceDegraded { level, retried } => write!(
                f,
                "service degraded this request under overload (level {level}{})",
                if *retried {
                    ", retried with tightened budget"
                } else {
                    ""
                }
            ),
        }
    }
}

/// The result of a fallible clip: the polygon, its statistics, and every
/// degradation absorbed while producing it.
#[derive(Clone, Debug, Default)]
pub struct ClipOutcome {
    /// The boolean result.
    pub result: PolygonSet,
    /// Output-sensitivity counters for the run.
    pub stats: ClipStats,
    /// Degradations absorbed, in discovery order. Empty means the run was
    /// pristine.
    pub degradations: Vec<Degradation>,
}

impl ClipOutcome {
    /// Whether the run completed without absorbing any degradation.
    pub fn is_clean(&self) -> bool {
        self.degradations.is_empty()
    }

    /// The worst degradation absorbed, if any.
    pub fn worst(&self) -> Option<&Degradation> {
        self.degradations.iter().max_by_key(|d| d.severity())
    }

    /// Demand exactness: return the result only if every absorbed
    /// degradation preserves it. Lossy degradations (accepted residuals,
    /// exhausted refinement, dropped stitch fragments) escalate to the
    /// corresponding [`ClipError`]; sanitized inputs, slab retries, and
    /// slab fallbacks pass — they recover the exact answer.
    pub fn strict(self) -> Result<(PolygonSet, ClipStats), ClipError> {
        if let Some(err) = self
            .degradations
            .iter()
            .filter(|d| d.is_lossy())
            .max_by_key(|d| d.severity())
            .and_then(|d| d.as_error())
        {
            return Err(err);
        }
        Ok((self.result, self.stats))
    }
}

/// Deterministic fault plan for exercising the recovery ladder in tests.
///
/// Threaded through [`ClipOptions`](crate::ClipOptions); inert unless the
/// `fault-injection` cargo feature is enabled (without the feature the
/// type still exists so options remain source-compatible, but no fault
/// ever fires).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Panic the worker of this slab index: an Algorithm-2 cell or an
    /// overlay slab, both run by the same recovery ladder.
    pub panic_slab: Option<usize>,
    /// How many attempts of the chosen slab panic before the worker is
    /// allowed to succeed: `1` recovers on the retry, `2` (or more)
    /// forces the pristine sequential fallback, which never panics
    /// because the fault plan is stripped from it.
    pub panic_attempts: u32,
    /// Enter the refinement loop with the round budget already spent, so
    /// the engine exercises the exhaustion path on the first iteration.
    pub exhaust_refinement: bool,
    /// Append a synthetic non-progressing residual crossing in the first
    /// refinement round, forcing the accept-residuals path.
    pub residual_storm: bool,
    /// Stall attempt 0 of this slab's worker by
    /// [`stall_ms`](Self::stall_ms) before it runs: an Algorithm-2 cell or
    /// an overlay slab, both run by the same recovery ladder. Combined with
    /// a deadline in [`ExecBudget`](crate::ExecBudget), this
    /// deterministically trips the slab watchdog so tests can drive the
    /// watchdog→retry rung of the ladder on *both* the cold and the
    /// prepared ([`try_clip_prepared`](crate::try_clip_prepared)) query
    /// paths — the retry runs unstalled and recovers bit-identically. An
    /// overlay slab has no watchdog: its stalled attempt runs on the
    /// overlay's global gate, so a deadline that expires during the stall
    /// fails the whole overlay.
    pub stall_slab: Option<usize>,
    /// Milliseconds the stalled slab's first attempt sleeps.
    pub stall_ms: u64,
}

impl FaultPlan {
    /// A plan that panics `attempts` attempts of slab `slab`.
    pub fn panic_in_slab(slab: usize, attempts: u32) -> Self {
        FaultPlan {
            panic_slab: Some(slab),
            panic_attempts: attempts,
            ..FaultPlan::default()
        }
    }

    /// A plan that stalls attempt 0 of slab `slab` for `ms` milliseconds.
    pub fn stall_in_slab(slab: usize, ms: u64) -> Self {
        FaultPlan {
            stall_slab: Some(slab),
            stall_ms: ms,
            ..FaultPlan::default()
        }
    }
}

/// Panic if the fault plan targets this slab at this attempt. Compiled to
/// a no-op without the `fault-injection` feature.
#[inline]
pub(crate) fn maybe_panic_slab(opts: &crate::ClipOptions, slab: usize, attempt: u32) {
    #[cfg(feature = "fault-injection")]
    if opts.faults.panic_slab == Some(slab) && attempt < opts.faults.panic_attempts {
        panic!("fault-injection: slab {slab} attempt {attempt}");
    }
    #[cfg(not(feature = "fault-injection"))]
    let _ = (opts, slab, attempt);
}

/// Sleep if the fault plan stalls this slab's first attempt (retries run
/// unstalled so the watchdog→retry rung recovers). Compiled to a no-op
/// without the `fault-injection` feature.
#[inline]
pub(crate) fn maybe_stall_slab(opts: &crate::ClipOptions, slab: usize, attempt: u32) {
    #[cfg(feature = "fault-injection")]
    if opts.faults.stall_slab == Some(slab) && attempt == 0 && opts.faults.stall_ms > 0 {
        std::thread::sleep(std::time::Duration::from_millis(opts.faults.stall_ms));
    }
    #[cfg(not(feature = "fault-injection"))]
    let _ = (opts, slab, attempt);
}

/// Whether the refinement loop should start with its budget spent.
#[inline]
pub(crate) fn fault_exhaust_refinement(opts: &crate::ClipOptions) -> bool {
    #[cfg(feature = "fault-injection")]
    {
        opts.faults.exhaust_refinement
    }
    #[cfg(not(feature = "fault-injection"))]
    {
        let _ = opts;
        false
    }
}

/// Whether to inject a synthetic non-progressing residual crossing.
#[inline]
pub(crate) fn fault_residual_storm(opts: &crate::ClipOptions) -> bool {
    #[cfg(feature = "fault-injection")]
    {
        opts.faults.residual_storm
    }
    #[cfg(not(feature = "fault-injection"))]
    {
        let _ = opts;
        false
    }
}

/// The pristine configuration a failed slab falls back to: sequential,
/// fault plan stripped. The fill rule is preserved — it affects the answer.
pub(crate) fn pristine(opts: &crate::ClipOptions) -> crate::ClipOptions {
    crate::ClipOptions {
        parallel: false,
        faults: FaultPlan::default(),
        // Recovery stays cancellable but budget-exempt: the failing attempt
        // already consumed the deadline/work allowance, and the fallback is
        // the last chance to produce an answer at all.
        budget: opts.budget.cancel_only(),
        ..opts.clone()
    }
}

/// Render a `catch_unwind` payload as a message for [`ClipError::SlabPanic`].
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severity_ladder_is_ordered_exact_then_lossy() {
        let ladder = [
            Degradation::SanitizedInput {
                role: InputRole::Subject,
                dropped_contours: 1,
            },
            Degradation::SlabRetry { slab: 0 },
            Degradation::SlabFallback { slab: 0 },
            Degradation::InputRepaired {
                role: InputRole::Subject,
                repairs: crate::sanitize::SanitizeReport::default(),
            },
            Degradation::ResidualsAccepted {
                residual_crossings: 1,
            },
            Degradation::RefinementExhausted {
                rounds: 8,
                residual_crossings: 1,
            },
            Degradation::DroppedFragments { fragments: 2 },
            Degradation::OutputRepaired {
                rung: RepairRung::Redissolve,
                violations: 1,
            },
            Degradation::PartialResult {
                completed_slabs: 3,
                total_slabs: 8,
            },
            Degradation::ServiceDegraded {
                level: 2,
                retried: true,
            },
        ];
        for w in ladder.windows(2) {
            assert!(w[0].severity() < w[1].severity());
        }
        assert!(ladder.iter().take(3).all(|d| !d.is_lossy()));
        assert!(ladder.iter().skip(3).all(|d| d.is_lossy()));
    }

    #[test]
    fn strict_passes_exact_degradations_and_rejects_lossy_ones() {
        let exact = ClipOutcome {
            degradations: vec![
                Degradation::SanitizedInput {
                    role: InputRole::Clip,
                    dropped_contours: 2,
                },
                Degradation::SlabFallback { slab: 3 },
            ],
            ..ClipOutcome::default()
        };
        assert!(!exact.is_clean());
        assert!(exact.strict().is_ok());

        let lossy = ClipOutcome {
            degradations: vec![
                Degradation::SlabRetry { slab: 1 },
                Degradation::DroppedFragments { fragments: 4 },
            ],
            ..ClipOutcome::default()
        };
        assert_eq!(
            lossy.strict().unwrap_err(),
            ClipError::StitchImbalance {
                dropped_fragments: 4
            }
        );

        // A repaired input is exact for the repaired geometry, but strict
        // callers asked to reject anything that needed surgery.
        let repairs = crate::sanitize::SanitizeReport {
            spikes_dropped: 2,
            ..Default::default()
        };
        let dirty = ClipOutcome {
            degradations: vec![Degradation::InputRepaired {
                role: InputRole::Subject,
                repairs,
            }],
            ..ClipOutcome::default()
        };
        assert_eq!(
            dirty.strict().unwrap_err(),
            ClipError::DirtyInput {
                role: InputRole::Subject,
                repairs,
            }
        );
    }

    #[test]
    fn worst_picks_highest_severity() {
        let o = ClipOutcome {
            degradations: vec![
                Degradation::SlabRetry { slab: 0 },
                Degradation::ResidualsAccepted {
                    residual_crossings: 3,
                },
                Degradation::SanitizedInput {
                    role: InputRole::Subject,
                    dropped_contours: 1,
                },
            ],
            ..ClipOutcome::default()
        };
        assert_eq!(
            o.worst(),
            Some(&Degradation::ResidualsAccepted {
                residual_crossings: 3
            })
        );
    }

    #[test]
    fn errors_and_degradations_render_human_readably() {
        let e = ClipError::NonFiniteInput {
            role: InputRole::Clip,
            contour: 2,
            vertex: 7,
        };
        assert_eq!(
            e.to_string(),
            "non-finite coordinate in clip input at contour 2, vertex 7"
        );
        let d = Degradation::SlabFallback { slab: 5 };
        assert_eq!(d.to_string(), "slab 5 recovered via sequential fallback");
    }

    #[test]
    fn panic_message_extracts_str_and_string() {
        let a: Box<dyn std::any::Any + Send> = Box::new("boom");
        assert_eq!(panic_message(a.as_ref()), "boom");
        let b: Box<dyn std::any::Any + Send> = Box::new(String::from("kapow"));
        assert_eq!(panic_message(b.as_ref()), "kapow");
        let c: Box<dyn std::any::Any + Send> = Box::new(42u32);
        assert_eq!(panic_message(c.as_ref()), "non-string panic payload");
    }
}
