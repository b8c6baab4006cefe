//! Bounded execution: deadlines, cooperative cancellation, and work budgets.
//!
//! The paper's output-sensitive bound promises work proportional to the `k`
//! intersections actually present — but an adversarial (or merely ugly)
//! input can drive `k` toward `n²`, and a clipping service cannot let one
//! request pin every core until it finishes or OOMs. [`ExecBudget`], carried
//! by [`ClipOptions::budget`](crate::ClipOptions::budget), bounds a clip
//! four ways:
//!
//! * **deadline** — a wall-clock allowance, converted to an absolute
//!   [`Instant`] exactly once at the public API boundary (nested internal
//!   calls share the armed gate, so the clock can never be reset);
//! * **cancellation** — a cloneable [`CancelToken`] another thread can fire;
//!   the pipeline observes it at its next checkpoint;
//! * **work limits** — `max_intersections` / `max_output_vertices`, enforced
//!   against the lock-free [`WorkMeter`] *before* the corresponding `O(k)`
//!   allocation is made (count-then-report lets us refuse the report phase);
//! * **partial results** — with `allow_partial`, Algorithm 2 returns the
//!   union of the slabs that finished before the budget blew, marked by
//!   [`Degradation::PartialResult`](crate::Degradation::PartialResult) and
//!   by `completed_slabs < total_slabs` in [`ClipStats`](crate::ClipStats);
//!   strict mode rejects as usual.
//!
//! Checkpoints are deliberately coarse — per scanbeam, per merge block, per
//! segment-tree batch, per slab — so the unarmed/unlimited path stays within
//! noise (<1 % on the `gis_multi` benchmark; see `bench_algo2`'s
//! `budget_overhead` column). A blown budget surfaces as
//! [`ClipError::DeadlineExceeded`], [`ClipError::BudgetExceeded`], or
//! [`ClipError::Cancelled`]; no partially-built geometry ever escapes an
//! API boundary.
//!
//! Recovery paths (the output repair ladder, the slab retry→pristine ladder)
//! deliberately run *budget-exempt but still cancellable*: re-arming a
//! deadline for a retry would double the latency allowance, and a slab
//! whose watchdog deadline fired must be retried without it to make
//! progress. N-ary ops ([`union_all`](crate::union_all) etc.) arm the
//! budget per binary clip and additionally short-circuit their reduction
//! when the cancel token fires.

use crate::resilience::ClipError;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub use polyclip_parprim::{CancelToken, Gate, MeterSnapshot, TripReason, WorkMeter};

/// Execution budget for one clipping operation. The default is unlimited:
/// no deadline, no work caps, a cancel token nobody fires — and in that
/// state the pipeline's output is bit-identical to a build without the
/// budget machinery (enforced by proptest).
#[derive(Clone, Debug, Default)]
pub struct ExecBudget {
    /// Wall-clock allowance for the whole operation. Converted to an
    /// absolute deadline when the public entry point arms the budget.
    pub deadline: Option<Duration>,
    /// Cap on intersection pairs discovered (the output-sensitive `k`,
    /// counted across refinement rounds and residual re-discoveries).
    pub max_intersections: Option<u64>,
    /// Cap on output fragments gathered before stitching (each contributes
    /// at most two output vertices).
    pub max_output_vertices: Option<u64>,
    /// Cooperative cancellation token; clone it and call
    /// [`CancelToken::cancel`] from any thread.
    pub cancel: CancelToken,
    /// Let Algorithm 2 return the union of completed slabs when the budget
    /// blows mid-run (marked
    /// [`Degradation::PartialResult`](crate::Degradation::PartialResult),
    /// rejected by strict mode)
    /// instead of discarding all finished work. Cancellation always
    /// discards: the caller asked to stop, not to salvage.
    pub allow_partial: bool,
    /// The anchor instant the relative [`deadline`](Self::deadline) counts
    /// from. `None` (the default) means "arm at the public entry point" —
    /// the clip call converts the duration to an absolute deadline when it
    /// starts, exactly once. A service that admits a request into a queue
    /// should call [`arm_now`](Self::arm_now) at admission instead, so time
    /// spent queued counts against the deadline and a retry derived with
    /// [`tighten`](Self::tighten) can never outlive the original promise.
    pub armed_at: Option<Instant>,
}

impl ExecBudget {
    /// An unlimited budget (the default).
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// Budget with only a wall-clock deadline.
    pub fn with_deadline(deadline: Duration) -> Self {
        ExecBudget {
            deadline: Some(deadline),
            ..Default::default()
        }
    }

    /// True when no deadline or work cap is configured (the token may still
    /// be cancelled — that is always honoured).
    pub fn is_unlimited(&self) -> bool {
        self.deadline.is_none()
            && self.max_intersections.is_none()
            && self.max_output_vertices.is_none()
    }

    /// Anchor the deadline clock at this instant (idempotent: the first
    /// call wins, matching the arm-once discipline of the clip entry
    /// points). Call this when a request is *admitted* rather than when it
    /// is *executed*, so queue wait burns the same allowance the caller was
    /// promised; [`remaining`](Self::remaining) and
    /// [`tighten`](Self::tighten) then measure against that promise.
    pub fn arm_now(&mut self) {
        if self.armed_at.is_none() {
            self.armed_at = Some(Instant::now());
        }
    }

    /// The absolute instant this budget's deadline expires, if it has both
    /// a deadline and an anchor ([`arm_now`](Self::arm_now) or a clip entry
    /// arming it).
    pub fn expires_at(&self) -> Option<Instant> {
        match (self.deadline, self.armed_at) {
            (Some(d), Some(t0)) => Some(t0 + d),
            _ => None,
        }
    }

    /// Wall-clock allowance still unspent: the full deadline when unarmed,
    /// the deadline minus time already elapsed since
    /// [`arm_now`](Self::arm_now) once armed (saturating at zero), `None` when no
    /// deadline is configured.
    pub fn remaining(&self) -> Option<Duration> {
        let d = self.deadline?;
        Some(match self.armed_at {
            Some(t0) => (t0 + d).saturating_duration_since(Instant::now()),
            None => d,
        })
    }

    /// Derive the budget for a retry attempt: `frac` of the *remaining*
    /// allowance (not the original duration — the failed attempt already
    /// spent its share), anchored at the current instant so the invariant
    /// `retry.expires_at() <= original.expires_at()` holds however long the
    /// first attempt ran. Work caps are scaled by `frac` too (floored at 1
    /// so a retry can always do *some* work); the cancel token is shared —
    /// cancelling the request cancels its retry. `frac` is clamped to
    /// `(0, 1]`.
    pub fn tighten(&self, frac: f64) -> ExecBudget {
        let frac = if frac.is_finite() {
            frac.clamp(f64::EPSILON, 1.0)
        } else {
            1.0
        };
        let scale_cap = |c: Option<u64>| c.map(|c| ((c as f64 * frac) as u64).max(1));
        // One clock read for both the remaining-time measurement and the
        // new anchor, so `anchor + remaining * frac` can never land past
        // the original expiry even at frac = 1.
        let now = Instant::now();
        let remaining = self.deadline.map(|d| match self.armed_at {
            Some(t0) => (t0 + d).saturating_duration_since(now),
            None => d,
        });
        ExecBudget {
            deadline: remaining.map(|r| r.mul_f64(frac)),
            max_intersections: scale_cap(self.max_intersections),
            max_output_vertices: scale_cap(self.max_output_vertices),
            cancel: self.cancel.clone(),
            allow_partial: self.allow_partial,
            armed_at: Some(now),
        }
    }

    /// Convert the budget into an armed [`Gate`] with a fresh meter.
    /// Called exactly once per public entry point: the relative deadline
    /// becomes absolute *here* (anchored at [`armed_at`](Self::armed_at)
    /// when the caller pre-armed the budget at admission), so internal
    /// re-entries (slab workers, repair rungs) that receive the gate by
    /// reference can never reset the clock.
    pub(crate) fn arm(&self) -> Gate {
        Gate::new(
            self.cancel.clone(),
            self.deadline
                .map(|d| self.armed_at.unwrap_or_else(Instant::now) + d),
            self.max_intersections,
            self.max_output_vertices,
            Arc::new(WorkMeter::new()),
        )
    }

    /// The budget handed to recovery re-derivations (output repair ladder,
    /// slab retry→pristine ladder): keeps the cancel token — recovery must
    /// stay interruptible — but drops the deadline and work caps, which the
    /// failing attempt already consumed. Re-arming them would either double
    /// the allowance or make recovery impossible.
    pub(crate) fn cancel_only(&self) -> ExecBudget {
        ExecBudget {
            cancel: self.cancel.clone(),
            ..Default::default()
        }
    }
}

/// Map a gate trip to its typed error, capturing the meter for context.
pub(crate) fn trip_error(reason: TripReason, gate: &Gate) -> ClipError {
    match reason {
        TripReason::Cancelled => ClipError::Cancelled,
        TripReason::DeadlineExceeded => ClipError::DeadlineExceeded,
        TripReason::BudgetExceeded => ClipError::BudgetExceeded {
            work: gate.meter().snapshot(),
        },
    }
}

/// Run a full gate checkpoint, converting a trip into its typed error.
pub(crate) fn check(gate: &Gate) -> Result<(), ClipError> {
    match gate.checkpoint() {
        Some(reason) => Err(trip_error(reason, gate)),
        None => Ok(()),
    }
}

/// Is this error a deadline/work-budget trip (as opposed to cancellation or
/// a geometry error)? Budget trips are the only errors eligible for the
/// partial-result path and for the slab watchdog's retry.
pub(crate) fn is_budget_trip(e: &ClipError) -> bool {
    matches!(
        e,
        ClipError::DeadlineExceeded | ClipError::BudgetExceeded { .. }
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_budget_is_unlimited() {
        let b = ExecBudget::default();
        assert!(b.is_unlimited());
        assert!(!b.cancel.is_cancelled());
        let gate = b.arm();
        assert_eq!(gate.checkpoint(), None);
    }

    #[test]
    fn arm_converts_duration_to_absolute_deadline() {
        let b = ExecBudget::with_deadline(Duration::ZERO);
        assert!(!b.is_unlimited());
        let gate = b.arm();
        assert_eq!(gate.checkpoint(), Some(TripReason::DeadlineExceeded));
        assert!(matches!(check(&gate), Err(ClipError::DeadlineExceeded)));
    }

    #[test]
    fn cancel_only_keeps_token_drops_limits() {
        let b = ExecBudget {
            deadline: Some(Duration::ZERO),
            max_intersections: Some(1),
            max_output_vertices: Some(1),
            allow_partial: true,
            ..Default::default()
        };
        let r = b.cancel_only();
        assert!(r.is_unlimited());
        assert!(!r.allow_partial);
        b.cancel.cancel();
        assert!(r.cancel.is_cancelled(), "token is shared");
    }

    #[test]
    fn tighten_never_exceeds_original_deadline() {
        // The arm-once audit: arming converts Duration → absolute Instant,
        // so a retry that cloned the budget and re-armed the *original*
        // duration would run until first-attempt-time + deadline — past the
        // caller's promise. `tighten` must derive from the remaining time.
        let mut original = ExecBudget::with_deadline(Duration::from_millis(50));
        original.arm_now();
        let original_expiry = original.expires_at().expect("armed with deadline");
        std::thread::sleep(Duration::from_millis(20));
        for frac in [0.25, 0.5, 0.9, 1.0, 7.3, f64::NAN] {
            let retry = original.tighten(frac);
            let retry_expiry = retry.expires_at().expect("tighten keeps the deadline");
            assert!(
                retry_expiry <= original_expiry,
                "frac {frac}: retry expires {:?} after the original",
                retry_expiry - original_expiry
            );
        }
        // The naive re-arm (what tighten exists to prevent) would blow it.
        let naive = Instant::now() + original.deadline.unwrap();
        assert!(naive > original_expiry);
    }

    #[test]
    fn tighten_after_expiry_yields_a_spent_budget() {
        let mut b = ExecBudget::with_deadline(Duration::from_millis(1));
        b.arm_now();
        std::thread::sleep(Duration::from_millis(5));
        assert_eq!(b.remaining(), Some(Duration::ZERO));
        let retry = b.tighten(0.5);
        // The retried gate trips immediately: no time was left to grant.
        let gate = retry.arm();
        assert_eq!(gate.checkpoint(), Some(TripReason::DeadlineExceeded));
    }

    #[test]
    fn tighten_scales_caps_and_shares_the_cancel_token() {
        let b = ExecBudget {
            max_intersections: Some(100),
            max_output_vertices: Some(7),
            allow_partial: true,
            ..Default::default()
        };
        let t = b.tighten(0.5);
        assert_eq!(t.max_intersections, Some(50));
        assert_eq!(t.max_output_vertices, Some(3));
        assert!(t.allow_partial);
        assert_eq!(t.deadline, None, "no deadline to tighten");
        b.cancel.cancel();
        assert!(t.cancel.is_cancelled(), "token is shared");
        // Caps floor at 1: a retry can always attempt some work.
        let tiny = ExecBudget {
            max_intersections: Some(1),
            ..Default::default()
        }
        .tighten(0.1);
        assert_eq!(tiny.max_intersections, Some(1));
    }

    #[test]
    fn arm_now_is_idempotent_and_anchors_the_gate() {
        let mut b = ExecBudget::with_deadline(Duration::from_millis(500));
        assert_eq!(b.remaining(), Some(Duration::from_millis(500)));
        b.arm_now();
        let first = b.armed_at.unwrap();
        std::thread::sleep(Duration::from_millis(2));
        b.arm_now();
        assert_eq!(b.armed_at, Some(first), "first arm wins");
        assert!(b.remaining().unwrap() < Duration::from_millis(500));
        // A pre-armed budget whose allowance has fully elapsed trips the
        // gate even though the clip call itself just started.
        let mut spent = ExecBudget::with_deadline(Duration::from_millis(1));
        spent.arm_now();
        std::thread::sleep(Duration::from_millis(5));
        assert_eq!(spent.arm().checkpoint(), Some(TripReason::DeadlineExceeded));
    }

    #[test]
    fn budget_trip_classification() {
        assert!(is_budget_trip(&ClipError::DeadlineExceeded));
        assert!(is_budget_trip(&ClipError::BudgetExceeded {
            work: MeterSnapshot::default()
        }));
        assert!(!is_budget_trip(&ClipError::Cancelled));
    }
}
