//! Cooperative interruption and work accounting for bounded execution.
//!
//! The paper's output-sensitive bound promises work proportional to the
//! number of intersections `k` — but an adversarial input can drive `k`
//! toward `n²`, and a service clipping untrusted polygons cannot let one
//! request pin every core until it finishes or OOMs. This module provides
//! the low-level primitives the pipeline uses to stay bounded:
//!
//! * [`CancelToken`] — an `Arc<AtomicBool>`-based cooperative cancellation
//!   flag, cloneable across threads, flipped once and observed by cheap
//!   relaxed loads;
//! * [`WorkMeter`] — lock-free relaxed counters for intersections found,
//!   events processed and vertices emitted;
//! * [`Gate`] — a cancel token + optional deadline + optional work limits
//!   bundled behind two check entry points: [`Gate::poll`] (two relaxed
//!   atomic loads, safe to call per scanbeam / per merge block) and
//!   [`Gate::checkpoint`] (adds an `Instant::now()` clock read and the
//!   meter-vs-limit comparisons; called at phase boundaries).
//!
//! Checks are deliberately **coarse**: per scanbeam in the sweep, per batch
//! in the segment-tree count-then-report path, per merge block in the
//! parallel sort, per slab in Algorithm 2. A tripped gate makes the gated
//! primitives bail out early with truncated output; callers observe the trip
//! at the next phase boundary and surface a typed error, so truncated data
//! never escapes an API boundary.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Cooperative cancellation token. Clones share the same flag; once
/// [`cancel`](CancelToken::cancel)ed the token stays cancelled forever.
#[derive(Clone, Debug, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Request cancellation. Safe to call from any thread, any number of
    /// times; the pipeline observes it at its next checkpoint.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// Has cancellation been requested? A single relaxed load.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// Lock-free work counters, updated with relaxed atomics so metering adds no
/// synchronization to the hot paths. Counts are exact for deterministic
/// quantities (every worker adds its true local count) but the *interleaving*
/// of updates across slabs is scheduling-dependent — which is why limits are
/// enforced at coarse checkpoints rather than per increment.
#[derive(Debug, Default)]
pub struct WorkMeter {
    intersections: AtomicU64,
    events: AtomicU64,
    vertices: AtomicU64,
}

impl WorkMeter {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn add_intersections(&self, n: u64) {
        self.intersections.fetch_add(n, Ordering::Relaxed);
    }

    pub fn add_events(&self, n: u64) {
        self.events.fetch_add(n, Ordering::Relaxed);
    }

    pub fn add_vertices(&self, n: u64) {
        self.vertices.fetch_add(n, Ordering::Relaxed);
    }

    pub fn intersections(&self) -> u64 {
        self.intersections.load(Ordering::Relaxed)
    }

    pub fn vertices(&self) -> u64 {
        self.vertices.load(Ordering::Relaxed)
    }

    /// Snapshot all counters at once.
    pub fn snapshot(&self) -> MeterSnapshot {
        MeterSnapshot {
            intersections: self.intersections.load(Ordering::Relaxed),
            events: self.events.load(Ordering::Relaxed),
            vertices: self.vertices.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of a [`WorkMeter`]'s counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MeterSnapshot {
    /// Intersection pairs discovered by inversion reporting / residual
    /// crossing discovery.
    pub intersections: u64,
    /// Sub-edge/beam incidences processed by the sweep (the paper's `k'`
    /// scale factor).
    pub events: u64,
    /// Output fragments gathered before stitching (each contributes at most
    /// two output vertices).
    pub vertices: u64,
}

/// Why a [`Gate`] tripped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TripReason {
    /// The [`CancelToken`] was fired.
    Cancelled,
    /// The wall-clock deadline passed.
    DeadlineExceeded,
    /// A work limit (`max_intersections` / `max_vertices`) was exceeded.
    BudgetExceeded,
}

/// An armed execution gate: cancellation + optional deadline + optional work
/// limits, sharing one [`WorkMeter`]. Passed by `&Gate` through the gated
/// pipeline; `Sync` because all state is atomic.
///
/// Once tripped, a gate stays tripped (the first reason wins) — gated
/// primitives use that latch to bail out of deep recursion quickly.
#[derive(Debug)]
pub struct Gate {
    cancel: CancelToken,
    deadline: Option<Instant>,
    max_intersections: Option<u64>,
    max_vertices: Option<u64>,
    meter: Arc<WorkMeter>,
    /// 0 = open, else `TripReason as u8 + 1`.
    tripped: AtomicU8,
}

impl Gate {
    /// Build a gate from its parts. `deadline` is absolute — convert a
    /// `Duration` budget *once* at the public API boundary so nested calls
    /// can never reset the clock.
    pub fn new(
        cancel: CancelToken,
        deadline: Option<Instant>,
        max_intersections: Option<u64>,
        max_vertices: Option<u64>,
        meter: Arc<WorkMeter>,
    ) -> Self {
        Gate {
            cancel,
            deadline,
            max_intersections,
            max_vertices,
            meter,
            tripped: AtomicU8::new(0),
        }
    }

    /// A gate that never trips on time or work (it still honours its own
    /// fresh cancel token, which nobody else holds). Used by ungated public
    /// wrappers so gated internals need no `Option<&Gate>` plumbing.
    pub fn unlimited() -> Self {
        Gate::new(
            CancelToken::new(),
            None,
            None,
            None,
            Arc::new(WorkMeter::new()),
        )
    }

    /// Derive a child gate sharing this gate's cancel token, meter, and work
    /// limits, but with its own (typically earlier) deadline and a fresh
    /// latch. Algorithm 2 uses this to give each slab a watchdog deadline.
    pub fn child_with_deadline(&self, deadline: Option<Instant>) -> Gate {
        Gate::new(
            self.cancel.clone(),
            deadline,
            self.max_intersections,
            self.max_vertices,
            Arc::clone(&self.meter),
        )
    }

    pub fn meter(&self) -> &WorkMeter {
        &self.meter
    }

    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// Latch the gate shut with `reason` (first reason wins).
    pub fn trip(&self, reason: TripReason) {
        let code = reason as u8 + 1;
        let _ = self
            .tripped
            .compare_exchange(0, code, Ordering::Relaxed, Ordering::Relaxed);
    }

    fn tripped_reason(&self) -> Option<TripReason> {
        match self.tripped.load(Ordering::Relaxed) {
            0 => None,
            1 => Some(TripReason::Cancelled),
            2 => Some(TripReason::DeadlineExceeded),
            _ => Some(TripReason::BudgetExceeded),
        }
    }

    /// Cheap check: the latch plus the cancel flag — two relaxed loads, no
    /// clock read. Suitable for per-scanbeam / per-merge-block frequency.
    pub fn poll(&self) -> Option<TripReason> {
        if let Some(r) = self.tripped_reason() {
            return Some(r);
        }
        if self.cancel.is_cancelled() {
            self.trip(TripReason::Cancelled);
            return Some(TripReason::Cancelled);
        }
        None
    }

    /// `poll()` as a boolean, for tight loops.
    pub fn is_tripped(&self) -> bool {
        self.poll().is_some()
    }

    /// Full check: cancellation, then the deadline clock, then the meter
    /// against the work limits. Called at phase boundaries and per batch in
    /// the heavy loops.
    pub fn checkpoint(&self) -> Option<TripReason> {
        if let Some(r) = self.poll() {
            return Some(r);
        }
        if let Some(d) = self.deadline {
            if Instant::now() >= d {
                self.trip(TripReason::DeadlineExceeded);
                return Some(TripReason::DeadlineExceeded);
            }
        }
        if let Some(limit) = self.max_intersections {
            if self.meter.intersections() > limit {
                self.trip(TripReason::BudgetExceeded);
                return Some(TripReason::BudgetExceeded);
            }
        }
        if let Some(limit) = self.max_vertices {
            if self.meter.vertices() > limit {
                self.trip(TripReason::BudgetExceeded);
                return Some(TripReason::BudgetExceeded);
            }
        }
        None
    }

    /// Would crediting `extra` more intersections exceed the limit? Trips
    /// the gate if so. Lets inversion reporting refuse the `O(k)` fill phase
    /// *before* allocating the output, which is the whole point of
    /// count-then-report.
    ///
    /// The refused count IS credited to the meter: the work was *discovered*
    /// even though its report was never allocated. This keeps the overflow
    /// visible to every gate sharing the meter — in particular the global
    /// gate above a slab watchdog, whose checkpoint must distinguish "the
    /// run's budget blew" from "only this slab's watchdog fired".
    pub fn intersections_would_exceed(&self, extra: u64) -> bool {
        if let Some(limit) = self.max_intersections {
            if self.meter.intersections().saturating_add(extra) > limit {
                self.meter.add_intersections(extra);
                self.trip(TripReason::BudgetExceeded);
                return true;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn cancel_token_is_shared_and_sticky() {
        let t = CancelToken::new();
        let u = t.clone();
        assert!(!t.is_cancelled());
        u.cancel();
        assert!(t.is_cancelled());
        u.cancel(); // idempotent
        assert!(u.is_cancelled());
    }

    #[test]
    fn unlimited_gate_never_trips() {
        let g = Gate::unlimited();
        g.meter().add_intersections(u64::MAX / 2);
        g.meter().add_vertices(u64::MAX / 2);
        assert_eq!(g.poll(), None);
        assert_eq!(g.checkpoint(), None);
    }

    #[test]
    fn deadline_in_the_past_trips_on_checkpoint_only() {
        let g = Gate::new(
            CancelToken::new(),
            Some(Instant::now() - Duration::from_secs(1)),
            None,
            None,
            Arc::new(WorkMeter::new()),
        );
        assert_eq!(g.poll(), None, "poll never reads the clock");
        assert_eq!(g.checkpoint(), Some(TripReason::DeadlineExceeded));
        assert_eq!(g.poll(), Some(TripReason::DeadlineExceeded), "latched");
    }

    #[test]
    fn first_trip_reason_wins() {
        let cancel = CancelToken::new();
        let g = Gate::new(
            cancel.clone(),
            None,
            Some(10),
            None,
            Arc::new(WorkMeter::new()),
        );
        g.meter().add_intersections(11);
        assert_eq!(g.checkpoint(), Some(TripReason::BudgetExceeded));
        cancel.cancel();
        assert_eq!(g.checkpoint(), Some(TripReason::BudgetExceeded));
    }

    #[test]
    fn child_shares_cancel_and_meter_but_not_latch() {
        let parent = Gate::new(
            CancelToken::new(),
            None,
            Some(100),
            None,
            Arc::new(WorkMeter::new()),
        );
        let child = parent.child_with_deadline(Some(Instant::now() - Duration::from_millis(1)));
        assert_eq!(child.checkpoint(), Some(TripReason::DeadlineExceeded));
        // The child's deadline trip does not latch the parent.
        assert_eq!(parent.checkpoint(), None);
        // But work metered through the child is visible to the parent.
        child.meter().add_intersections(101);
        assert_eq!(parent.checkpoint(), Some(TripReason::BudgetExceeded));
    }

    #[test]
    fn would_exceed_credits_discovery_and_latches() {
        let g = Gate::new(
            CancelToken::new(),
            None,
            Some(10),
            None,
            Arc::new(WorkMeter::new()),
        );
        g.meter().add_intersections(8);
        assert!(!g.intersections_would_exceed(2));
        assert_eq!(g.meter().intersections(), 8, "a clean peek does not credit");
        assert!(g.intersections_would_exceed(3));
        assert_eq!(g.meter().intersections(), 11, "the overflow is recorded");
        assert_eq!(g.poll(), Some(TripReason::BudgetExceeded), "and it latches");
        // Gates sharing the meter now see the blown budget at checkpoint.
        let sibling = g.child_with_deadline(None);
        assert_eq!(sibling.checkpoint(), Some(TripReason::BudgetExceeded));
    }

    #[test]
    fn meter_snapshot_reads_all_counters() {
        let m = WorkMeter::new();
        m.add_intersections(3);
        m.add_events(5);
        m.add_vertices(7);
        assert_eq!(
            m.snapshot(),
            MeterSnapshot {
                intersections: 3,
                events: 5,
                vertices: 7,
            }
        );
    }
}
