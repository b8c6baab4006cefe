//! The graceful-degradation ladder: trade answer quality for liveness,
//! one explicit rung at a time, as the admission queue fills.
//!
//! The load signal is queue fill fraction (depth / capacity) — it needs no
//! clock, no sampling window, and reacts the moment arrivals outpace
//! service. Three watermarks map it to a ladder level:
//!
//! | level | watermark | effect |
//! |---|---|---|
//! | 0 | —       | full service |
//! | 1 | `0.50`  | output validation disabled (skip the re-validation sweep) |
//! | 2 | `0.75`  | partial results forced (`allow_partial`: salvage completed slabs on budget blow) |
//! | 3 | `0.90`  | lowest-priority class shed at admission |
//!
//! Each level includes every effect below it. Any request executed at
//! level ≥ 1 carries a
//! [`Degradation::ServiceDegraded`](polyclip::prelude::Degradation::ServiceDegraded)
//! rung in its response — the service never quietly serves a degraded
//! answer.

use polyclip::prelude::ClipOptions;

/// A rung on the ladder. Ordered: higher = more degraded.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug, Default)]
pub enum DegradeLevel {
    /// Full service.
    #[default]
    Normal = 0,
    /// Output validation disabled.
    NoValidate = 1,
    /// Partial results forced on budget exhaustion.
    ForcePartial = 2,
    /// Low-priority traffic shed at admission.
    ShedLow = 3,
}

impl DegradeLevel {
    /// Numeric level for wire reporting.
    pub fn as_u8(self) -> u8 {
        self as u8
    }

    /// Whether this level skips output validation.
    pub fn disables_validation(self) -> bool {
        self >= DegradeLevel::NoValidate
    }

    /// Whether this level forces `allow_partial`.
    pub fn forces_partial(self) -> bool {
        self >= DegradeLevel::ForcePartial
    }

    /// Whether this level sheds the lowest priority class.
    pub fn sheds_low_priority(self) -> bool {
        self >= DegradeLevel::ShedLow
    }

    /// Apply this level's effects to a request's engine options.
    pub fn apply(self, opts: &mut ClipOptions) {
        if self.disables_validation() {
            opts.validate_output = false;
        }
        if self.forces_partial() {
            opts.budget.allow_partial = true;
        }
    }
}

/// Watermark table mapping fill fraction to [`DegradeLevel`].
#[derive(Clone, Copy, Debug)]
pub struct DegradeLadder {
    /// Fill fractions at which levels 1, 2, 3 engage (ascending).
    pub watermarks: [f64; 3],
}

impl Default for DegradeLadder {
    fn default() -> Self {
        DegradeLadder {
            watermarks: [0.50, 0.75, 0.90],
        }
    }
}

impl DegradeLadder {
    /// The ladder level for a queue fill fraction. Pure: same fill, same
    /// level — the tests and the fault-injection harness rely on it.
    pub fn level(&self, fill: f64) -> DegradeLevel {
        let [w1, w2, w3] = self.watermarks;
        if fill >= w3 {
            DegradeLevel::ShedLow
        } else if fill >= w2 {
            DegradeLevel::ForcePartial
        } else if fill >= w1 {
            DegradeLevel::NoValidate
        } else {
            DegradeLevel::Normal
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn watermarks_map_to_monotone_levels() {
        let l = DegradeLadder::default();
        assert_eq!(l.level(0.0), DegradeLevel::Normal);
        assert_eq!(l.level(0.49), DegradeLevel::Normal);
        assert_eq!(l.level(0.50), DegradeLevel::NoValidate);
        assert_eq!(l.level(0.75), DegradeLevel::ForcePartial);
        assert_eq!(l.level(0.90), DegradeLevel::ShedLow);
        assert_eq!(l.level(2.0), DegradeLevel::ShedLow);
        // Monotone in fill: more load never un-degrades.
        let mut prev = DegradeLevel::Normal;
        for i in 0..=100 {
            let lvl = l.level(i as f64 / 100.0);
            assert!(lvl >= prev);
            prev = lvl;
        }
    }

    #[test]
    fn levels_are_cumulative_and_apply_edits_options() {
        let mut opts = ClipOptions {
            validate_output: true,
            ..ClipOptions::sequential()
        };
        DegradeLevel::Normal.apply(&mut opts);
        assert!(opts.validate_output && !opts.budget.allow_partial);
        DegradeLevel::NoValidate.apply(&mut opts);
        assert!(!opts.validate_output && !opts.budget.allow_partial);
        assert!(DegradeLevel::ForcePartial.disables_validation());
        assert!(DegradeLevel::ShedLow.forces_partial());
        let mut opts2 = ClipOptions {
            validate_output: true,
            ..ClipOptions::sequential()
        };
        DegradeLevel::ShedLow.apply(&mut opts2);
        assert!(!opts2.validate_output && opts2.budget.allow_partial);
    }
}
