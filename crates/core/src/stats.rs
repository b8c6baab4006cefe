//! Output-sensitivity instrumentation.
//!
//! The paper's complexity bound is `O((n + k + k') log(n + k + k') / p)`:
//! `n` input edges, `k` edge intersections, `k'` virtual vertices introduced
//! by the scanbeam partition. [`ClipStats`] reports each term for a clip run
//! so the benches can demonstrate that work scales with *output* size, not
//! with the worst case — the property that separates this algorithm from
//! Karinthi et al.'s Θ(n²)-processor algorithm.

/// Instance-size and output-size counters for one clipping run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ClipStats {
    /// Non-horizontal input edges across both polygons (the paper's n).
    pub n_edges: usize,
    /// Distinct event scanlines in the final (Round B) schedule.
    pub n_events: usize,
    /// Scanbeams processed.
    pub n_beams: usize,
    /// Transversal edge intersections discovered (the paper's k).
    pub k_intersections: usize,
    /// Virtual vertices introduced by splitting edges at scanlines
    /// (the paper's k'): total sub-edges minus original edges.
    pub k_prime: usize,
    /// Total sub-edges processed across all scanbeams (n + k').
    pub n_subedges: usize,
    /// Output contours.
    pub out_contours: usize,
    /// Output vertices after virtual-vertex removal.
    pub out_vertices: usize,
    /// Crossing-refinement rounds the Round-B partition ran (1 = the
    /// first build was already crossing-free).
    pub refine_rounds: usize,
    /// Refinement rounds served by the incremental dirty-beam patch
    /// instead of a full scanbeam rebuild (at most `refine_rounds - 1`;
    /// 0 when `incremental_refine` is off or every round fell back).
    pub refine_rounds_incremental: usize,
    /// Dirty beams re-split across all incremental rounds; every other
    /// beam was carried over verbatim.
    pub beams_rebuilt: usize,
    /// Residual crossings accepted unresolved at the floating-point
    /// resolution limit (0 on numerically clean instances).
    pub residuals_accepted: usize,
    /// Slab workers that needed a retry or a sequential fallback after a
    /// panic (Algorithm 2 / overlay runs; always 0 for single-slab runs).
    pub slab_retries: usize,
    /// Individual input repairs the sanitizer performed across both
    /// operands (0 when the input was clean or sanitization was off).
    pub input_repairs: usize,
    /// Output self-repair ladder invocations (0 unless
    /// `validate_output` found violations).
    pub output_repairs: usize,
    /// Slabs whose clip finished within budget (Algorithm 2 / overlay
    /// runs; equals `total_slabs` unless the run returned a
    /// [`Degradation::PartialResult`](crate::Degradation::PartialResult)).
    pub completed_slabs: usize,
    /// Slabs the run was partitioned into (0 for single-slab engine runs;
    /// the slab driver sets both fields after merging).
    pub total_slabs: usize,
    /// This run reused a [`PreparedLayer`](crate::prepared::PreparedLayer)'s
    /// frozen subject-side state (sanitized contours, event schedule,
    /// contour extents) instead of recomputing it.
    pub prepared_reused: bool,
}

impl ClipStats {
    /// The paper's processor bound for logarithmic time: n + k + k'.
    pub fn processor_bound(&self) -> usize {
        self.n_edges + self.k_intersections + self.k_prime
    }

    /// Total work in the PRAM accounting: (n + k + k') · log(n + k + k').
    pub fn work_bound(&self) -> f64 {
        let m = self.processor_bound().max(2) as f64;
        m * m.log2()
    }

    /// Accumulate another run's counters into this one — used to fold
    /// per-slab engine statistics into a whole-instance aggregate
    /// (refinement rounds take the maximum; everything else sums).
    pub fn absorb(&mut self, other: &ClipStats) {
        self.n_edges += other.n_edges;
        self.n_events += other.n_events;
        self.n_beams += other.n_beams;
        self.k_intersections += other.k_intersections;
        self.k_prime += other.k_prime;
        self.n_subedges += other.n_subedges;
        self.out_contours += other.out_contours;
        self.out_vertices += other.out_vertices;
        self.refine_rounds = self.refine_rounds.max(other.refine_rounds);
        self.refine_rounds_incremental += other.refine_rounds_incremental;
        self.beams_rebuilt += other.beams_rebuilt;
        self.residuals_accepted += other.residuals_accepted;
        self.slab_retries += other.slab_retries;
        self.input_repairs += other.input_repairs;
        self.output_repairs += other.output_repairs;
        self.completed_slabs += other.completed_slabs;
        self.total_slabs += other.total_slabs;
        self.prepared_reused |= other.prepared_reused;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounds_are_monotone_in_counters() {
        let a = ClipStats {
            n_edges: 100,
            k_intersections: 10,
            k_prime: 50,
            ..Default::default()
        };
        let b = ClipStats {
            n_edges: 100,
            k_intersections: 500,
            k_prime: 50,
            ..Default::default()
        };
        assert_eq!(a.processor_bound(), 160);
        assert!(b.processor_bound() > a.processor_bound());
        assert!(b.work_bound() > a.work_bound());
    }

    #[test]
    fn work_bound_defined_for_empty_instances() {
        let s = ClipStats::default();
        assert_eq!(s.processor_bound(), 0);
        assert!(s.work_bound() >= 0.0);
    }
}
