//! PRAM cost accounting — empirical backing for the paper's
//! `O((n + k + k') log(n + k + k') / p)` bound.
//!
//! The engine's phases map one-to-one onto the paper's PRAM steps; this
//! module runs the preparation/classification pipeline while charging each
//! phase its **work** (total operations) and **span** (critical-path depth,
//! what an unbounded-processor PRAM pays). Brent's theorem then gives the
//! simulated p-processor time `T_p ≤ work/p + span`, which is the number the
//! paper's theory section predicts — and the `figures pram` harness tabulates
//! against instance size, intersection count k and partition overhead k'.
//!
//! Costs are in abstract comparison/operation units, not nanoseconds: the
//! point is the *scaling*, the output sensitivity, and the polylogarithmic
//! span.

use crate::classify::{classify_beam, BoolOp};
use crate::engine::{prepare, ClipOptions};
use crate::stats::ClipStats;
use polyclip_geom::PolygonSet;

/// Work/span charge of one PRAM phase.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PhaseCost {
    /// Phase label (the paper's step numbering).
    pub name: &'static str,
    /// Total operations across all processors.
    pub work: f64,
    /// Critical-path length (time with unbounded processors).
    pub span: f64,
}

/// The cost model for one clipping instance.
#[derive(Clone, Debug, Default)]
pub struct PramCostModel {
    /// Per-phase charges, in pipeline order.
    pub phases: Vec<PhaseCost>,
    /// Instance statistics (n, k, k', …).
    pub stats: ClipStats,
}

impl PramCostModel {
    /// Total work over all phases.
    pub fn total_work(&self) -> f64 {
        self.phases.iter().map(|p| p.work).sum()
    }

    /// Total span (phases run in sequence).
    pub fn total_span(&self) -> f64 {
        self.phases.iter().map(|p| p.span).sum()
    }

    /// Brent's bound: simulated time on `p` processors.
    pub fn time_on(&self, p: usize) -> f64 {
        let p = p.max(1) as f64;
        self.phases.iter().map(|ph| ph.work / p + ph.span).sum()
    }

    /// The paper's processor count for logarithmic time: n + k + k'.
    pub fn paper_processors(&self) -> usize {
        self.stats.processor_bound()
    }

    /// Speedup of `p` processors over one (by the simulated times).
    pub fn speedup(&self, p: usize) -> f64 {
        self.time_on(1) / self.time_on(p)
    }
}

#[inline]
fn lg(x: usize) -> f64 {
    (x.max(2) as f64).log2()
}

/// Build the cost model for a clipping instance by running the pipeline and
/// charging each phase per the paper's analysis (§III-E).
pub fn pram_cost(
    subject: &PolygonSet,
    clip_p: &PolygonSet,
    op: BoolOp,
    opts: &ClipOptions,
) -> PramCostModel {
    let mut report = Default::default();
    let gate = crate::budget::Gate::unlimited();
    let Ok(Some(p)) = prepare(subject, clip_p, None, opts, &mut report, &gate) else {
        return PramCostModel::default();
    };
    let n = p.edges.len();
    let beams = &p.beams;
    let n_beams = beams.n_beams();
    let n_sub = beams.total_sub_edges();
    let k = p.k;

    let mut phases = Vec::new();

    // Step 1 — sort 2n event y's (Cole's merge sort: O(n log n) work,
    // O(log n) span; charged at a parallel merge sort's O(log² n) span).
    phases.push(PhaseCost {
        name: "step1_event_sort",
        work: 2.0 * n as f64 * lg(2 * n),
        span: lg(2 * n) * lg(2 * n),
    });

    // Step 2 — partition edges into beams: count-then-report allocation of
    // k' + n sub-edge slots, plus the beam-order sort.
    phases.push(PhaseCost {
        name: "step2_partition",
        work: n_sub as f64 * lg(n_sub) + n as f64 * lg(n_beams.max(2)),
        span: lg(n_sub) * lg(n_sub),
    });

    // Lemma 4 — per-beam inversion counting + output-sensitive reporting:
    // work Σ n_b log n_b + k, span max_b log² n_b (beams independent).
    let mut disc_work = 0.0;
    let mut disc_span: f64 = 0.0;
    for b in 0..n_beams {
        let nb = beams.beam(b).len();
        if nb > 1 {
            disc_work += nb as f64 * lg(nb);
            disc_span = disc_span.max(lg(nb) * lg(nb));
        }
    }
    phases.push(PhaseCost {
        name: "lemma4_discovery",
        work: disc_work + k as f64,
        span: disc_span + 1.0,
    });

    // Step 3 — classification: prefix-sum parity per beam (Lemma 3):
    // work Σ n_b, span max log n_b.
    let mut class_span: f64 = 0.0;
    let mut out_frags = 0usize;
    for b in 0..n_beams {
        let nb = beams.beam(b).len();
        class_span = class_span.max(lg(nb.max(2)));
        let o = classify_beam(
            beams.beam(b),
            beams.y_bot(b),
            beams.y_top(b),
            op,
            opts.fill_rule,
        );
        out_frags += o.edges.len() + o.bottom.len() * 2;
    }
    phases.push(PhaseCost {
        name: "step3_classification",
        work: n_sub as f64,
        span: class_span,
    });

    // Step 4 — merge: sort + cancel + stitch over the output fragments.
    phases.push(PhaseCost {
        name: "step4_merge",
        work: out_frags as f64 * lg(out_frags.max(2)),
        span: lg(out_frags.max(2)) * lg(out_frags.max(2)),
    });

    let stats = ClipStats {
        n_edges: n,
        n_events: beams.ys.len(),
        n_beams,
        k_intersections: k,
        k_prime: n_sub - n,
        n_subedges: n_sub,
        out_contours: 0,
        out_vertices: out_frags,
        refine_rounds: report.refine_rounds,
        residuals_accepted: report.residuals_accepted,
        slab_retries: 0,
        input_repairs: 0,
        output_repairs: 0,
        completed_slabs: 0,
        total_slabs: 0,
        prepared_reused: false,
    };
    PramCostModel { phases, stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polyclip_datagen::synthetic_pair;
    use polyclip_geom::contour::rect;

    fn seq() -> ClipOptions {
        ClipOptions::sequential()
    }

    #[test]
    fn brent_bound_is_monotone_in_processors() {
        let (a, b) = synthetic_pair(2_000, 3);
        let m = pram_cost(&a, &b, BoolOp::Intersection, &seq());
        let mut last = f64::INFINITY;
        for p in [1usize, 2, 4, 16, 64, 1 << 20] {
            let t = m.time_on(p);
            assert!(t <= last + 1e-9, "time must not increase with processors");
            last = t;
        }
        // With unbounded processors, time approaches the span.
        assert!((m.time_on(usize::MAX / 2) - m.total_span()).abs() < 1.0);
    }

    #[test]
    fn work_tracks_output_size_not_n_squared() {
        // Same n, different overlap: work grows with k, far below n².
        let (a, b) = synthetic_pair(4_000, 7);
        let far = b.translate(polyclip_geom::Point::new(100.0, 0.0));
        let m_far = pram_cost(&a, &far, BoolOp::Intersection, &seq());
        let m_near = pram_cost(&a, &b, BoolOp::Intersection, &seq());
        assert!(m_near.stats.k_intersections > m_far.stats.k_intersections);
        assert!(m_near.total_work() > m_far.total_work());
        // Output sensitivity: the work is orders of magnitude below the
        // Θ(n²)-processor bound of the prior art.
        let n = m_near.stats.n_edges as f64;
        assert!(m_near.total_work() < n * n / 10.0);
    }

    #[test]
    fn span_is_polylogarithmic() {
        let (a, b) = synthetic_pair(8_000, 11);
        let m = pram_cost(&a, &b, BoolOp::Union, &seq());
        let npk = m.paper_processors() as f64;
        // span ≤ c · log³(n+k+k') with a small constant.
        assert!(
            m.total_span() <= 8.0 * npk.log2().powi(3),
            "span {} vs bound {}",
            m.total_span(),
            8.0 * npk.log2().powi(3)
        );
    }

    #[test]
    fn speedup_approaches_work_over_span() {
        let (a, b) = synthetic_pair(2_000, 5);
        let m = pram_cost(&a, &b, BoolOp::Intersection, &seq());
        let max_speedup = m.total_work() / m.total_span();
        assert!(m.speedup(1 << 24) <= max_speedup + 1.0);
        assert!(m.speedup(2) > 1.2, "two processors must help");
    }

    #[test]
    fn empty_instance() {
        let m = pram_cost(
            &PolygonSet::new(),
            &PolygonSet::new(),
            BoolOp::Union,
            &seq(),
        );
        assert!(m.phases.is_empty());
        assert_eq!(m.time_on(4), 0.0);
    }

    #[test]
    fn phases_follow_paper_order() {
        let a = PolygonSet::from_contour(rect(0.0, 0.0, 2.0, 2.0));
        let b = PolygonSet::from_contour(rect(1.0, 1.0, 3.0, 3.0));
        let m = pram_cost(&a, &b, BoolOp::Intersection, &seq());
        let names: Vec<&str> = m.phases.iter().map(|p| p.name).collect();
        assert_eq!(
            names,
            vec![
                "step1_event_sort",
                "step2_partition",
                "lemma4_discovery",
                "step3_classification",
                "step4_merge"
            ]
        );
        for ph in &m.phases {
            assert!(ph.work >= 0.0 && ph.span >= 0.0);
        }
    }
}
