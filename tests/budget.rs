//! Bounded-execution tests: deadlines, cross-thread cancellation, work
//! budgets with partial results, and the no-budget bit-identity guarantee.
//!
//! The contract under test (DESIGN.md §4.8): an [`ExecBudget`] on
//! [`ClipOptions`] bounds a clip by wall clock, cooperative cancellation,
//! and work metered against the output-sensitive `k` — and when no budget
//! is set, the pipeline behaves exactly as if the machinery did not exist.

use polyclip::datagen::degenerate::{shingled_strips, sliver_fan};
use polyclip::prelude::*;
use proptest::prelude::*;
use std::thread;
use std::time::{Duration, Instant};

const ALL_OPS: [BoolOp; 4] = [
    BoolOp::Intersection,
    BoolOp::Union,
    BoolOp::Difference,
    BoolOp::Xor,
];

fn with_budget(base: ClipOptions, budget: ExecBudget) -> ClipOptions {
    ClipOptions { budget, ..base }
}

fn square(x0: f64, y0: f64, s: f64) -> PolygonSet {
    PolygonSet::from_xy(&[(x0, y0), (x0 + s, y0), (x0 + s, y0 + s), (x0, y0 + s)])
}

/// The layer-overlay and prepared-layer entry points each arm their own
/// gate, so each must return `want` by itself, at p = 1 and p = 4.
fn assert_layer_entry_points_trip(
    subject: &PolygonSet,
    clip_p: &PolygonSet,
    opts: &ClipOptions,
    want: &ClipError,
    ctx: &str,
) {
    // One feature per contour, so the overlays see multi-feature layers.
    let la = Layer::new(
        subject
            .contours()
            .iter()
            .map(|c| PolygonSet::from_contour(c.clone()))
            .collect(),
    );
    let lb = Layer::new(vec![clip_p.clone()]);
    assert_eq!(
        PreparedLayer::build(subject, opts).err().as_ref(),
        Some(want),
        "{ctx}: PreparedLayer::build"
    );
    let unbudgeted = ClipOptions {
        budget: ExecBudget::default(),
        ..opts.clone()
    };
    let layer = PreparedLayer::build(subject, &unbudgeted).expect("unbudgeted build");
    for p in [1usize, 4] {
        for assignment in [SlabAssignment::UniqueOwner, SlabAssignment::Replicate] {
            assert_eq!(
                try_overlay_intersection(&la, &lb, p, assignment, opts)
                    .err()
                    .as_ref(),
                Some(want),
                "{ctx} p={p}: overlay intersection {assignment:?}"
            );
        }
        assert_eq!(
            try_overlay_difference(&la, &lb, p, opts).err().as_ref(),
            Some(want),
            "{ctx} p={p}: overlay difference"
        );
        assert_eq!(
            try_overlay_union(&la, &lb, p, opts).err().as_ref(),
            Some(want),
            "{ctx} p={p}: overlay union"
        );
        for op in ALL_OPS {
            assert_eq!(
                try_clip_prepared(&layer, clip_p, op, p, opts)
                    .err()
                    .as_ref(),
                Some(want),
                "{ctx} p={p}: prepared {op:?}"
            );
        }
    }
}

// (a) A zero deadline is already expired when the budget is armed: every
// entry point must return `DeadlineExceeded` — from the first checkpoint,
// before any real work — and never panic. Covers all four ops on the
// single-pair engine and the default and a refining Algorithm-2 plan, and
// the layer-overlay and prepared-layer entry points under both plans.
#[test]
fn zero_deadline_trips_every_op_and_backend() {
    let subject = shingled_strips(11, Point::new(-0.8, -0.8), 1.6, 1.6, 16, 1e-9);
    let clip_p = square(-0.6, -0.6, 1.3);
    for parallel in [false, true] {
        let base = if parallel {
            ClipOptions::default()
        } else {
            ClipOptions::sequential()
        };
        let opts = with_budget(base, ExecBudget::with_deadline(Duration::ZERO));
        for op in ALL_OPS {
            assert!(
                matches!(
                    try_clip(&subject, &clip_p, op, &opts),
                    Err(ClipError::DeadlineExceeded)
                ),
                "{op:?} parallel={parallel}: engine did not trip"
            );
            for grid in [GridConfig::default(), GridConfig::refined()] {
                let gridded = ClipOptions {
                    grid,
                    ..opts.clone()
                };
                let r = try_clip_pair_slabs(&subject, &clip_p, op, 4, &gridded);
                assert!(
                    matches!(r, Err(ClipError::DeadlineExceeded)),
                    "{op:?} {grid:?} parallel={parallel}: algo2 did not trip"
                );
            }
        }
        for grid in [GridConfig::default(), GridConfig::refined()] {
            let gridded = ClipOptions {
                grid,
                ..opts.clone()
            };
            assert_layer_entry_points_trip(
                &subject,
                &clip_p,
                &gridded,
                &ClipError::DeadlineExceeded,
                &format!("{grid:?} parallel={parallel}"),
            );
        }
    }
}

// An already-fired cancel token likewise stops the run at the door.
#[test]
fn pre_cancelled_token_trips_immediately() {
    let a = square(0.0, 0.0, 2.0);
    let b = square(1.0, 1.0, 2.0);
    let budget = ExecBudget::default();
    budget.cancel.cancel();
    let opts = with_budget(ClipOptions::default(), budget);
    assert!(matches!(
        try_clip(&a, &b, BoolOp::Union, &opts),
        Err(ClipError::Cancelled)
    ));
    assert!(matches!(
        try_clip_pair_slabs(&a, &b, BoolOp::Union, 4, &opts),
        Err(ClipError::Cancelled)
    ));
    for grid in [GridConfig::default(), GridConfig::refined()] {
        let gridded = ClipOptions {
            grid,
            ..opts.clone()
        };
        assert_layer_entry_points_trip(
            &a,
            &b,
            &gridded,
            &ClipError::Cancelled,
            &format!("{grid:?}"),
        );
    }
}

// (b) Cancellation fired from another thread mid-`try_clip_pair_slabs`
// must surface as `Cancelled` within bounded wall time of the token
// firing: the checkpoints are coarse (per scanbeam / merge block / slab)
// but none of them may straddle more than the 250 ms slack the service
// contract allows.
#[test]
fn cross_thread_cancel_returns_within_bounded_time() {
    // Heavy on purpose: thousands of jittered strip seams crossing a dense
    // sliver fan drive k far beyond what 40 ms of work can finish.
    let subject = shingled_strips(5, Point::new(-1.0, -1.0), 2.0, 2.0, 3000, 1e-9);
    let clip_p = sliver_fan(6, Point::new(0.0, 0.0), 1.4, 600);
    let budget = ExecBudget::default();
    let token = budget.cancel.clone();
    let opts = with_budget(ClipOptions::default(), budget);

    let canceller = thread::spawn(move || {
        thread::sleep(Duration::from_millis(40));
        let fired = Instant::now();
        token.cancel();
        fired
    });
    let res = try_clip_pair_slabs(&subject, &clip_p, BoolOp::Union, 8, &opts);
    let returned = Instant::now();
    let fired = canceller.join().unwrap();

    match res {
        Err(ClipError::Cancelled) => {
            let lag = returned.duration_since(fired);
            assert!(
                lag < Duration::from_millis(250),
                "cancellation honoured only after {lag:?}"
            );
        }
        Ok(r) => panic!(
            "workload finished before the token was observed \
             ({} contours out) — make the torture case heavier",
            r.output.len()
        ),
        Err(e) => panic!("expected Cancelled, got {e:?}"),
    }
}

// (c) A tripped `max_intersections` on a shingled-strips torture case, with
// `allow_partial`, yields the union of the slabs that finished: marked by
// `Degradation::PartialResult`, by `completed_slabs < total_slabs`, and the
// partial set still passes the full output validator.
#[test]
fn max_intersections_yields_valid_partial_result() {
    let subject = shingled_strips(7, Point::new(-0.8, -0.8), 1.6, 1.6, 64, 0.0);
    // The partner must cross the strips' *vertical* edges: the horizontal
    // seams are handled by the engine's horizontal pass, which meters
    // nothing — only proper inversions count toward `max_intersections`.
    // A sawtooth whose teeth straddle the strips' right wall (x = 0.8) puts
    // one metered crossing on every zigzag edge, spread uniformly over the
    // whole y-range — i.e. across every slab.
    let teeth = 40;
    let (y0, y1) = (-0.7, 0.7);
    let dy = (y1 - y0) / (2.0 * teeth as f64);
    let mut saw = vec![(0.5, y0)];
    for i in 0..(2 * teeth) {
        let x = if i % 2 == 0 { 0.95 } else { 0.65 };
        saw.push((x, y0 + (i + 1) as f64 * dy));
    }
    saw.push((0.5, y1));
    let clip_p = PolygonSet::from_xy(&saw);
    let seq = ClipOptions::sequential();

    // Calibrate: the unbudgeted run's meter tells us the true k.
    let full = try_clip_pair_slabs(&subject, &clip_p, BoolOp::Intersection, 8, &seq).unwrap();
    let k = full.times.work.intersections;
    assert!(k > 16, "calibration run found too few intersections: {k}");
    assert_eq!(full.stats.completed_slabs, full.stats.total_slabs);

    // Half the allowance: the strips spread k evenly across slabs, so the
    // sequential slab loop completes roughly half before the meter trips.
    let budget = ExecBudget {
        max_intersections: Some(k / 2),
        allow_partial: true,
        ..Default::default()
    };
    let partial = try_clip_pair_slabs(
        &subject,
        &clip_p,
        BoolOp::Intersection,
        8,
        &with_budget(seq.clone(), budget),
    )
    .unwrap();

    assert!(
        partial.stats.completed_slabs >= 1,
        "no slab finished under half the full allowance"
    );
    assert!(
        partial.stats.completed_slabs < partial.stats.total_slabs,
        "budget never tripped: {}/{} slabs",
        partial.stats.completed_slabs,
        partial.stats.total_slabs
    );
    assert!(partial.degradations.iter().any(|d| matches!(
        d,
        Degradation::PartialResult { completed_slabs, total_slabs }
            if completed_slabs < total_slabs
    )));
    // The salvage is a genuine subset, and canonical: closed rings, no
    // self-crossings, nothing half-stitched leaking out.
    assert!(eo_area(&partial.output) <= eo_area(&full.output) + 1e-9);
    let report = validate(&partial.output);
    assert!(
        report.is_canonical(),
        "partial result violates output guarantees: {:?}",
        report.violations
    );

    // Without `allow_partial` the same trip is a hard error.
    let strict_budget = ExecBudget {
        max_intersections: Some(k / 2),
        ..Default::default()
    };
    let strict = try_clip_pair_slabs(
        &subject,
        &clip_p,
        BoolOp::Intersection,
        8,
        &with_budget(seq, strict_budget),
    );
    assert!(matches!(strict, Err(ClipError::BudgetExceeded { .. })));
}

// (d) One dense beam stops at the intersection allowance. Every vertex of
// the zig-zag lies on y = 0 or y = 1, so Round A has a single beam of more
// than 16,384 sub-edges; its teeth lean alternately ~1,000 teeth right and
// left, so that beam holds about 10⁷ crossings. Capped at 1,000, the
// inversion reporter stops within one run of pairs (at most half the
// beam) past the cap, and the meter credits only the pairs it reported.
// Never clip this input without a cap.
#[test]
fn dense_beam_stops_at_the_intersection_allowance() {
    let (teeth, lean) = (8_192, 1_000.25);
    let mut zigzag = Vec::with_capacity(2 * teeth);
    for i in 0..teeth {
        let x = i as f64;
        zigzag.push((x, 0.0));
        zigzag.push((if i % 2 == 0 { x + lean } else { x - lean }, 1.0));
    }
    let zigzag = PolygonSet::from_xy(&zigzag);
    let budget = ExecBudget {
        max_intersections: Some(1_000),
        ..Default::default()
    };
    for base in [ClipOptions::sequential(), ClipOptions::default()] {
        let opts = with_budget(base, budget.clone());
        match try_clip(&zigzag, &square(0.0, 0.0, 1.0), BoolOp::Union, &opts) {
            Err(ClipError::BudgetExceeded { work }) => assert!(
                1_000 < work.intersections && work.intersections <= 1_000 + 16_384,
                "parallel={}: the meter credited {} intersections",
                opts.parallel,
                work.intersections
            ),
            other => panic!(
                "parallel={}: expected BudgetExceeded, got {:?}",
                opts.parallel,
                other.map(|o| o.stats)
            ),
        }
    }
}

/// Strategy: a random, possibly self-intersecting polygon in [0, 4]².
fn arb_polygon(n: std::ops::Range<usize>) -> impl Strategy<Value = PolygonSet> {
    prop::collection::vec((0.0f64..4.0, 0.0f64..4.0), n).prop_map(|xy| PolygonSet::from_xy(&xy))
}

/// A budget that is armed (gate, meter, checkpoints all live) but can
/// never bind: the machinery runs, the answer must not change.
fn generous() -> ExecBudget {
    ExecBudget {
        deadline: Some(Duration::from_secs(3600)),
        max_intersections: Some(u64::MAX / 2),
        max_output_vertices: Some(u64::MAX / 2),
        allow_partial: true,
        ..Default::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // (d) No budget set → results, stats and degradations are bit-identical
    // to the armed-but-unbounded run, on the engine and on the default and
    // a refining Algorithm-2 plan. This is the "machinery is free when
    // unused" guarantee: the unlimited path may differ from a
    // generously-budgeted one only if a checkpoint perturbed the
    // computation, which this test forbids.
    #[test]
    fn no_budget_is_bit_identical(
        a in arb_polygon(3..12),
        b in arb_polygon(3..12),
    ) {
        for op in ALL_OPS {
            let plain_opts = ClipOptions::sequential();
            let armed_opts = with_budget(ClipOptions::sequential(), generous());

            let plain = try_clip_with_stats(&a, &b, op, &plain_opts).unwrap();
            let armed = try_clip_with_stats(&a, &b, op, &armed_opts).unwrap();
            prop_assert_eq!(&plain.result, &armed.result, "{:?}: engine output differs", op);
            prop_assert_eq!(plain.stats, armed.stats, "{:?}: engine stats differ", op);
            prop_assert_eq!(
                plain.degradations.len(), armed.degradations.len(),
                "{:?}: degradation count differs", op
            );

            // Determinism of the unbudgeted path itself.
            let again = try_clip_with_stats(&a, &b, op, &plain_opts).unwrap();
            prop_assert_eq!(&plain.result, &again.result);

            for grid in [GridConfig::default(), GridConfig::refined()] {
                let plain2 = ClipOptions { grid, ..plain_opts.clone() };
                let armed2 = ClipOptions { grid, ..armed_opts.clone() };
                let p2 = try_clip_pair_slabs(&a, &b, op, 3, &plain2).unwrap();
                let a2 = try_clip_pair_slabs(&a, &b, op, 3, &armed2).unwrap();
                prop_assert_eq!(&p2.output, &a2.output, "{:?} {:?}: algo2 output differs", op, grid);
                prop_assert_eq!(p2.stats, a2.stats, "{:?} {:?}: algo2 stats differ", op, grid);
            }
        }
    }
}
