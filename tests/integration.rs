//! Cross-crate integration tests: generators → engine → overlay → baselines.

use polyclip::datagen::{
    generate_layer, pentagram, smooth_blob, star, synthetic_pair, table3_spec,
};
use polyclip::prelude::*;
use polyclip::seqclip::{band_clip, gh_clip, GhOp};

fn seq() -> ClipOptions {
    ClipOptions::sequential()
}

#[test]
fn synthetic_pair_all_ops_all_modes_agree() {
    let (a, b) = synthetic_pair(2_000, 7);
    for op in [
        BoolOp::Intersection,
        BoolOp::Union,
        BoolOp::Difference,
        BoolOp::Xor,
    ] {
        let s = clip(&a, &b, op, &seq());
        let p = clip(&a, &b, op, &ClipOptions::default());
        assert_eq!(s, p, "parallel must equal sequential for {op:?}");
        let oracle = measure_op(&a, &b, op, &seq());
        assert!(
            (eo_area(&s) - oracle).abs() < 1e-9 * (1.0 + oracle),
            "{op:?}: stitched {} vs measured {}",
            eo_area(&s),
            oracle
        );
    }
}

#[test]
fn algo2_matches_engine_on_synthetic_pair() {
    let (a, b) = synthetic_pair(3_000, 11);
    let want = measure_op(&a, &b, BoolOp::Intersection, &seq());
    for slabs in [2usize, 5, 16] {
        let r = clip_pair_slabs(&a, &b, BoolOp::Intersection, slabs, &seq());
        assert!(
            (eo_area(&r.output) - want).abs() < 1e-9 * (1.0 + want),
            "slabs={slabs}"
        );
    }
}

#[test]
fn greiner_hormann_agrees_with_engine_on_simple_inputs() {
    // GH is the paper's rectangle-clip baseline; on simple polygons in
    // general position it must agree with the scanbeam engine.
    let a = smooth_blob(3, Point::new(0.0, 0.0), 1.0, 64, 0.2);
    let b = smooth_blob(9, Point::new(0.7, 0.4), 1.0, 64, 0.2);
    let ca = &a.contours()[0];
    let cb = &b.contours()[0];
    for (gh_op, op) in [
        (GhOp::Intersection, BoolOp::Intersection),
        (GhOp::Union, BoolOp::Union),
        (GhOp::Difference, BoolOp::Difference),
    ] {
        let gh = gh_clip(ca, cb, gh_op);
        let engine = clip(&a, &b, op, &seq());
        let (ga, ea) = (eo_area(&gh), eo_area(&engine));
        assert!(
            (ga - ea).abs() < 1e-9 * (1.0 + ea),
            "{op:?}: GH {ga} vs engine {ea}"
        );
    }
}

#[test]
fn band_clip_feeds_engine_consistently() {
    let (a, b) = synthetic_pair(1_000, 3);
    let bb = a.bbox().union(&b.bbox());
    let mid = (bb.ymin + bb.ymax) / 2.0;
    // ∩ computed in two bands must sum to the whole.
    let whole = measure_op(&a, &b, BoolOp::Intersection, &seq());
    let lo = measure_op(
        &band_clip(&a, bb.ymin, mid),
        &band_clip(&b, bb.ymin, mid),
        BoolOp::Intersection,
        &seq(),
    );
    let hi = measure_op(
        &band_clip(&a, mid, bb.ymax),
        &band_clip(&b, mid, bb.ymax),
        BoolOp::Intersection,
        &seq(),
    );
    assert!((lo + hi - whole).abs() < 1e-9 * (1.0 + whole));
}

#[test]
fn gis_layers_intersect_and_union_consistently() {
    let urban = Layer::new(generate_layer(&table3_spec(1), 0.004, 1));
    let states = Layer::new(generate_layer(&table3_spec(2), 0.008, 2));
    assert!(!urban.is_empty() && !states.is_empty());

    let inter = overlay_intersection(&urban, &states, 4, SlabAssignment::UniqueOwner, &seq());
    let inter_area: f64 = inter.features.iter().map(eo_area).sum();

    // Oracle: brute-force over ALL feature pairs (no MBR filter, no slabs).
    // Validates candidate-pair filtering and slab assignment end to end.
    let mut brute_area = 0.0;
    let mut brute_nonempty = 0usize;
    for fa in &urban.features {
        for fb in &states.features {
            let a = measure_op(fa, fb, BoolOp::Intersection, &seq());
            if a > 0.0 {
                brute_nonempty += 1;
                brute_area += a;
            }
        }
    }
    assert!(brute_nonempty > 0, "replica layers must actually overlap");
    assert!(
        (inter_area - brute_area).abs() < 1e-9 * (1.0 + brute_area),
        "overlay {} vs brute-force pairwise {}",
        inter_area,
        brute_area
    );
    assert_eq!(inter.features.len(), brute_nonempty);

    // Union: whole-layer inclusion-exclusion under the nonzero rule the
    // overlay union uses.
    let mut nz = seq();
    nz.fill_rule = FillRule::NonZero;
    let uni = overlay_union(&urban, &states, 4, &seq());
    let union_area = eo_area(&uni.output);
    let a_area = measure_op(&urban.merged(), &PolygonSet::new(), BoolOp::Union, &nz);
    let b_area = measure_op(&states.merged(), &PolygonSet::new(), BoolOp::Union, &nz);
    let i_area = measure_op(&urban.merged(), &states.merged(), BoolOp::Intersection, &nz);
    assert!(
        (union_area - (a_area + b_area - i_area)).abs() < 1e-6 * (1.0 + union_area),
        "inclusion-exclusion on layers: {} vs {}",
        union_area,
        a_area + b_area - i_area
    );
}

#[test]
fn self_intersecting_generator_shapes_clip_cleanly() {
    let gram = pentagram(Point::new(0.0, 0.0), 1.0, 7);
    let spiky = star(Point::new(0.3, 0.1), 0.4, 1.1, 9);
    let (out, stats) = clip_with_stats(&gram, &spiky, BoolOp::Intersection, &seq());
    assert!(stats.k_intersections > 0);
    let oracle = measure_op(&gram, &spiky, BoolOp::Intersection, &seq());
    assert!((eo_area(&out) - oracle).abs() < 1e-9 * (1.0 + oracle));
    assert!(oracle > 0.0);
}

#[test]
fn stats_output_sensitivity_monotone_in_overlap() {
    // Sliding one blob across another: k rises as overlap rises, and the
    // processor bound moves with it — the paper's output sensitivity.
    // The far blob is the near blob translated in x only: every event y is
    // preserved, so the two runs differ exactly by the overlap-induced
    // crossings (k and their forced splits) — independent of the generator's
    // random radii.
    let a = smooth_blob(5, Point::new(0.0, 0.0), 1.0, 512, 0.3);
    let near = smooth_blob(6, Point::new(0.4, 0.1), 1.0, 512, 0.3);
    let far = near.translate(Point::new(10.0, 0.0));
    let (_, s_far) = clip_with_stats(&a, &far, BoolOp::Intersection, &seq());
    let (_, s_near) = clip_with_stats(&a, &near, BoolOp::Intersection, &seq());
    assert_eq!(s_far.k_intersections, 0);
    assert!(s_near.k_intersections > 0);
    assert!(s_near.processor_bound() > s_far.processor_bound());
}

#[test]
fn dissolve_is_idempotent_and_orients_output() {
    let (a, b) = synthetic_pair(800, 17);
    let u = clip(&a, &b, BoolOp::Union, &seq());
    let d1 = dissolve(&u, &seq());
    let d2 = dissolve(&d1, &seq());
    assert_eq!(d1, d2, "dissolve must be idempotent");
    // Outer contours CCW; total signed area equals the even-odd measure.
    let signed: f64 = d1.signed_area();
    assert!((signed - eo_area(&d1)).abs() < 1e-9 * (1.0 + signed.abs()));
}

/// The engine partitions by direct scan only; the §III-E segment tree is
/// the paper's construction of the same step. On two GIS features laid over
/// each other, its stabbing queries list exactly the edges the partition
/// writes into each beam, for Round A and for a Round-B rebuild split at
/// Round A's crossings. Centred on each other the features nest without
/// crossing, so a second placement moves the second feature's centre onto
/// the first's bbox corner.
#[test]
fn partition_backends_agree_on_gis_features() {
    use polyclip::segtree::SegmentTree;
    use polyclip::sweep::{
        collect_edges, discover_intersections, event_index, event_ys, BeamSet, ForcedSplits,
    };
    let feats = generate_layer(&table3_spec(1), 0.002, 9);
    let a = &feats[0];
    let b = feats.get(1).unwrap_or(a);
    let (ab, bc) = (a.bbox(), b.bbox().center());
    let mut crossed = 0;
    for target in [ab.center(), Point::new(ab.xmax, ab.ymax)] {
        let shifted = b.translate(Point::new(target.x - bc.x, target.y - bc.y));
        let edges = collect_edges(a, &shifted);
        let empty = ForcedSplits::empty(edges.len());
        let ys = event_ys(&edges, &[], false);
        let round_a = BeamSet::build(&edges, ys, &empty, None, false);
        let crossings = discover_intersections(&round_a, &edges, false);
        crossed += crossings.len();
        let mut triples = Vec::new();
        for c in &crossings {
            for eid in [c.e1, c.e2] {
                let e = &edges[eid as usize];
                if e.lo.y < c.p.y && c.p.y < e.hi.y {
                    triples.push((eid, c.p.y, c.p.x));
                }
            }
        }
        let extra: Vec<f64> = crossings.iter().map(|c| c.p.y).collect();
        let forced = ForcedSplits::build(edges.len(), &triples);
        for (extra, forced) in [(&[][..], &empty), (&extra[..], &forced)] {
            let bs = BeamSet::build(&edges, event_ys(&edges, extra, false), forced, None, false);
            let spans: Vec<(usize, usize)> = edges
                .iter()
                .map(|e| (event_index(&bs.ys, e.lo.y), event_index(&bs.ys, e.hi.y)))
                .collect();
            let tree = SegmentTree::build_by_sort(bs.n_beams(), &spans, true);
            let (offsets, items) = tree.par_stab_all();
            for i in 0..bs.n_beams() {
                let mut listed: Vec<u32> = items[offsets[i]..offsets[i + 1]]
                    .iter()
                    .map(|&e| edges[e as usize].id)
                    .collect();
                listed.sort_unstable();
                let mut held: Vec<u32> = bs.beam(i).iter().map(|s| s.edge_id).collect();
                held.sort_unstable();
                assert_eq!(
                    held, listed,
                    "beam {i}: segment tree and partition disagree"
                );
            }
        }
    }
    assert!(crossed > 0, "one placement must cross");
}
