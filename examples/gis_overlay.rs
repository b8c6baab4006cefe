//! GIS layer overlay: the paper's real-world workload, on synthetic
//! Table III replica layers.
//!
//! Intersects a replica of dataset 1 (urban areas) with a replica of
//! dataset 2 (state/province boundaries) — the paper's "Intersect (1,2)" —
//! and unions them, reporting per-slab load like Figure 11.
//!
//! ```sh
//! cargo run --release --example gis_overlay [scale]
//! ```
//! `scale` (default 0.02) is the fraction of the full Table III feature
//! counts to generate; 1.0 reproduces the full dataset sizes.

use polyclip::datagen::{generate_layer, table3_spec};
use polyclip::prelude::*;
use std::time::Instant;

fn main() {
    let scale: f64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.02);

    let spec1 = table3_spec(1);
    let spec2 = table3_spec(2);
    println!("generating Table III replicas at scale {scale} ...");
    let t0 = Instant::now();
    let urban = Layer::new(generate_layer(&spec1, scale, 101));
    let states = Layer::new(generate_layer(&spec2, scale, 202));
    println!(
        "  {}: {} polys, {} edges",
        spec1.name,
        urban.len(),
        urban.edge_count()
    );
    println!(
        "  {}: {} polys, {} edges  (generated in {:.2?})\n",
        spec2.name,
        states.len(),
        states.edge_count(),
        t0.elapsed()
    );

    let slabs = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .max(4);
    let opts = ClipOptions::default();

    // Intersect (1,2): pairwise feature intersection.
    let t1 = Instant::now();
    let inter = overlay_intersection(&urban, &states, slabs, SlabAssignment::UniqueOwner, &opts);
    let t_inter = t1.elapsed();
    let inter_area: f64 = inter.features.iter().map(eo_area).sum();
    println!(
        "Intersect(1,2): {} result features from {} candidate pairs in {:.2?}",
        inter.features.len(),
        inter.candidate_pairs,
        t_inter
    );
    println!("  total intersection area: {inter_area:.6}");
    println!("  per-slab clip times (Figure 11 load profile):");
    for (i, d) in inter.times.per_slab_clip.iter().enumerate() {
        println!("    slab {i:>2}: {d:>10.2?}");
    }
    println!(
        "  load imbalance (max/mean): {:.2}\n",
        inter.times.load_imbalance()
    );

    // Union (1,2): whole-layer union via the slab-partitioned Algorithm 2.
    let t2 = Instant::now();
    let uni = overlay_union(&urban, &states, slabs, &opts);
    println!(
        "Union(1,2): {} contours, area {:.6}, in {:.2?} over {} slabs",
        uni.output.len(),
        eo_area(&uni.output),
        t2.elapsed(),
        uni.slabs
    );
    println!(
        "  phases: partition(avg) {:.2?}  clip(avg) {:.2?}  merge {:.2?}",
        uni.times.partition_avg(),
        uni.times.clip_avg(),
        uni.times.merge
    );

    // Sanity: inclusion-exclusion across the layers. Same-layer features
    // may overlap (the state tiles do), so the measures use the nonzero
    // rule on whole layers; the pairwise sum above intentionally differs
    // where several features of one layer cover the same clip feature.
    let nz = ClipOptions {
        fill_rule: FillRule::NonZero,
        ..opts
    };
    let a_area = measure_op(&urban.merged(), &PolygonSet::new(), BoolOp::Union, &nz);
    let b_area = measure_op(&states.merged(), &PolygonSet::new(), BoolOp::Union, &nz);
    let i_area = measure_op(&urban.merged(), &states.merged(), BoolOp::Intersection, &nz);
    let u_area = eo_area(&uni.output);
    println!(
        "\ninclusion-exclusion: |1|+|2|−|1∩2| = {:.6} vs |1∪2| = {:.6}  (Δ = {:.2e})",
        a_area + b_area - i_area,
        u_area,
        (a_area + b_area - i_area - u_area).abs()
    );
}
