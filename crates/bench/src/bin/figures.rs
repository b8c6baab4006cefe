//! Regenerate every table and figure of the paper's evaluation section.
//!
//! ```sh
//! cargo run --release -p polyclip-bench --bin figures -- all --scale 0.02
//! cargo run --release -p polyclip-bench --bin figures -- fig8 fig12
//! ```
//!
//! Each experiment prints an aligned table and writes `results/<id>.csv`.
//! Parallel scaling is reported twice: `measured` wall time on this host and
//! the `critical-path` projection (slowest slab + sequential merge), which
//! is what a machine with ≥ p cores realizes — see EXPERIMENTS.md for the
//! substitution rationale (the paper used a 64-core Opteron).

use polyclip::datagen::{synthetic_pair, table3_spec};
use polyclip::parprim::inversions::report_inversion_values;
use polyclip::prelude::*;
use polyclip::seqclip::{gh_clip, GhOp};
use polyclip::sweep::{collect_edges, event_ys, BeamSet, ForcedSplits, PartitionBackend, Source};
use polyclip_bench::*;
use std::path::PathBuf;
use std::time::Duration;

struct Config {
    scale: f64,
    out: PathBuf,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut wanted: Vec<String> = Vec::new();
    let mut cfg = Config {
        scale: 0.02,
        out: PathBuf::from("results"),
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => {
                cfg.scale = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .expect("--scale <f64>");
            }
            "--out" => {
                cfg.out = PathBuf::from(it.next().expect("--out <dir>"));
            }
            other => wanted.push(other.to_string()),
        }
    }
    if wanted.is_empty() || wanted.iter().any(|w| w == "all") {
        wanted = [
            "table1", "table2", "table3", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "pram",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
    }
    for w in &wanted {
        println!("\n================ {w} ================\n");
        let tables = match w.as_str() {
            "table1" => table1(),
            "table2" => table2(),
            "table3" => table3(&cfg),
            "fig7" => fig7(),
            "fig8" => fig8(),
            "fig9" => fig9(&cfg),
            "fig10" => fig10(&cfg),
            "fig11" => fig11(&cfg),
            "fig12" => fig12(&cfg),
            "pram" => pram_table(),
            other => {
                eprintln!("unknown experiment `{other}`");
                continue;
            }
        };
        for t in tables {
            println!("{}", t.render());
            if let Err(e) = t.write_csv(&cfg.out) {
                eprintln!("csv write failed: {e}");
            }
        }
    }
}

/// Table I: inversion pairs reported while merging {5,6,7,9} and {1,2,3,4}.
fn table1() -> Vec<ResultTable> {
    let xs = [5u32, 6, 7, 9, 1, 2, 3, 4];
    let mut pairs = report_inversion_values(&xs);
    pairs.sort_unstable();
    let mut t = ResultTable::new("table1_inversions", &["input", "inversions", "pairs"]);
    t.push_row(vec![
        format!("{xs:?}"),
        pairs.len().to_string(),
        pairs
            .iter()
            .map(|(a, b)| format!("({a},{b})"))
            .collect::<Vec<_>>()
            .join(" "),
    ]);
    t.push_row(vec![
        "paper".into(),
        "16".into(),
        "all left×right pairs (Table I)".into(),
    ]);
    vec![t]
}

/// Table II: the scanbeam table (active edges per beam) for a Figure-2
/// style scene with a self-intersecting subject.
fn table2() -> Vec<ResultTable> {
    let subject = PolygonSet::from_xy(&[(0.0, 0.5), (6.0, 3.5), (6.0, 0.5), (0.0, 3.5)]);
    let clip_p = PolygonSet::from_xy(&[
        (1.0, 0.0),
        (5.0, 0.25),
        (5.0, 1.5),
        (3.2, 2.1),
        (5.0, 2.5),
        (5.0, 4.0),
        (1.0, 4.25),
    ]);
    let edges = collect_edges(&subject, &clip_p);
    let ys = event_ys(&edges, &[], false);
    let beams = BeamSet::build(
        &edges,
        ys,
        &ForcedSplits::empty(edges.len()),
        PartitionBackend::DirectScan,
        false,
    );
    let mut t = ResultTable::new(
        "table2_scanbeams",
        &["beam", "y_range", "edges (s=subject, c=clip; L/R label)"],
    );
    for b in 0..beams.n_beams() {
        let list: Vec<String> = beams
            .beam(b)
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let src = match s.src {
                    Source::Subject => "s",
                    Source::Clip => "c",
                };
                // Lemma 1: position parity within the beam gives the label.
                let label = if i % 2 == 0 { "L" } else { "R" };
                format!("{src}{}{label}", s.edge_id)
            })
            .collect();
        t.push_row(vec![
            b.to_string(),
            format!("{:.2}..{:.2}", beams.y_bot(b), beams.y_top(b)),
            list.join(" "),
        ]);
    }
    let (out, stats) = clip_with_stats(
        &subject,
        &clip_p,
        BoolOp::Intersection,
        &ClipOptions::sequential(),
    );
    let mut s = ResultTable::new(
        "table2_summary",
        &[
            "beams",
            "k",
            "k_prime",
            "out_contours",
            "out_vertices",
            "area",
        ],
    );
    s.push_row(vec![
        stats.n_beams.to_string(),
        stats.k_intersections.to_string(),
        stats.k_prime.to_string(),
        out.len().to_string(),
        out.vertex_count().to_string(),
        format!("{:.6}", eo_area(&out)),
    ]);
    vec![t, s]
}

/// Table III: the dataset replicas at the configured scale.
fn table3(cfg: &Config) -> Vec<ResultTable> {
    let mut t = ResultTable::new(
        "table3_datasets",
        &[
            "id",
            "dataset",
            "paper_polys",
            "paper_edges",
            "scale",
            "gen_polys",
            "gen_edges",
            "gen_time_ms",
        ],
    );
    for id in 1..=4 {
        let spec = table3_spec(id);
        let (l, d) = time(|| layer(id, cfg.scale, id as u64 * 1000 + 7));
        t.push_row(vec![
            id.to_string(),
            spec.name.into(),
            spec.polys.to_string(),
            spec.edges.to_string(),
            format!("{}", cfg.scale),
            l.len().to_string(),
            l.edge_count().to_string(),
            ms(d),
        ]);
    }
    vec![t]
}

/// Figure 7: sequential clipping time vs polygon size (superlinear growth —
/// the reason partitioning into smaller subproblems pays off).
fn fig7() -> Vec<ResultTable> {
    let mut t = ResultTable::new(
        "fig7_seq_scaling",
        &[
            "n_edges",
            "intersect_ms",
            "union_ms",
            "us_per_edge",
            "k",
            "k_prime",
        ],
    );
    let seq = ClipOptions::sequential();
    for n in [
        1_000usize, 2_000, 4_000, 8_000, 16_000, 32_000, 64_000, 128_000,
    ] {
        let (a, b) = synthetic_pair(n, 42);
        let ((_, stats), ti) = time_best(2, || clip_with_stats(&a, &b, BoolOp::Intersection, &seq));
        let (_, tu) = time_best(2, || clip(&a, &b, BoolOp::Union, &seq));
        t.push_row(vec![
            n.to_string(),
            ms(ti),
            ms(tu),
            format!("{:.3}", ti.as_secs_f64() * 1e6 / n as f64),
            stats.k_intersections.to_string(),
            stats.k_prime.to_string(),
        ]);
    }
    vec![t]
}

/// Figure 8: Algorithm 2 speedup vs thread (slab) count for synthetic pairs
/// of increasing size.
fn fig8() -> Vec<ResultTable> {
    let mut t = ResultTable::new(
        "fig8_pair_speedup",
        &[
            "n_edges",
            "slabs",
            "measured_ms",
            "critical_ms",
            "proj_speedup",
            "imbalance",
        ],
    );
    let seq = ClipOptions::sequential();
    for n in [10_000usize, 40_000, 160_000] {
        let (a, b) = synthetic_pair(n, 42);
        let (_, t_seq) = time_best(2, || clip(&a, &b, BoolOp::Intersection, &seq));
        for &slabs in SLAB_SWEEP {
            let (r, measured) = time(|| clip_pair_slabs(&a, &b, BoolOp::Intersection, slabs, &seq));
            let crit = critical_path(&r.times);
            t.push_row(vec![
                n.to_string(),
                r.slabs.to_string(),
                ms(measured),
                ms(crit),
                format!("{:.2}", t_seq.as_secs_f64() / crit.as_secs_f64().max(1e-9)),
                format!("{:.2}", r.times.load_imbalance()),
            ]);
        }
    }
    vec![t]
}

/// Figure 9: partition / clip / merge phase breakdown vs slab count for two
/// dataset pairs (I = 1∪2, II = 3∪4), on the default cell plan and the
/// refining one, with the work-stealing counters
/// (`chunks_stolen`, `steal_ms`, `merge_serial_ms`).
fn fig9(cfg: &Config) -> Vec<ResultTable> {
    let mut t = ResultTable::new(
        "fig9_phases",
        &[
            "pair",
            "backend",
            "slabs",
            "index_ms",
            "partition_avg_ms",
            "partition_total_ms",
            "clip_avg_ms",
            "clip_max_ms",
            "clip_total_ms",
            "merge_ms",
            "stolen",
            "steal_ms",
            "merge_serial_ms",
            "li",
        ],
    );
    // Match `overlay_union`: layers are concatenated and unioned under the
    // nonzero fill rule so sibling overlaps within a layer still merge.
    let opts = ClipOptions {
        fill_rule: polyclip::geom::FillRule::NonZero,
        ..ClipOptions::sequential()
    };
    for (label, ia, ib) in [("I(1-2)", 1usize, 2usize), ("II(3-4)", 3, 4)] {
        let a = layer(ia, cfg.scale, ia as u64 * 1000 + 7).merged();
        let b = layer(ib, cfg.scale, ib as u64 * 1000 + 7).merged();
        for (backend_name, grid) in [
            ("slab_index", GridConfig::default()),
            ("adaptive_grid", GridConfig::refined()),
        ] {
            let opts = ClipOptions {
                grid,
                ..opts.clone()
            };
            for &slabs in SLAB_SWEEP {
                let r = clip_pair_slabs(&a, &b, BoolOp::Union, slabs, &opts);
                let clip_max = r
                    .times
                    .per_slab_clip
                    .iter()
                    .copied()
                    .max()
                    .unwrap_or(Duration::ZERO);
                t.push_row(vec![
                    label.into(),
                    backend_name.into(),
                    r.slabs.to_string(),
                    ms(r.times.index),
                    ms(r.times.partition_avg()),
                    ms(r.times.partition_total()),
                    ms(r.times.clip_avg()),
                    ms(clip_max),
                    ms(r.times.clip_total()),
                    ms(r.times.merge),
                    r.times.chunks_stolen.to_string(),
                    ms(r.times.steal),
                    ms(r.times.merge_serial),
                    format!("{:.2}", r.times.load_imbalance()),
                ]);
            }
        }
    }
    vec![t]
}

/// Figure 10: self-relative speedup of layer intersection and union vs
/// slab count, datasets (1,2) and (3,4).
fn fig10(cfg: &Config) -> Vec<ResultTable> {
    let mut t = ResultTable::new(
        "fig10_layer_scaling",
        &["op", "slabs", "measured_ms", "critical_ms", "self_speedup"],
    );
    let opts = ClipOptions::sequential();
    for (ia, ib) in [(1usize, 2usize), (3, 4)] {
        let a = layer(ia, cfg.scale, ia as u64 * 1000 + 7);
        let b = layer(ib, cfg.scale, ib as u64 * 1000 + 7);

        // Intersection.
        let mut base = Duration::ZERO;
        for &slabs in SLAB_SWEEP {
            let (r, measured) =
                time(|| overlay_intersection(&a, &b, slabs, SlabAssignment::UniqueOwner, &opts));
            let crit = overlay_critical_path(&r);
            if slabs == 1 {
                base = crit;
            }
            t.push_row(vec![
                format!("Intersect({ia}-{ib})"),
                slabs.to_string(),
                ms(measured),
                ms(crit),
                format!("{:.2}", base.as_secs_f64() / crit.as_secs_f64().max(1e-9)),
            ]);
        }

        // Union.
        let mut base = Duration::ZERO;
        for &slabs in SLAB_SWEEP {
            let (r, measured) = time(|| overlay_union(&a, &b, slabs, &opts));
            let crit = critical_path(&r.times);
            if slabs == 1 {
                base = crit;
            }
            t.push_row(vec![
                format!("Union({ia}-{ib})"),
                r.slabs.to_string(),
                ms(measured),
                ms(crit),
                format!("{:.2}", base.as_secs_f64() / crit.as_secs_f64().max(1e-9)),
            ]);
        }
    }
    vec![t]
}

/// Figure 11: per-slab clip-time load profile of Intersect(1,2).
fn fig11(cfg: &Config) -> Vec<ResultTable> {
    let a = layer(1, cfg.scale, 1007);
    let b = layer(2, cfg.scale, 2007);
    let opts = ClipOptions::sequential();
    let r = overlay_intersection(&a, &b, 16, SlabAssignment::UniqueOwner, &opts);
    let mut t = ResultTable::new("fig11_load_profile", &["slab", "clip_ms"]);
    let labels: Vec<String> = (0..r.per_slab_clip.len()).map(|i| i.to_string()).collect();
    let values: Vec<f64> = r
        .per_slab_clip
        .iter()
        .map(|d| d.as_secs_f64() * 1e3)
        .collect();
    for (l, v) in labels.iter().zip(&values) {
        t.push_row(vec![l.clone(), format!("{v:.3}")]);
    }
    println!("{}", ascii_bars(&labels, &values, 50));
    println!("load imbalance (max/mean): {:.2}\n", r.load_imbalance());
    vec![t]
}

/// Figure 12: absolute speedup over the best sequential baseline
/// (sequential scanbeam engine = our GPC/ArcGIS substitute; pairwise
/// Greiner–Hormann as a second reference).
fn fig12(cfg: &Config) -> Vec<ResultTable> {
    let mut t = ResultTable::new(
        "fig12_absolute_speedup",
        &[
            "op",
            "seq_engine_ms",
            "gh_pairwise_ms",
            "best_parallel_critical_ms",
            "abs_speedup",
            "slabs",
        ],
    );
    let opts = ClipOptions::sequential();
    let jobs: [(&str, usize, usize, bool); 3] = [
        ("Intersect(3-4)", 3, 4, true),
        ("Union(3-4)", 3, 4, false),
        ("Intersect(1-2)", 1, 2, true),
    ];
    for (label, ia, ib, is_intersect) in jobs {
        let a = layer(ia, cfg.scale, ia as u64 * 1000 + 7);
        let b = layer(ib, cfg.scale, ib as u64 * 1000 + 7);

        // Sequential baselines.
        let (gh_ms, seq_ms) = if is_intersect {
            let (_, t_seq) =
                time(|| overlay_intersection(&a, &b, 1, SlabAssignment::UniqueOwner, &opts));
            let (_, t_gh) = time(|| gh_pairwise_intersection(&a, &b));
            (ms(t_gh), t_seq)
        } else {
            let (_, t_seq) = time(|| overlay_union(&a, &b, 1, &opts));
            ("-".to_string(), t_seq)
        };

        // Best parallel configuration by critical path.
        let mut best = Duration::MAX;
        let mut best_slabs = 1;
        for &slabs in SLAB_SWEEP {
            let crit = if is_intersect {
                let r = overlay_intersection(&a, &b, slabs, SlabAssignment::UniqueOwner, &opts);
                overlay_critical_path(&r)
            } else {
                let r = overlay_union(&a, &b, slabs, &opts);
                critical_path(&r.times)
            };
            if crit < best {
                best = crit;
                best_slabs = slabs;
            }
        }
        t.push_row(vec![
            label.into(),
            ms(seq_ms),
            gh_ms,
            ms(best),
            format!("{:.2}", seq_ms.as_secs_f64() / best.as_secs_f64().max(1e-9)),
            best_slabs.to_string(),
        ]);
    }
    vec![t]
}

/// PRAM theory table (§III): work, span and Brent-simulated speedups of the
/// engine's phases, demonstrating the O((n+k+k')·log/p) claim empirically.
fn pram_table() -> Vec<ResultTable> {
    use polyclip::core::pram_cost;
    let mut t = ResultTable::new(
        "pram_theory",
        &[
            "n_edges",
            "k",
            "k_prime",
            "work",
            "span",
            "T_1",
            "T_64",
            "T_inf",
            "speedup_64",
            "speedup_paper_p",
        ],
    );
    for n in [1_000usize, 4_000, 16_000, 64_000] {
        let (a, b) = synthetic_pair(n, 42);
        let m = pram_cost(&a, &b, BoolOp::Intersection, &ClipOptions::sequential());
        let pp = m.paper_processors();
        t.push_row(vec![
            m.stats.n_edges.to_string(),
            m.stats.k_intersections.to_string(),
            m.stats.k_prime.to_string(),
            format!("{:.3e}", m.total_work()),
            format!("{:.1}", m.total_span()),
            format!("{:.3e}", m.time_on(1)),
            format!("{:.3e}", m.time_on(64)),
            format!("{:.1}", m.total_span()),
            format!("{:.1}", m.speedup(64)),
            format!("{:.1}", m.speedup(pp)),
        ]);
    }
    // Per-phase breakdown of the largest instance.
    let (a, b) = synthetic_pair(64_000, 42);
    let m = pram_cost(&a, &b, BoolOp::Intersection, &ClipOptions::sequential());
    let mut ph = ResultTable::new("pram_phases", &["phase", "work", "span"]);
    for p in &m.phases {
        ph.push_row(vec![
            p.name.into(),
            format!("{:.3e}", p.work),
            format!("{:.1}", p.span),
        ]);
    }
    vec![t, ph]
}

/// Pairwise Greiner–Hormann layer intersection (single-contour features
/// only — exactly what the replica layers contain).
fn gh_pairwise_intersection(a: &Layer, b: &Layer) -> usize {
    let boxes_a: Vec<_> = a.features.iter().map(|f| f.bbox()).collect();
    let boxes_b: Vec<_> = b.features.iter().map(|f| f.bbox()).collect();
    let mut produced = 0usize;
    for (i, fa) in a.features.iter().enumerate() {
        for (j, fb) in b.features.iter().enumerate() {
            if !boxes_a[i].intersects(&boxes_b[j]) {
                continue;
            }
            let out = gh_clip(&fa.contours()[0], &fb.contours()[0], GhOp::Intersection);
            produced += out.len();
        }
    }
    produced
}
