//! Regenerate every table and figure of the paper's evaluation section,
//! plus the design ablations, the PRAM primitives and the oracle's price.
//!
//! ```sh
//! cargo run --release -p polyclip-bench --bin figures -- all --scale 0.02
//! cargo run --release -p polyclip-bench --bin figures -- fig8 fig12
//! cargo run --release -p polyclip-bench --bin figures -- ablations primitives oracle
//! ```
//!
//! Each experiment prints an aligned table and writes `results/<id>.csv`.
//! `--scale` sizes the Table III layers, and the synthetic inputs of
//! `fig7`, `ablations`, `primitives` and `oracle` in proportion to it (the
//! default, 0.02, gives their reference sizes); `fig8` and `pram` run fixed
//! sizes.
//!
//! Parallel scaling is reported twice: `measured_ms` is wall time on this
//! host, and `projected_ms` is [`PhaseTimes::projected_wall`] at p lanes, a
//! projection from the run's measured phases of what p cores would achieve
//! (see EXPERIMENTS.md for the substitution rationale; the paper used a
//! 64-core Opteron).

use polyclip::core::stitch_counted;
use polyclip::datagen::{smooth_blob, synthetic_pair, table3_spec};
use polyclip::parprim::inversions::report_inversion_values;
use polyclip::prelude::*;
use polyclip::seqclip::{gh_clip, GhOp};
use polyclip::sweep::{
    bentley_ottmann, collect_edges, discover_intersections, event_ys, BeamSet, ForcedSplits,
    PartitionBackend, Source,
};
use polyclip_bench::*;
use std::path::PathBuf;
use std::time::Duration;

/// The default `--scale`, at which the sized experiments run their
/// reference inputs.
const DEFAULT_SCALE: f64 = 0.02;

struct Config {
    scale: f64,
    out: PathBuf,
}

impl Config {
    /// An input size that is `at_default` at the default scale and moves
    /// in proportion with `--scale` (never below 16).
    fn n(&self, at_default: usize) -> usize {
        ((at_default as f64 * self.scale / DEFAULT_SCALE).round() as usize).max(16)
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut wanted: Vec<String> = Vec::new();
    let mut cfg = Config {
        scale: DEFAULT_SCALE,
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
            "table1",
            "table2",
            "table3",
            "fig7",
            "fig8",
            "fig9",
            "fig10",
            "fig11",
            "fig12",
            "pram",
            "ablations",
            "primitives",
            "oracle",
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
            "fig7" => fig7(&cfg),
            "fig8" => fig8(),
            "fig9" => fig9(&cfg),
            "fig10" => fig10(&cfg),
            "fig11" => fig11(&cfg),
            "fig12" => fig12(&cfg),
            "pram" => pram_table(),
            "ablations" => ablations(&cfg),
            "primitives" => primitives(&cfg),
            "oracle" => oracle(&cfg),
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
/// the reason partitioning into smaller subproblems pays off). Three columns
/// divide a phase by the items it handles, so a cost that grows faster than
/// its count shows: the Round-A `BeamSet::build` over the pair's edges (best
/// of 5, the event schedule's copy included), the whole ∪ run over its final
/// sub-edge count, and `stitch_counted` over the directed edges of the ∪
/// output's contours (best of 5, the input's copy included) per edge.
fn fig7(cfg: &Config) -> Vec<ResultTable> {
    let mut t = ResultTable::new(
        "fig7_seq_scaling",
        &[
            "n_edges",
            "intersect_ms",
            "union_ms",
            "us_per_edge",
            "k",
            "k_prime",
            "build_ns_per_subedge",
            "engine_ns_per_subedge",
            "stitch_ns_per_fragment",
        ],
    );
    let seq = ClipOptions::sequential();
    for at_default in [
        1_000usize, 2_000, 4_000, 8_000, 16_000, 32_000, 64_000, 128_000,
    ] {
        let n = cfg.n(at_default);
        let (a, b) = synthetic_pair(n, 42);
        let ((_, stats), ti) = time_best(2, || clip_with_stats(&a, &b, BoolOp::Intersection, &seq));
        let ((union_out, union), tu) =
            time_best(2, || clip_with_stats(&a, &b, BoolOp::Union, &seq));
        let edges = collect_edges(&a, &b);
        let ys = event_ys(&edges, &[], false);
        let forced = ForcedSplits::empty(edges.len());
        let (subedges, tb) = time_best(5, || {
            BeamSet::build(
                &edges,
                ys.clone(),
                &forced,
                PartitionBackend::DirectScan,
                false,
            )
            .total_sub_edges()
        });
        let fragments: Vec<(Point, Point)> = union_out
            .contours()
            .iter()
            .flat_map(|c| c.edges().map(|e| (e.a, e.b)))
            .collect();
        let (_, ts) = time_best(5, || stitch_counted(fragments.clone(), true).1);
        let ns_per =
            |d: Duration, count: usize| format!("{:.1}", d.as_secs_f64() * 1e9 / count as f64);
        t.push_row(vec![
            n.to_string(),
            ms(ti),
            ms(tu),
            format!("{:.3}", ti.as_secs_f64() * 1e6 / n as f64),
            stats.k_intersections.to_string(),
            stats.k_prime.to_string(),
            ns_per(tb, subedges),
            ns_per(tu, union.n_subedges),
            ns_per(ts, fragments.len()),
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
            "projected_ms",
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
            let projected = r.times.projected_wall(slabs);
            t.push_row(vec![
                n.to_string(),
                r.slabs.to_string(),
                ms(measured),
                ms(projected),
                format!(
                    "{:.2}",
                    t_seq.as_secs_f64() / projected.as_secs_f64().max(1e-9)
                ),
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
        &["op", "slabs", "measured_ms", "projected_ms", "self_speedup"],
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
            let projected = r.times.projected_wall(slabs);
            if slabs == 1 {
                base = projected;
            }
            t.push_row(vec![
                format!("Intersect({ia}-{ib})"),
                r.times.per_slab_clip.len().to_string(),
                ms(measured),
                ms(projected),
                format!(
                    "{:.2}",
                    base.as_secs_f64() / projected.as_secs_f64().max(1e-9)
                ),
            ]);
        }

        // Union.
        let mut base = Duration::ZERO;
        for &slabs in SLAB_SWEEP {
            let (r, measured) = time(|| overlay_union(&a, &b, slabs, &opts));
            let projected = r.times.projected_wall(slabs);
            if slabs == 1 {
                base = projected;
            }
            t.push_row(vec![
                format!("Union({ia}-{ib})"),
                r.times.per_slab_clip.len().to_string(),
                ms(measured),
                ms(projected),
                format!(
                    "{:.2}",
                    base.as_secs_f64() / projected.as_secs_f64().max(1e-9)
                ),
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
    let labels: Vec<String> = (0..r.times.per_slab_clip.len())
        .map(|i| i.to_string())
        .collect();
    let values: Vec<f64> = r
        .times
        .per_slab_clip
        .iter()
        .map(|d| d.as_secs_f64() * 1e3)
        .collect();
    for (l, v) in labels.iter().zip(&values) {
        t.push_row(vec![l.clone(), format!("{v:.3}")]);
    }
    println!("{}", ascii_bars(&labels, &values, 50));
    println!(
        "load imbalance (max/mean): {:.2}\n",
        r.times.load_imbalance()
    );
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
            "best_projected_ms",
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

        // Best parallel configuration by projected wall at p lanes.
        let mut best = Duration::MAX;
        let mut best_slabs = 1;
        for &slabs in SLAB_SWEEP {
            let times = if is_intersect {
                overlay_intersection(&a, &b, slabs, SlabAssignment::UniqueOwner, &opts).times
            } else {
                overlay_union(&a, &b, slabs, &opts).times
            };
            let projected = times.projected_wall(slabs);
            if projected < best {
                best = projected;
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

/// Design ablations (DESIGN.md): the Step-2 partition backend, the
/// overlay's slab assignment, Algorithm 2's cell plan, output sensitivity
/// at fixed n, inversion-based discovery against Bentley–Ottmann, and the
/// overhead of an armed budget that cannot trip. Wall clock, best of 3.
fn ablations(cfg: &Config) -> Vec<ResultTable> {
    let mut t = ResultTable::new(
        "ablations",
        &["ablation", "variant", "input", "best_ms", "note"],
    );
    let mut row = |ablation: &str, variant: &str, input: &str, d: Duration, note: String| {
        t.push_row(vec![
            ablation.into(),
            variant.into(),
            input.into(),
            ms(d),
            note,
        ]);
    };
    let seq = ClipOptions::sequential();

    // Step 2: direct scan vs the §III-E segment tree, timed at the
    // partition, the only step in which the two backends differ.
    let n = cfg.n(20_000);
    let (a, b) = synthetic_pair(n, 42);
    let edges = collect_edges(&a, &b);
    let ys = event_ys(&edges, &[], false);
    let forced = ForcedSplits::empty(edges.len());
    for (name, backend) in [
        ("direct_scan", PartitionBackend::DirectScan),
        ("segment_tree", PartitionBackend::SegmentTree),
    ] {
        let (beams, d) = time_best(3, || {
            BeamSet::build(&edges, ys.clone(), &forced, backend, false)
        });
        let note = format!("sub_edges={}", beams.total_sub_edges());
        row("partition_backend", name, &format!("pair n={n}"), d, note);
    }

    // Overlay slab assignment: the paper's replication vs unique owner.
    let scale = cfg.scale / 4.0;
    let (la, lb) = (layer(1, scale, 1007), layer(2, scale, 2007));
    let input = format!("layers 1+2 scale={scale} p=8");
    for (name, assignment) in [
        ("replicate", SlabAssignment::Replicate),
        ("unique_owner", SlabAssignment::UniqueOwner),
    ] {
        let (r, d) = time_best(3, || overlay_intersection(&la, &lb, 8, assignment, &seq));
        let note = format!("tasks={}", r.tasks_executed);
        row("slab_assignment", name, &input, d, note);
    }

    // Algorithm 2's cell plan: one cell per event-quantile slab on the
    // calling thread vs refined cells on the work-stealing pool.
    let n = cfg.n(40_000);
    let (a, b) = synthetic_pair(n, 42);
    for (name, grid) in [
        ("slab_index", GridConfig::default()),
        ("adaptive_grid", GridConfig::refined()),
    ] {
        let opts = ClipOptions {
            grid,
            ..seq.clone()
        };
        for p in [4usize, 16] {
            let (r, d) = time_best(3, || clip_pair_slabs(&a, &b, BoolOp::Union, p, &opts));
            let note = format!("cells={}", r.times.per_slab_clip.len());
            row("cell_plan", name, &format!("pair n={n} p={p}"), d, note);
        }
    }

    // Output sensitivity: n fixed, overlap (and so k) growing. The work
    // must track k, not n².
    let n = cfg.n(8_000);
    let fixed = smooth_blob(5, Point::new(0.0, 0.0), 1.0, n, 0.3);
    for (name, dx) in [
        ("disjoint", 3.0),
        ("touching", 1.9),
        ("half", 1.0),
        ("deep", 0.3),
    ] {
        let moved = smooth_blob(9, Point::new(dx, 0.05), 1.0, n, 0.3);
        let ((_, stats), d) = time_best(3, || {
            clip_with_stats(&fixed, &moved, BoolOp::Intersection, &seq)
        });
        let note = format!("k={}", stats.k_intersections);
        row("output_sensitivity", name, &format!("blobs n={n}"), d, note);
    }

    // Lemma 4's inversion-based discovery (Round-A build included) vs the
    // classical Bentley–Ottmann sweep.
    for n in [cfg.n(2_000), cfg.n(8_000)] {
        let (a, b) = synthetic_pair(n, 42);
        let edges = collect_edges(&a, &b);
        let input = format!("pair n={n}");
        let inversions = || {
            let ys = event_ys(&edges, &[], false);
            let forced = ForcedSplits::empty(edges.len());
            let beams = BeamSet::build(&edges, ys, &forced, PartitionBackend::DirectScan, false);
            discover_intersections(&beams, &edges, false)
        };
        for (name, (found, d)) in [
            ("inversions", time_best(3, inversions)),
            ("bentley_ottmann", time_best(3, || bentley_ottmann(&edges))),
        ] {
            let note = format!("crossings={}", found.len());
            row("intersection_discovery", name, &input, d, note);
        }
    }

    // Bounded execution (DESIGN.md §4.8): an armed budget that cannot trip
    // runs every gate, meter and checkpoint. Its wall over the unarmed
    // run's is the `budget_overhead` the < 1 % contract cites. The two
    // runs alternate so that a drift in host speed hits both.
    let (ga, gb) = (
        flatten_layer(1, cfg.scale, 1007),
        flatten_layer(2, cfg.scale, 2007),
    );
    let armed = ClipOptions {
        budget: ExecBudget {
            deadline: Some(Duration::from_secs(3600)),
            max_intersections: Some(u64::MAX / 2),
            max_output_vertices: Some(u64::MAX / 2),
            allow_partial: true,
            ..Default::default()
        },
        ..seq.clone()
    };
    let mut best = [Duration::MAX; 2];
    for _ in 0..5 {
        for (slot, opts) in best.iter_mut().zip([&seq, &armed]) {
            *slot = (*slot).min(time(|| clip_pair_slabs(&ga, &gb, BoolOp::Union, 8, opts)).1);
        }
    }
    let input = format!("gis_multi scale={} p=8", cfg.scale);
    let overhead = best[1].as_secs_f64() / best[0].as_secs_f64().max(1e-12);
    row("budget_overhead", "unarmed", &input, best[0], "-".into());
    let note = format!("budget_overhead={overhead:.4}");
    row("budget_overhead", "armed_unbounded", &input, best[1], note);
    vec![t]
}

/// The PRAM primitives of §III that the algorithm reduces to: prefix sums
/// (Lemma 3), merge sort, inversion counting and reporting (Lemma 4) and
/// the segment tree (§III-E), sequential against parallel. Wall clock,
/// best of 3.
fn primitives(cfg: &Config) -> Vec<ResultTable> {
    use polyclip::parprim::{
        count_inversions, inclusive_scan, par_count_inversions, par_inclusive_scan, par_merge_sort,
        report_inversions,
    };
    use polyclip::segtree::SegmentTree;
    let mut t = ResultTable::new("primitives", &["primitive", "variant", "n", "best_ms"]);
    let mut rows = |primitive: &str, n: usize, timed: &[(&str, Duration)]| {
        for (variant, d) in timed {
            t.push_row(vec![
                primitive.into(),
                (*variant).into(),
                n.to_string(),
                ms(*d),
            ]);
        }
    };
    for n in [cfg.n(10_000), cfg.n(100_000), cfg.n(1_000_000)] {
        let xs = xorshift_data(n);
        let seq = best3(|| inclusive_scan(&xs, |a, b| a + b));
        let par = best3(|| par_inclusive_scan(&xs, |a, b| a + b));
        rows("scan", n, &[("seq", seq), ("par", par)]);
    }
    for n in [cfg.n(100_000), cfg.n(1_000_000)] {
        let xs = xorshift_data(n);
        let sort = |f: fn(&mut [u64])| {
            best3(|| {
                let mut v = xs.clone();
                f(&mut v);
                v
            })
        };
        let par = sort(|v| par_merge_sort(v, |a, b| a.cmp(b)));
        let std = sort(|v| v.sort_unstable());
        rows(
            "merge_sort",
            n,
            &[("par_merge_sort", par), ("std_sort", std)],
        );
    }
    for n in [cfg.n(10_000), cfg.n(100_000)] {
        let xs = xorshift_data(n);
        let seq = best3(|| count_inversions(&xs));
        let par = best3(|| par_count_inversions(&xs));
        rows("inversions", n, &[("count_seq", seq), ("count_par", par)]);
    }
    // Reporting is output-sensitive: near-sorted input, sparse inversions.
    let n = cfg.n(100_000);
    let mut nearly: Vec<u64> = (0..n as u64).collect();
    for i in (0..n - 7).step_by(1000) {
        nearly.swap(i, i + 7);
    }
    let report = best3(|| report_inversions(&nearly));
    rows("inversions", n, &[("report_sparse", report)]);
    for n in [cfg.n(10_000), cfg.n(100_000)] {
        let intervals: Vec<(usize, usize)> = xorshift_data(n)
            .iter()
            .map(|&x| {
                let lo = (x % n as u64) as usize;
                (lo, (lo + 1 + (x % 64) as usize).min(n))
            })
            .collect();
        let seq = best3(|| SegmentTree::build(n, &intervals));
        let par = best3(|| SegmentTree::build_by_sort(n, &intervals, true));
        let tree = SegmentTree::build(n, &intervals);
        let stab = best3(|| tree.par_stab_all());
        rows(
            "segtree",
            n,
            &[("build_seq", seq), ("build_par", par), ("stab_all", stab)],
        );
    }
    vec![t]
}

/// Best-of-3 wall clock of `f`, its result kept opaque to the optimizer.
fn best3<T>(mut f: impl FnMut() -> T) -> Duration {
    time_best(3, || std::hint::black_box(f())).1
}

/// `n` pseudo-random keys below one million (xorshift, fixed seed).
fn xorshift_data(n: usize) -> Vec<u64> {
    let mut s = 0x243f6a8885a308d3u64;
    (0..n)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s % 1_000_000
        })
        .collect()
}

/// The price of a differential verification pass: the independent
/// Foster–Overfelt reference against the production engine, and the
/// band-integration comparator on top. Before anything is timed, every pair
/// must pass the oracle's contract screen and every op must agree within
/// [`ORACLE_REL_TOL`]: a disagreeing oracle aborts the run. The oracle is a
/// simple O(S·C) reference, so the pairs are n/80, n/40 and n/20 vertices,
/// for the 40k-vertex n of the default scale. Wall clock, best of 3.
fn oracle(cfg: &Config) -> Vec<ResultTable> {
    const OPS: [(BoolOp, &str); 4] = [
        (BoolOp::Intersection, "intersection"),
        (BoolOp::Union, "union"),
        (BoolOp::Difference, "difference"),
        (BoolOp::Xor, "xor"),
    ];
    let header = [
        "size",
        "op",
        "engine_ms",
        "oracle_ms",
        "compare_ms",
        "screen_ms",
        "overhead",
    ];
    let mut t = ResultTable::new("oracle_cost", &header);
    let engine = ScanbeamOracle::new(4);
    let fo = FosterOverfeltOracle;
    let n = cfg.n(40_000);
    for (i, size) in [n / 80, n / 40, n / 20].into_iter().enumerate() {
        let size = size.max(16);
        let (a, b) = synthetic_pair(size, 0x0c1e + i as u64);
        assert!(
            fo.supports(&a, &b),
            "pair of size {size} fell outside the oracle contract"
        );
        for (op, name) in OPS {
            let (eng_out, fo_out) = (engine.clip(&a, &b, op), fo.clip(&a, &b, op));
            let diff = compare_outputs(&eng_out.expect("engine"), &fo_out.expect("oracle"));
            assert!(
                diff.within_tolerance(ORACLE_REL_TOL),
                "size {size} {name}: engine {:.12} vs oracle {:.12}, sym-diff {:.3e}",
                diff.area_a,
                diff.area_b,
                diff.sym_diff_area,
            );
        }
        let (_, screen) = time_best(3, || fo.supports(&a, &b));
        for (op, name) in OPS {
            let (eng_out, eng) = time_best(3, || engine.clip(&a, &b, op).unwrap());
            let (fo_out, orc) = time_best(3, || fo.clip(&a, &b, op).unwrap());
            let (_, cmp) = time_best(3, || compare_outputs(&eng_out, &fo_out));
            let overhead = orc.as_secs_f64() / eng.as_secs_f64().max(1e-12);
            let timings = [
                ms(eng),
                ms(orc),
                ms(cmp),
                ms(screen),
                format!("{overhead:.2}"),
            ];
            t.push_row(
                [size.to_string(), name.into()]
                    .into_iter()
                    .chain(timings)
                    .collect(),
            );
        }
    }
    vec![t]
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
