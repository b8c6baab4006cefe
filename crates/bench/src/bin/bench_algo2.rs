//! Machine-readable Algorithm-2 phase benchmark: partition / clip / merge
//! wall-clock at p ∈ {1, 2, 4, 8, 16} slabs on a fixed datagen workload,
//! for the two cell plans: `slab_index` (the default, one cell per
//! event-quantile slab, run in slab order on the calling thread) and
//! `adaptive_grid` (`GridConfig::refined()`, heavy slabs split into
//! slab×column cells on the work-stealing pool).
//!
//! ```sh
//! cargo run --release -p polyclip-bench --bin bench_algo2            # full run
//! cargo run --release -p polyclip-bench --bin bench_algo2 -- --smoke # CI smoke
//! cargo run --release -p polyclip-bench --bin bench_algo2 -- \
//!     --smoke --backend adaptive_grid                                # one plan
//! ```
//!
//! Writes `BENCH_algo2.json` (override with `--out <path>`), then re-reads
//! and validates the file so a truncated artifact fails loudly. The headline
//! comparison at p = 8 is the load imbalance: `adaptive_grid` splits hot
//! slabs into cells and work-steals them, so its `load_imbalance` stays
//! near 1 on blob_pair where the unrefined slabs drift well above it. Every
//! run also records `chunks_stolen`, `steal_ms`, `merge_serial_ms` and the
//! per-worker `busy_ms` histogram (one lane for `slab_index`).

use polyclip::datagen::synthetic_pair;
use polyclip::prelude::*;
use polyclip_bench::json::Value;
use polyclip_bench::{
    critical_path, exit_after_artifact, flatten_layer, time_best, write_artifact, BenchArgs,
};
use std::process::ExitCode;

const SLAB_COUNTS: [usize; 5] = [1, 2, 4, 8, 16];

fn main() -> ExitCode {
    let BenchArgs {
        out_path,
        n,
        scale,
        reps,
        backend: backend_filter,
        ..
    } = BenchArgs::parse("BENCH_algo2.json");

    // Two workloads: a two-giant-contours pair (every contour overlaps every
    // slab — worst case for binning, best case for the scratch-buffer reuse)
    // and a flattened GIS layer pair (thousands of small contours, each
    // overlapping few slabs — where the O(n + Σ overlaps) partition wins).
    let blob = synthetic_pair(n, 42);
    let gis = (flatten_layer(1, scale, 1007), flatten_layer(2, scale, 2007));
    let workloads: [(&str, &PolygonSet, &PolygonSet); 2] = [
        ("blob_pair", &blob.0, &blob.1),
        ("gis_multi", &gis.0, &gis.1),
    ];

    let opts = ClipOptions::sequential();
    // Armed-but-unbounded budget: the gate, meter and every checkpoint run,
    // but nothing can trip. `budget_overhead` = armed wall / unarmed wall;
    // the bounded-execution contract (DESIGN.md §4.8) keeps it under 1% on
    // gis_multi at p = 8.
    let budgeted_opts = ClipOptions {
        budget: ExecBudget {
            deadline: Some(std::time::Duration::from_secs(3600)),
            max_intersections: Some(u64::MAX / 2),
            max_output_vertices: Some(u64::MAX / 2),
            allow_partial: true,
            ..Default::default()
        },
        ..opts.clone()
    };
    let msf = |d: std::time::Duration| Value::Num(d.as_secs_f64() * 1e3);

    let mut runs: Vec<Value> = Vec::new();
    for (workload_name, a, b) in workloads {
        println!(
            "-- {workload_name}: {} + {} contours, {} + {} vertices",
            a.len(),
            b.len(),
            a.vertex_count(),
            b.vertex_count()
        );
        for (backend_name, grid) in [
            ("slab_index", GridConfig::default()),
            ("adaptive_grid", GridConfig::refined()),
        ] {
            if backend_filter.as_deref().is_some_and(|f| f != backend_name) {
                continue;
            }
            let opts = ClipOptions {
                grid,
                ..opts.clone()
            };
            let budgeted_opts = ClipOptions {
                grid,
                ..budgeted_opts.clone()
            };
            for &p in &SLAB_COUNTS {
                let (r, wall) = time_best(reps, || clip_pair_slabs(a, b, BoolOp::Union, p, &opts));
                let (_, budgeted_wall) = time_best(reps, || {
                    clip_pair_slabs(a, b, BoolOp::Union, p, &budgeted_opts)
                });
                let budget_overhead = budgeted_wall.as_secs_f64() / wall.as_secs_f64().max(1e-12);
                let li = r.times.load_imbalance();
                println!(
                    "{backend_name:>13}  p={p}  slabs={}  sanitize={:>7.3}ms  \
                     partition={:>9.3}ms  clip={:>9.3}ms  merge={:>7.3}ms  wall={:>9.3}ms  \
                     budget_overhead={budget_overhead:>6.4}  li={li:>5.3}",
                    r.slabs,
                    r.times.sanitize.as_secs_f64() * 1e3,
                    r.times.partition_total().as_secs_f64() * 1e3,
                    r.times.clip_total().as_secs_f64() * 1e3,
                    r.times.merge.as_secs_f64() * 1e3,
                    wall.as_secs_f64() * 1e3,
                );
                runs.push(Value::obj(vec![
                    ("workload", Value::Str(workload_name.into())),
                    ("backend", Value::Str(backend_name.into())),
                    ("p", Value::Num(p as f64)),
                    ("slabs", Value::Num(r.slabs as f64)),
                    ("sanitize_ms", msf(r.times.sanitize)),
                    ("index_ms", msf(r.times.index)),
                    ("partition_total_ms", msf(r.times.partition_total())),
                    ("clip_total_ms", msf(r.times.clip_total())),
                    ("merge_ms", msf(r.times.merge)),
                    ("critical_path_ms", msf(critical_path(&r.times))),
                    ("wall_ms", msf(wall)),
                    ("load_imbalance", Value::Num(r.times.load_imbalance())),
                    ("budget_overhead", Value::Num(budget_overhead)),
                    ("out_contours", Value::Num(r.output.len() as f64)),
                    ("chunks_stolen", Value::Num(r.times.chunks_stolen as f64)),
                    ("steal_ms", msf(r.times.steal)),
                    ("merge_serial_ms", msf(r.times.merge_serial)),
                    (
                        "busy_ms",
                        Value::Arr(r.times.per_worker_busy.iter().map(|&d| msf(d)).collect()),
                    ),
                ]));
            }
        }
    }

    let doc = Value::obj(vec![
        ("bench", Value::Str("algo2_phases".into())),
        (
            "workloads",
            Value::Arr(vec![
                Value::obj(vec![
                    ("name", Value::Str("blob_pair".into())),
                    ("generator", Value::Str("synthetic_pair".into())),
                    ("n_vertices", Value::Num(n as f64)),
                    ("seed", Value::Num(42.0)),
                ]),
                Value::obj(vec![
                    ("name", Value::Str("gis_multi".into())),
                    (
                        "generator",
                        Value::Str("table3 layers 1+2, flattened".into()),
                    ),
                    ("scale", Value::Num(scale)),
                ]),
            ]),
        ),
        ("op", Value::Str("union".into())),
        ("reps", Value::Num(reps as f64)),
        ("slab_counts", {
            Value::Arr(SLAB_COUNTS.iter().map(|&p| Value::Num(p as f64)).collect())
        }),
        ("runs", Value::Arr(runs)),
    ]);

    exit_after_artifact(write_artifact(&out_path, &doc))
}
