//! Machine-readable prepared-layer benchmark: cold `clip_pair_slabs` versus
//! [`PreparedLayer`] + `clip_prepared` on the same subject, for the
//! compile-once / clip-many service workload — a big base layer queried by
//! small clip polygons, p ∈ {1, 2, 4, 8} slabs.
//!
//! ```sh
//! cargo run --release -p polyclip-bench --bin bench_prepared            # full run
//! cargo run --release -p polyclip-bench --bin bench_prepared -- --smoke # CI smoke
//! ```
//!
//! Writes `BENCH_prepared.json` (override with `--out <path>`), then
//! re-reads and validates the file so a truncated artifact fails loudly.
//! Every prepared run is asserted **bit-identical** to its cold twin before
//! any timing is recorded — a faster wrong answer aborts the bench. The
//! headline number is `speedup` (cold wall / prepared wall) on the
//! `gis_multi` point-ish queries at p = 8, where the prepared path skips
//! subject sanitization, the event-schedule sort, subject binning, *and*
//! every slab the query provably cannot reach; the roadmap target is ≥ 10×.
//! `amortize_after_clips` reports how many prepared clips pay off the
//! one-time build.

use polyclip::datagen::synthetic_pair;
use polyclip::prelude::*;
use polyclip_bench::json::Value;
use polyclip_bench::{exit_after_artifact, flatten_layer, time_best, write_artifact, BenchArgs};
use std::process::ExitCode;

const SLAB_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// One benchmark subject plus its named query set.
type Workload<'a> = (&'a str, &'a PolygonSet, Vec<(&'a str, PolygonSet)>);

/// An axis-aligned square query covering `frac` of the subject's bbox span
/// in each axis — "point-ish" for small `frac` — centered horizontally and
/// placed at fraction `fy` of the bbox height. The benchmark queries sit at
/// `fy = 0.25` rather than dead center: equal-event-count slab boundaries
/// put a boundary at the event median, so a bbox-centered query probes the
/// densest band — representative service queries land in an ordinary one.
fn query_at(subject: &PolygonSet, fy: f64, frac: f64) -> PolygonSet {
    let bb = subject.bbox();
    let (cx, cy) = (
        (bb.xmin + bb.xmax) / 2.0,
        bb.ymin + (bb.ymax - bb.ymin) * fy,
    );
    let (hx, hy) = (
        (bb.xmax - bb.xmin) * frac / 2.0,
        (bb.ymax - bb.ymin) * frac / 2.0,
    );
    PolygonSet::from_xy(&[
        (cx - hx, cy - hy),
        (cx + hx, cy - hy),
        (cx + hx, cy + hy),
        (cx - hx, cy + hy),
    ])
}

fn main() -> ExitCode {
    let BenchArgs {
        out_path,
        n,
        scale,
        reps,
        ..
    } = BenchArgs::parse("BENCH_prepared.json");

    let opts = ClipOptions::sequential();

    // Two subjects: the flattened GIS layer (hundreds of small contours —
    // the base-map regime PreparedLayer targets) and one giant smooth blob
    // (slab skipping can't help much; what remains is the frozen schedule
    // and the warm arenas). The GIS layer runs at half the shared Table III
    // scale: the per-request regime the prepared layer exists for is a
    // mid-sized base map clipped constantly, where a cold clip's fixed
    // subject-side costs — exactly what PreparedLayer amortizes away — are
    // a large share of the wall clock. Queries: two point-ish boxes plus,
    // for the blob, its natural partner blob — an honest full-overlap clip.
    let gis = flatten_layer(1, scale / 2.0, 1007);
    let (blob_a, blob_b) = synthetic_pair(n, 42);
    let workloads: [Workload; 2] = [
        (
            "gis_multi",
            &gis,
            vec![
                ("point", query_at(&gis, 0.25, 0.005)),
                ("cell", query_at(&gis, 0.25, 0.05)),
            ],
        ),
        (
            "blob_pair",
            &blob_a,
            vec![
                ("point", query_at(&blob_a, 0.25, 0.005)),
                ("blob", blob_b.clone()),
            ],
        ),
    ];

    let mut runs: Vec<Value> = Vec::new();
    let mut workload_docs: Vec<Value> = Vec::new();
    for (workload, subject, queries) in &workloads {
        println!(
            "-- {workload}: {} contours, {} vertices",
            subject.len(),
            subject.vertex_count()
        );
        // Build once per workload; every (query, p) below reuses the layer.
        let (layer, build_wall) = time_best(reps, || PreparedLayer::build(subject, &opts).unwrap());
        let build_ms = build_wall.as_secs_f64() * 1e3;
        println!(
            "   prepared build: {build_ms:.3}ms, {} events, {} repairs",
            layer.event_count(),
            layer.repairs()
        );
        workload_docs.push(Value::obj(vec![
            ("name", Value::Str((*workload).into())),
            ("contours", Value::Num(subject.len() as f64)),
            ("vertices", Value::Num(subject.vertex_count() as f64)),
            ("prepare_build_ms", Value::Num(build_ms)),
        ]));

        for (query_name, q) in queries {
            for &p in &SLAB_COUNTS {
                let (cold, cold_wall) = time_best(reps, || {
                    clip_pair_slabs(subject, q, BoolOp::Intersection, p, &opts)
                });
                let (warm, warm_wall) = time_best(reps, || {
                    clip_prepared(&layer, q, BoolOp::Intersection, p, &opts)
                });
                // The contract the whole feature rests on: a prepared clip
                // is the cold clip, minus redundant work.
                assert_eq!(
                    warm.output, cold.output,
                    "prepared output diverged from cold path \
                     ({workload}/{query_name}, p = {p})"
                );
                assert!(warm.stats.prepared_reused && !cold.stats.prepared_reused);
                let speedup = cold_wall.as_secs_f64() / warm_wall.as_secs_f64().max(1e-12);
                let saved = cold_wall.as_secs_f64() - warm_wall.as_secs_f64();
                let amortize = if saved > 0.0 {
                    (build_wall.as_secs_f64() / saved).ceil()
                } else {
                    f64::INFINITY // emitted as null: this config never pays off
                };
                println!(
                    "   {query_name:>6}  p={p}  cold={:>9.3}ms  prepared={:>9.3}ms  \
                     speedup={speedup:>7.2}x  amortize_after={amortize:>4} clips",
                    cold_wall.as_secs_f64() * 1e3,
                    warm_wall.as_secs_f64() * 1e3,
                );
                runs.push(Value::obj(vec![
                    ("workload", Value::Str((*workload).into())),
                    ("query", Value::Str((*query_name).into())),
                    ("p", Value::Num(p as f64)),
                    ("slabs", Value::Num(warm.slabs as f64)),
                    ("cold_wall_ms", Value::Num(cold_wall.as_secs_f64() * 1e3)),
                    (
                        "prepared_wall_ms",
                        Value::Num(warm_wall.as_secs_f64() * 1e3),
                    ),
                    ("speedup", Value::Num(speedup)),
                    ("prepare_build_ms", Value::Num(build_ms)),
                    ("amortize_after_clips", Value::Num(amortize)),
                    (
                        "arena_hwm_bytes",
                        Value::Num(warm.times.work.peak_scratch_bytes as f64),
                    ),
                    (
                        "arena_reused_bytes",
                        Value::Num(warm.times.work.scratch_reused_bytes as f64),
                    ),
                    ("out_contours", Value::Num(warm.output.len() as f64)),
                    ("bit_identical", Value::Bool(true)),
                ]));
            }
        }
    }

    let doc = Value::obj(vec![
        ("bench", Value::Str("prepared_layer".into())),
        ("workloads", Value::Arr(workload_docs)),
        ("op", Value::Str("intersection".into())),
        ("reps", Value::Num(reps as f64)),
        ("slab_counts", {
            Value::Arr(SLAB_COUNTS.iter().map(|&p| Value::Num(p as f64)).collect())
        }),
        ("runs", Value::Arr(runs)),
    ]);
    exit_after_artifact(write_artifact(&out_path, &doc))
}
