//! Machine-readable sweep-refinement benchmark: what the Round-B refinement
//! rounds cost and how much allocator traffic the scratch arenas save, on a
//! smooth blob pair (p ∈ {1, 8} slabs) and the degeneracy torture corpus
//! (where refinement runs several rounds, each a full scanbeam rebuild).
//!
//! ```sh
//! cargo run --release -p polyclip-bench --bin bench_sweep            # full run
//! cargo run --release -p polyclip-bench --bin bench_sweep -- --smoke # CI smoke
//! ```
//!
//! Writes `BENCH_sweep.json` (override with `--out <path>`), then re-reads
//! and validates the file so a truncated artifact fails loudly. The
//! headline numbers are `clip_total_ms` and `wall_per_round_ms` against
//! `refine_rounds`, and the arena counters (`arena_hwm_bytes`,
//! `arena_reused_bytes`, read off `PhaseTimes::work`).

use polyclip::datagen::{synthetic_pair, torture_corpus};
use polyclip::prelude::*;
use polyclip_bench::json::Value;
use polyclip_bench::{exit_after_artifact, time_best, write_artifact, BenchArgs};
use std::process::ExitCode;

const SLAB_COUNTS: [usize; 2] = [1, 8];

/// One measured configuration: the sequential engine's union at `p` slabs,
/// best-of-`reps` wall clock.
fn record(
    runs: &mut Vec<Value>,
    workload: &str,
    a: &PolygonSet,
    b: &PolygonSet,
    p: usize,
    reps: usize,
) {
    let opts = ClipOptions::sequential();
    let (r, wall) = time_best(reps, || clip_pair_slabs(a, b, BoolOp::Union, p, &opts));
    let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
    let rounds = r.stats.refine_rounds.max(1);
    println!(
        "{workload:>28}  p={p}  rounds={rounds}  beams={}  arena_reused={}B  \
         clip_total={:>8.3}ms  wall={:>8.3}ms",
        r.stats.n_beams,
        r.times.work.scratch_reused_bytes,
        ms(r.times.clip_total()),
        ms(wall),
    );
    runs.push(Value::obj(vec![
        ("workload", Value::Str(workload.into())),
        ("p", Value::Num(p as f64)),
        ("refine_rounds", Value::Num(r.stats.refine_rounds as f64)),
        ("n_beams", Value::Num(r.stats.n_beams as f64)),
        (
            "arena_hwm_bytes",
            Value::Num(r.times.work.peak_scratch_bytes as f64),
        ),
        (
            "arena_reused_bytes",
            Value::Num(r.times.work.scratch_reused_bytes as f64),
        ),
        ("clip_total_ms", Value::Num(ms(r.times.clip_total()))),
        ("wall_ms", Value::Num(ms(wall))),
        ("wall_per_round_ms", Value::Num(ms(wall) / rounds as f64)),
        ("out_contours", Value::Num(r.output.len() as f64)),
    ]));
}

fn main() -> ExitCode {
    let BenchArgs {
        out_path, n, reps, ..
    } = BenchArgs::parse("BENCH_sweep.json");

    let mut runs: Vec<Value> = Vec::new();

    // Workload 1: the smooth blob pair. Refinement converges in one round
    // here, so the rows measure the scratch arenas and the bucketed
    // per-beam ordering on a big clean input.
    let (blob_a, blob_b) = synthetic_pair(n, 42);
    println!(
        "-- blob_pair: {} + {} vertices",
        blob_a.vertex_count(),
        blob_b.vertex_count()
    );
    for &p in &SLAB_COUNTS {
        record(&mut runs, "blob_pair", &blob_a, &blob_b, p, reps);
    }

    // Workload 2: the degeneracy torture corpus, where residual crossings
    // drive the refinement loop through several rounds. Single slab: the
    // corpus cases are small, and the point is the per-round refinement
    // cost, not slab scaling.
    println!("-- torture_corpus");
    for case in torture_corpus(99) {
        record(&mut runs, case.name, &case.subject, &case.clip, 1, reps);
    }

    let doc = Value::obj(vec![
        ("bench", Value::Str("sweep_refinement".into())),
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
                    ("name", Value::Str("torture_corpus".into())),
                    ("generator", Value::Str("torture_corpus".into())),
                    ("seed", Value::Num(99.0)),
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
