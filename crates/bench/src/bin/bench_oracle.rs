//! Machine-readable differential-oracle benchmark: what the independent
//! Foster–Overfelt reference costs relative to the production engine, and
//! what the band-integration comparator adds on top — the price of a
//! differential verification pass.
//!
//! ```sh
//! cargo run --release -p polyclip-bench --bin bench_oracle            # full run
//! cargo run --release -p polyclip-bench --bin bench_oracle -- --smoke # CI smoke
//! ```
//!
//! Writes `BENCH_oracle.json` (override with `--out <path>`), then
//! re-reads and validates the file so a truncated artifact fails loudly.
//! Every timed pair is also *checked*: the two implementations must agree
//! below [`ORACLE_REL_TOL`] before any number is recorded — a fast
//! disagreeing oracle aborts the bench. The oracle is a deliberately
//! simple O(S·C) reference, so bench sizes are fractions of the shared
//! `--n` and the `overhead` column is expected to grow with size; the
//! interesting outputs are the absolute per-case cost (what a fuzz
//! iteration or matrix cell spends) and the comparator share.

use polyclip::datagen::synthetic_pair;
use polyclip::prelude::*;
use polyclip_bench::json::Value;
use polyclip_bench::{exit_after_artifact, time_best, write_artifact, BenchArgs};
use std::process::ExitCode;

const OPS: [(BoolOp, &str); 4] = [
    (BoolOp::Intersection, "intersection"),
    (BoolOp::Union, "union"),
    (BoolOp::Difference, "difference"),
    (BoolOp::Xor, "xor"),
];

fn main() -> ExitCode {
    let BenchArgs {
        out_path, n, reps, ..
    } = BenchArgs::parse("BENCH_oracle.json");

    // The oracle does pairwise refinement, so a full --n pair would swamp
    // the run; n/80 .. n/20 spans the sizes the differential harness
    // actually feeds it (matrix corpora and fuzz cases are far smaller).
    let sizes: Vec<usize> = [n / 80, n / 40, n / 20]
        .iter()
        .map(|&s| s.max(16))
        .collect();
    let engine = ScanbeamOracle::new(4);
    let fo = FosterOverfeltOracle;

    let mut runs: Vec<Value> = Vec::new();
    for (i, &size) in sizes.iter().enumerate() {
        let (a, b) = synthetic_pair(size, 0x0c1e + i as u64);
        let (supported, screen_wall) = time_best(reps, || fo.supports(&a, &b));
        assert!(
            supported,
            "bench pair (size {size}) fell outside the oracle contract"
        );
        let screen_ms = screen_wall.as_secs_f64() * 1e3;
        println!(
            "-- size {size}: {} + {} vertices, contract screen {screen_ms:.3}ms",
            a.vertex_count(),
            b.vertex_count()
        );
        for (op, op_name) in OPS {
            let (eng_out, eng_wall) = time_best(reps, || engine.clip(&a, &b, op).unwrap());
            let (fo_out, fo_wall) = time_best(reps, || fo.clip(&a, &b, op).unwrap());
            let (diff, cmp_wall) = time_best(reps, || compare_outputs(&eng_out, &fo_out));
            // The bench must not time a broken oracle: agreement first.
            assert!(
                diff.within_tolerance(ORACLE_REL_TOL),
                "size {size} {op_name}: engine {:.12} vs oracle {:.12}, sym-diff {:.3e}",
                diff.area_a,
                diff.area_b,
                diff.sym_diff_area,
            );
            let (eng_ms, fo_ms, cmp_ms) = (
                eng_wall.as_secs_f64() * 1e3,
                fo_wall.as_secs_f64() * 1e3,
                cmp_wall.as_secs_f64() * 1e3,
            );
            let overhead = fo_ms / eng_ms.max(1e-9);
            println!(
                "   {op_name:>12}  engine={eng_ms:>8.3}ms  oracle={fo_ms:>8.3}ms  \
                 compare={cmp_ms:>8.3}ms  overhead={overhead:>6.2}x"
            );
            runs.push(Value::obj(vec![
                ("size", Value::Num(size as f64)),
                ("op", Value::Str(op_name.into())),
                ("engine_wall_ms", Value::Num(eng_ms)),
                ("oracle_wall_ms", Value::Num(fo_ms)),
                ("compare_wall_ms", Value::Num(cmp_ms)),
                ("screen_wall_ms", Value::Num(screen_ms)),
                ("overhead", Value::Num(overhead)),
                ("sym_diff_area", Value::Num(diff.sym_diff_area)),
                ("within_tolerance", Value::Bool(true)),
            ]));
        }
    }

    let doc = Value::obj(vec![
        ("bench", Value::Str("oracle".into())),
        ("engine", Value::Str("scanbeam-slabindex-p4".into())),
        ("oracle", Value::Str("foster-overfelt".into())),
        ("rel_tol", Value::Num(ORACLE_REL_TOL)),
        ("reps", Value::Num(reps as f64)),
        (
            "sizes",
            Value::Arr(sizes.iter().map(|&s| Value::Num(s as f64)).collect()),
        ),
        ("runs", Value::Arr(runs)),
    ]);
    exit_after_artifact(write_artifact(&out_path, &doc))
}
