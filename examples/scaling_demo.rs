//! Scaling demo: Algorithm 2's slab decomposition on one machine.
//!
//! Sweeps the slab count for a fixed synthetic polygon pair (the paper's
//! Figure 8 setup) and reports measured wall time next to
//! `PhaseTimes::projected_wall(p)`, a projection from the run's measured
//! phases of what p cores would achieve. The default plan runs its cells on
//! the calling thread, so the measured time gains only from the smaller
//! cells, while the projection also shows what the cores would add.
//!
//! ```sh
//! cargo run --release --example scaling_demo [n_edges]
//! ```

use polyclip::datagen::synthetic_pair;
use polyclip::prelude::*;
use std::time::Instant;

fn main() {
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(40_000);

    let (a, b) = synthetic_pair(n, 42);
    println!("two synthetic polygons with {n} edges each\n");

    // Sequential baseline (our GPC-equivalent).
    let t0 = Instant::now();
    let (base, stats) = clip_with_stats(&a, &b, BoolOp::Intersection, &ClipOptions::sequential());
    let t_seq = t0.elapsed();
    println!(
        "sequential engine: {t_seq:.2?}   (k = {}, k' = {}, {} output vertices)\n",
        stats.k_intersections, stats.k_prime, stats.out_vertices
    );

    println!(
        "{:>6} {:>12} {:>14} {:>12} {:>10}",
        "slabs", "measured", "projected", "proj-speedup", "imbalance"
    );
    for slabs in [1usize, 2, 4, 8, 16, 32, 64] {
        let t1 = Instant::now();
        let r = clip_pair_slabs(
            &a,
            &b,
            BoolOp::Intersection,
            slabs,
            &ClipOptions::sequential(),
        );
        let measured = t1.elapsed();
        let projected = r.times.projected_wall(slabs);
        let speedup = t_seq.as_secs_f64() / projected.as_secs_f64().max(1e-9);
        println!(
            "{:>6} {:>12.2?} {:>14.2?} {:>11.2}x {:>10.2}",
            r.slabs,
            measured,
            projected,
            speedup,
            r.times.load_imbalance()
        );

        // Outputs agree with the plain engine for every slab count.
        let delta = (eo_area(&r.output) - eo_area(&base)).abs();
        assert!(delta < 1e-6 * eo_area(&base).max(1.0), "area drift {delta}");
    }
    println!("\n(the default plan runs its cells on one thread, so the measured gain");
    println!(" comes from smaller cells, not cores; the projection is what p cores");
    println!(" would realize — the paper's Figure 8 shape)");
}
