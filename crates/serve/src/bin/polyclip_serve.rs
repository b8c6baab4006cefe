//! The clip server: builds prepared layers from the synthetic generators,
//! binds a TCP port, and serves line-delimited JSON clip requests until a
//! client sends the `shutdown` verb (or the process is killed).
//!
//! ```sh
//! cargo run --release -p polyclip-serve --bin polyclip_serve -- --addr 127.0.0.1:0
//! ```
//!
//! The first stdout line is `LISTENING <addr>` — scrape it to learn the
//! ephemeral port. Two layers are registered:
//!
//! * `gis` — the flattened Table III GIS layer (hundreds of small
//!   contours; the base-map regime [`PreparedLayer`] targets);
//! * `blob` — one giant smooth blob (dense, slab skipping can't help).
//!
//! Fault flags (`--fault-*`) require building with
//! `--features fault-injection`; without it they are rejected rather than
//! silently ignored — a resilience drill that silently doesn't drill is
//! worse than none.

use polyclip::datagen::synthetic_pair;
use polyclip::prelude::*;
use polyclip_bench::flatten_layer;
use polyclip_serve::faults::ServeFaultPlan;
use polyclip_serve::server::{ServeConfig, Server};
use std::io::Write as _;
use std::sync::Arc;

struct Args {
    addr: String,
    workers: usize,
    queue_cap: usize,
    cache_cap: usize,
    slabs: usize,
    scale: f64,
    n: usize,
    faults: ServeFaultPlan,
}

fn parse_args() -> Args {
    let mut a = Args {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        queue_cap: 64,
        cache_cap: 256,
        slabs: 1,
        scale: 0.01,
        n: 10_000,
        faults: ServeFaultPlan::default(),
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    let mut fault_flag_seen = false;
    while let Some(flag) = it.next() {
        let mut num = |what: &str| -> f64 {
            it.next()
                .unwrap_or_else(|| panic!("{what} needs a value"))
                .parse()
                .unwrap_or_else(|e| panic!("{what}: {e}"))
        };
        match flag.as_str() {
            "--addr" => a.addr = it.next().expect("--addr needs a value").clone(),
            "--workers" => a.workers = num("--workers") as usize,
            "--queue-cap" => a.queue_cap = num("--queue-cap") as usize,
            "--cache-cap" => a.cache_cap = num("--cache-cap") as usize,
            "--slabs" => a.slabs = num("--slabs") as usize,
            "--scale" => a.scale = num("--scale"),
            "--n" => a.n = num("--n") as usize,
            "--fault-kill-after" => {
                a.faults.kill_after_jobs = Some(num("--fault-kill-after") as u64);
                fault_flag_seen = true;
            }
            "--fault-kill-count" => {
                a.faults.kill_count = num("--fault-kill-count") as u64;
                fault_flag_seen = true;
            }
            "--fault-stall-ms" => {
                a.faults.stall_pull_ms = num("--fault-stall-ms") as u64;
                fault_flag_seen = true;
            }
            "--fault-stall-pulls" => {
                a.faults.stall_pulls = num("--fault-stall-pulls") as u64;
                fault_flag_seen = true;
            }
            "--fault-corrupt-every" => {
                a.faults.corrupt_deadline_every = Some(num("--fault-corrupt-every") as u64);
                fault_flag_seen = true;
            }
            other => panic!("unknown flag {other}"),
        }
    }
    if fault_flag_seen && !cfg!(feature = "fault-injection") {
        panic!(
            "--fault-* flags need a build with --features fault-injection; \
             refusing to run a drill that cannot drill"
        );
    }
    a
}

fn main() {
    let args = parse_args();

    // Build the layers before binding: a server that accepts connections
    // must be ready to serve them.
    let opts = ClipOptions::sequential();
    let gis_set = flatten_layer(1, args.scale, 1007);
    let gis = PreparedLayer::build(&gis_set, &opts).expect("gis layer build failed");
    let (blob_set, _) = synthetic_pair(args.n, 42);
    let blob = PreparedLayer::build(&blob_set, &opts).expect("blob layer build failed");
    eprintln!(
        "layers ready: gis {} contours / {} events, blob {} vertices / {} events",
        gis.subject().len(),
        gis.event_count(),
        blob.subject().vertex_count(),
        blob.event_count()
    );

    let cfg = ServeConfig {
        workers: args.workers,
        queue_capacity: args.queue_cap,
        cache_capacity: args.cache_cap,
        slabs: args.slabs,
        faults: args.faults,
        ..ServeConfig::default()
    };
    let layers: Vec<(String, Arc<PreparedLayer>)> =
        vec![("gis".into(), gis), ("blob".into(), blob)];
    let server = Server::start(cfg, layers, &args.addr).expect("bind failed");

    // The contract line CI and loadgen scrape; flush so pipes see it now.
    println!("LISTENING {}", server.local_addr());
    std::io::stdout().flush().expect("stdout flush");

    server.wait();
    eprintln!("server drained and stopped");
}
