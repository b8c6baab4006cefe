//! Open-loop load generator for `polyclip_serve`, emitting the
//! `BENCH_serve.json` artifact.
//!
//! ```sh
//! cargo run --release -p polyclip-serve --bin loadgen -- --spawn           # full run
//! cargo run --release -p polyclip-serve --bin loadgen -- --spawn --smoke   # CI smoke
//! cargo run --release -p polyclip-serve --bin loadgen -- --addr HOST:PORT  # external server
//! ```
//!
//! **Open loop**: arrivals follow a Poisson process at the offered rate
//! regardless of how the server is coping — the generator never waits for
//! a response before sending the next request. That is the arrival model
//! under which overload actually happens; a closed-loop client would
//! politely self-throttle and hide saturation.
//!
//! The run calibrates mean service time with a short closed-loop burst,
//! then drives three load points at ×0.5, ×1 and ×2.5 the estimated
//! capacity. Each point records `saturated` (`rejected > 0`), but the run
//! does not require it: the calibration is the mean of closed-loop round
//! trips, wire included, so the ×2.5 point may shed only a sliver of its
//! requests or none. What the run does require is that every request is
//! answered: after writing the artifact it exits non-zero if any point
//! lost a reply (`lost > 0`), and the artifact stays on disk for
//! inspection.
//!
//! Traffic mix per request, deterministically seeded: priority 20% high /
//! 60% normal / 20% low; deadline 5× / 20× / 100× mean service time;
//! queries drawn from a 32-box pool over the layer's bbox (repeats are
//! what exercises the result cache).

use polyclip::prelude::*;
use polyclip_bench::json::Value;
use polyclip_bench::{exit_after_artifact, flatten_layer, write_artifact};
use polyclip_serve::protocol::{render_clip_request, Priority};
use polyclip_serve::server::{ServeConfig, Server};
use rand::prelude::*;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

struct Args {
    addr: Option<String>,
    spawn: bool,
    smoke: bool,
    out: String,
    duration_ms: u64,
    workers: usize,
    queue_cap: usize,
    seed: u64,
}

fn parse_args() -> Args {
    let mut a = Args {
        addr: None,
        spawn: false,
        smoke: false,
        out: "BENCH_serve.json".to_string(),
        duration_ms: 2_000,
        workers: 2,
        queue_cap: 64,
        seed: 7,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut num = |what: &str| -> f64 {
            it.next()
                .unwrap_or_else(|| panic!("{what} needs a value"))
                .parse()
                .unwrap_or_else(|e| panic!("{what}: {e}"))
        };
        match flag.as_str() {
            "--addr" => a.addr = Some(it.next().expect("--addr needs a value").clone()),
            "--spawn" => a.spawn = true,
            "--smoke" => {
                a.smoke = true;
                a.duration_ms = 400;
            }
            "--out" => a.out = it.next().expect("--out needs a value").clone(),
            "--duration-ms" => a.duration_ms = num("--duration-ms") as u64,
            "--workers" => a.workers = num("--workers") as usize,
            "--queue-cap" => a.queue_cap = num("--queue-cap") as usize,
            "--seed" => a.seed = num("--seed") as u64,
            other => panic!("unknown flag {other}"),
        }
    }
    if a.addr.is_none() && !a.spawn {
        a.spawn = true; // no target given: self-host
    }
    a
}

/// Everything the reader thread learns about responses, shared with the
/// sender. Counters are cumulative; per-load-point numbers are deltas.
#[derive(Default)]
struct Collector {
    pending: Mutex<HashMap<u64, Instant>>,
    latencies_ms: Mutex<Vec<f64>>,
    ok: AtomicU64,
    cache_hits: AtomicU64,
    partial: AtomicU64,
    retried: AtomicU64,
    rejected: AtomicU64,
    rejected_shed: AtomicU64,
    errors: AtomicU64,
    admin: Mutex<HashMap<u64, Value>>,
}

impl Collector {
    fn absorb(&self, line: &str) {
        let Ok(doc) = Value::parse(line.trim_end()) else {
            self.errors.fetch_add(1, Ordering::Relaxed);
            return;
        };
        let id = doc.get("id").and_then(|v| v.as_f64()).unwrap_or(0.0) as u64;
        let sent_at = self.pending.lock().unwrap().remove(&id);
        match doc.get("status").and_then(|v| v.as_str()) {
            // Clip responses always carry queue_ms; admin responses never
            // do — that is the discriminator, not field names that might
            // collide.
            Some("ok") if doc.get("queue_ms").is_some() => {
                self.ok.fetch_add(1, Ordering::Relaxed);
                if doc.get("cache_hit").and_then(|v| v.as_bool()) == Some(true) {
                    self.cache_hits.fetch_add(1, Ordering::Relaxed);
                }
                if doc.get("partial").and_then(|v| v.as_bool()) == Some(true) {
                    self.partial.fetch_add(1, Ordering::Relaxed);
                }
                if doc.get("retried").and_then(|v| v.as_bool()) == Some(true) {
                    self.retried.fetch_add(1, Ordering::Relaxed);
                }
                if let Some(t0) = sent_at {
                    self.latencies_ms
                        .lock()
                        .unwrap()
                        .push(t0.elapsed().as_secs_f64() * 1e3);
                }
            }
            Some("ok") => {
                // Admin response (stats/info/shutdown): park for the rpc
                // waiter.
                self.admin.lock().unwrap().insert(id, doc);
            }
            Some("rejected") => {
                self.rejected.fetch_add(1, Ordering::Relaxed);
                if doc.get("reason").and_then(|v| v.as_str()) == Some("shed") {
                    self.rejected_shed.fetch_add(1, Ordering::Relaxed);
                }
            }
            _ => {
                self.errors.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    fn snapshot(&self) -> [u64; 7] {
        [
            self.ok.load(Ordering::Relaxed),
            self.cache_hits.load(Ordering::Relaxed),
            self.partial.load(Ordering::Relaxed),
            self.retried.load(Ordering::Relaxed),
            self.rejected.load(Ordering::Relaxed),
            self.rejected_shed.load(Ordering::Relaxed),
            self.errors.load(Ordering::Relaxed),
        ]
    }
}

struct Client {
    stream: Mutex<TcpStream>,
    collector: Arc<Collector>,
    next_id: AtomicU64,
}

impl Client {
    fn connect(addr: &str, collector: Arc<Collector>, stop: Arc<AtomicBool>) -> Client {
        let stream = TcpStream::connect(addr).expect("connect to server");
        stream.set_nodelay(true).ok();
        let read_half = stream.try_clone().expect("clone stream");
        {
            let collector = Arc::clone(&collector);
            read_half
                .set_read_timeout(Some(Duration::from_millis(100)))
                .expect("set read timeout");
            std::thread::spawn(move || {
                let mut reader = BufReader::new(read_half);
                let mut line = String::new();
                loop {
                    match reader.read_line(&mut line) {
                        Ok(0) => return,
                        Ok(_) => {
                            collector.absorb(&line);
                            line.clear();
                        }
                        // Timeout: a partial line may already sit in the
                        // buffer — keep it and let the next read finish it.
                        Err(_) => {
                            if stop.load(Ordering::Relaxed) {
                                return;
                            }
                        }
                    }
                }
            });
        }
        Client {
            stream: Mutex::new(stream),
            collector,
            next_id: AtomicU64::new(1_000),
        }
    }

    fn send_raw(&self, line: &str) {
        self.stream
            .lock()
            .unwrap()
            .write_all(line.as_bytes())
            .expect("send request");
    }

    fn send_clip(&self, spec: &RequestSpec) -> u64 {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let line = render_clip_request(
            id,
            BoolOp::Intersection,
            "gis",
            spec.priority,
            spec.deadline_ms,
            &spec.query,
        );
        self.collector
            .pending
            .lock()
            .unwrap()
            .insert(id, Instant::now());
        self.send_raw(&line);
        id
    }

    /// Blocking admin round-trip (stats / info / shutdown).
    fn rpc(&self, op: &str, layer: Option<&str>) -> Value {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let mut kv = vec![("id", Value::Num(id as f64)), ("op", Value::Str(op.into()))];
        if let Some(layer) = layer {
            kv.push(("layer", Value::Str(layer.into())));
        }
        let mut line = Value::obj(kv).render_compact();
        line.push('\n');
        self.send_raw(&line);
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            if let Some(doc) = self.collector.admin.lock().unwrap().remove(&id) {
                return doc;
            }
            assert!(Instant::now() < deadline, "admin rpc \"{op}\" timed out");
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// Wait until no sent request is unanswered (or the grace expires).
    fn drain(&self, grace: Duration) -> usize {
        let deadline = Instant::now() + grace;
        loop {
            let outstanding = self.collector.pending.lock().unwrap().len();
            if outstanding == 0 || Instant::now() >= deadline {
                // Whatever is still pending after the grace is lost;
                // forget it so the next load point starts clean.
                self.collector.pending.lock().unwrap().clear();
                return outstanding;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

struct RequestSpec {
    priority: Priority,
    deadline_ms: Option<f64>,
    query: Vec<(f64, f64)>,
}

/// The deterministic traffic model: query mix, priority mix, deadline
/// distribution. 30% of requests re-draw from a small hot pool (the
/// cache-hittable fraction); the rest are fresh boxes the server has
/// never seen, so most of the offered load does real engine work — a
/// pool small enough to live in cache would make "saturation" a no-op.
struct TrafficModel {
    hot_pool: Vec<Vec<(f64, f64)>>,
    bbox: (f64, f64, f64, f64),
    mean_service_ms: f64,
    rng: StdRng,
}

impl TrafficModel {
    fn new(bbox: (f64, f64, f64, f64), seed: u64) -> TrafficModel {
        let mut model = TrafficModel {
            hot_pool: Vec::new(),
            bbox,
            mean_service_ms: 1.0,
            rng: StdRng::seed_from_u64(seed),
        };
        model.hot_pool = (0..16).map(|_| model_box(&mut model)).collect();
        model
    }

    /// A fresh query box the server cannot have cached.
    fn fresh_box(&mut self) -> Vec<(f64, f64)> {
        model_box(self)
    }

    fn draw(&mut self) -> RequestSpec {
        let query = if self.rng.gen_bool(0.3) {
            let i = self.rng.gen_range(0..self.hot_pool.len());
            self.hot_pool[i].clone()
        } else {
            self.fresh_box()
        };
        let priority = match self.rng.gen_range(0.0..1.0) {
            p if p < 0.2 => Priority::High,
            p if p < 0.8 => Priority::Normal,
            _ => Priority::Low,
        };
        let mult = match self.rng.gen_range(0.0..1.0) {
            p if p < 0.3 => 5.0,
            p if p < 0.7 => 20.0,
            _ => 100.0,
        };
        RequestSpec {
            priority,
            deadline_ms: Some((self.mean_service_ms * mult).max(1.0)),
            query,
        }
    }

    /// Exponential interarrival gap for an offered rate (per second).
    fn gap(&mut self, rate_per_s: f64) -> Duration {
        let u: f64 = self.rng.gen_range(f64::EPSILON..1.0);
        Duration::from_secs_f64((-u.ln()) / rate_per_s)
    }
}

/// One random axis-aligned query box: 2–8% of the layer span per side.
fn model_box(m: &mut TrafficModel) -> Vec<(f64, f64)> {
    let (xmin, ymin, xmax, ymax) = m.bbox;
    let (w, h) = (xmax - xmin, ymax - ymin);
    let frac = m.rng.gen_range(0.02..0.08);
    let (qw, qh) = (w * frac, h * frac);
    let x0 = xmin + m.rng.gen_range(0.0..1.0) * (w - qw);
    let y0 = ymin + m.rng.gen_range(0.0..1.0) * (h - qh);
    vec![(x0, y0), (x0 + qw, y0), (x0 + qw, y0 + qh), (x0, y0 + qh)]
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn main() -> ExitCode {
    let args = parse_args();

    // Self-hosted mode: an in-process server on an ephemeral port — the
    // traffic still crosses a real TCP socket.
    let server = if args.spawn {
        let scale = if args.smoke { 0.002 } else { 0.01 };
        let gis = flatten_layer(1, scale, 1007);
        let layer = PreparedLayer::build(&gis, &ClipOptions::sequential()).expect("layer build");
        let cfg = ServeConfig {
            workers: args.workers,
            queue_capacity: args.queue_cap,
            ..ServeConfig::default()
        };
        Some(Server::start(cfg, vec![("gis".into(), layer)], "127.0.0.1:0").expect("spawn server"))
    } else {
        None
    };
    let addr = match (&server, &args.addr) {
        (Some(s), _) => s.local_addr().to_string(),
        (None, Some(a)) => a.clone(),
        (None, None) => unreachable!(),
    };
    println!("driving {addr}");

    let collector = Arc::new(Collector::default());
    let stop = Arc::new(AtomicBool::new(false));
    let client = Client::connect(&addr, Arc::clone(&collector), Arc::clone(&stop));

    // Layer geometry, without out-of-band knowledge of the dataset.
    let info = client.rpc("info", Some("gis"));
    let f = |k: &str| info.get(k).and_then(|v| v.as_f64()).expect("info field");
    let mut model = TrafficModel::new((f("xmin"), f("ymin"), f("xmax"), f("ymax")), args.seed);

    // Closed-loop calibration: mean service time → capacity estimate.
    let calib_n = 24;
    for _ in 0..calib_n {
        // Fresh boxes with no deadline: calibration must measure the
        // engine's miss path, not the cache, and must not be shed.
        let spec = RequestSpec {
            priority: Priority::Normal,
            deadline_ms: None,
            query: model.fresh_box(),
        };
        client.send_clip(&spec);
        client.drain(Duration::from_secs(10));
    }
    let calib: Vec<f64> = std::mem::take(&mut *collector.latencies_ms.lock().unwrap());
    assert!(
        calib.len() >= calib_n / 2,
        "calibration got {} answers for {calib_n} requests",
        calib.len()
    );
    let mean_ms = calib.iter().sum::<f64>() / calib.len() as f64;
    model.mean_service_ms = mean_ms.max(0.05);
    let capacity_qps = args.workers as f64 / (model.mean_service_ms / 1e3);
    println!(
        "calibration: mean service {:.3}ms → est. capacity {:.0} QPS ({} workers)",
        model.mean_service_ms, capacity_qps, args.workers
    );

    // Three load points: comfortable, at capacity, past saturation.
    let multipliers = [0.5, 1.0, 2.5];
    let duration = Duration::from_millis(args.duration_ms);
    let mut points: Vec<Value> = Vec::new();
    let mut lossy: Vec<f64> = Vec::new();
    for &m in &multipliers {
        let rate = (capacity_qps * m).clamp(5.0, 50_000.0);
        let before = collector.snapshot();
        let stats_before = client.rpc("stats", None);
        collector.latencies_ms.lock().unwrap().clear();

        let t0 = Instant::now();
        let mut sent = 0u64;
        let mut next = t0;
        while t0.elapsed() < duration {
            let now = Instant::now();
            if now < next {
                std::thread::sleep(next - now);
                continue;
            }
            let spec = model.draw();
            client.send_clip(&spec);
            sent += 1;
            next += model.gap(rate);
        }
        let lost = client.drain(Duration::from_secs(3));
        if lost > 0 {
            lossy.push(m);
        }
        let elapsed = t0.elapsed().as_secs_f64();

        let after = collector.snapshot();
        let stats_after = client.rpc("stats", None);
        let d = |i: usize| (after[i] - before[i]) as f64;
        let sd = |k: &str| {
            stats_after.get(k).and_then(|v| v.as_f64()).unwrap_or(0.0)
                - stats_before.get(k).and_then(|v| v.as_f64()).unwrap_or(0.0)
        };
        let mut lat = collector.latencies_ms.lock().unwrap().clone();
        lat.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let (ok, rejected) = (d(0), d(4));
        let shed_rate = rejected / (sent as f64).max(1.0);
        println!(
            "load ×{m:<4} offered {:.0} QPS: sent {sent}, ok {ok:.0}, rejected {rejected:.0} \
             (shed rate {:.2}), p50 {:.2}ms, p99 {:.2}ms, cache hits {:.0}, partial {:.0}, lost {lost}",
            sent as f64 / elapsed,
            shed_rate,
            percentile(&lat, 0.50),
            percentile(&lat, 0.99),
            d(1),
            d(2),
        );
        points.push(Value::obj(vec![
            ("multiplier", Value::Num(m)),
            ("target_qps", Value::Num(rate)),
            ("offered_qps", Value::Num(sent as f64 / elapsed)),
            ("duration_s", Value::Num(elapsed)),
            ("sent", Value::Num(sent as f64)),
            ("ok", Value::Num(ok)),
            ("throughput_qps", Value::Num(ok / elapsed)),
            ("rejected", Value::Num(rejected)),
            ("rejected_shed", Value::Num(d(5))),
            ("shed_rate", Value::Num(shed_rate)),
            ("errors", Value::Num(d(6))),
            ("lost", Value::Num(lost as f64)),
            ("partial", Value::Num(d(2))),
            ("partial_rate", Value::Num(d(2) / (sent as f64).max(1.0))),
            ("retried", Value::Num(d(3))),
            ("cache_hits", Value::Num(d(1))),
            ("cache_hit_rate", Value::Num(d(1) / ok.max(1.0))),
            ("p50_ms", Value::Num(percentile(&lat, 0.50))),
            ("p90_ms", Value::Num(percentile(&lat, 0.90))),
            ("p99_ms", Value::Num(percentile(&lat, 0.99))),
            (
                "max_ms",
                Value::Num(lat.last().copied().unwrap_or(f64::NAN)),
            ),
            ("saturated", Value::Bool(rejected > 0.0)),
            ("server_doomed_dropped", Value::Num(sd("doomed_dropped"))),
            ("server_degrade_max", {
                Value::Num(
                    stats_after
                        .get("degrade_max")
                        .and_then(|v| v.as_f64())
                        .unwrap_or(0.0),
                )
            }),
            ("server_worker_respawns", Value::Num(sd("worker_respawns"))),
        ]));
    }

    let final_stats = client.rpc("stats", None);
    if let Some(s) = server.as_ref() {
        client.rpc("shutdown", None);
        s.wait();
    }
    stop.store(true, Ordering::Relaxed);

    let doc = Value::obj(vec![
        ("bench", Value::Str("serve_loadgen".into())),
        ("layer", Value::Str("gis".into())),
        ("op", Value::Str("intersection".into())),
        ("workers", Value::Num(args.workers as f64)),
        ("queue_capacity", Value::Num(args.queue_cap as f64)),
        ("seed", Value::Num(args.seed as f64)),
        ("smoke", Value::Bool(args.smoke)),
        ("calibration_mean_ms", Value::Num(model.mean_service_ms)),
        ("est_capacity_qps", Value::Num(capacity_qps)),
        ("load_points", Value::Arr(points)),
        ("server_stats", final_stats),
    ]);
    let written = write_artifact(&args.out, &doc);
    if written.is_ok() && !lossy.is_empty() {
        eprintln!(
            "loadgen: replies lost at load point(s) ×{lossy:?}; see {}",
            args.out
        );
        return ExitCode::FAILURE;
    }
    exit_after_artifact(written)
}
