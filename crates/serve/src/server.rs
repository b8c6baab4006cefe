//! The service executor: a TCP listener, per-connection reader threads,
//! and a hand-rolled worker pool draining the admission queue.
//!
//! Request lifecycle:
//!
//! ```text
//! reader thread                     worker pool
//! ─────────────                     ───────────
//! parse line
//! ├─ admin verb → answer inline
//! └─ clip:
//!    degradation ladder (shed?)
//!    circuit breaker (open?)
//!    admission queue (full? doomed?)──▶ pop (priority order)
//!                                      drop if deadline already passed
//!                                      cache begin (hit / lead / coalesce)
//!                                      execute under remaining budget
//!                                      ├─ ok → respond, cache, EWMA
//!                                      └─ err → retry once on a
//!                                         tightened budget, partials
//!                                         allowed → respond / error
//! ```
//!
//! Worker panics are contained per thread: the worker catches the unwind,
//! bumps a respawn counter, and re-enters its loop — the [`Flight`](crate::cache::Flight)
//! (single-flight) guard abandons any computation the panic interrupted,
//! so coalesced followers are never stranded. Graceful shutdown closes the
//! queue, drains what was admitted, and joins every pool thread.

use crate::admission::{AdmissionQueue, ServiceEstimator};
use crate::breaker::{BreakerDecision, CircuitBreaker};
use crate::cache::{hash_coords, CachedClip, Lookup, QueryKey, ResultCache};
use crate::degrade::{DegradeLadder, DegradeLevel};
use crate::faults::{FaultState, ServeFaultPlan};
use crate::protocol::{parse_request, ClipRequest, Priority, RejectReason, Request, Response};
use polyclip::prelude::*;
use polyclip_bench::json::Value;
use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Stable wire discriminant for a [`BoolOp`] (cache and EWMA key).
pub fn op_code(op: BoolOp) -> u8 {
    match op {
        BoolOp::Intersection => 0,
        BoolOp::Union => 1,
        BoolOp::Difference => 2,
        BoolOp::Xor => 3,
    }
}

/// Server tuning knobs. The defaults suit the integration tests; the bins
/// expose the interesting ones as flags.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Worker threads draining the queue.
    pub workers: usize,
    /// Admission-queue capacity across all priority classes.
    pub queue_capacity: usize,
    /// Result-cache capacity (entries).
    pub cache_capacity: usize,
    /// Slabs per clip. The pool's parallelism is across requests, so the
    /// default keeps each request single-slab.
    pub slabs: usize,
    /// Engine options template for every request (degradation rungs edit a
    /// per-request copy). `validate_output` starts on so ladder level 1
    /// has a real cost to shed.
    pub base_opts: ClipOptions,
    /// Degradation watermarks.
    pub ladder: DegradeLadder,
    /// Consecutive failures that trip a layer's breaker.
    pub breaker_threshold: u32,
    /// Base breaker cooldown (doubles per re-trip, capped at 32×).
    pub breaker_cooldown: Duration,
    /// EWMA prior for unseen (layer, op) service times.
    pub estimator_prior: Duration,
    /// Deterministic serve-layer faults (inert without `fault-injection`).
    pub faults: ServeFaultPlan,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 2,
            queue_capacity: 64,
            cache_capacity: 256,
            slabs: 1,
            base_opts: ClipOptions {
                validate_output: true,
                ..ClipOptions::sequential()
            },
            ladder: DegradeLadder::default(),
            breaker_threshold: 3,
            breaker_cooldown: Duration::from_millis(100),
            estimator_prior: Duration::from_millis(2),
            faults: ServeFaultPlan::default(),
        }
    }
}

/// Cumulative service counters, all monotone, all lock-free reads.
#[derive(Default)]
pub struct ServerStats {
    /// Clip requests parsed off the wire.
    pub received: AtomicU64,
    /// Clip requests admitted to the queue.
    pub accepted: AtomicU64,
    /// Rejections, by reason.
    pub rejected_queue_full: AtomicU64,
    /// Rejected because the EWMA said the deadline was unmeetable.
    pub rejected_deadline: AtomicU64,
    /// Rejected by an open circuit breaker.
    pub rejected_breaker: AtomicU64,
    /// Shed (lowest priority under ladder level 3).
    pub rejected_shed: AtomicU64,
    /// Admitted but dropped unstarted at dequeue: deadline had passed.
    pub doomed_dropped: AtomicU64,
    /// Completed successfully (includes partial and retried successes).
    pub completed_ok: AtomicU64,
    /// Of the completed: carried a partial (salvaged-slab) result.
    pub completed_partial: AtomicU64,
    /// Of the completed: needed the tightened-budget retry.
    pub completed_retried: AtomicU64,
    /// Failed after the full retry ladder.
    pub failed: AtomicU64,
    /// Retry attempts launched.
    pub retries: AtomicU64,
    /// Worker panics contained and respawned.
    pub worker_respawns: AtomicU64,
    /// Malformed request lines answered with protocol errors.
    pub protocol_errors: AtomicU64,
    /// Highest degradation ladder level observed.
    pub degrade_max: AtomicU64,
}

impl ServerStats {
    fn note_level(&self, level: DegradeLevel) {
        self.degrade_max
            .fetch_max(level.as_u8() as u64, Ordering::Relaxed);
    }
}

struct RegisteredLayer {
    layer: Arc<PreparedLayer>,
    epoch: u64,
    breaker: CircuitBreaker,
}

struct Job {
    req: ClipRequest,
    out: Arc<ConnWriter>,
    /// Set by the deadline-corruption fault: treat as expired at dequeue.
    doomed: bool,
}

struct ConnWriter {
    stream: Mutex<TcpStream>,
}

impl ConnWriter {
    fn send(&self, resp: &Response) {
        let line = resp.to_line();
        // A vanished client is its own problem; the server moves on.
        let _ = self.stream.lock().unwrap().write_all(line.as_bytes());
    }
}

struct ServerInner {
    cfg: ServeConfig,
    layers: HashMap<String, RegisteredLayer>,
    queue: AdmissionQueue<Job>,
    estimator: ServiceEstimator,
    cache: Arc<ResultCache>,
    stats: ServerStats,
    fault_state: FaultState,
    shutdown: AtomicBool,
    local_addr: SocketAddr,
}

/// A running server. Dropping the handle does **not** stop it; call
/// [`Server::shutdown`] then [`Server::wait`].
pub struct Server {
    inner: Arc<ServerInner>,
    threads: Mutex<Vec<JoinHandle<()>>>,
}

impl Server {
    /// Bind `addr` (use port 0 for an ephemeral port), register `layers`,
    /// and start the accept loop plus the worker pool.
    pub fn start(
        cfg: ServeConfig,
        layers: Vec<(String, Arc<PreparedLayer>)>,
        addr: &str,
    ) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let queue = AdmissionQueue::new(cfg.queue_capacity, cfg.workers);
        let layers = layers
            .into_iter()
            .enumerate()
            .map(|(i, (name, layer))| {
                let entry = RegisteredLayer {
                    layer,
                    epoch: i as u64 + 1,
                    breaker: CircuitBreaker::new(
                        cfg.breaker_threshold,
                        cfg.breaker_cooldown,
                        cfg.breaker_cooldown * 32,
                    ),
                };
                (name, entry)
            })
            .collect();
        let inner = Arc::new(ServerInner {
            estimator: ServiceEstimator::new(cfg.estimator_prior, 0.2),
            cache: ResultCache::new(cfg.cache_capacity),
            queue,
            cfg,
            layers,
            stats: ServerStats::default(),
            fault_state: FaultState::default(),
            shutdown: AtomicBool::new(false),
            local_addr,
        });

        let mut threads = Vec::new();
        for w in 0..inner.cfg.workers {
            let inner = Arc::clone(&inner);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("clip-worker-{w}"))
                    .spawn(move || worker_thread(&inner))?,
            );
        }
        {
            let inner = Arc::clone(&inner);
            threads.push(
                std::thread::Builder::new()
                    .name("clip-accept".into())
                    .spawn(move || accept_loop(&inner, listener))?,
            );
        }
        Ok(Server {
            inner,
            threads: Mutex::new(threads),
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.inner.local_addr
    }

    /// Begin graceful shutdown: stop accepting, drain the queue.
    pub fn shutdown(&self) {
        self.inner.begin_shutdown();
    }

    /// Join the accept loop and every worker (call after [`shutdown`],
    /// or after a client sent the `shutdown` verb).
    ///
    /// [`shutdown`]: Server::shutdown
    pub fn wait(&self) {
        let threads: Vec<_> = self.threads.lock().unwrap().drain(..).collect();
        for t in threads {
            let _ = t.join();
        }
    }

    /// Counter snapshot (exposed for tests; the wire gets the same data
    /// via the `stats` verb).
    pub fn stats(&self) -> &ServerStats {
        &self.inner.stats
    }

    /// (hits, coalesced, misses) of the result cache.
    pub fn cache_counters(&self) -> (u64, u64, u64) {
        self.inner.cache.counters()
    }
}

impl ServerInner {
    fn begin_shutdown(&self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        self.queue.close();
        // Unblock the accept loop with a no-op connection.
        let _ = TcpStream::connect(self.local_addr);
    }

    fn stats_doc(&self) -> Value {
        let s = &self.stats;
        let (hits, coalesced, misses) = self.cache.counters();
        let n = |a: &AtomicU64| Value::Num(a.load(Ordering::Relaxed) as f64);
        Value::obj(vec![
            ("received", n(&s.received)),
            ("accepted", n(&s.accepted)),
            ("rejected_queue_full", n(&s.rejected_queue_full)),
            ("rejected_deadline", n(&s.rejected_deadline)),
            ("rejected_breaker", n(&s.rejected_breaker)),
            ("rejected_shed", n(&s.rejected_shed)),
            ("doomed_dropped", n(&s.doomed_dropped)),
            ("completed_ok", n(&s.completed_ok)),
            ("completed_partial", n(&s.completed_partial)),
            ("completed_retried", n(&s.completed_retried)),
            ("failed", n(&s.failed)),
            ("retries", n(&s.retries)),
            ("worker_respawns", n(&s.worker_respawns)),
            ("protocol_errors", n(&s.protocol_errors)),
            ("degrade_max", n(&s.degrade_max)),
            ("cache_hits", Value::Num(hits as f64)),
            ("cache_coalesced", Value::Num(coalesced as f64)),
            ("cache_misses", Value::Num(misses as f64)),
            ("queue_depth", Value::Num(self.queue.depth() as f64)),
            ("faults_armed", Value::Bool(self.cfg.faults.any())),
        ])
    }
}

fn accept_loop(inner: &Arc<ServerInner>, listener: TcpListener) {
    for stream in listener.incoming() {
        if inner.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let inner = Arc::clone(inner);
        // Readers are detached: they exit when their client hangs up.
        let _ = std::thread::Builder::new()
            .name("clip-conn".into())
            .spawn(move || connection_loop(&inner, stream));
    }
}

fn connection_loop(inner: &Arc<ServerInner>, stream: TcpStream) {
    // Without TCP_NODELAY a reply written while the previous one is still
    // unacknowledged waits for the client's delayed ACK (up to 40 ms on
    // Linux). A failure to set it only costs latency, so it is ignored.
    let _ = stream.set_nodelay(true);
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let writer = Arc::new(ConnWriter {
        stream: Mutex::new(stream),
    });
    let mut reader = BufReader::new(read_half);
    let mut line = String::new();
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) | Err(_) => return, // client hung up
            Ok(_) => {}
        }
        if line.trim().is_empty() {
            continue;
        }
        match parse_request(&line) {
            Err(msg) => {
                inner.stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
                writer.send(&Response::Error {
                    id: 0,
                    message: msg,
                });
            }
            Ok(Request::Stats { id }) => {
                writer.send(&Response::Admin {
                    id,
                    doc: inner.stats_doc(),
                });
            }
            Ok(Request::Info { id, layer }) => match inner.layers.get(&layer) {
                None => writer.send(&Response::Error {
                    id,
                    message: format!("unknown layer \"{layer}\""),
                }),
                Some(entry) => {
                    let bb = entry.layer.bbox();
                    writer.send(&Response::Admin {
                        id,
                        doc: Value::obj(vec![
                            ("layer", Value::Str(layer)),
                            ("epoch", Value::Num(entry.epoch as f64)),
                            ("xmin", Value::Num(bb.xmin)),
                            ("ymin", Value::Num(bb.ymin)),
                            ("xmax", Value::Num(bb.xmax)),
                            ("ymax", Value::Num(bb.ymax)),
                            ("events", Value::Num(entry.layer.event_count() as f64)),
                            (
                                "layer_contours",
                                Value::Num(entry.layer.subject().len() as f64),
                            ),
                        ]),
                    });
                }
            },
            Ok(Request::Shutdown { id }) => {
                writer.send(&Response::Admin {
                    id,
                    doc: Value::obj(vec![("stopping", Value::Bool(true))]),
                });
                inner.begin_shutdown();
                return;
            }
            Ok(Request::Clip(req)) => admit_clip(inner, req, &writer),
        }
    }
}

/// The admission pipeline (reader thread): ladder shed → breaker → queue.
fn admit_clip(inner: &Arc<ServerInner>, req: ClipRequest, writer: &Arc<ConnWriter>) {
    let stats = &inner.stats;
    stats.received.fetch_add(1, Ordering::Relaxed);
    let id = req.id;
    let Some(layer) = inner.layers.get(&req.layer) else {
        writer.send(&Response::Error {
            id,
            message: format!("unknown layer \"{}\"", req.layer),
        });
        return;
    };
    let est = inner.estimator.estimate(&req.layer, op_code(req.op));

    let level = inner.cfg.ladder.level(inner.queue.fill_fraction());
    stats.note_level(level);
    if level.sheds_low_priority() && req.priority == Priority::Low {
        stats.rejected_shed.fetch_add(1, Ordering::Relaxed);
        writer.send(&Response::Rejected {
            id,
            reason: RejectReason::Shed,
            retry_after_ms: inner.queue.estimated_queue_delay(est).as_secs_f64() * 1e3,
        });
        return;
    }

    match layer.breaker.admit(Instant::now()) {
        BreakerDecision::Reject(after) => {
            stats.rejected_breaker.fetch_add(1, Ordering::Relaxed);
            writer.send(&Response::Rejected {
                id,
                reason: RejectReason::BreakerOpen,
                retry_after_ms: after.as_secs_f64() * 1e3,
            });
            return;
        }
        BreakerDecision::Allow | BreakerDecision::Probe => {}
    }

    let remaining = req.deadline_ms.map(|ms| Duration::from_secs_f64(ms / 1e3));
    let doomed = inner.fault_state.corrupts_deadline(&inner.cfg.faults);
    let priority = req.priority;
    let job = Job {
        req,
        out: Arc::clone(writer),
        doomed,
    };
    match inner.queue.try_admit(job, priority, remaining, est) {
        Ok(()) => {
            stats.accepted.fetch_add(1, Ordering::Relaxed);
        }
        Err((job, rej)) => {
            match rej.reason {
                RejectReason::QueueFull => &stats.rejected_queue_full,
                _ => &stats.rejected_deadline,
            }
            .fetch_add(1, Ordering::Relaxed);
            job.out.send(&Response::Rejected {
                id,
                reason: rej.reason,
                retry_after_ms: rej.retry_after.as_secs_f64() * 1e3,
            });
        }
    }
}

fn worker_thread(inner: &Arc<ServerInner>) {
    loop {
        let clean_exit = catch_unwind(AssertUnwindSafe(|| worker_loop(inner))).is_ok();
        if clean_exit {
            return; // queue closed and drained
        }
        inner.stats.worker_respawns.fetch_add(1, Ordering::Relaxed);
        if inner.shutdown.load(Ordering::SeqCst) && inner.queue.depth() == 0 {
            return;
        }
        // Respawn: the same OS thread re-enters the loop with fresh state.
    }
}

fn worker_loop(inner: &Arc<ServerInner>) {
    let mut jobs_done = 0u64;
    loop {
        inner.fault_state.maybe_stall_pull(&inner.cfg.faults);
        let Some(entry) = inner.queue.pop() else {
            return;
        };
        let queue_ms = entry.enqueued_at.elapsed().as_secs_f64() * 1e3;
        // A corrupted deadline expires "now": by the time process_job
        // re-reads the clock the job is already late.
        let expires_at = if entry.item.doomed {
            Some(Instant::now())
        } else {
            entry.expires_at
        };
        process_job(inner, entry.item, expires_at, queue_ms);
        jobs_done += 1;
        if inner
            .fault_state
            .should_kill_worker(&inner.cfg.faults, jobs_done)
        {
            panic!("fault-injection: worker killed after {jobs_done} jobs");
        }
    }
}

struct ExecOutcome {
    contours: usize,
    area: f64,
    partial: bool,
    retried: bool,
    degraded: Vec<String>,
    exec: Duration,
}

fn process_job(inner: &Arc<ServerInner>, job: Job, expires_at: Option<Instant>, queue_ms: f64) {
    let req = &job.req;
    let stats = &inner.stats;
    // Doomed work is dropped unstarted: running it can only make every
    // *other* deadline in the queue worse.
    if let Some(exp) = expires_at {
        if Instant::now() >= exp {
            stats.doomed_dropped.fetch_add(1, Ordering::Relaxed);
            job.out.send(&Response::Rejected {
                id: req.id,
                reason: RejectReason::DeadlineUnmeetable,
                retry_after_ms: 0.0,
            });
            return;
        }
    }
    let layer = &inner.layers[&req.layer];
    let key = QueryKey {
        epoch: layer.epoch,
        op: op_code(req.op),
        query_hash: hash_coords(
            req.query
                .contours()
                .iter()
                .flat_map(|c| c.points().iter().map(|p| (p.x, p.y))),
        ),
    };
    match inner.cache.begin(key) {
        Lookup::Hit(v, _waited) => {
            stats.completed_ok.fetch_add(1, Ordering::Relaxed);
            job.out.send(&Response::Ok {
                id: req.id,
                contours: v.contours,
                area: v.area,
                partial: false,
                cache_hit: true,
                retried: false,
                degraded: v.degraded,
                queue_ms,
                exec_ms: 0.0,
            });
        }
        Lookup::Lead(flight) => match execute(inner, layer, req, expires_at) {
            Ok(o) => {
                layer.breaker.on_success();
                if !o.partial && !o.retried {
                    inner.estimator.record(&req.layer, op_code(req.op), o.exec);
                    flight.complete(CachedClip {
                        contours: o.contours,
                        area: o.area,
                        degraded: o.degraded.clone(),
                    });
                } else {
                    // Overload-shaped answers must not outlive the
                    // overload that shaped them.
                    flight.abandon();
                }
                stats.completed_ok.fetch_add(1, Ordering::Relaxed);
                if o.partial {
                    stats.completed_partial.fetch_add(1, Ordering::Relaxed);
                }
                if o.retried {
                    stats.completed_retried.fetch_add(1, Ordering::Relaxed);
                }
                job.out.send(&Response::Ok {
                    id: req.id,
                    contours: o.contours,
                    area: o.area,
                    partial: o.partial,
                    cache_hit: false,
                    retried: o.retried,
                    degraded: o.degraded,
                    queue_ms,
                    exec_ms: o.exec.as_secs_f64() * 1e3,
                });
            }
            Err(message) => {
                flight.abandon();
                layer.breaker.on_failure(Instant::now());
                stats.failed.fetch_add(1, Ordering::Relaxed);
                job.out.send(&Response::Error {
                    id: req.id,
                    message,
                });
            }
        },
    }
}

/// Run the clip under the remaining budget; on failure, retry once on a
/// tightened budget with partial results allowed.
fn execute(
    inner: &Arc<ServerInner>,
    layer: &RegisteredLayer,
    req: &ClipRequest,
    expires_at: Option<Instant>,
) -> Result<ExecOutcome, String> {
    // The ladder level is re-read at execution time: load may have
    // changed while the job sat queued, and the level that matters is
    // the one the work runs under.
    let level = inner.cfg.ladder.level(inner.queue.fill_fraction());
    inner.stats.note_level(level);
    let mut opts = inner.cfg.base_opts.clone();
    level.apply(&mut opts);
    let now = Instant::now();
    if let Some(exp) = expires_at {
        opts.budget.deadline = Some(exp.saturating_duration_since(now));
    }
    opts.budget.arm_now();

    let attempt = |opts: &ClipOptions| -> Result<Algo2Result, String> {
        catch_unwind(AssertUnwindSafe(|| {
            try_clip_prepared(&layer.layer, &req.query, req.op, inner.cfg.slabs, opts)
        }))
        .map_err(|_| "engine panic escaped the slab ladder".to_string())?
        .map_err(|e| e.to_string())
    };

    let t0 = Instant::now();
    let first = attempt(&opts);
    let (res, retried) = match first {
        Ok(res) => (res, false),
        Err(first_err) => {
            layer.breaker.on_failure(Instant::now());
            inner.stats.retries.fetch_add(1, Ordering::Relaxed);
            // Retry on what's *left* of the deadline, scaled down so the
            // retry cannot immediately re-trip, with slab salvage on.
            let mut budget = opts.budget.tighten(0.5);
            budget.allow_partial = true;
            let retry_opts = ClipOptions {
                budget,
                validate_output: false,
                ..opts.clone()
            };
            match attempt(&retry_opts) {
                Ok(res) => (res, true),
                Err(second_err) => {
                    return Err(format!(
                        "failed after retry: {second_err} (first attempt: {first_err})"
                    ));
                }
            }
        }
    };
    let exec = t0.elapsed();

    let partial = res
        .degradations
        .iter()
        .any(|d| matches!(d, Degradation::PartialResult { .. }));
    let mut degraded: Vec<String> = res.degradations.iter().map(|d| d.to_string()).collect();
    if level > DegradeLevel::Normal || retried {
        degraded.push(
            Degradation::ServiceDegraded {
                level: level.as_u8(),
                retried,
            }
            .to_string(),
        );
    }
    Ok(ExecOutcome {
        contours: res.output.len(),
        area: eo_area(&res.output),
        partial,
        retried,
        degraded,
        exec,
    })
}
