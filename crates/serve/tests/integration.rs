//! End-to-end service tests over a real TCP socket: every request in these
//! tests crosses the loopback interface, exercising the same reader
//! threads, admission pipeline, worker pool, and line framing production
//! traffic uses.

use polyclip::prelude::*;
use polyclip_bench::json::Value;
use polyclip_serve::protocol::{render_clip_request, Priority};
use polyclip_serve::server::{ServeConfig, Server};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A 4×4 square at the origin — area 16, trivially verifiable.
fn square_layer() -> Arc<PreparedLayer> {
    let base = PolygonSet::from_xy(&[(0.0, 0.0), (4.0, 0.0), (4.0, 4.0), (0.0, 4.0)]);
    PreparedLayer::build(&base, &ClipOptions::sequential()).unwrap()
}

struct TestClient {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl TestClient {
    fn connect(server: &Server) -> TestClient {
        let stream = TcpStream::connect(server.local_addr()).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        let reader = BufReader::new(stream.try_clone().unwrap());
        TestClient { stream, reader }
    }

    fn send(&mut self, line: &str) {
        self.stream.write_all(line.as_bytes()).expect("send");
    }

    /// One request in, one response out (these tests are closed-loop, so
    /// ordering is deterministic).
    fn round_trip(&mut self, line: &str) -> Value {
        self.send(line);
        let mut resp = String::new();
        self.reader.read_line(&mut resp).expect("read response");
        Value::parse(resp.trim_end()).expect("parse response")
    }

    fn clip(
        &mut self,
        id: u64,
        layer: &str,
        priority: Priority,
        deadline_ms: Option<f64>,
        query: &[(f64, f64)],
    ) -> Value {
        self.round_trip(&render_clip_request(
            id,
            BoolOp::Intersection,
            layer,
            priority,
            deadline_ms,
            query,
        ))
    }
}

fn str_of<'a>(doc: &'a Value, key: &str) -> &'a str {
    doc.get(key).and_then(|v| v.as_str()).unwrap_or("")
}

fn num_of(doc: &Value, key: &str) -> f64 {
    doc.get(key)
        .and_then(|v| v.as_f64())
        .unwrap_or_else(|| panic!("missing numeric field {key}"))
}

#[test]
fn clip_round_trip_with_cache_hit_on_the_second_ask() {
    let server = Server::start(
        ServeConfig::default(),
        vec![("sq".into(), square_layer())],
        "127.0.0.1:0",
    )
    .unwrap();
    let mut c = TestClient::connect(&server);

    // [1,3]² ∩ [0,4]² = [1,3]²: area 4.
    let q = [(1.0, 1.0), (3.0, 1.0), (3.0, 3.0), (1.0, 3.0)];
    let r1 = c.clip(1, "sq", Priority::Normal, None, &q);
    assert_eq!(str_of(&r1, "status"), "ok", "got: {r1:?}");
    assert!((num_of(&r1, "area") - 4.0).abs() < 1e-9);
    assert_eq!(num_of(&r1, "contours"), 1.0);
    assert_eq!(r1.get("cache_hit").and_then(|v| v.as_bool()), Some(false));
    assert_eq!(r1.get("partial").and_then(|v| v.as_bool()), Some(false));

    // The identical query must come from cache, bit-for-bit same answer.
    let r2 = c.clip(2, "sq", Priority::Normal, None, &q);
    assert_eq!(str_of(&r2, "status"), "ok");
    assert_eq!(r2.get("cache_hit").and_then(|v| v.as_bool()), Some(true));
    assert_eq!(num_of(&r2, "area"), num_of(&r1, "area"));

    // A bit-different query is a miss, not a false share.
    let q3 = [(1.0, 1.0), (3.0, 1.0), (3.0, 3.0), (1.0, 3.0 + 1e-12)];
    let r3 = c.clip(3, "sq", Priority::Normal, None, &q3);
    assert_eq!(r3.get("cache_hit").and_then(|v| v.as_bool()), Some(false));

    let (hits, _coalesced, misses) = server.cache_counters();
    assert_eq!((hits, misses), (1, 2));

    server.shutdown();
    server.wait();
}

#[test]
fn admin_verbs_report_and_malformed_lines_get_typed_errors() {
    let server = Server::start(
        ServeConfig::default(),
        vec![("sq".into(), square_layer())],
        "127.0.0.1:0",
    )
    .unwrap();
    let mut c = TestClient::connect(&server);

    let info = c.round_trip("{\"id\":10,\"op\":\"info\",\"layer\":\"sq\"}\n");
    assert_eq!(str_of(&info, "status"), "ok");
    assert_eq!(num_of(&info, "xmax"), 4.0);
    assert_eq!(num_of(&info, "epoch"), 1.0);

    let r = c.clip(
        11,
        "sq",
        Priority::Normal,
        None,
        &[(0.0, 0.0), (1.0, 0.0), (1.0, 1.0)],
    );
    assert_eq!(str_of(&r, "status"), "ok");

    let stats = c.round_trip("{\"id\":12,\"op\":\"stats\"}\n");
    assert_eq!(num_of(&stats, "received"), 1.0);
    assert_eq!(num_of(&stats, "completed_ok"), 1.0);
    assert_eq!(num_of(&stats, "queue_depth"), 0.0);

    // Malformed JSON and unknown layers answer with errors, and the
    // connection survives to serve the next line.
    let bad = c.round_trip("this is not json\n");
    assert_eq!(str_of(&bad, "status"), "error");
    let unknown = c.clip(
        13,
        "nope",
        Priority::Normal,
        None,
        &[(0.0, 0.0), (1.0, 0.0), (1.0, 1.0)],
    );
    assert_eq!(str_of(&unknown, "status"), "error");
    assert!(str_of(&unknown, "message").contains("unknown layer"));
    let again = c.clip(
        14,
        "sq",
        Priority::Normal,
        None,
        &[(0.0, 0.0), (1.0, 0.0), (1.0, 1.0)],
    );
    assert_eq!(str_of(&again, "status"), "ok");

    server.shutdown();
    server.wait();
}

#[test]
fn zero_deadline_is_rejected_on_arrival_as_unmeetable() {
    let server = Server::start(
        ServeConfig::default(),
        vec![("sq".into(), square_layer())],
        "127.0.0.1:0",
    )
    .unwrap();
    let mut c = TestClient::connect(&server);

    // Estimated service time (the EWMA prior) already exceeds a 0ms
    // deadline: admission must reject rather than queue a doomed job.
    let r = c.clip(
        20,
        "sq",
        Priority::Normal,
        Some(0.0),
        &[(1.0, 1.0), (3.0, 1.0), (3.0, 3.0)],
    );
    assert_eq!(str_of(&r, "status"), "rejected", "got: {r:?}");
    assert_eq!(str_of(&r, "reason"), "deadline_unmeetable");
    assert!(r.get("retry_after_ms").and_then(|v| v.as_f64()).is_some());

    // A patient twin of the same request sails through.
    let ok = c.clip(
        21,
        "sq",
        Priority::Normal,
        Some(10_000.0),
        &[(1.0, 1.0), (3.0, 1.0), (3.0, 3.0)],
    );
    assert_eq!(str_of(&ok, "status"), "ok");

    server.shutdown();
    server.wait();
}

#[test]
fn shutdown_verb_drains_and_stops_the_server() {
    let server = Server::start(
        ServeConfig::default(),
        vec![("sq".into(), square_layer())],
        "127.0.0.1:0",
    )
    .unwrap();
    let mut c = TestClient::connect(&server);
    let r = c.clip(
        30,
        "sq",
        Priority::High,
        None,
        &[(0.0, 0.0), (2.0, 0.0), (2.0, 2.0)],
    );
    assert_eq!(str_of(&r, "status"), "ok");
    let bye = c.round_trip("{\"id\":31,\"op\":\"shutdown\"}\n");
    assert_eq!(bye.get("stopping").and_then(|v| v.as_bool()), Some(true));
    // wait() must return: accept loop unblocked, workers drained. The
    // test harness timeout is the failure detector here.
    server.wait();
}

#[test]
fn concurrent_connections_each_get_their_own_answers() {
    let server = Arc::new(
        Server::start(
            ServeConfig {
                workers: 3,
                ..ServeConfig::default()
            },
            vec![("sq".into(), square_layer())],
            "127.0.0.1:0",
        )
        .unwrap(),
    );
    let handles: Vec<_> = (0..6)
        .map(|t| {
            let server = Arc::clone(&server);
            std::thread::spawn(move || {
                let mut c = TestClient::connect(&server);
                for i in 0..10u64 {
                    // Distinct query per (thread, i): distinct area.
                    let w = 0.5 + (t as f64) * 0.25 + (i as f64) * 0.01;
                    let q = [(0.0, 0.0), (w, 0.0), (w, w), (0.0, w)];
                    let r = c.clip(t * 100 + i, "sq", Priority::Normal, None, &q);
                    assert_eq!(str_of(&r, "status"), "ok");
                    assert!(
                        (num_of(&r, "area") - w * w).abs() < 1e-9,
                        "thread {t} iter {i}: wrong area"
                    );
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    server.shutdown();
    server.wait();
}

#[test]
fn pipelined_replies_do_not_wait_for_delayed_acks() {
    // Two requests in one write, two replies back. The second reply is
    // written while the first is unacknowledged; unless the server sets
    // TCP_NODELAY, it waits for the client's delayed ACK (~40 ms on
    // Linux) in every round.
    let server = Server::start(
        ServeConfig::default(),
        vec![("sq".into(), square_layer())],
        "127.0.0.1:0",
    )
    .unwrap();
    let mut c = TestClient::connect(&server);
    c.stream.set_nodelay(true).unwrap();
    let q = [(1.0, 1.0), (3.0, 1.0), (3.0, 3.0), (1.0, 3.0)];
    let line =
        |id: u64| render_clip_request(id, BoolOp::Intersection, "sq", Priority::Normal, None, &q);
    for id in 0..20 {
        assert_eq!(str_of(&c.round_trip(&line(id)), "status"), "ok");
    }
    let mut slow = 0;
    for round in 0..40u64 {
        let pair = line(100 + 2 * round) + &line(101 + 2 * round);
        let t = Instant::now();
        c.send(&pair);
        for _ in 0..2 {
            let mut resp = String::new();
            c.reader.read_line(&mut resp).expect("read response");
            let doc = Value::parse(resp.trim_end()).expect("parse response");
            assert_eq!(str_of(&doc, "status"), "ok", "got: {doc:?}");
        }
        slow += usize::from(t.elapsed() >= Duration::from_millis(30));
    }
    assert!(
        slow <= 10,
        "{slow} of 40 pipelined rounds took 30 ms or more"
    );

    server.shutdown();
    server.wait();
}
