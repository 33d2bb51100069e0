//! End-to-end tests against a real listening `memhierd`: the response
//! cache's warm/cold ratio, admission control under a saturating burst,
//! and deadline enforcement.
//!
//! These clients speak `Connection: close` so plain read-to-EOF framing
//! works; keep-alive and pipelining are covered by the server's unit
//! tests and by `serve_soak`.

use memhier_serve::{ServeConfig, Server};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Send `payload` raw, read to EOF, return (status, headers+body text,
/// latency).
fn timed_request(addr: SocketAddr, payload: &str) -> (u16, String, Duration) {
    let started = Instant::now();
    let mut s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(120))).unwrap();
    s.write_all(payload.as_bytes()).expect("send");
    let mut reply = String::new();
    s.read_to_string(&mut reply).expect("read");
    let status: u16 = reply
        .strip_prefix("HTTP/1.1 ")
        .and_then(|r| r.get(..3))
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("malformed reply: {reply:?}"));
    (status, reply, started.elapsed())
}

fn post(path: &str, body: &str) -> String {
    format!(
        "POST {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
}

/// The headline cache claim: with 8 concurrent clients replaying the same
/// measured-recommendation request, warm-cache latency must be at least
/// 10x lower than the cold (trace-characterizing) first request.
#[test]
fn warm_recommend_is_10x_faster_than_cold_at_8_clients() {
    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 8,
        queue_depth: 64,
        timeout: Duration::from_secs(120),
        ..ServeConfig::default()
    })
    .expect("start");
    let addr = server.local_addr();
    let body = r#"{"workload": "EDGE", "measure": true, "size": "small"}"#;
    let payload = post("/v1/recommend", body);

    let (status, reply, cold) = timed_request(addr, &payload);
    assert_eq!(status, 200, "{reply}");
    assert!(reply.contains("X-Cache: miss"), "{reply}");

    let handles: Vec<_> = (0..8)
        .map(|_| {
            let payload = payload.clone();
            std::thread::spawn(move || {
                (0..4)
                    .map(|_| {
                        let (status, reply, warm) = timed_request(addr, &payload);
                        assert_eq!(status, 200);
                        assert!(reply.contains("X-Cache: hit"), "{reply}");
                        warm
                    })
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    let mut warm: Vec<Duration> = handles
        .into_iter()
        .flat_map(|h| h.join().expect("client thread"))
        .collect();
    warm.sort();
    let warm_median = warm[warm.len() / 2];
    assert!(
        cold >= warm_median * 10,
        "cold {cold:?} not >= 10x warm median {warm_median:?}"
    );
    server.shutdown();
}

/// Saturate a 1-worker, depth-1 server with a slow sweep plus a queued
/// request; a burst then must be shed with 429 + Retry-After while both
/// in-flight requests still complete with 200.
#[test]
fn burst_sheds_429_while_in_flight_requests_complete() {
    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        queue_depth: 1,
        timeout: Duration::from_secs(120),
        // The PR-5 engine finishes a small sweep in well under a second,
        // so simulator slowness can no longer hold the worker busy; a
        // deterministic per-request delay keeps the saturation window
        // open instead.
        faults: memhier_bench::FaultPlan::parse("serve:delay:ms=2000").unwrap(),
        ..ServeConfig::default()
    })
    .expect("start");
    let addr = server.local_addr();

    // Occupies the single worker (2 s injected delay plus the sweep).
    let sweep = post(
        "/v1/sweep",
        r#"{"configs": ["C1", "C8"], "workloads": ["FFT", "LU"], "size": "small"}"#,
    );
    let occupier = std::thread::spawn(move || timed_request(addr, &sweep));
    std::thread::sleep(Duration::from_millis(200));

    // Fills the queue's single slot behind the occupier.
    let queued_payload = post("/v1/model", r#"{"config": "C5", "workload": "FFT"}"#);
    let queued = {
        let payload = queued_payload.clone();
        std::thread::spawn(move || timed_request(addr, &payload))
    };
    std::thread::sleep(Duration::from_millis(100));

    // Burst against the full queue until a shed response shows up (the
    // worker may briefly pop the queued job before the sweep finishes).
    let mut saw_429 = false;
    for _ in 0..50 {
        let (status, reply, _) = timed_request(addr, &queued_payload);
        if status == 429 {
            assert!(reply.contains("Retry-After: 1\r\n"), "{reply}");
            saw_429 = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(saw_429, "burst was never shed with a 429");

    let (status, reply, _) = occupier.join().expect("occupier");
    assert_eq!(status, 200, "in-flight sweep must complete: {reply}");
    let (status, reply, _) = queued.join().expect("queued");
    assert_eq!(status, 200, "queued request must complete: {reply}");
    assert!(server.state().metrics.rejected_count() >= 1);
    server.shutdown();
}

/// A deadline far shorter than a simulation aborts with 503 rather than
/// holding the connection.
#[test]
fn deadline_aborts_long_simulation_with_503() {
    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        queue_depth: 8,
        timeout: Duration::from_millis(50),
        ..ServeConfig::default()
    })
    .expect("start");
    let addr = server.local_addr();
    let (status, reply, elapsed) = timed_request(
        addr,
        &post(
            "/v1/simulate",
            r#"{"config": "C8", "workload": "Radix", "size": "medium"}"#,
        ),
    );
    assert_eq!(status, 503, "{reply}");
    assert!(reply.contains("deadline"), "{reply}");
    assert!(
        elapsed < Duration::from_secs(30),
        "503 should arrive promptly, took {elapsed:?}"
    );
    // Deadline failures are not cached: metrics must show a server error.
    let (status, reply, _) =
        timed_request(addr, "GET /metrics HTTP/1.1\r\nConnection: close\r\n\r\n");
    assert_eq!(status, 200);
    assert!(reply.contains("\"deadline_exceeded\": 1"), "{reply}");
    server.shutdown();
}

/// Bodies that describe the same simulation share one cache entry: the
/// same body twice, once with the ignored `faults` key and once spelling
/// the workload in lower case are one miss and three hits, with the same
/// reply bytes.
#[test]
fn equivalent_simulate_bodies_share_one_cache_entry() {
    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        queue_depth: 8,
        ..ServeConfig::default()
    })
    .expect("start");
    let addr = server.local_addr();
    let bodies = [
        r#"{"config": "C5", "workload": "FFT", "size": "small"}"#,
        r#"{"config": "C5", "workload": "FFT", "size": "small"}"#,
        r#"{"config": "C5", "workload": "FFT", "size": "small", "faults": "point:panic:nth=1"}"#,
        r#"{"config": "C5", "workload": "fft", "size": "small"}"#,
    ];
    let replies: Vec<String> = bodies
        .iter()
        .map(|body| {
            let (status, reply, _) = timed_request(addr, &post("/v1/simulate", body));
            assert_eq!(status, 200, "{body}: {reply}");
            let (_, payload) = reply.split_once("\r\n\r\n").expect("header/body split");
            payload.to_string()
        })
        .collect();
    assert!(replies.iter().all(|r| *r == replies[0]), "{replies:?}");

    let (status, reply, _) =
        timed_request(addr, "GET /metrics HTTP/1.1\r\nConnection: close\r\n\r\n");
    assert_eq!(status, 200);
    let (_, doc) = reply.split_once("\r\n\r\n").expect("header/body split");
    let v: serde_json::Value = serde_json::from_str(doc.trim()).expect("metrics JSON");
    assert_eq!(v["cache"]["hits"].as_u64(), Some(3), "{doc}");
    assert_eq!(v["cache"]["misses"].as_u64(), Some(1), "{doc}");
    assert_eq!(v["cache"]["entries"].as_u64(), Some(1), "{doc}");
    server.shutdown();
}

/// A cluster-spec object may carry any `name`: a custom spec named "C5"
/// and the real C5 are two runs, two misses and two different replies.
#[test]
fn custom_spec_named_like_a_paper_config_is_its_own_entry() {
    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        queue_depth: 8,
        ..ServeConfig::default()
    })
    .expect("start");
    let addr = server.local_addr();
    let impostor = memhier_core::params::configs::by_name("C1")
        .expect("C1")
        .named("C5");
    let impostor = serde_json::to_string(&impostor).expect("spec JSON");
    let bodies = [
        format!(r#"{{"config": {impostor}, "workload": "FFT", "size": "small"}}"#),
        r#"{"config": "C5", "workload": "FFT", "size": "small"}"#.to_string(),
    ];
    let replies: Vec<String> = bodies
        .iter()
        .map(|body| {
            let (status, reply, _) = timed_request(addr, &post("/v1/simulate", body));
            assert_eq!(status, 200, "{body}: {reply}");
            assert!(reply.contains("X-Cache: miss"), "{body}: {reply}");
            let (_, payload) = reply.split_once("\r\n\r\n").expect("header/body split");
            payload.to_string()
        })
        .collect();
    assert_ne!(replies[0], replies[1]);

    let (_, reply, _) = timed_request(addr, "GET /metrics HTTP/1.1\r\nConnection: close\r\n\r\n");
    let (_, doc) = reply.split_once("\r\n\r\n").expect("header/body split");
    let v: serde_json::Value = serde_json::from_str(doc.trim()).expect("metrics JSON");
    assert_eq!(v["cache"]["hits"].as_u64(), Some(0), "{doc}");
    assert_eq!(v["cache"]["misses"].as_u64(), Some(2), "{doc}");
    assert_eq!(v["cache"]["entries"].as_u64(), Some(2), "{doc}");
    server.shutdown();
}
