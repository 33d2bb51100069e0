//! CLI/service output parity: the bytes `memhierd` serves must be the
//! bytes the CLI prints for the same question.

use memhier_serve::{ServeConfig, Server};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::process::Command;
use std::time::Duration;

fn memhier_stdout(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_memhier"))
        .args(args)
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "memhier {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf8 stdout")
}

fn serve_body(server: &Server, path: &str, body: &str) -> String {
    let mut s = TcpStream::connect(server.local_addr()).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(120))).unwrap();
    s.write_all(
        format!(
            "POST {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .as_bytes(),
    )
    .expect("send");
    let mut reply = String::new();
    s.read_to_string(&mut reply).expect("read");
    let (head, body) = reply.split_once("\r\n\r\n").expect("header/body split");
    assert!(head.starts_with("HTTP/1.1 200"), "{reply}");
    body.to_string()
}

/// Like [`serve_body`] but without the 200 assertion: returns the status
/// code and body so error responses can be inspected.  `body: None`
/// sends a bare GET.
fn serve_raw(server: &Server, method: &str, path: &str, body: Option<&str>) -> (u16, String) {
    let mut s = TcpStream::connect(server.local_addr()).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(120))).unwrap();
    let payload = match body {
        Some(b) => format!(
            "{method} {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{b}",
            b.len()
        ),
        None => format!("{method} {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"),
    };
    s.write_all(payload.as_bytes()).expect("send");
    let mut reply = String::new();
    s.read_to_string(&mut reply).expect("read");
    let (head, body) = reply.split_once("\r\n\r\n").expect("header/body split");
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status line");
    (status, body.to_string())
}

fn server() -> Server {
    Server::start(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        queue_depth: 8,
        timeout: Duration::from_secs(120),
        ..ServeConfig::default()
    })
    .expect("start")
}

/// `/v1/simulate` must be byte-identical to `memhier simulate --json` for
/// the same config/workload/size.
#[test]
fn v1_simulate_matches_cli_json_bytes() {
    let server = server();
    let from_service = serve_body(
        &server,
        "/v1/simulate",
        r#"{"config": "C1", "workload": "FFT", "size": "small"}"#,
    );
    let from_cli = memhier_stdout(&[
        "simulate",
        "--config",
        "C1",
        "--workload",
        "FFT",
        "--small",
        "--json",
    ]);
    assert_eq!(from_service, from_cli, "service and CLI bytes diverge");
    server.shutdown();
}

/// `/v1/model` must be byte-identical to `memhier model --json` for every
/// named configuration.
#[test]
fn v1_model_matches_cli_json_bytes() {
    let server = server();
    for row in &memhier_core::params::configs::NAMED {
        let from_service = serve_body(
            &server,
            "/v1/model",
            &format!(r#"{{"config": "{}", "workload": "FFT"}}"#, row.name),
        );
        let from_cli =
            memhier_stdout(&["model", "--config", row.name, "--workload", "FFT", "--json"]);
        assert_eq!(
            from_service, from_cli,
            "{}: service and CLI diverge",
            row.name
        );
    }
    server.shutdown();
}

/// `/v1/recommend` must be byte-identical to `memhier recommend --format
/// json` for the same paper workload.
#[test]
fn v1_recommend_matches_cli_json_bytes() {
    let server = server();
    let from_service = serve_body(&server, "/v1/recommend", r#"{"workload": "TPC-C"}"#);
    let from_cli = memhier_stdout(&["recommend", "--workload", "TPC-C", "--format", "json"]);
    assert_eq!(from_service, from_cli, "service and CLI bytes diverge");
    server.shutdown();
}

/// A budgeted `/v1/recommend` attaches the same ranked clusters the CLI
/// prints, byte for byte.
#[test]
fn v1_recommend_budget_matches_cli_json_bytes() {
    let server = server();
    let from_service = serve_body(
        &server,
        "/v1/recommend",
        r#"{"workload": "Radix", "budget": 12000, "top": 4}"#,
    );
    let from_cli = memhier_stdout(&[
        "recommend",
        "--workload",
        "Radix",
        "--budget",
        "12000",
        "--top",
        "4",
        "--format",
        "json",
    ]);
    assert_eq!(from_service, from_cli, "service and CLI bytes diverge");
    server.shutdown();
}

/// `/v1/fit` must be byte-identical to `memhier fit --trace --json` for
/// the same recorded trace.  The trace itself comes from `memhier
/// record`, so this exercises the whole record → fit surface both ways.
#[test]
fn v1_fit_matches_cli_json_bytes() {
    let dir = std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    std::fs::create_dir_all(&dir).expect("create tmp dir");
    let trace = dir.join("parity_fft.mtr");
    let trace_str = trace.to_str().expect("utf8 path");
    memhier_stdout(&["record", "--scenario", "C1:FFT:small", "-o", trace_str]);

    let server = server();
    let body = format!(r#"{{"trace": "{trace_str}", "chunk_records": 4096}}"#);
    let from_service = serve_body(&server, "/v1/fit", &body);
    let from_cli = memhier_stdout(&[
        "fit",
        "--trace",
        trace_str,
        "--chunk-records",
        "4096",
        "--json",
    ]);
    assert_eq!(from_service, from_cli, "service and CLI bytes diverge");
    server.shutdown();
}

/// `/v1/optimize` must be byte-identical to `memhier optimize --json`
/// for the same request — including the simulation confirmations, which
/// ride on the thread-invariant engine.  The CLI's `--request` spelling
/// accepts the exact serve body, closing the loop.
#[test]
fn v1_optimize_matches_cli_json_bytes() {
    let server = server();
    let body = r#"{"workload": "LU", "budget": 8000,
                   "search_space": {"max_machines": 4, "memory_mb": [32, 64]},
                   "confirm": 2}"#;
    let from_service = serve_body(&server, "/v1/optimize", body);
    let from_cli = memhier_stdout(&[
        "optimize",
        "--budget",
        "8000",
        "--workload",
        "LU",
        "--max-machines",
        "4",
        "--mem",
        "32,64",
        "--confirm",
        "2",
        "--json",
    ]);
    assert_eq!(from_service, from_cli, "service and CLI bytes diverge");
    let from_request = memhier_stdout(&["optimize", "--request", body, "--json"]);
    assert_eq!(
        from_request, from_cli,
        "--request and flag spellings diverge"
    );
    server.shutdown();
}

/// `/v1/sweep` has no CLI twin with the same row shape, so its bytes are
/// pinned by a golden: the golden request (3 configs x 2 workloads at
/// `small`) must answer with `golden/scenarios/sweep_response.json`.
/// Regenerate with `MEMHIER_BLESS=1 cargo test -p memhier-cli --test
/// serve_parity`.
#[test]
fn v1_sweep_matches_its_golden_bytes() {
    let golden = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../bench/tests/golden/scenarios/sweep_response.json"
    );
    let server = server();
    let body = include_str!("../../bench/tests/golden/scenarios/sweep_request.json");
    let from_service = serve_body(&server, "/v1/sweep", body);
    server.shutdown();
    if std::env::var_os("MEMHIER_BLESS").is_some() {
        std::fs::write(golden, &from_service).expect("write golden");
        eprintln!("[blessed {golden}]");
        return;
    }
    let expected = std::fs::read_to_string(golden)
        .unwrap_or_else(|e| panic!("missing golden {golden} ({e}); bless with MEMHIER_BLESS=1"));
    assert!(
        from_service == expected,
        "/v1/sweep bytes moved\nserved:\n{from_service}\ngolden:\n{expected}"
    );
}

/// `GET /v1/registry` must carry the same workload/platform/network
/// documents the CLI prints: `memhier workloads --json` is the
/// `workloads` section byte for byte, and `memhier platforms --json` is
/// the `platforms` + `networks` sections byte for byte.
#[test]
fn v1_registry_matches_cli_json_bytes() {
    let server = server();
    let (status, body) = serve_raw(&server, "GET", "/v1/registry", None);
    assert_eq!(status, 200, "{body}");
    let doc: serde_json::Value = serde_json::from_str(&body).expect("registry parses");

    let workloads = doc.get("workloads").expect("workloads section").clone();
    let from_cli = memhier_stdout(&["workloads", "--json"]);
    let section = serde_json::to_string_pretty(&workloads).expect("serialize") + "\n";
    assert_eq!(section, from_cli, "workloads section diverges from CLI");

    let platforms = serde_json::Value::Object(vec![
        (
            "platforms".to_string(),
            doc.get("platforms").expect("platforms section").clone(),
        ),
        (
            "networks".to_string(),
            doc.get("networks").expect("networks section").clone(),
        ),
    ]);
    let from_cli = memhier_stdout(&["platforms", "--json"]);
    let section = serde_json::to_string_pretty(&platforms).expect("serialize") + "\n";
    assert_eq!(section, from_cli, "platforms section diverges from CLI");
    server.shutdown();
}

/// Every `/v1` error leaves the live server inside the one typed
/// envelope: `{"error": {"status", "code", "message"}}`, for 400
/// (unknown names), 422 (well-formed but impossible work), 404 (no such
/// route), and 405 (wrong method).
#[test]
fn v1_errors_share_the_typed_envelope_over_the_wire() {
    let server = server();
    let cases: Vec<(&str, &str, Option<&str>, u16, &str)> = vec![
        (
            "POST",
            "/v1/simulate",
            Some(r#"{"config": "C99", "workload": "FFT", "size": "small"}"#),
            400,
            "bad_request",
        ),
        (
            "POST",
            "/v1/fit",
            Some(r#"{"trace": "/nonexistent/parity.mtr"}"#),
            422,
            "unprocessable",
        ),
        ("GET", "/v1/nothing", None, 404, "not_found"),
        (
            "POST",
            "/v1/registry",
            Some("{}"),
            405,
            "method_not_allowed",
        ),
    ];
    for (method, path, body, want_status, want_code) in cases {
        let (status, body) = serve_raw(&server, method, path, body);
        assert_eq!(status, want_status, "{method} {path}: {body}");
        let doc: serde_json::Value = serde_json::from_str(&body).expect("error body parses");
        let e = doc.get("error").expect("envelope has `error`");
        assert_eq!(
            e.get("status").and_then(serde_json::Value::as_u64),
            Some(want_status as u64),
            "{method} {path}"
        );
        assert_eq!(
            e.get("code").and_then(serde_json::Value::as_str),
            Some(want_code),
            "{method} {path}"
        );
        assert!(
            !e.get("message")
                .and_then(serde_json::Value::as_str)
                .expect("message is a string")
                .is_empty(),
            "{method} {path}: empty message"
        );
    }
    server.shutdown();
}

/// Parity must also hold through a **keep-alive** connection: the same
/// request sent twice on one connection (a cold miss computed by a
/// worker, then a warm hit served inline by the event loop) must both be
/// byte-identical to the CLI.
#[test]
fn parity_holds_over_a_keepalive_connection() {
    let server = server();
    let mut s = TcpStream::connect(server.local_addr()).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(120))).unwrap();
    let body = r#"{"config": "C2", "workload": "Radix", "size": "small"}"#;
    let payload = format!(
        "POST /v1/simulate HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    let read_one = |s: &mut TcpStream| {
        let mut acc = Vec::new();
        let mut chunk = [0u8; 4096];
        loop {
            if let Some(head_end) = acc.windows(4).position(|w| w == b"\r\n\r\n") {
                let head = String::from_utf8_lossy(&acc[..head_end]).to_string();
                let clen: usize = head
                    .lines()
                    .find_map(|l| {
                        let (name, v) = l.split_once(':')?;
                        name.eq_ignore_ascii_case("content-length")
                            .then(|| v.trim().parse().ok())?
                    })
                    .expect("content-length");
                if acc.len() >= head_end + 4 + clen {
                    let head = String::from_utf8_lossy(&acc[..head_end]).to_string();
                    let body = String::from_utf8_lossy(&acc[head_end + 4..head_end + 4 + clen])
                        .to_string();
                    return (head, body);
                }
            }
            let n = s.read(&mut chunk).expect("read");
            assert!(n > 0, "connection closed mid-response");
            acc.extend_from_slice(&chunk[..n]);
        }
    };
    let from_cli = memhier_stdout(&[
        "simulate",
        "--config",
        "C2",
        "--workload",
        "Radix",
        "--small",
        "--json",
    ]);

    s.write_all(payload.as_bytes()).expect("send cold");
    let (head, cold) = read_one(&mut s);
    assert!(head.contains("X-Cache: miss"), "{head}");
    assert_eq!(cold, from_cli, "cold keep-alive bytes diverge from CLI");

    s.write_all(payload.as_bytes()).expect("send warm");
    let (head, warm) = read_one(&mut s);
    assert!(head.contains("X-Cache: hit"), "{head}");
    assert_eq!(warm, from_cli, "warm keep-alive bytes diverge from CLI");
    server.shutdown();
}
