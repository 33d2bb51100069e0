//! serve_load — a closed-loop load generator for `memhierd`.
//!
//! `--clients` threads each hold one **keep-alive** connection
//! ([`LoadClient`]), pull work from a shared counter until `--requests`
//! have been issued, and record per-request latency and status.  The
//! summary prints p50/p95/p99 latency, throughput, and the status-code
//! mix; `--json` emits the same numbers machine-readably (the CI smoke
//! job and the integration tests parse it).  Transport failures are
//! broken out by kind — `connect_errors` (service unreachable),
//! `premature_closes` (connection dropped mid-response: the "dropped
//! in-flight request" signal), and other transport errors — with the
//! historical `errors` field kept as their sum.  `reconnects` counts
//! idle-keep-alive races transparently retried by the client; they are
//! not errors.
//!
//! ```text
//! serve_load --addr 127.0.0.1:7070 --clients 8 --requests 64 \
//!            --endpoint recommend [--warm] [--json] [--retries N]
//! ```
//!
//! `--warm` issues one untimed priming request first so the measured run
//! exercises the server's response cache rather than cold simulation.
//!
//! A `429 Too Many Requests` answer is retried (up to `--retries` times,
//! default 3) with exponential backoff: the wait is the larger of the
//! server's `Retry-After` header and `--retry-base-ms << attempt`, plus
//! a *deterministic* full jitter hashed from the request sequence number
//! — the same run desynchronizes its retry herd the same way every time,
//! keeping load tests reproducible.  Retry totals appear in the summary
//! (`retries_429` in `--json`).

use memhier_bench::{quantile_us, FlagParser, LoadClient, LoadError};
use std::io::Write;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The wire bytes for one endpoint probe.
fn request_bytes(endpoint: &str, body: Option<&str>) -> Result<Vec<u8>, String> {
    let (method, path, default_body) = match endpoint {
        "healthz" => ("GET", "/healthz", ""),
        "metrics" => ("GET", "/metrics", ""),
        "model" => (
            "POST",
            "/v1/model",
            r#"{"config": "C5", "workload": "FFT"}"#,
        ),
        "recommend" => ("POST", "/v1/recommend", r#"{"workload": "FFT"}"#),
        "simulate" => (
            "POST",
            "/v1/simulate",
            r#"{"config": "C8", "workload": "LU", "size": "small"}"#,
        ),
        other => return Err(format!("unknown endpoint `{other}`")),
    };
    let body = body.unwrap_or(default_body);
    Ok(format!(
        "{method} {path} HTTP/1.1\r\nHost: serve_load\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes())
}

/// Per-thread transport-failure tally, by [`LoadError`] kind.
#[derive(Default)]
struct ErrorTally {
    connect: usize,
    premature: usize,
    transport: usize,
}

impl ErrorTally {
    fn count(&mut self, e: &LoadError) {
        match e {
            LoadError::Connect(_) => self.connect += 1,
            LoadError::PrematureClose => self.premature += 1,
            LoadError::Transport(_) | LoadError::Malformed(_) => self.transport += 1,
        }
    }

    fn total(&self) -> usize {
        self.connect + self.premature + self.transport
    }
}

/// Deterministic full jitter in `[0, cap)`: a splitmix64-style hash of
/// `(seq, attempt)`.  No global RNG — identical runs back off identically.
fn jitter_ms(seq: u64, attempt: u32, cap: u64) -> u64 {
    if cap == 0 {
        return 0;
    }
    let mut z = seq
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(u64::from(attempt).wrapping_mul(0xbf58_476d_1ce4_e5b9));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    (z ^ (z >> 31)) % cap
}

/// Backoff before retry `attempt` (0-based) of request `seq`: honor the
/// server's `Retry-After` as a floor, grow `base_ms` exponentially, add
/// deterministic jitter so synchronized 429s do not re-collide.
fn backoff_ms(base_ms: u64, attempt: u32, retry_after_s: Option<u64>, seq: u64) -> u64 {
    let exp = base_ms.saturating_mul(1u64 << attempt.min(10));
    let floor_ms = retry_after_s.map_or(0, |s| s.saturating_mul(1000));
    exp.max(floor_ms)
        .saturating_add(jitter_ms(seq, attempt, exp))
}

fn main() {
    let m = FlagParser::new("serve_load", "closed-loop load generator for memhierd")
        .option("--addr", "HOST:PORT", "memhierd address (required)")
        .option("--clients", "N", "concurrent client threads (default 8)")
        .option("--requests", "N", "total requests to issue (default 64)")
        .option(
            "--endpoint",
            "NAME",
            "healthz|metrics|model|recommend|simulate (default recommend)",
        )
        .option("--body", "JSON", "override the endpoint's request body")
        .option(
            "--retries",
            "N",
            "max retries per request on 429 (default 3)",
        )
        .option(
            "--retry-base-ms",
            "MS",
            "exponential backoff base for 429 retries (default 25)",
        )
        .switch("--warm", "issue one untimed priming request first")
        .switch("--json", "machine-readable summary")
        .parse_env_or_exit();

    let run = || -> Result<(), String> {
        let addr = m
            .get("--addr")
            .ok_or_else(|| "--addr required".to_string())?
            .to_string();
        let clients: usize = m.parsed("--clients")?.unwrap_or(8).max(1);
        let total: usize = m.parsed("--requests")?.unwrap_or(64).max(1);
        let endpoint = m.get("--endpoint").unwrap_or("recommend").to_string();
        let max_retries: u32 = m.parsed("--retries")?.unwrap_or(3);
        let retry_base_ms: u64 = m.parsed("--retry-base-ms")?.unwrap_or(25);
        let wire = Arc::new(request_bytes(&endpoint, m.get("--body"))?);

        if m.has("--warm") {
            let mut warm = LoadClient::new(addr.clone(), Duration::from_secs(60));
            let r = warm.exchange(&wire).map_err(|e| format!("warm-up: {e}"))?;
            eprintln!(
                "warm-up: {} in {:.1} ms",
                r.status,
                r.latency.as_secs_f64() * 1e3
            );
        }

        let next = Arc::new(AtomicUsize::new(0));
        let started = Instant::now();
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                let (addr, wire, next) = (addr.clone(), Arc::clone(&wire), Arc::clone(&next));
                std::thread::spawn(move || {
                    // One keep-alive connection per client thread; the
                    // daemon answers every request on it in order.
                    let mut client = LoadClient::new(addr, Duration::from_secs(60));
                    let mut latencies_us = Vec::new();
                    let mut statuses = Vec::new();
                    let mut errors = ErrorTally::default();
                    let mut retries = 0usize;
                    loop {
                        let seq = next.fetch_add(1, Ordering::Relaxed);
                        if seq >= total {
                            break;
                        }
                        let mut attempt = 0u32;
                        loop {
                            match client.exchange(&wire) {
                                Ok(reply) if reply.status == 429 && attempt < max_retries => {
                                    retries += 1;
                                    let wait = backoff_ms(
                                        retry_base_ms,
                                        attempt,
                                        reply.retry_after_secs(),
                                        seq as u64,
                                    );
                                    std::thread::sleep(Duration::from_millis(wait));
                                    attempt += 1;
                                    continue;
                                }
                                Ok(reply) => {
                                    latencies_us
                                        .push(reply.latency.as_micros().min(u128::from(u64::MAX))
                                            as u64);
                                    statuses.push(reply.status);
                                }
                                Err(e) => errors.count(&e),
                            }
                            break;
                        }
                    }
                    (latencies_us, statuses, errors, retries, client.reconnects())
                })
            })
            .collect();

        let mut latencies_us = Vec::with_capacity(total);
        let mut by_status: std::collections::BTreeMap<u16, usize> = Default::default();
        let mut errors = ErrorTally::default();
        let mut retries_429 = 0usize;
        let mut reconnects = 0u64;
        for h in handles {
            let (lat, statuses, errs, retries, reconn) =
                h.join().map_err(|_| "client thread panicked")?;
            latencies_us.extend(lat);
            errors.connect += errs.connect;
            errors.premature += errs.premature;
            errors.transport += errs.transport;
            retries_429 += retries;
            reconnects += reconn;
            for s in statuses {
                *by_status.entry(s).or_default() += 1;
            }
        }
        let elapsed = started.elapsed();
        latencies_us.sort_unstable();
        let done = latencies_us.len();
        let throughput = done as f64 / elapsed.as_secs_f64().max(1e-9);
        let (p50, p95, p99) = (
            quantile_us(&latencies_us, 0.50),
            quantile_us(&latencies_us, 0.95),
            quantile_us(&latencies_us, 0.99),
        );

        // Writes that hit a closed pipe (e.g. `serve_load | head`) are not
        // an error worth a panic; swallow them.
        let mut stdout = std::io::stdout();
        if m.has("--json") {
            let statuses: Vec<serde_json::Value> = by_status
                .iter()
                .map(|(s, n)| serde_json::json!({"status": *s as u64, "count": *n as u64}))
                .collect();
            let doc = serde_json::json!({
                "endpoint": endpoint,
                "clients": clients as u64,
                "requests": done as u64,
                "errors": errors.total() as u64,
                "connect_errors": errors.connect as u64,
                "premature_closes": errors.premature as u64,
                "transport_errors": errors.transport as u64,
                "reconnects": reconnects,
                "elapsed_seconds": elapsed.as_secs_f64(),
                "throughput_rps": throughput,
                "p50_us": p50,
                "p95_us": p95,
                "p99_us": p99,
                "retries_429": retries_429 as u64,
                "statuses": serde_json::Value::Array(statuses),
            });
            let _ = writeln!(
                stdout,
                "{}",
                serde_json::to_string_pretty(&doc).map_err(|e| e.to_string())?
            );
        } else {
            let _ = writeln!(
                stdout,
                "{endpoint}: {done} requests over {clients} clients in {:.2} s ({throughput:.1} req/s)",
                elapsed.as_secs_f64()
            );
            let _ = writeln!(
                stdout,
                "  latency p50 = {:.2} ms  p95 = {:.2} ms  p99 = {:.2} ms",
                p50 as f64 / 1e3,
                p95 as f64 / 1e3,
                p99 as f64 / 1e3
            );
            for (status, count) in &by_status {
                let _ = writeln!(stdout, "  {status}: {count}");
            }
            if retries_429 > 0 {
                let _ = writeln!(stdout, "  429 retries: {retries_429}");
            }
            if reconnects > 0 {
                let _ = writeln!(stdout, "  keep-alive reconnects: {reconnects}");
            }
            if errors.total() > 0 {
                let _ = writeln!(
                    stdout,
                    "  errors: {} (connect {}, premature close {}, transport {})",
                    errors.total(),
                    errors.connect,
                    errors.premature,
                    errors.transport
                );
            }
        }
        Ok(())
    };
    if let Err(e) = run() {
        eprintln!("serve_load: {e}");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_and_honors_retry_after_floor() {
        // Without a header the wait is at least the exponential term.
        assert!(backoff_ms(25, 0, None, 0) >= 25);
        assert!(backoff_ms(25, 3, None, 0) >= 200);
        // Retry-After of 2s floors a small exponential wait at 2000ms.
        assert!(backoff_ms(25, 0, Some(2), 0) >= 2000);
    }

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        for seq in 0..50u64 {
            for attempt in 0..4u32 {
                let j = jitter_ms(seq, attempt, 100);
                assert!(j < 100);
                assert_eq!(j, jitter_ms(seq, attempt, 100), "replay must agree");
            }
        }
        // The hash actually spreads: not every (seq, attempt) collides.
        let distinct: std::collections::BTreeSet<u64> =
            (0..50).map(|s| jitter_ms(s, 0, 1000)).collect();
        assert!(distinct.len() > 10);
    }
}
