//! Endpoint handlers: the JSON API surface of `memhierd`.
//!
//! | endpoint | verb | body | answer |
//! |----------|------|------|--------|
//! | `/healthz`, `/livez` | GET | — | liveness + version (200 while the process runs) |
//! | `/readyz` | GET | — | readiness: 200 accepting, 503 starting/draining |
//! | `/metrics` | GET | — | counters, latency histogram, cache stats |
//! | `/v1/registry` | GET | — | the workload/platform/network registry with parameter schemas (same document `memhier workloads --json` / `memhier platforms --json` render) |
//! | `/v1/model` | POST | [`Scenario`] JSON (`{config, workload}`) | analytic `E(Instr)` prediction |
//! | `/v1/simulate` | POST | [`Scenario`] JSON (`{config, workload, size?, ...}`) | full `SimReport` |
//! | `/v1/recommend` | POST | [`RecommendRequest`] JSON (`{workload \| alpha+beta+rho, measure?, size?, budget?, top?, prices?}`) | §6 platform advice (+ ranked clusters under a budget) |
//! | `/v1/optimize` | POST | [`OptimizeRequest`] JSON (`{workload, budget, slo?, search_space?, prices?, top?, confirm?, confirm_size?}`) | fleet-scale search: ranked shortlist, pruning stats, Pareto frontier |
//! | `/v1/sweep` | POST | `{configs, workloads, size?}` — expands to one [`Scenario`] per grid point | one row per grid point |
//! | `/v1/fit` | POST | [`FitRequest`] JSON (`{trace, granularity?, chunk_records?}`) | streaming α/β/ρ fit of a recorded `.mtr` trace ([`FitReport`](memhier_trace::FitReport)) |
//!
//! Every POST endpoint parses its body with a unified typed wire format
//! — [`Scenario`] for the simulation endpoints, the `memhier-cost`
//! request structs for the advisor endpoints — so the service, the CLI
//! flags, and plan files all accept exactly the same shapes and reject
//! with the same typed error messages
//! ([`ScenarioError`](memhier_bench::ScenarioError) / [`CostError`],
//! both 400s).
//!
//! Every `/v1` response is a pure function of its request, so successful
//! bodies are memoized in the sharded LRU [`ResponseCache`] keyed by
//! `method path` plus the request JSON **canonicalized** (object keys
//! sorted recursively, compact form) — key order and whitespace in the
//! client's JSON never cause a spurious miss.
//!
//! `/v1/simulate` serializes exactly what `memhier simulate --json`
//! prints (`SimReport`, pretty, trailing newline), `/v1/recommend` the
//! [`RecommendReport`](memhier_cost::RecommendReport) `memhier recommend
//! --format json` prints, and `/v1/optimize` the
//! [`OptimizeReport`](memhier_cost::OptimizeReport) `memhier optimize
//! --json` prints, so the service and the CLI stay byte-for-byte
//! interchangeable.  `/v1/fit` likewise serializes exactly what `memhier
//! fit --trace FILE --json` prints; it is the one `/v1` endpoint that is
//! **not** memoized, because its answer depends on the trace file's
//! bytes, not only on the request body.

use crate::cache::ResponseCache;
use crate::http::{HttpError, Request, Response};
use crate::metrics::Metrics;
use memhier_bench::{run_optimize, run_recommend, run_sweep, Scenario, Sizes};
use memhier_core::model::AnalyticModel;
use memhier_cost::{CostError, OptimizeRequest, RecommendRequest};
use memhier_trace::{run_fit, FitRequest};
use serde_json::Value;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Largest `configs × workloads` grid `/v1/sweep` accepts.
pub const MAX_SWEEP_POINTS: usize = 64;

/// Largest candidate grid `/v1/optimize` will enumerate (the analytic
/// prune is cheap, but the grid is the product of six axes and a typo'd
/// request shouldn't pin a worker).
pub const MAX_OPTIMIZE_CANDIDATES: usize = 250_000;

/// Largest `confirm` count `/v1/optimize` accepts: confirmation runs
/// full simulations through the sweep runner, so it shares the sweep
/// endpoint's cap.
pub const MAX_OPTIMIZE_CONFIRM: usize = MAX_SWEEP_POINTS;

/// Lifecycle phase reported by `GET /readyz`, so load balancers can
/// route around a memhierd that is starting up or draining while
/// `/livez` (and `/healthz`) still answer 200 — "the process is fine,
/// just don't send it new traffic".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Readiness {
    /// Constructed but not yet accepting (readyz answers 503).
    Starting,
    /// Accepting traffic (readyz answers 200).
    Ready,
    /// Shutdown requested: existing connections are completing, new
    /// traffic should go elsewhere (readyz answers 503).
    Draining,
}

/// Shared per-service state: the response cache plus the metric registry.
pub struct AppState {
    /// Memoized successful responses.
    pub cache: ResponseCache,
    /// Request counters and latency histogram.
    pub metrics: Metrics,
    /// Admission queue capacity (rendered in `/metrics`).
    pub queue_capacity: usize,
    /// Worker-pool width (rendered in `/metrics`).
    pub workers: usize,
    /// Lifecycle phase behind `/readyz` (0 starting / 1 ready / 2 draining).
    readiness: AtomicU8,
}

impl AppState {
    /// Fresh state for a server with the given shape, in
    /// [`Readiness::Starting`].
    pub fn new(
        cache_capacity: usize,
        cache_shards: usize,
        queue_capacity: usize,
        workers: usize,
    ) -> Self {
        AppState {
            cache: ResponseCache::new(cache_capacity, cache_shards),
            metrics: Metrics::default(),
            queue_capacity,
            workers,
            readiness: AtomicU8::new(0),
        }
    }

    /// Current lifecycle phase.
    pub fn readiness(&self) -> Readiness {
        match self.readiness.load(Ordering::Acquire) {
            1 => Readiness::Ready,
            2 => Readiness::Draining,
            _ => Readiness::Starting,
        }
    }

    /// The listener is bound and accepting: `/readyz` starts answering 200.
    pub fn set_ready(&self) {
        self.readiness.store(1, Ordering::Release);
    }

    /// Shutdown has been requested: `/readyz` answers 503 while existing
    /// connections finish.
    pub fn begin_drain(&self) {
        self.readiness.store(2, Ordering::Release);
    }
}

/// Recursively sort object keys so semantically equal requests share one
/// cache key regardless of field order.
pub fn canonicalize(v: &Value) -> Value {
    match v {
        Value::Object(fields) => {
            let mut sorted: Vec<(String, Value)> = fields
                .iter()
                .map(|(k, val)| (k.clone(), canonicalize(val)))
                .collect();
            sorted.sort_by(|a, b| a.0.cmp(&b.0));
            Value::Object(sorted)
        }
        Value::Array(items) => Value::Array(items.iter().map(canonicalize).collect()),
        other => other.clone(),
    }
}

/// Run `f` on a helper thread, waiting at most until `deadline`.  On
/// timeout the caller gets a 503 and the helper thread is detached: its
/// result is discarded when it eventually finishes (simulations have no
/// cancellation points, so this is the abort the service can offer).
pub fn run_with_deadline<T: Send + 'static>(
    deadline: Instant,
    label: &'static str,
    f: impl FnOnce() -> T + Send + 'static,
) -> Result<T, HttpError> {
    let (tx, rx) = mpsc::channel();
    std::thread::Builder::new()
        .name(format!("memhierd-{label}"))
        .spawn(move || {
            let _ = tx.send(f());
        })
        .map_err(|e| HttpError::status(500, format!("spawning {label} worker: {e}")))?;
    let remaining = deadline.saturating_duration_since(Instant::now());
    rx.recv_timeout(remaining)
        .map_err(|_| HttpError::status(503, format!("deadline exceeded during {label}")))
}

fn json_error(e: serde_json::Error) -> HttpError {
    HttpError::status(500, format!("serializing response: {e}"))
}

/// Pretty body with the same trailing newline `println!` gives the CLI's
/// `--json` output.
fn pretty_body<T: serde::Serialize>(value: &T) -> Result<String, HttpError> {
    Ok(format!(
        "{}\n",
        serde_json::to_string_pretty(value).map_err(json_error)?
    ))
}

fn body_object(req: &Request) -> Result<Value, HttpError> {
    let text = req.body_str()?;
    let v: Value = serde_json::from_str(text.trim())
        .map_err(|e| HttpError::bad(format!("request body is not valid JSON: {e}")))?;
    match v {
        Value::Object(_) => Ok(v),
        _ => Err(HttpError::bad("request body must be a JSON object")),
    }
}

/// Route one parsed request.  `deadline` is absolute (accept time plus the
/// configured per-request timeout).
pub fn handle(req: &Request, state: &AppState, deadline: Instant) -> Response {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") | ("GET", "/livez") => healthz(state),
        ("GET", "/readyz") => readyz(state),
        ("GET", "/metrics") => metrics(state),
        ("GET", "/v1/registry") => registry(),
        ("POST", "/v1/registry") => Response::error(405, "use GET without a body"),
        ("POST", "/v1/model")
        | ("POST", "/v1/simulate")
        | ("POST", "/v1/recommend")
        | ("POST", "/v1/optimize")
        | ("POST", "/v1/sweep") => cached_post(req, state, deadline),
        // Uncached: the answer depends on the trace file on disk, so a
        // memoized body could go stale if the file is re-recorded.
        ("POST", "/v1/fit") => fit_post(req, deadline),
        ("GET", "/v1/model")
        | ("GET", "/v1/simulate")
        | ("GET", "/v1/recommend")
        | ("GET", "/v1/optimize")
        | ("GET", "/v1/sweep")
        | ("GET", "/v1/fit") => Response::error(405, "use POST with a JSON body"),
        _ => Response::error(404, &format!("no route for {} {}", req.method, req.path)),
    }
}

fn healthz(state: &AppState) -> Response {
    let body = serde_json::json!({
        "status": "ok",
        "service": "memhierd",
        "version": env!("CARGO_PKG_VERSION"),
        "uptime_seconds": state.metrics.uptime_seconds(),
    });
    match pretty_body(&body) {
        Ok(b) => Response::json(200, b),
        Err(e) => Response::error(e.status, &e.message),
    }
}

/// `GET /readyz`: 200 only while the listener is accepting and no drain
/// has begun; 503 with the phase name otherwise.
fn readyz(state: &AppState) -> Response {
    let (status, phase) = match state.readiness() {
        Readiness::Ready => (200, "ready"),
        Readiness::Starting => (503, "starting"),
        Readiness::Draining => (503, "draining"),
    };
    let body = serde_json::json!({
        "status": phase,
        "service": "memhierd",
    });
    match pretty_body(&body) {
        Ok(b) => Response::json(status, b),
        Err(e) => Response::error(e.status, &e.message),
    }
}

fn metrics(state: &AppState) -> Response {
    let doc = state
        .metrics
        .render(state.cache.stats(), state.queue_capacity, state.workers);
    match pretty_body(&doc) {
        Ok(b) => Response::json(200, b),
        Err(e) => Response::error(e.status, &e.message),
    }
}

/// `GET /v1/registry`: the workload/platform/network registry document.
/// Static per process (registration happens at startup), so it is
/// answered inline on the event loop without touching the cache.
fn registry() -> Response {
    match pretty_body(&memhier_bench::registry_json()) {
        Ok(b) => Response::json(200, b),
        Err(e) => Response::error(e.status, &e.message),
    }
}

/// The memoization key for a cacheable POST: method, path, and the
/// request JSON canonicalized (sorted keys, compact form).
fn cache_key(req: &Request, parsed: &Value) -> String {
    let canon = canonicalize(parsed);
    let compact = serde_json::to_string(&canon).unwrap_or_default();
    format!("{} {}\n{compact}", req.method, req.path)
}

/// Compute one cacheable POST body (no cache involvement).
fn compute_cacheable(path: &str, parsed: &Value, deadline: Instant) -> Result<String, HttpError> {
    match path {
        "/v1/model" => v1_model(parsed),
        "/v1/simulate" => v1_simulate(parsed, deadline),
        "/v1/recommend" => v1_recommend(parsed, deadline),
        "/v1/optimize" => v1_optimize(parsed, deadline),
        "/v1/sweep" => v1_sweep(parsed, deadline),
        // Routing only sends the five paths above here.
        other => Err(HttpError::status(500, format!("unroutable path {other}"))),
    }
}

/// The shared memoization wrapper for every `/v1` POST.
fn cached_post(req: &Request, state: &AppState, deadline: Instant) -> Response {
    let parsed = match body_object(req) {
        Ok(v) => v,
        Err(e) => return Response::error(e.status, &e.message),
    };
    let key = cache_key(req, &parsed);
    if let Some(hit) = state.cache.get(&key) {
        return Response::json(hit.status, hit.body.clone()).with_header("X-Cache", "hit");
    }
    match compute_cacheable(&req.path, &parsed, deadline) {
        Ok(body) => {
            state.cache.insert(key, 200, body.clone());
            Response::json(200, body).with_header("X-Cache", "miss")
        }
        Err(e) => Response::error(e.status, &e.message),
    }
}

/// What the event loop should do with one parsed request — the split
/// behind "hits answered on the loop, misses handed to the pool".
#[derive(Debug)]
pub enum FastRoute {
    /// Fully answered without a worker: health/readiness/metrics, every
    /// routing or parse error, and fresh cache hits.
    Done(Response),
    /// A stale cache hit: serve `response` (already stamped
    /// `X-Cache: stale`) immediately, **and** dispatch a background
    /// revalidation of `key` — this arm is only returned when the
    /// caller allowed revalidation and this request won the entry's
    /// single-flight latch.
    StaleRevalidate {
        /// The stale body to serve right now.
        response: Response,
        /// Cache key the background recomputation must refresh.
        key: String,
    },
    /// A genuine miss: hand the request to a worker
    /// ([`compute_response`]), which memoizes under `key` (`None` for
    /// `/v1/fit`, which is never cached).
    Miss {
        /// Memoization key, when the endpoint is cacheable.
        key: Option<String>,
    },
}

/// Route one request as far as it can go **on the event loop** without
/// blocking: GETs, errors, and cache hits are answered inline; only
/// work that actually computes reaches a worker.
///
/// `cache_ttl` bounds memoized-entry age (`None` = entries never go
/// stale).  `allow_revalidate` is the load-shedding input: when `false`
/// (queue above its watermark) stale entries are served without
/// queueing a refresh, shedding recomputation load first.
pub fn route_fast(
    req: &Request,
    state: &AppState,
    cache_ttl: Option<Duration>,
    allow_revalidate: bool,
) -> FastRoute {
    match (req.method.as_str(), req.path.as_str()) {
        ("POST", "/v1/model")
        | ("POST", "/v1/simulate")
        | ("POST", "/v1/recommend")
        | ("POST", "/v1/optimize")
        | ("POST", "/v1/sweep") => {
            let parsed = match body_object(req) {
                Ok(v) => v,
                Err(e) => return FastRoute::Done(Response::error(e.status, &e.message)),
            };
            let key = cache_key(req, &parsed);
            match state.cache.get(&key) {
                Some(hit) if !hit.is_stale(cache_ttl) => FastRoute::Done(
                    Response::json(hit.status, hit.body.clone()).with_header("X-Cache", "hit"),
                ),
                Some(stale) => {
                    let response = Response::json(stale.status, stale.body.clone())
                        .with_header("X-Cache", "stale");
                    state.metrics.on_stale_served();
                    if allow_revalidate && stale.try_begin_revalidate() {
                        state.metrics.on_revalidate();
                        FastRoute::StaleRevalidate { response, key }
                    } else {
                        FastRoute::Done(response)
                    }
                }
                None => FastRoute::Miss { key: Some(key) },
            }
        }
        ("POST", "/v1/fit") => FastRoute::Miss { key: None },
        // Everything else — health probes, metrics, 404s, 405s — is
        // cheap enough to answer inline.
        _ => FastRoute::Done(handle(req, state, Instant::now())),
    }
}

/// Worker-side computation for a [`FastRoute::Miss`]: compute the body,
/// memoize 200s under `key`, and stamp `X-Cache: miss`.
pub fn compute_response(
    req: &Request,
    state: &AppState,
    deadline: Instant,
    key: Option<&str>,
) -> Response {
    if req.path == "/v1/fit" {
        return fit_post(req, deadline);
    }
    let parsed = match body_object(req) {
        Ok(v) => v,
        Err(e) => return Response::error(e.status, &e.message),
    };
    match compute_cacheable(&req.path, &parsed, deadline) {
        Ok(body) => {
            if let Some(k) = key {
                state.cache.insert(k.to_string(), 200, body.clone());
            }
            Response::json(200, body).with_header("X-Cache", "miss")
        }
        Err(e) => Response::error(e.status, &e.message),
    }
}

/// Worker-side background refresh for a [`FastRoute::StaleRevalidate`]:
/// recompute and re-insert (a fresh insert resets both the entry's age
/// and its single-flight latch); on failure release the old entry's
/// latch so a later stale hit can try again.
pub fn revalidate(req: &Request, state: &AppState, deadline: Instant, key: &str) {
    let response = compute_response(req, state, deadline, Some(key));
    if response.status != 200 {
        if let Some(entry) = state.cache.get(key) {
            entry.end_revalidate();
        }
    }
}

fn v1_model(v: &Value) -> Result<String, HttpError> {
    // The body is a `Scenario` (the model endpoint just has no use for
    // its size/observer fields).
    let scenario = Scenario::from_json(v)?;
    let w = scenario.workload.params();
    let p = AnalyticModel::default()
        .evaluate(&scenario.config, &w)
        .map_err(|e| HttpError::status(422, e.to_string()))?;
    pretty_body(&p)
}

fn v1_simulate(v: &Value, deadline: Instant) -> Result<String, HttpError> {
    // A missing `size` means `medium`, matching the CLI's default tier
    // and preserving byte parity with a flagless `memhier simulate
    // --json`.
    let scenario = Scenario::from_json_default(v, Sizes::Medium)?;
    let out = run_with_deadline(deadline, "simulate", move || scenario.run())?;
    pretty_body(&out.run.report)
}

/// Evaluation-stage cost errors are 422s (the request parsed fine, the
/// work it asked for is impossible); parse errors go through
/// `From<CostError>` as 400s.
fn cost_unprocessable(e: CostError) -> HttpError {
    HttpError::status(422, e.to_string())
}

fn v1_recommend(v: &Value, deadline: Instant) -> Result<String, HttpError> {
    let req = RecommendRequest::from_json(v)?;
    // The measure path replays the workload trace — the expensive branch
    // the deadline guards and the response cache absorbs.
    let report = run_with_deadline(deadline, "recommend", move || run_recommend(&req))?
        .map_err(cost_unprocessable)?;
    pretty_body(&report)
}

fn v1_optimize(v: &Value, deadline: Instant) -> Result<String, HttpError> {
    let req = OptimizeRequest::from_json(v)?;
    let candidates = req.search_space.len();
    if candidates > MAX_OPTIMIZE_CANDIDATES {
        return Err(HttpError::bad(format!(
            "search space of {candidates} candidates exceeds the \
             {MAX_OPTIMIZE_CANDIDATES}-candidate cap"
        )));
    }
    if req.confirm > MAX_OPTIMIZE_CONFIRM {
        return Err(HttpError::bad(format!(
            "confirm of {} finalists exceeds the {MAX_OPTIMIZE_CONFIRM}-point cap",
            req.confirm
        )));
    }
    let report = run_with_deadline(deadline, "optimize", move || run_optimize(&req))?
        .map_err(cost_unprocessable)?;
    pretty_body(&report)
}

/// `POST /v1/fit`: parse the body as a [`FitRequest`] (400 on parse
/// errors, exactly the validation `memhier fit --trace` applies), then
/// stream the trace through the out-of-core fitter (422 when the file is
/// unreadable or the fit is degenerate).
fn fit_post(req: &Request, deadline: Instant) -> Response {
    let parsed = match body_object(req) {
        Ok(v) => v,
        Err(e) => return Response::error(e.status, &e.message),
    };
    match v1_fit(&parsed, deadline) {
        Ok(body) => Response::json(200, body),
        Err(e) => Response::error(e.status, &e.message),
    }
}

fn v1_fit(v: &Value, deadline: Instant) -> Result<String, HttpError> {
    let req = FitRequest::from_json(v)?;
    let report = run_with_deadline(deadline, "fit", move || run_fit(&req))?
        .map_err(|e| HttpError::status(422, e.to_string()))?;
    pretty_body(&report.to_json())
}

fn v1_sweep(v: &Value, deadline: Instant) -> Result<String, HttpError> {
    // One scenario per `configs × workloads` grid point; a missing
    // `size` means `small` (sweeps multiply cost by the grid area).
    let scenarios = Scenario::expand_grid(v, Sizes::Small)?;
    if scenarios.is_empty() {
        return Err(HttpError::bad(
            "`configs` and `workloads` must be non-empty",
        ));
    }
    if scenarios.len() > MAX_SWEEP_POINTS {
        return Err(HttpError::bad(format!(
            "grid of {} points exceeds the {MAX_SWEEP_POINTS}-point cap",
            scenarios.len()
        )));
    }
    let plan = Scenario::sweep_plan("serve", &scenarios)?;
    let results = run_with_deadline(deadline, "sweep", move || run_sweep(&plan))?;
    let rows: Vec<Value> = results
        .iter()
        .map(|r| {
            serde_json::json!({
                "config": r.point.cluster.name,
                "workload": r.point.kind.name(),
                "e_instr_cycles": r.run.report.e_instr_cycles,
                "e_instr_seconds": r.run.report.e_instr_seconds,
                "wall_cycles": r.run.report.wall_cycles,
                "barriers": r.run.report.barriers,
            })
        })
        .collect();
    pretty_body(&Value::Array(rows))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn post(path: &str, body: &str) -> Request {
        Request {
            method: "POST".into(),
            path: path.into(),
            headers: vec![],
            body: body.as_bytes().to_vec(),
        }
    }

    fn state() -> AppState {
        AppState::new(16, 2, 8, 1)
    }

    fn far_deadline() -> Instant {
        Instant::now() + std::time::Duration::from_secs(60)
    }

    #[test]
    fn canonicalize_sorts_keys_recursively() {
        let a: Value =
            serde_json::from_str(r#"{"b": {"y": 1, "x": 2}, "a": [ {"q": 1, "p": 2} ]}"#).unwrap();
        let b: Value =
            serde_json::from_str(r#"{"a": [{"p": 2, "q": 1}], "b": {"x": 2, "y": 1}}"#).unwrap();
        assert_eq!(
            serde_json::to_string(&canonicalize(&a)).unwrap(),
            serde_json::to_string(&canonicalize(&b)).unwrap()
        );
    }

    #[test]
    fn model_endpoint_matches_direct_evaluation() {
        let r = handle(
            &post("/v1/model", r#"{"config": "C5", "workload": "FFT"}"#),
            &state(),
            far_deadline(),
        );
        assert_eq!(r.status, 200);
        let body: Value =
            serde_json::from_str(std::str::from_utf8(&r.body).unwrap().trim()).unwrap();
        let scenario: Scenario = "C5:FFT".parse().unwrap();
        let direct = AnalyticModel::default()
            .evaluate(&scenario.config, &scenario.workload.params())
            .unwrap();
        assert_eq!(
            body["e_instr_seconds"].as_f64(),
            Some(direct.e_instr_seconds)
        );
    }

    #[test]
    fn model_cache_hits_on_reordered_keys() {
        let s = state();
        let r1 = handle(
            &post("/v1/model", r#"{"config": "C1", "workload": "LU"}"#),
            &s,
            far_deadline(),
        );
        let r2 = handle(
            &post("/v1/model", r#"{ "workload": "LU", "config": "C1" }"#),
            &s,
            far_deadline(),
        );
        assert_eq!(r1.status, 200);
        assert_eq!(r2.status, 200);
        assert_eq!(r1.body, r2.body);
        let hit = r2.headers.iter().find(|(n, _)| *n == "X-Cache").unwrap();
        assert_eq!(hit.1, "hit");
        assert_eq!(s.cache.stats().hits, 1);
    }

    #[test]
    fn unknown_names_are_400_and_uncached() {
        let s = state();
        for body in [
            r#"{"config": "C99", "workload": "FFT"}"#,
            r#"{"config": "C1", "workload": "SORT"}"#,
            r#"{"config": "C1"}"#,
            r#"not json"#,
            r#"[1, 2]"#,
        ] {
            let r = handle(&post("/v1/model", body), &s, far_deadline());
            assert_eq!(r.status, 400, "{body}");
        }
        assert_eq!(s.cache.stats().entries, 0, "errors must not be cached");
    }

    #[test]
    fn recommend_custom_params_and_validation() {
        let r = handle(
            &post(
                "/v1/recommend",
                r#"{"alpha": 1.5, "beta": 50.0, "rho": 0.2}"#,
            ),
            &state(),
            far_deadline(),
        );
        assert_eq!(r.status, 200);
        let v: Value = serde_json::from_str(std::str::from_utf8(&r.body).unwrap().trim()).unwrap();
        assert_eq!(v["platform"].as_str(), Some("ManyWorkstationsSlowNetwork"));
        // Out-of-domain parameters fail typed-request parsing: a 400,
        // not a panic.
        let r = handle(
            &post(
                "/v1/recommend",
                r#"{"alpha": 0.5, "beta": 50.0, "rho": 0.2}"#,
            ),
            &state(),
            far_deadline(),
        );
        assert_eq!(r.status, 400);
    }

    #[test]
    fn recommend_with_budget_ranks_clusters() {
        let r = handle(
            &post(
                "/v1/recommend",
                r#"{"workload": "Radix", "budget": 20000, "top": 2}"#,
            ),
            &state(),
            far_deadline(),
        );
        assert_eq!(r.status, 200);
        let v: Value = serde_json::from_str(std::str::from_utf8(&r.body).unwrap().trim()).unwrap();
        let ranked = v["ranked"].as_array().expect("ranked present");
        assert!(!ranked.is_empty() && ranked.len() <= 2);
        assert!(ranked[0]["cost"].as_f64().unwrap() <= 20000.0);
    }

    #[test]
    fn optimize_endpoint_searches_and_reports() {
        let r = handle(
            &post(
                "/v1/optimize",
                r#"{"workload": "LU", "budget": 8000,
                    "search_space": {"max_machines": 4, "memory_mb": [32, 64]}}"#,
            ),
            &state(),
            far_deadline(),
        );
        assert_eq!(r.status, 200);
        let v: Value = serde_json::from_str(std::str::from_utf8(&r.body).unwrap().trim()).unwrap();
        let search = &v["search"];
        assert!(search["candidates"].as_u64().unwrap() > 0);
        assert_eq!(search["confirmed"].as_u64(), Some(0));
        assert_eq!(search["pruning_ratio"].as_f64(), Some(1.0));
        assert!(!v["pareto"].as_array().unwrap().is_empty());
        assert!(v["best"]["cost"].as_f64().unwrap() <= 8000.0);
    }

    #[test]
    fn optimize_request_caps_and_typos_are_400() {
        for body in [
            // An unknown field fails the typed parse.
            r#"{"workload": "LU", "budget": 8000, "buget": 1}"#,
            // The candidate grid is capped.
            r#"{"workload": "LU", "budget": 8000,
                "search_space": {"max_machines": 1000000}}"#,
            // The confirmation count shares the sweep cap.
            r#"{"workload": "LU", "budget": 8000, "confirm": 65}"#,
        ] {
            let r = handle(&post("/v1/optimize", body), &state(), far_deadline());
            assert_eq!(r.status, 400, "{body}");
        }
        // A well-formed request for an unsimulatable confirmation is a
        // 422: it parsed, but the work is impossible.
        let r = handle(
            &post(
                "/v1/optimize",
                r#"{"workload": {"alpha": 1.5, "beta": 90, "rho": 0.3},
                    "budget": 8000, "confirm": 2}"#,
            ),
            &state(),
            far_deadline(),
        );
        assert_eq!(r.status, 422);
    }

    #[test]
    fn sweep_grid_is_capped() {
        let configs: Vec<String> = (1..=15).map(|i| format!("\"C{i}\"")).collect();
        let body = format!(
            r#"{{"configs": [{}], "workloads": ["FFT", "LU", "Radix", "EDGE", "TPC-C"]}}"#,
            configs.join(",")
        );
        let r = handle(&post("/v1/sweep", &body), &state(), far_deadline());
        assert_eq!(r.status, 400);
        let msg = String::from_utf8(r.body).unwrap();
        assert!(msg.contains("exceeds"), "{msg}");
    }

    #[test]
    fn typos_in_sweep_bodies_and_inline_specs_are_400s() {
        let cases = [
            (
                post(
                    "/v1/sweep",
                    r#"{"configs": ["C5"], "workloads": ["LU"], "sise": "paper"}"#,
                ),
                "`sise`",
            ),
            (
                post(
                    "/v1/simulate",
                    r#"{"config": {"machine": {"n_procs": 2, "cache_bytes": 262144,
                                               "memory_bytes": 67108864, "clock_hz": 2e8,
                                               "numaa": {"domains": 2,
                                                         "remote_penalty_cycles": 40}},
                                   "machines": 1},
                        "workload": "LU", "size": "small"}"#,
                ),
                "`config.machine.numaa`",
            ),
        ];
        for (req, key) in cases {
            let r = handle(&req, &state(), far_deadline());
            assert_eq!(r.status, 400, "{}", req.path);
            let v: Value =
                serde_json::from_str(std::str::from_utf8(&r.body).unwrap().trim()).unwrap();
            assert_eq!(v["error"]["code"].as_str(), Some("bad_request"));
            let msg = v["error"]["message"].as_str().unwrap();
            assert!(msg.contains(key), "{msg}");
        }
    }

    /// `sim_threads` once selected a second engine.  Bodies written for
    /// it must keep working: the key is type-checked, then ignored.
    #[test]
    fn retired_sim_threads_key_is_accepted_and_ignored() {
        for (path, without, with) in [
            (
                "/v1/simulate",
                r#"{"config": "C1", "workload": "FFT", "size": "small"}"#,
                r#"{"config": "C1", "workload": "FFT", "size": "small", "sim_threads": 4}"#,
            ),
            (
                "/v1/sweep",
                r#"{"configs": ["C1", "C5"], "workloads": ["FFT"]}"#,
                r#"{"configs": ["C1", "C5"], "workloads": ["FFT"], "sim_threads": 4}"#,
            ),
        ] {
            let plain = handle(&post(path, without), &state(), far_deadline());
            let legacy = handle(&post(path, with), &state(), far_deadline());
            assert_eq!(plain.status, 200, "{path}");
            assert_eq!(legacy.status, 200, "{path}");
            assert_eq!(plain.body, legacy.body, "{path}");

            let bad = with.replace("\"sim_threads\": 4", "\"sim_threads\": \"x\"");
            let r = handle(&post(path, &bad), &state(), far_deadline());
            assert_eq!(r.status, 400, "{path}");
            let msg = String::from_utf8(r.body).unwrap();
            assert!(
                msg.contains("`sim_threads`: must be a non-negative integer"),
                "{msg}"
            );
        }
    }

    #[test]
    fn unknown_route_is_404_get_on_post_route_is_405() {
        let mut req = post("/v1/nothing", "{}");
        assert_eq!(handle(&req, &state(), far_deadline()).status, 404);
        req.method = "GET".into();
        req.path = "/v1/model".into();
        assert_eq!(handle(&req, &state(), far_deadline()).status, 405);
    }

    #[test]
    fn registry_lists_workloads_platforms_networks() {
        let mut req = post("/v1/registry", "");
        req.method = "GET".into();
        let r = handle(&req, &state(), far_deadline());
        assert_eq!(r.status, 200);
        let v: Value = serde_json::from_str(std::str::from_utf8(&r.body).unwrap().trim()).unwrap();
        let keys = |section: &str| -> Vec<String> {
            v[section]
                .as_array()
                .unwrap()
                .iter()
                .map(|e| e["key"].as_str().unwrap().to_string())
                .collect()
        };
        assert!(keys("workloads").contains(&"Stencil4D".to_string()));
        assert!(keys("platforms").contains(&"fattree-cow".to_string()));
        assert!(keys("networks").contains(&"FatTree".to_string()));
        // Every workload entry publishes a parameter schema.
        for w in v["workloads"].as_array().unwrap() {
            assert!(!w["params"].as_array().unwrap().is_empty());
        }
        // POST on the GET route is a 405 in the unified envelope.
        let r = handle(&post("/v1/registry", "{}"), &state(), far_deadline());
        assert_eq!(r.status, 405);
    }

    #[test]
    fn error_bodies_share_the_typed_envelope() {
        let cases = [
            (
                post("/v1/model", r#"{"config": "C99", "workload": "FFT"}"#),
                400,
                "bad_request",
            ),
            (
                post(
                    "/v1/simulate",
                    r#"{"config": {"platform": "clump", "params": {"machines": 3, "procs": 4}},
                        "workload": "EDGE", "size": "small"}"#,
                ),
                400,
                "bad_request",
            ),
            (post("/v1/nothing", "{}"), 404, "not_found"),
        ];
        for (req, status, code) in cases {
            let r = handle(&req, &state(), far_deadline());
            assert_eq!(r.status, status);
            let v: Value =
                serde_json::from_str(std::str::from_utf8(&r.body).unwrap().trim()).unwrap();
            let e = &v["error"];
            assert_eq!(e["status"].as_u64(), Some(status as u64));
            assert_eq!(e["code"].as_str(), Some(code));
            assert!(!e["message"].as_str().unwrap().is_empty());
        }
    }

    fn get(path: &str) -> Request {
        Request {
            method: "GET".into(),
            path: path.into(),
            headers: vec![],
            body: vec![],
        }
    }

    #[test]
    fn liveness_is_200_in_every_phase_readiness_tracks_lifecycle() {
        let s = state();
        // Starting: alive but not ready.
        assert_eq!(handle(&get("/healthz"), &s, far_deadline()).status, 200);
        assert_eq!(handle(&get("/livez"), &s, far_deadline()).status, 200);
        let r = handle(&get("/readyz"), &s, far_deadline());
        assert_eq!(r.status, 503);
        assert!(String::from_utf8(r.body).unwrap().contains("starting"));
        // Ready.
        s.set_ready();
        assert_eq!(s.readiness(), Readiness::Ready);
        assert_eq!(handle(&get("/readyz"), &s, far_deadline()).status, 200);
        // Draining: readiness drops, liveness does not.
        s.begin_drain();
        assert_eq!(s.readiness(), Readiness::Draining);
        let r = handle(&get("/readyz"), &s, far_deadline());
        assert_eq!(r.status, 503);
        assert!(String::from_utf8(r.body).unwrap().contains("draining"));
        assert_eq!(handle(&get("/livez"), &s, far_deadline()).status, 200);
        assert_eq!(handle(&get("/healthz"), &s, far_deadline()).status, 200);
    }

    #[test]
    fn route_fast_answers_gets_and_errors_inline() {
        let s = state();
        for req in [
            get("/healthz"),
            get("/metrics"),
            get("/readyz"),
            get("/nothing"),
            post("/v1/model", "not json"),
        ] {
            assert!(
                matches!(route_fast(&req, &s, None, true), FastRoute::Done(_)),
                "{} {} must not reach a worker",
                req.method,
                req.path
            );
        }
        // GET on a POST route: inline 405.
        match route_fast(&get("/v1/model"), &s, None, true) {
            FastRoute::Done(r) => assert_eq!(r.status, 405),
            other => panic!("expected Done, got {other:?}"),
        }
    }

    #[test]
    fn route_fast_miss_then_hit_through_compute_response() {
        let s = state();
        let req = post("/v1/model", r#"{"config": "C3", "workload": "FFT"}"#);
        let key = match route_fast(&req, &s, None, true) {
            FastRoute::Miss { key: Some(k) } => k,
            other => panic!("cold cache must be a miss, got {other:?}"),
        };
        let computed = compute_response(&req, &s, far_deadline(), Some(&key));
        assert_eq!(computed.status, 200);
        // Same request again: answered inline, byte-identical body.
        match route_fast(&req, &s, None, true) {
            FastRoute::Done(hit) => {
                assert_eq!(hit.body, computed.body);
                let x = hit.headers.iter().find(|(n, _)| *n == "X-Cache").unwrap();
                assert_eq!(x.1, "hit");
            }
            other => panic!("warm cache must be Done, got {other:?}"),
        }
        // /v1/fit is a keyless miss (never memoized).
        assert!(matches!(
            route_fast(&post("/v1/fit", r#"{"trace": "/nope"}"#), &s, None, true),
            FastRoute::Miss { key: None }
        ));
    }

    #[test]
    fn stale_entries_serve_immediately_and_revalidate_single_flight() {
        let s = state();
        let req = post("/v1/model", r#"{"config": "C2", "workload": "LU"}"#);
        let key = match route_fast(&req, &s, None, true) {
            FastRoute::Miss { key: Some(k) } => k,
            other => panic!("{other:?}"),
        };
        compute_response(&req, &s, far_deadline(), Some(&key));
        std::thread::sleep(Duration::from_millis(10));
        let ttl = Some(Duration::from_millis(1));
        // First stale hit: served, wins the revalidation latch.
        let stale_key = match route_fast(&req, &s, ttl, true) {
            FastRoute::StaleRevalidate { response, key: k } => {
                assert_eq!(response.status, 200);
                let x = response.headers.iter().find(|(n, _)| *n == "X-Cache");
                assert_eq!(x.unwrap().1, "stale");
                k
            }
            other => panic!("expected StaleRevalidate, got {other:?}"),
        };
        // Second stale hit while the first refresh is pending: served,
        // but no second revalidation.
        assert!(matches!(
            route_fast(&req, &s, ttl, true),
            FastRoute::Done(_)
        ));
        // Shedding mode (`allow_revalidate = false`) also just serves.
        assert!(matches!(
            route_fast(&req, &s, ttl, false),
            FastRoute::Done(_)
        ));
        assert_eq!(s.metrics.stale_served_count(), 3);
        // The background refresh re-inserts; the entry is fresh again.
        revalidate(&req, &s, far_deadline(), &stale_key);
        match route_fast(&req, &s, Some(Duration::from_secs(3600)), true) {
            FastRoute::Done(r) => {
                let x = r.headers.iter().find(|(n, _)| *n == "X-Cache").unwrap();
                assert_eq!(x.1, "hit", "revalidated entry is fresh");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn failed_revalidation_releases_the_latch() {
        let s = state();
        // /v1/simulate goes through run_with_deadline, so an expired
        // deadline makes the refresh genuinely fail with 503.
        let req = post(
            "/v1/simulate",
            r#"{"config": "C1", "workload": "FFT", "size": "small"}"#,
        );
        let key = match route_fast(&req, &s, None, true) {
            FastRoute::Miss { key: Some(k) } => k,
            other => panic!("{other:?}"),
        };
        compute_response(&req, &s, far_deadline(), Some(&key));
        std::thread::sleep(Duration::from_millis(10));
        let ttl = Some(Duration::from_millis(1));
        match route_fast(&req, &s, ttl, true) {
            FastRoute::StaleRevalidate { key: k, .. } => {
                // Simulate the refresh failing (expired deadline → 503,
                // nothing inserted): the latch must reopen.
                revalidate(&req, &s, Instant::now() - Duration::from_secs(1), &k);
            }
            other => panic!("{other:?}"),
        }
        assert!(
            matches!(
                route_fast(&req, &s, ttl, true),
                FastRoute::StaleRevalidate { .. }
            ),
            "a later stale hit can claim the released latch"
        );
    }

    #[test]
    fn deadline_expires_simulation() {
        let r = handle(
            &post(
                "/v1/simulate",
                r#"{"config": "C8", "workload": "LU", "size": "small"}"#,
            ),
            &state(),
            Instant::now(), // already expired
        );
        assert_eq!(r.status, 503);
        let msg = String::from_utf8(r.body).unwrap();
        assert!(msg.contains("deadline"), "{msg}");
    }
}
