//! The `serve_mix` workload: memhierd as a child process, driven over
//! TCP by the request stream of [`crate::stream`].
//!
//! A run is [`CHUNKS`] rounds of: set memhierd up (spawn → `/readyz`
//! 200 → hot pool warmed), then keep both connections busy, each sending
//! its next request as soon as the last reply lands.  The requests per
//! second completed and each request class's median latency are the
//! end-to-end numbers; rounds spread the set-ups and memory readings over
//! the run, so a short stall of the host does not decide them.  The
//! traced run adds an open-loop phase at [`RATED_RPS`], with latency
//! counted from each request's due time.  Every response is
//! checked: status 200, hot bodies byte-equal to what the library
//! computes in-process, and per phase the first body of each distinct
//! class byte-equal to the in-process CLI JSON.

use crate::spans::{Recorder, Span};
use crate::stats::{geomean, mean, median, percentile, sorted, tail};
use crate::stream::{drive, schedule, Class, Planned, Sample, Wall, HOT_POOL, MIX, STREAMS};
use crate::{Outcome, Plan, Workload};
use memhier_bench::names::{config_by_name, paper_params};
use memhier_bench::{run_optimize, run_recommend, LoadClient, Reply, Scenario, Sizes};
use memhier_core::model::AnalyticModel;
use memhier_cost::{OptimizeRequest, RecommendRequest};
use memhier_serve::{ServeConfig, Server};
use serde_json::Value;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// memhierd's worker threads (`memhier serve --workers 2`).
pub const WORKERS: usize = 2;

/// Request rate of the traced run's open-loop phase: half the saturation
/// throughput measured on the seed commit, rounded down to 50.
pub const RATED_RPS: f64 = 2_050.0;

/// Saturation throughput is counted per window of this many seconds and
/// reported as the median window, so a short stall of the host moves
/// one window, not the result.
const WINDOW_S: f64 = 1.0;

/// Requests planned per stream and second of the saturation phase: more
/// than a connection can complete.
const SATURATION_PLAN_RPS: f64 = 10_000.0;

/// Rounds of a run, each on a fresh memhierd.
const CHUNKS: usize = 5;

/// Set-ups per round (all but the last are stopped at once);
/// `setup_s` is the median over the run.
const SETUPS_PER_CHUNK: usize = 2;

const MODEL_CONFIGS: [&str; 8] = ["C1", "C2", "C4", "C5", "C7", "C9", "C10", "C13"];
const KERNELS: [&str; 4] = ["FFT", "LU", "Radix", "EDGE"];
const BUDGETS: [f64; 4] = [8_000.0, 12_000.0, 20_000.0, 30_000.0];

/// One memhierd request.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    pub path: &'static str,
    /// `None` for a GET.
    pub body: Option<String>,
}

fn post(path: &'static str, body: Value) -> Request {
    Request {
        path,
        body: Some(serde_json::to_string(&body).expect("bodies serialize")),
    }
}

/// A named config as an inline, unnamed spec whose clock is offset by
/// `hz`, so that each distinct key is a distinct (uncached) body with the
/// same simulated work.
fn inline_config(name: &str, hz: u64) -> Value {
    let mut spec = config_by_name(name).expect("the ledger's configs exist");
    spec.name = None;
    spec.machine.clock_hz += hz as f64;
    serde_json::to_value(&spec).expect("specs serialize")
}

/// The request planned as (`class`, `key`).
pub fn request(class: Class, key: u64) -> Request {
    match class {
        Class::Probe => Request {
            path: "/healthz",
            body: None,
        },
        // The hot pool: 16 model bodies, then 16 recommend bodies.
        Class::Hot if key < HOT_POOL / 2 => post(
            "/v1/model",
            serde_json::json!({
                "config": MODEL_CONFIGS[(key / 2) as usize],
                "workload": KERNELS[(key % 2) as usize],
            }),
        ),
        Class::Hot => {
            let k = (key - HOT_POOL / 2) as usize;
            post(
                "/v1/recommend",
                serde_json::json!({
                    "workload": KERNELS[k % 4],
                    "budget": BUDGETS[k / 4],
                    "top": 3u64,
                }),
            )
        }
        Class::Model => post(
            "/v1/model",
            serde_json::json!({
                "config": inline_config(MODEL_CONFIGS[(key % 8) as usize], key),
                "workload": KERNELS[(key / 8 % 4) as usize],
            }),
        ),
        // The budget moves by 2^-20 dollars per key: distinct bodies,
        // the same search work.
        Class::Optimize => post(
            "/v1/optimize",
            serde_json::json!({
                "workload": KERNELS[(key % 4) as usize],
                "budget": 15_000.0 + key as f64 / (1u64 << 20) as f64,
            }),
        ),
        Class::Simulate => {
            let bases = Workload::ServeMix.scenarios();
            let (config, workload) = bases[(key % bases.len() as u64) as usize]
                .split_once('-')
                .expect("CONFIG-WORKLOAD");
            post(
                "/v1/simulate",
                serde_json::json!({
                    "config": inline_config(config, key),
                    "workload": workload,
                    "size": "small",
                }),
            )
        }
    }
}

impl Request {
    /// The request's HTTP/1.1 bytes.
    pub fn wire(&self) -> Vec<u8> {
        match &self.body {
            None => format!("GET {} HTTP/1.1\r\nHost: ledger\r\n\r\n", self.path).into_bytes(),
            Some(body) => format!(
                "POST {} HTTP/1.1\r\nHost: ledger\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
                self.path,
                body.len()
            )
            .into_bytes(),
        }
    }

    /// The body the CLI prints for this request with `--json`, computed
    /// in-process by the same library calls.
    pub fn reference(&self) -> Result<String, String> {
        let body: Value = match &self.body {
            Some(b) => serde_json::from_str(b).map_err(|e| e.to_string())?,
            None => return Err("GET requests have no CLI counterpart".to_string()),
        };
        let text = match self.path {
            "/v1/model" => {
                let s = Scenario::from_json(&body).map_err(|e| e.to_string())?;
                let p = AnalyticModel::default()
                    .evaluate(&s.config, &paper_params(s.workload))
                    .map_err(|e| e.to_string())?;
                serde_json::to_string_pretty(&p)
            }
            "/v1/simulate" => {
                let s =
                    Scenario::from_json_default(&body, Sizes::Medium).map_err(|e| e.to_string())?;
                serde_json::to_string_pretty(&s.run().run.report)
            }
            "/v1/recommend" => {
                let req = RecommendRequest::from_json(&body).map_err(|e| e.to_string())?;
                let report = run_recommend(&req).map_err(|e| e.to_string())?;
                serde_json::to_string_pretty(&report.to_json())
            }
            "/v1/optimize" => {
                let req = OptimizeRequest::from_json(&body).map_err(|e| e.to_string())?;
                let report = run_optimize(&req).map_err(|e| e.to_string())?;
                serde_json::to_string_pretty(&report.to_json())
            }
            other => return Err(format!("no CLI counterpart for {other}")),
        };
        Ok(format!("{}\n", text.map_err(|e| e.to_string())?))
    }
}

/// Body of the memhierd child (`ledger --memhierd`): serve on an
/// ephemeral port, print the address, and stop when stdin closes.
pub fn memhierd_child() -> Result<(), String> {
    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: WORKERS,
        ..ServeConfig::default()
    })
    .map_err(|e| format!("memhierd: {e}"))?;
    let mut stdout = std::io::stdout();
    writeln!(stdout, "{}", server.local_addr()).map_err(|e| e.to_string())?;
    stdout.flush().map_err(|e| e.to_string())?;
    // The parent closes our stdin to stop us (or by exiting).
    let _ = std::io::stdin().read_to_end(&mut Vec::new());
    server.shutdown();
    Ok(())
}

/// A running memhierd child.  Dropping it kills the child and waits.
pub struct Daemon {
    child: Child,
    pub addr: String,
}

impl Daemon {
    pub fn spawn(exe: &Path) -> Result<Daemon, String> {
        let mut child = Command::new(exe)
            .arg("--memhierd")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawning memhierd: {e}"))?;
        let mut line = String::new();
        BufReader::new(child.stdout.take().expect("stdout is piped"))
            .read_line(&mut line)
            .map_err(|e| format!("reading memhierd's address: {e}"))?;
        let addr = line.trim().to_string();
        let daemon = Daemon { child, addr };
        if daemon.addr.is_empty() {
            return Err("memhierd exited before listening".to_string());
        }
        Ok(daemon)
    }

    /// Poll `/readyz` until it answers 200.
    pub fn wait_ready(&self) -> Result<(), String> {
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut client = LoadClient::new(self.addr.clone(), Duration::from_secs(5));
        let probe = Request {
            path: "/readyz",
            body: None,
        }
        .wire();
        loop {
            if matches!(client.exchange(&probe), Ok(r) if r.status == 200) {
                return Ok(());
            }
            if Instant::now() > deadline {
                return Err("memhierd never became ready".to_string());
            }
            client.disconnect();
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// memhierd's peak resident set so far, in MB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        crate::peak_rss_mb(&self.child.id().to_string())
    }

    /// Close memhierd's stdin and wait for its clean exit.
    pub fn stop(mut self) -> Result<(), String> {
        drop(self.child.stdin.take());
        let status = self.child.wait().map_err(|e| e.to_string())?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("memhierd exited with {status}"))
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// The hot pool's request bytes and expected (in-process) bodies.
pub struct HotPool {
    wires: Vec<Vec<u8>>,
    bodies: Vec<Vec<u8>>,
}

impl HotPool {
    pub fn build() -> Result<HotPool, String> {
        let reqs: Vec<Request> = (0..HOT_POOL).map(|k| request(Class::Hot, k)).collect();
        Ok(HotPool {
            wires: reqs.iter().map(Request::wire).collect(),
            bodies: reqs
                .iter()
                .map(|r| r.reference().map(String::into_bytes))
                .collect::<Result<_, _>>()?,
        })
    }

    /// Request every hot body once (filling the cache), checking each.
    fn warm(&self, addr: &str) -> Vec<String> {
        let mut client = LoadClient::new(addr.to_string(), Duration::from_secs(30));
        let mut errors = Vec::new();
        for (k, wire) in self.wires.iter().enumerate() {
            match client.exchange(wire) {
                Ok(r) if r.status == 200 && r.body == self.bodies[k] => {}
                Ok(r) => errors.push(format!(
                    "warming hot body {k}: status {} or body differs from the CLI JSON",
                    r.status
                )),
                Err(e) => errors.push(format!("warming hot body {k}: {e}")),
            }
        }
        errors
    }
}

/// Spawn memhierd, wait for `/readyz`, warm the hot pool.  Returns the
/// daemon and the set-up seconds.
pub fn set_up(exe: &Path, hot: &HotPool, out: &mut Outcome) -> Result<(Daemon, f64), String> {
    let t = Instant::now();
    let daemon = Daemon::spawn(exe)?;
    daemon.wait_ready()?;
    let errors = hot.warm(&daemon.addr);
    let seconds = t.elapsed().as_secs_f64();
    out.op(errors);
    Ok((daemon, seconds))
}

/// One load phase's results.
pub struct Phase {
    pub samples: Vec<Sample>,
    pub errors: Vec<String>,
    /// Requests memhierd shed with a 429.
    pub shed: u64,
    pub reconnects: u64,
    /// The first body answered for each distinct-body class.
    pub firsts: BTreeMap<Class, (u64, Vec<u8>)>,
    pub start: Instant,
    pub end: Instant,
}

/// Exchange times (ms) of the `class` requests among `samples`.
fn exchange_ms(samples: &[Sample], class: Class) -> Vec<f64> {
    samples
        .iter()
        .filter(|s| s.class == class)
        .map(|s| (s.done - s.sent).as_secs_f64() * 1e3)
        .collect()
}

/// Check one reply; distinct-body classes are checked after the phase.
fn check_reply(p: &Planned, reply: &Reply, hot: &HotPool) -> Result<(), String> {
    if reply.status != 200 {
        return Err(format!(
            "{} request {}: status {}",
            p.class.name(),
            p.key,
            reply.status
        ));
    }
    let ok = match p.class {
        Class::Probe => String::from_utf8_lossy(&reply.body).contains("\"status\": \"ok\""),
        Class::Hot => reply.body == hot.bodies[p.key as usize],
        _ => true,
    };
    if ok {
        Ok(())
    } else {
        Err(format!(
            "{} request {}: unexpected body",
            p.class.name(),
            p.key
        ))
    }
}

/// The open-loop plan of phase `phase`: both streams at `rate` in total.
pub fn open_loop(seed: u64, phase: u64, rate: f64, length: Duration) -> Vec<Vec<Planned>> {
    (0..STREAMS)
        .map(|s| schedule(seed, s, phase, rate / STREAMS as f64, length))
        .collect()
}

/// A closed-loop plan: the same request mix, every request due at once,
/// so each connection sends its next request when the last reply lands.
fn closed_loop(seed: u64, phase: u64, length: Duration) -> Vec<Vec<Planned>> {
    let mut plans = open_loop(seed, phase, SATURATION_PLAN_RPS * STREAMS as f64, length);
    for p in plans.iter_mut().flatten() {
        p.due = Duration::ZERO;
    }
    plans
}

/// Send `plans` (one per stream, each on its own connection and thread),
/// stopping at `until` when given.
pub fn run_phase(
    addr: &str,
    plans: &[Vec<Planned>],
    until: Option<Duration>,
    hot: &HotPool,
) -> Phase {
    let start = Instant::now();
    let results: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = plans
            .iter()
            .map(|plan| {
                scope.spawn(move || {
                    let mut client = LoadClient::new(addr.to_string(), Duration::from_secs(30));
                    let mut errors = Vec::new();
                    let mut shed = 0;
                    let mut firsts = BTreeMap::new();
                    let samples = drive(&Wall(start), plan, until, |p| {
                        let built;
                        let wire = match p.class {
                            Class::Hot => &hot.wires[p.key as usize],
                            _ => {
                                built = request(p.class, p.key).wire();
                                &built
                            }
                        };
                        let result = client
                            .exchange(wire)
                            .map_err(|e| format!("{} request {}: {e}", p.class.name(), p.key))
                            .and_then(|reply| {
                                shed += u64::from(reply.status == 429);
                                check_reply(p, &reply, hot).map(|()| reply)
                            });
                        match result {
                            Ok(reply) if !matches!(p.class, Class::Probe | Class::Hot) => {
                                firsts.entry(p.class).or_insert((p.key, reply.body));
                            }
                            Ok(_) => {}
                            Err(e) => errors.push(e),
                        }
                    });
                    (samples, errors, shed, client.reconnects(), firsts)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load threads do not panic"))
            .collect()
    });
    let mut phase = Phase {
        samples: Vec::new(),
        errors: Vec::new(),
        shed: 0,
        reconnects: 0,
        firsts: BTreeMap::new(),
        start,
        end: Instant::now(),
    };
    for (samples, errors, shed, reconnects, firsts) in results {
        phase.samples.extend(samples);
        phase.errors.extend(errors);
        phase.shed += shed;
        phase.reconnects += reconnects;
        for (class, first) in firsts {
            phase.firsts.entry(class).or_insert(first);
        }
    }
    phase
}

impl Phase {
    /// Ascending latencies (ms, from the due time) of `class`, or of
    /// every request.
    pub fn latencies(&self, class: Option<Class>) -> Vec<f64> {
        let v: Vec<f64> = self
            .samples
            .iter()
            .filter(|s| class.is_none_or(|c| s.class == c))
            .map(Sample::latency_ms)
            .collect();
        sorted(&v)
    }

    /// Requests completed per second in each whole `WINDOW_S` window of
    /// a phase of `length` (one window of `length` when it is shorter).
    fn window_rates(&self, length: Duration) -> Vec<f64> {
        let window = WINDOW_S.min(length.as_secs_f64());
        let windows = (length.as_secs_f64() / window).floor() as usize;
        let mut counts = vec![0usize; windows];
        for s in &self.samples {
            let w = (s.done.as_secs_f64() / window) as usize;
            if w < windows {
                counts[w] += 1;
            }
        }
        counts.iter().map(|&c| c as f64 / window).collect()
    }

    /// Compare the first answered body of each distinct-body class with
    /// the in-process CLI JSON.
    fn check_firsts(&self) -> Vec<String> {
        self.firsts
            .iter()
            .filter_map(
                |(&class, (key, body))| match request(class, *key).reference() {
                    Ok(want) if want.as_bytes() == body.as_slice() => None,
                    Ok(_) => Some(format!(
                        "{} request {key}: body differs from the CLI JSON",
                        class.name()
                    )),
                    Err(e) => Some(format!(
                        "{} request {key}: in-process reference failed: {e}",
                        class.name()
                    )),
                },
            )
            .collect()
    }

    /// Count the phase's requests (and its body check) into `out`.
    fn account(&self, out: &mut Outcome) {
        out.ops(self.samples.len() as u64, self.errors.clone());
        out.op(self.check_firsts());
    }

    /// Record the phase as a root span with one child per request;
    /// returns how many spans that is.
    fn record(&self, rec: &mut Recorder, name: &'static str, phase: u64) -> usize {
        let base = rec.offset(self.start);
        let root = rec.push(Span {
            name,
            tag: String::new(),
            start_ns: base,
            end_ns: rec.offset(self.end),
            parent: None,
            req: phase << 32,
        });
        for (i, s) in self.samples.iter().enumerate() {
            rec.push(Span {
                name: "serve.request",
                tag: s.class.name().to_string(),
                start_ns: base + s.sent.as_nanos() as u64,
                end_ns: base + s.done.as_nanos() as u64,
                parent: Some(root),
                req: phase << 32 | i as u64,
            });
        }
        self.samples.len() + 1
    }
}

/// The untraced `serve_mix` run.
pub fn run(plan: &Plan, rec: &mut Recorder) -> Outcome {
    let mut out = Outcome::default();
    let hot = match HotPool::build() {
        Ok(h) => h,
        Err(e) => {
            out.op(vec![format!("hot pool: {e}")]);
            return out;
        }
    };
    let length = Duration::from_secs_f64(plan.seconds / CHUNKS as f64);
    let (mut setups, mut rates, mut rss, mut samples) = (vec![], vec![], vec![], vec![]);
    for chunk in 0..CHUNKS as u64 {
        let mut daemon: Option<Daemon> = None;
        for _ in 0..SETUPS_PER_CHUNK {
            if let Some(d) = daemon.take() {
                if let Err(e) = d.stop() {
                    out.op(vec![e]);
                }
            }
            match set_up(&plan.exe, &hot, &mut out) {
                Ok((d, seconds)) => {
                    setups.push(seconds);
                    daemon = Some(d);
                }
                Err(e) => {
                    out.op(vec![e]);
                    return out;
                }
            }
        }
        let daemon = daemon.expect("every round sets memhierd up");
        let phase = run_phase(
            &daemon.addr,
            &closed_loop(plan.seed, chunk + 1, length),
            Some(length),
            &hot,
        );
        phase.account(&mut out);
        phase.record(rec, "serve.saturated", chunk + 1);
        rates.extend(phase.window_rates(length));
        match daemon.peak_rss_mb() {
            Ok(mb) => rss.push(mb),
            Err(e) => out.op(vec![e]),
        }
        if let Err(e) = daemon.stop() {
            out.op(vec![e]);
        }
        samples.extend(phase.samples);
    }
    let medians: Vec<f64> = MIX
        .iter()
        .map(|&(class, _)| exchange_ms(&samples, class))
        .filter(|l| !l.is_empty())
        .map(|l| median(&l))
        .collect();
    if medians.len() < MIX.len() || rss.is_empty() {
        out.op(vec![
            "serve_mix measured no latency for some class".to_string()
        ]);
        return out;
    }
    for ((class, _), m) in MIX.iter().zip(&medians) {
        out.details
            .push(format!("{}: median latency {m:.4} ms", class.name()));
    }
    out.details.push(format!(
        "{} requests in {CHUNKS} rounds of {:.1} s",
        samples.len(),
        length.as_secs_f64()
    ));
    out.metric(
        "rate_per_s",
        "1/s",
        median(&rates),
        rates.len(),
        "requests completed per second, both connections always busy: median over 1 s windows",
    );
    out.metric(
        "latency_ms",
        "ms",
        geomean(&medians),
        samples.len(),
        "geomean over request classes of each one's median latency",
    );
    out.metric(
        "setup_s",
        "s",
        median(&setups),
        setups.len(),
        "spawn -> /readyz 200 -> hot pool warmed: median",
    );
    out.metric(
        "peak_rss_mb",
        "MB",
        median(&rss),
        rss.len(),
        "VmHWM of memhierd at the end of a round: median",
    );
    out
}

/// `/metrics` counters: (requests timed, mean latency us, cache hits,
/// cache misses).
fn server_counters(addr: &str) -> Result<(f64, f64, f64, f64), String> {
    let mut client = LoadClient::new(addr.to_string(), Duration::from_secs(5));
    let wire = Request {
        path: "/metrics",
        body: None,
    }
    .wire();
    let reply = client
        .exchange(&wire)
        .map_err(|e| format!("/metrics: {e}"))?;
    let v: Value = serde_json::from_str(String::from_utf8_lossy(&reply.body).trim())
        .map_err(|e| format!("/metrics: {e}"))?;
    let num = |v: &Value| {
        v.as_f64()
            .ok_or_else(|| "/metrics: missing counter".to_string())
    };
    Ok((
        num(&v["latency_us"]["count"])?,
        num(&v["latency_us"]["mean_us"])?,
        num(&v["cache"]["hits"])?,
        num(&v["cache"]["misses"])?,
    ))
}

/// In-process computation time of the bodies of `class` memhierd
/// answered, p50 in ms (the first is a warm-up and not timed).
fn in_process_p50_ms(phase: &Phase, class: Class) -> Option<f64> {
    let reqs: Vec<Request> = phase
        .samples
        .iter()
        .filter(|s| s.class == class)
        .take(17)
        .map(|s| request(class, s.key))
        .collect();
    let times: Vec<f64> = reqs
        .iter()
        .enumerate()
        .filter_map(|(i, req)| {
            let t = Instant::now();
            let ok = req.reference().is_ok();
            (ok && i > 0).then(|| t.elapsed().as_secs_f64() * 1e3)
        })
        .collect();
    (!times.is_empty()).then(|| median(&times))
}

/// The serve layer's per-layer metrics: one memhierd, loaded at
/// [`RATED_RPS`] for `seconds`.  Returns the span count of the phase, its
/// wall seconds, and its residual (the share of the client's mean exchange
/// time memhierd's own latency histogram does not account for).
pub fn layer(
    plan: &Plan,
    seconds: f64,
    out: &mut Outcome,
    rec: &mut Recorder,
) -> Option<(usize, f64, f64)> {
    let hot = match HotPool::build() {
        Ok(h) => h,
        Err(e) => {
            out.op(vec![format!("hot pool: {e}")]);
            return None;
        }
    };
    let daemon = match set_up(&plan.exe, &hot, out) {
        Ok((d, _)) => d,
        Err(e) => {
            out.op(vec![e]);
            return None;
        }
    };
    let before = server_counters(&daemon.addr);
    let length = Duration::from_secs_f64(seconds);
    let phase = run_phase(
        &daemon.addr,
        &open_loop(plan.seed, 2, RATED_RPS, length),
        None,
        &hot,
    );
    let after = server_counters(&daemon.addr);
    phase.account(out);
    let spans = phase.record(rec, "serve.layer", 2);
    if let Err(e) = daemon.stop() {
        out.op(vec![e]);
    }
    let ((c0, m0, h0, x0), (c1, m1, h1, x1)) = match (before, after) {
        (Ok(b), Ok(a)) => (b, a),
        (Err(e), _) | (_, Err(e)) => {
            out.op(vec![e]);
            return None;
        }
    };
    let n = phase.samples.len();
    if n == 0 || c1 <= c0 {
        out.op(vec!["serve layer: no requests measured".to_string()]);
        return None;
    }
    let all = phase.latencies(None);
    let hits = phase.latencies(Some(Class::Hot));
    let late = sorted(
        &phase
            .samples
            .iter()
            .map(Sample::lateness_ms)
            .collect::<Vec<_>>(),
    );
    let server_mean_ms = (c1 * m1 - c0 * m0) / (c1 - c0) / 1e3;
    let exchange: Vec<f64> = phase
        .samples
        .iter()
        .map(|s| (s.done - s.sent).as_secs_f64() * 1e3)
        .collect();
    let client_mean_ms = mean(&exchange);
    let at = format!("all requests at {RATED_RPS} req/s, from the due time");
    #[rustfmt::skip]
    let rows = [
        ("serve.p50_ms", "ms", percentile(&all, 0.5), n, at.clone()),
        ("serve.p99_ms", "ms", percentile(&all, 0.99), n, at),
        ("serve.hit_p50_ms", "ms", percentile(&hits, 0.5), hits.len(), "hot-pool requests (cache hits)".into()),
        ("serve.cache_hit_ratio", "ratio", (h1 - h0) / ((h1 - h0) + (x1 - x0)).max(1.0), n, "memhierd cache hits / lookups".into()),
        ("serve.shed_frac", "ratio", phase.shed as f64 / n as f64, n, "429 answers / requests".into()),
        ("serve.reconnects", "count", phase.reconnects as f64, n, "keep-alive reconnects".into()),
        ("serve.gen_late_p99_ms", "ms", percentile(&late, 0.99), n, "generator lateness, p99".into()),
        ("serve.server_mean_ms", "ms", server_mean_ms, (c1 - c0) as usize, "memhierd's own mean latency (/metrics)".into()),
    ];
    for (name, unit, value, samples, note) in rows {
        out.metric(name, unit, value, samples, note);
    }
    for (name, class) in [
        ("serve.hit_tail_ms", Class::Hot),
        ("serve.probe_tail_ms", Class::Probe),
        ("serve.model_miss_tail_ms", Class::Model),
        ("serve.optimize_tail_ms", Class::Optimize),
        ("serve.simulate_tail_ms", Class::Simulate),
    ] {
        let lat = phase.latencies(Some(class));
        let (value, note) = match tail(&lat) {
            Some((q, v)) => (v, format!("p{} of {}", q * 100.0, lat.len())),
            None => (
                lat.last().copied().unwrap_or(f64::NAN),
                format!("max of {}", lat.len()),
            ),
        };
        out.metric(name, "ms", value, lat.len(), note);
    }
    for (name, class) in [
        ("serve.optimize_overhead_ms", Class::Optimize),
        ("serve.simulate_overhead_ms", Class::Simulate),
    ] {
        let client = exchange_ms(&phase.samples, class);
        match (client.is_empty(), in_process_p50_ms(&phase, class)) {
            (false, Some(local)) => out.metric(
                name,
                "ms",
                median(&client) - local,
                client.len(),
                "client exchange p50 - in-process p50 of the same bodies",
            ),
            _ => out.op(vec![format!(
                "{name}: no {} requests to compare",
                class.name()
            )]),
        }
    }
    let wall = (phase.end - phase.start).as_secs_f64();
    Some((spans, wall, 1.0 - server_mean_ms / client_mean_ms))
}
