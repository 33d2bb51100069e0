//! The traced run: per-layer metrics.
//!
//! A traced run times a pointer chase (host drift), runs one pass of the
//! workload's own end-to-end path with its spans kept, then repeats a
//! battery of layer probes on the workload's scenarios while time
//! remains, and loads a memhierd child for the serve layer.  Each probe
//! calls one layer's public functions directly, so its time is that
//! layer's alone.  The layer probes run at [`Plan::layer_size`].
//!
//! Every layer metric is emitted by every workload, measured on that
//! workload's scenarios (serve_mix: its `/v1/simulate` bases at small
//! size); per-scenario values are folded with a geometric mean (costs) or
//! an arithmetic mean (ratios).

use crate::batch::{self, backend_for, check_run, digest, scenario};
use crate::serve_mix;
use crate::spans::{Recorder, SpanId};
use crate::stats::{geomean, mean, median};
use crate::stream::SplitMix;
use crate::{Outcome, Plan, Workload};
use memhier_bench::names::paper_params;
use memhier_bench::record_scenario;
use memhier_core::model::AnalyticModel;
use memhier_cost::{OptimizeRequest, WorkloadSpec};
use memhier_sim::cache::{LineState, SetAssocCache};
use memhier_sim::{MemEvent, ProcSource, SimReport, SimSession};
use memhier_trace::{run_fit, FitRequest, StreamAnalyzer, TraceReader, TraceWriter};
use memhier_workloads::spmd::{collect_events, run_spmd};
use std::hint::black_box;
use std::io::Cursor;
use std::sync::Arc;
use std::time::Instant;

/// Entries of the host-drift pointer chase: 64 MiB of `u64`.
const CHASE_ENTRIES: usize = 8 << 20;
const CHASE_STEPS: usize = 2 << 20;

/// Budget of the optimize and analyze probes, dollars.
const BUDGET: f64 = 20_000.0;

/// Share of a batch workload's traced run given to the serve layer.
const SERVE_SHARE: f64 = 0.15;

/// Share of serve_mix's traced run given to the serve layer.
const SERVE_MIX_SHARE: f64 = 0.6;

/// A single-cycle random permutation: each step is a dependent load from
/// anywhere in 64 MiB, so its time tracks the host's memory latency.
struct Chase {
    next: Vec<u64>,
}

impl Chase {
    fn new() -> Chase {
        let mut next: Vec<u64> = (0..CHASE_ENTRIES as u64).collect();
        let mut rng = SplitMix::new(0x5EED);
        // Sattolo's algorithm: one cycle through every entry.
        for i in (1..CHASE_ENTRIES).rev() {
            next.swap(i, (rng.next_u64() % i as u64) as usize);
        }
        Chase { next }
    }

    fn ns_per_step(&self) -> f64 {
        let t = Instant::now();
        let mut i = 0u64;
        for _ in 0..CHASE_STEPS {
            i = self.next[i as usize];
        }
        black_box(i);
        t.elapsed().as_secs_f64() * 1e9 / CHASE_STEPS as f64
    }
}

/// `SetAssocCache` lookup+insert over random lines of a working set twice
/// the cache (256 KB, 2-way, 64 B lines), in ns per access.
fn cache_probe_ns() -> f64 {
    const ACCESSES: usize = 1 << 22;
    let mut cache = SetAssocCache::new(256 * 1024, 2, 64);
    let mut rng = SplitMix::new(0xCAC4E);
    let addrs: Vec<u64> = (0..ACCESSES)
        .map(|_| rng.next_u64() % (512 * 1024))
        .collect();
    let t = Instant::now();
    for &a in &addrs {
        if cache.lookup(a).is_none() {
            black_box(cache.insert(a, LineState::Exclusive));
        }
    }
    black_box(&cache);
    t.elapsed().as_secs_f64() * 1e9 / ACCESSES as f64
}

/// Run `f` in a span; returns its value and seconds.
fn timed<T>(
    rec: &mut Recorder,
    name: &'static str,
    tag: &str,
    parent: SpanId,
    req: u64,
    f: impl FnOnce() -> T,
) -> (T, f64) {
    let id = rec.begin(name, tag, Some(parent), req);
    let v = f();
    rec.end(id);
    (v, rec.seconds(id))
}

/// One scenario's layer probe, in seconds unless noted.
#[derive(Debug, Clone)]
struct Probe {
    report: SimReport,
    refs: f64,
    e2e: f64,
    gen: f64,
    replay: f64,
    epoch1: f64,
    epoch2: f64,
    record: f64,
    records: f64,
    decode: f64,
    encode: f64,
    bytes: f64,
    push: f64,
    finish: f64,
    peak_state: f64,
    run_fit: f64,
    analyze: f64,
    candidates: f64,
    model: f64,
}

fn replay(
    s: &memhier_bench::Scenario,
    program: &dyn memhier_workloads::spmd::SpmdProgram,
    traces: &[Arc<[MemEvent]>],
    threads: usize,
) -> SimReport {
    SimSession::new(backend_for(s, program))
        .with_sources(
            traces
                .iter()
                .map(|t| ProcSource::shared(Arc::clone(t)))
                .collect(),
        )
        .sim_threads(threads)
        .run()
        .report
}

/// Probe every layer on scenario `name`, checking that the layers agree
/// with each other.
fn probe(
    name: &str,
    plan: &Plan,
    rec: &mut Recorder,
    parent: SpanId,
    req: u64,
    errors: &mut Vec<String>,
) -> Result<Probe, String> {
    let s = scenario(name, plan.layer_size());
    let (run, e2e) = timed(rec, "bench.scenario_run", name, parent, req, || s.run().run);
    errors.extend(check_run(name, &run, None));
    let want = digest(&run.report);

    // Kernels sort or factor their data in place, so every consumer
    // gets a fresh instance.
    let instance = || {
        s.resolved_workload()
            .instantiate(s.config.total_procs() as usize)
    };
    let (counters, gen) = timed(rec, "workloads.run_spmd", name, parent, req, || {
        run_spmd(instance())
    });
    if counters.mem_refs() != run.report.total_refs {
        errors.push(format!(
            "{name}: run_spmd issued {} references, the simulation saw {}",
            counters.mem_refs(),
            run.report.total_refs
        ));
    }
    let program = instance();
    let (traces, _) = timed(rec, "workloads.collect_events", name, parent, req, || {
        collect_events(Arc::clone(&program))
            .into_iter()
            .map(|(events, _)| Arc::<[MemEvent]>::from(events))
            .collect::<Vec<_>>()
    });
    let (classic, replay_s) = timed(rec, "sim.replay_classic", name, parent, req, || {
        replay(&s, &*program, &traces, 0)
    });
    if digest(&classic) != want {
        errors.push(format!(
            "{name}: replaying collected traces changed the SimReport"
        ));
    }
    let (ep1, epoch1) = timed(rec, "sim.replay_epoch1", name, parent, req, || {
        replay(&s, &*program, &traces, 1)
    });
    let threads = std::thread::available_parallelism().map_or(2, |n| n.get());
    let (ep2, epoch2) = timed(rec, "sim.replay_epoch2", name, parent, req, || {
        replay(&s, &*program, &traces, threads)
    });
    if digest(&ep1) != digest(&ep2) {
        errors.push(format!(
            "{name}: the epoch engine's report differs between 1 and {threads} threads"
        ));
    }
    drop(traces);

    let path = batch::trace_path(plan, name);
    let (summary, record) = timed(rec, "bench.record_scenario", name, parent, req, || {
        record_scenario(&s, &path)
    });
    let summary = summary.map_err(|e| format!("{name}: record: {e}"))?;
    let file = std::fs::read(&path).map_err(|e| format!("{name}: reading the trace: {e}"));
    let (addrs, decode) = timed(
        rec,
        "trace.decode",
        name,
        parent,
        req,
        || -> Result<Vec<u64>, String> {
            let mut reader = TraceReader::open(&path).map_err(|e| e.to_string())?;
            let mut addrs = Vec::with_capacity(summary.records as usize);
            while let Some(a) = reader.next_record().map_err(|e| e.to_string())? {
                addrs.push(a);
            }
            Ok(addrs)
        },
    );
    let (fitted, run_fit_s) = timed(rec, "trace.run_fit", name, parent, req, || {
        run_fit(&FitRequest::new(path.to_string_lossy()))
    });
    let _ = std::fs::remove_file(&path);
    let (file, addrs) = (file?, addrs.map_err(|e| format!("{name}: decode: {e}"))?);
    let fitted = fitted.map_err(|e| format!("{name}: fit: {e}"))?;

    let mut encoded = Vec::with_capacity(file.len());
    let (enc, encode) = timed(
        rec,
        "trace.encode",
        name,
        parent,
        req,
        || -> Result<u64, String> {
            let mut w =
                TraceWriter::new(Cursor::new(&mut encoded), 1).map_err(|e| e.to_string())?;
            for &a in &addrs {
                w.record(a).map_err(|e| e.to_string())?;
            }
            w.finish(summary.total_instructions)
                .map_err(|e| e.to_string())
        },
    );
    enc.map_err(|e| format!("{name}: encode: {e}"))?;
    if encoded != file {
        errors.push(format!(
            "{name}: re-encoding the decoded trace changed its bytes"
        ));
    }
    let mut analyzer = StreamAnalyzer::new(64);
    let (_, push) = timed(rec, "trace.stream_push", name, parent, req, || {
        analyzer.push_chunk(&addrs)
    });
    let peak_state = analyzer.peak_state_bytes() as f64;
    let (report, finish) = timed(rec, "trace.fit_finish", name, parent, req, || {
        analyzer.finish(summary.total_instructions)
    });
    match report {
        Ok(r) if r == fitted => {}
        Ok(_) => errors.push(format!("{name}: the streamed fit differs from run_fit's")),
        Err(e) => errors.push(format!("{name}: fit: {e}")),
    }

    let request = OptimizeRequest::new(
        WorkloadSpec::named(s.workload.name()).map_err(|e| e.to_string())?,
        BUDGET,
    );
    let (candidates, analyze) = timed(rec, "cost.analyze_eval", name, parent, req, || {
        memhier_cost::analyze_eval(&request).map(|(r, _)| r.search.candidates as f64)
    });
    let candidates = candidates.map_err(|e| format!("{name}: analyze: {e}"))?;
    let params = paper_params(s.workload);
    let model_calls = 200;
    let (_, model) = timed(rec, "core.evaluate", name, parent, req, || {
        for _ in 0..model_calls {
            black_box(AnalyticModel::default().evaluate(black_box(&s.config), &params)).ok();
        }
    });
    Ok(Probe {
        report: run.report,
        refs: counters.mem_refs() as f64,
        e2e,
        gen,
        replay: replay_s,
        epoch1,
        epoch2,
        record,
        records: summary.records as f64,
        decode,
        encode,
        bytes: file.len() as f64,
        push,
        finish,
        peak_state,
        run_fit: run_fit_s,
        analyze,
        candidates,
        model: model / model_calls as f64,
    })
}

/// Nanoseconds one `begin`/`end` span pair costs the recorder.
fn span_cost_ns() -> f64 {
    const N: usize = 20_000;
    let mut scratch = Recorder::new();
    let t = Instant::now();
    for i in 0..N {
        let id = scratch.begin("ledger.span_cost", "", None, i as u64);
        scratch.end(id);
    }
    t.elapsed().as_secs_f64() * 1e9 / N as f64
}

/// The traced run of `workload`.
pub fn run(workload: Workload, plan: &Plan, rec: &mut Recorder) -> Outcome {
    let start = Instant::now();
    let mut out = Outcome::default();
    let chase = Chase::new();
    let chase_start = chase.ns_per_step();

    // One pass of the workload's own end-to-end path, spans kept; the
    // serve layer's phase is serve_mix's own path.
    let one_pass = Plan {
        seconds: 0.0,
        ..plan.clone()
    };
    let (before, t) = (rec.spans().len(), Instant::now());
    let serve_seconds = match workload {
        Workload::ServeMix => SERVE_MIX_SHARE * plan.seconds,
        Workload::TraceFit => {
            batch::trace_passes(workload, &one_pass, rec, &mut out);
            SERVE_SHARE * plan.seconds
        }
        _ => {
            batch::sim_passes(workload, &one_pass, rec, &mut out);
            SERVE_SHARE * plan.seconds
        }
    };
    let native = (rec.spans().len() - before, t.elapsed().as_secs_f64());

    // Layer probes while time remains (at least one round), keeping
    // room for the serve layer.
    let names = workload.scenarios();
    let mut probes: Vec<Vec<Probe>> = vec![Vec::new(); names.len()];
    let mut round = 0u64;
    let mut last = 0.0;
    while round == 0 || start.elapsed().as_secs_f64() + last + serve_seconds <= plan.seconds {
        let root = rec.begin("ledger.layer_round", workload.name(), None, round);
        for (i, name) in names.iter().enumerate() {
            let op = rec.begin("ledger.layer_probe", name, Some(root), round);
            let mut errors = Vec::new();
            match probe(name, plan, rec, op, round, &mut errors) {
                Ok(p) => probes[i].push(p),
                Err(e) => errors.push(e),
            }
            rec.end(op);
            out.op(errors);
        }
        rec.end(root);
        last = rec.seconds(root);
        round += 1;
    }
    let cache_ns = cache_probe_ns();
    let serve = serve_mix::layer(plan, serve_seconds, &mut out, rec);
    let chase_end = chase.ns_per_step();
    if probes.iter().any(Vec::is_empty) {
        return out;
    }

    // Per-scenario medians over rounds, then one value per layer metric:
    // a geometric mean for costs, an arithmetic mean for ratios.
    let per = |f: &dyn Fn(&Probe) -> f64| -> Vec<f64> {
        probes
            .iter()
            .map(|ps| median(&ps.iter().map(f).collect::<Vec<_>>()))
            .collect()
    };
    let cost = |f: &dyn Fn(&Probe) -> f64| geomean(&per(f));
    let ratio = |f: &dyn Fn(&Probe) -> f64| mean(&per(f));
    let reports: Vec<&SimReport> = probes.iter().map(|ps| &ps[0].report).collect();
    let simulated =
        |f: &dyn Fn(&SimReport) -> f64| mean(&reports.iter().map(|r| f(r)).collect::<Vec<_>>());
    let n = round as usize;
    let k = reports.len();
    let residual = match workload {
        Workload::ServeMix => serve.map(|(_, _, r)| r),
        Workload::TraceFit => Some(ratio(&|p| {
            let layers = p.gen + p.replay + p.encode + p.decode + p.push + p.finish + p.analyze;
            1.0 - layers / (p.record + p.run_fit + p.analyze)
        })),
        _ => Some(ratio(&|p| 1.0 - (p.gen + p.replay) / p.e2e)),
    };
    let (spans, wall) = match workload {
        Workload::ServeMix => serve.map_or((0, f64::NAN), |(spans, wall, _)| (spans, wall)),
        _ => native,
    };
    #[rustfmt::skip]
    let rows = [
        ("host.chase_ns_start", "ns", chase_start, CHASE_STEPS, "64 MiB pointer chase, per step, at the start"),
        ("host.chase_ns_end", "ns", chase_end, CHASE_STEPS, "64 MiB pointer chase, per step, at the end"),
        ("workloads.gen_ns_per_ref", "ns", cost(&|p| p.gen * 1e9 / p.refs), n, "run_spmd with the trace discarded"),
        ("sim.replay_ns_per_ref", "ns", cost(&|p| p.replay * 1e9 / p.refs), n, "classic engine over shared in-memory traces"),
        ("sim.replay_epoch1_ns_per_ref", "ns", cost(&|p| p.epoch1 * 1e9 / p.refs), n, "epoch engine, 1 thread"),
        ("sim.replay_epoch2_ns_per_ref", "ns", cost(&|p| p.epoch2 * 1e9 / p.refs), n, "epoch engine, one thread per core"),
        ("sim.cache_probe_ns", "ns", cache_ns, 1, "SetAssocCache lookup+insert, 256 KB 2-way"),
        ("sim.stream_overhead_frac", "ratio", ratio(&|p| (p.e2e - p.replay) / p.e2e), n, "(Scenario::run - replay) / Scenario::run"),
        ("sim.l1_miss_ratio", "ratio", simulated(&|r| 1.0 - r.levels.l1_hits as f64 / r.total_refs as f64), k, "simulated"),
        ("sim.remote_ratio", "ratio", simulated(&|r| (r.levels.remote_clean + r.levels.remote_dirty) as f64 / r.total_refs as f64), k, "simulated"),
        ("sim.bus_util_max", "ratio", simulated(&|r| (0..r.bus_busy_cycles.len()).map(|i| r.bus_utilization(i)).fold(0.0, f64::max)), k, "simulated"),
        ("sim.net_util", "ratio", simulated(&|r| r.network_utilization()), k, "simulated"),
        ("trace.encode_ns_per_rec", "ns", cost(&|p| p.encode * 1e9 / p.records), n, ".mtr encode into memory"),
        ("trace.decode_ns_per_rec", "ns", cost(&|p| p.decode * 1e9 / p.records), n, ".mtr decode from file"),
        ("trace.stackdist_ns_per_rec", "ns", cost(&|p| p.push * 1e9 / p.records), n, "StreamAnalyzer push (stack distance + milestone fits)"),
        ("trace.fit_finish_ms", "ms", cost(&|p| p.finish * 1e3), n, "StreamAnalyzer::finish"),
        ("trace.bytes_per_rec", "B/rec", cost(&|p| p.bytes / p.records), n, ".mtr file bytes per record"),
        ("trace.peak_state_kb", "KiB", cost(&|p| p.peak_state / 1024.0), n, "stack-distance state high-water mark"),
        ("trace.run_fit_s", "s", cost(&|p| p.run_fit), n, "run_fit on the recorded file"),
        ("bench.record_s", "s", cost(&|p| p.record), n, "record_scenario"),
        ("bench.record_observer_frac", "ratio", ratio(&|p| (p.record - p.e2e) / p.record), n, "(record - Scenario::run) / record"),
        ("cost.analyze_cands_per_s", "1/s", cost(&|p| p.candidates / p.analyze), n, "analyze_eval over the paper market"),
        ("core.model_eval_us", "us", cost(&|p| p.model * 1e6), n, "AnalyticModel::evaluate"),
        ("residual_frac", "ratio", residual.unwrap_or(f64::NAN), n, "end-to-end time the layer self-times do not explain"),
        ("trace_overhead_frac", "ratio", spans as f64 * span_cost_ns() * 1e-9 / wall, spans, "span recording cost / the wall time the spans cover"),
    ];
    for (name, unit, value, samples, note) in rows {
        out.metric(name, unit, value, samples, note);
    }
    out
}
