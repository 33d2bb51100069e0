//! The batch workloads: `sim_hit`, `sim_miss` and `trace_fit`.
//!
//! A run repeats passes over the workload's scenarios, in an order the
//! seed permutes, while another pass fits in the time budget.  Every
//! simulated run is checked: its level counts partition its references,
//! those equal the generator's, and its `SimReport` digest matches the
//! scenario's golden digest (paper size) or its first pass.

use crate::spans::{Recorder, SpanId};
use crate::stats::{geomean, median};
use crate::stream::SplitMix;
use crate::{Outcome, Plan, Workload};
use memhier_bench::names::sizes_by_name;
use memhier_bench::{
    record_scenario, run_optimize, size_name, RecordSummary, Scenario, SimRun, Sizes,
};
use memhier_core::machine::LatencyParams;
use memhier_cost::{OptimizeReport, OptimizeRequest, WorkloadSpec};
use memhier_sim::{ClusterBackend, SimReport};
use memhier_trace::{run_fit, FitReport, FitRequest};
use memhier_workloads::spmd::{home_map_for, SpmdProgram};
use std::collections::HashMap;
use std::path::Path;
use std::process::Command;
use std::time::Instant;

/// FNV-1a digests of each scenario's paper-size `SimReport` (its compact
/// JSON) on the default (classic) engine.  A change that only speeds the
/// simulator up must leave them all unchanged.
const GOLDEN: [(&str, u64); 9] = [
    ("C5-LU", 0xc828_dd64_c845_7c57),
    ("C14-Radix", 0x0fe4_ea6b_0176_e63c),
    ("FT8-Stencil4D", 0xa33e_bbd1_9193_27cb),
    ("N4-Inference", 0x0a00_9813_50b2_9c32),
    ("N4-GraphWalk", 0xc669_1332_fa9b_af37),
    ("FT16-GraphWalk", 0x214c_8da3_6270_5d3b),
    ("C5-FFT", 0x3455_8432_9d83_3202),
    ("C13-EDGE", 0xbab2_b680_217d_cd44),
    ("C10-TPCC", 0xb0a5_8307_6c1a_b2b8),
];

/// Within a pass, a scenario runs again until it has run this long, so
/// that short scenarios, whose single runs vary most, get more samples.
const SCENARIO_SECONDS: f64 = 0.3;

/// Budget of the optimize step of `trace_fit`, in dollars.
const FIT_BUDGET: f64 = 20_000.0;

/// Set-ups measured before each pass, each in a fresh child process;
/// `setup_s` is their median.  A fresh process pays the set-up the way a
/// user's `memhier simulate` does, whatever the allocator was left
/// holding by earlier runs, and spreading them over the run keeps a short
/// stall of the host from deciding the value.
const SETUPS_PER_PASS: usize = 2;

/// The scenario `CONFIG-WORKLOAD` at `size`.
pub fn scenario(name: &str, size: Sizes) -> Scenario {
    let (config, workload) = name
        .split_once('-')
        .expect("scenario names are CONFIG-WORKLOAD");
    Scenario::builder()
        .config_name(config)
        .workload_name(workload)
        .size(size)
        .build()
        .expect("the ledger's scenarios are valid")
}

/// A fresh back-end for `program` on the scenario's cluster.
pub fn backend_for(s: &Scenario, program: &dyn SpmdProgram) -> ClusterBackend {
    let home = home_map_for(
        program,
        s.config.machines as usize,
        s.config.machine.n_procs as usize,
        256,
    );
    ClusterBackend::new(&s.config, LatencyParams::paper(), home)
}

/// Body of a set-up child (`ledger --setup WORKLOAD SIZE`): do for every
/// scenario of the workload what `Scenario::run` does before its engine
/// starts — resolve it, instantiate the workload program, build its home
/// map and the simulated back-end — and print the seconds it took.
pub fn setup_child(workload: &str, size: &str) -> Result<(), String> {
    let w = Workload::parse(workload).ok_or_else(|| format!("unknown workload `{workload}`"))?;
    let size = sizes_by_name(size)?;
    let t = Instant::now();
    for name in w.scenarios() {
        let s = scenario(name, size);
        let program = s
            .resolved_workload()
            .instantiate(s.config.total_procs() as usize);
        std::hint::black_box(backend_for(&s, &*program));
    }
    println!("{}", t.elapsed().as_secs_f64());
    Ok(())
}

/// One set-up of `workload`, in a fresh child process.
fn setup_in_child(workload: Workload, plan: &Plan) -> Result<f64, String> {
    let out = Command::new(&plan.exe)
        .args(["--setup", workload.name(), size_name(plan.size)])
        .output()
        .map_err(|e| format!("set-up child: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    match (out.status.success(), text.trim().parse()) {
        (true, Ok(seconds)) => Ok(seconds),
        _ => Err(format!(
            "set-up child failed ({}): {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        )),
    }
}

/// 64-bit FNV-1a.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

pub fn digest(report: &SimReport) -> u64 {
    fnv1a(
        serde_json::to_string(report)
            .expect("reports serialize")
            .as_bytes(),
    )
}

/// The golden digest of `name` at `size`, when the ledger has one.
fn golden(name: &str, size: Sizes) -> Option<u64> {
    (size == Sizes::Paper)
        .then(|| GOLDEN.iter().find(|(n, _)| *n == name).map(|&(_, d)| d))
        .flatten()
}

/// Check one simulated run of `name`; `expect` is the digest it must have.
pub fn check_run(name: &str, run: &SimRun, expect: Option<u64>) -> Vec<String> {
    let r = &run.report;
    let mut errors = Vec::new();
    if r.levels.total_refs() != r.total_refs {
        errors.push(format!(
            "{name}: level counts sum to {} of {} references",
            r.levels.total_refs(),
            r.total_refs
        ));
    }
    if r.total_refs != run.counters.mem_refs() {
        errors.push(format!(
            "{name}: simulated {} references, the generator issued {}",
            r.total_refs,
            run.counters.mem_refs()
        ));
    }
    let d = digest(r);
    if let Some(want) = expect {
        if d != want {
            errors.push(format!(
                "{name}: SimReport digest {d:016x}, expected {want:016x}"
            ));
        }
    }
    errors
}

/// The scenario order of pass `pass`: a seeded shuffle.
pub fn order(seed: u64, pass: u64, n: usize) -> Vec<usize> {
    let mut rng = SplitMix::new(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ pass);
    let mut v: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        v.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
    }
    v
}

/// Passes of `pass_fn` while another one fits in `plan.seconds`; at least
/// one.  Each pass is a root span, preceded by [`SETUPS_PER_PASS`]
/// set-ups.  Returns the pass count and the set-up seconds.
fn repeat_passes(
    workload: Workload,
    plan: &Plan,
    rec: &mut Recorder,
    out: &mut Outcome,
    mut pass_fn: impl FnMut(u64, SpanId, &mut Recorder, &mut Outcome),
) -> (u64, Vec<f64>) {
    let start = Instant::now();
    let mut setups = Vec::new();
    let mut last = 0.0;
    let mut pass = 0;
    while pass == 0 || start.elapsed().as_secs_f64() + last <= plan.seconds {
        for _ in 0..SETUPS_PER_PASS {
            match setup_in_child(workload, plan) {
                Ok(seconds) => setups.push(seconds),
                Err(e) => out.op(vec![e]),
            }
        }
        let root = rec.begin("ledger.pass", workload.name(), None, pass);
        pass_fn(pass, root, rec, out);
        rec.end(root);
        last = rec.seconds(root);
        pass += 1;
    }
    (pass, setups)
}

/// Simulated runs of one batch run, per scenario.
pub struct SimPasses {
    pub names: Vec<&'static str>,
    /// Wall seconds of every run, per scenario.
    pub seconds: Vec<Vec<f64>>,
    /// The first run's report, per scenario.
    pub reports: Vec<Option<SimReport>>,
    pub passes: u64,
    pub setups: Vec<f64>,
}

/// Run `Scenario::run` passes over the workload's scenarios, each for at
/// least [`SCENARIO_SECONDS`] per pass, checking every run.
pub fn sim_passes(
    workload: Workload,
    plan: &Plan,
    rec: &mut Recorder,
    out: &mut Outcome,
) -> SimPasses {
    let names = workload.scenarios().to_vec();
    let scenarios: Vec<Scenario> = names.iter().map(|n| scenario(n, plan.size)).collect();
    let mut seconds = vec![Vec::new(); names.len()];
    let mut reports: Vec<Option<SimReport>> = vec![None; names.len()];
    let (passes, setups) = repeat_passes(workload, plan, rec, out, |pass, root, rec, out| {
        for i in order(plan.seed, pass, names.len()) {
            let first = Instant::now();
            loop {
                let span = rec.begin("bench.scenario_run", names[i], Some(root), pass);
                let run = scenarios[i].run().run;
                rec.end(span);
                seconds[i].push(rec.seconds(span));
                let expect = golden(names[i], plan.size).or(reports[i].as_ref().map(digest));
                out.op(check_run(names[i], &run, expect));
                reports[i].get_or_insert(run.report);
                if first.elapsed().as_secs_f64() >= SCENARIO_SECONDS {
                    break;
                }
            }
        }
    });
    SimPasses {
        names,
        seconds,
        reports,
        passes,
        setups,
    }
}

/// The untraced `sim_hit` / `sim_miss` run.
pub fn run_sim(workload: Workload, plan: &Plan, rec: &mut Recorder) -> Outcome {
    let mut out = Outcome::default();
    let runs = sim_passes(workload, plan, rec, &mut out);
    let mut rates = Vec::new();
    let mut medians = Vec::new();
    for (i, name) in runs.names.iter().enumerate() {
        let m = median(&runs.seconds[i]);
        let refs = runs.reports[i].as_ref().map_or(0, |r| r.total_refs);
        rates.push(refs as f64 / m);
        medians.push(m);
        out.details.push(format!(
            "{name}: median {:.4} s of {} runs, {:.4e} refs/s, SimReport digest {:016x}",
            m,
            runs.seconds[i].len(),
            refs as f64 / m,
            runs.reports[i].as_ref().map_or(0, digest),
        ));
    }
    let n = runs.passes as usize;
    out.metric(
        "rate_per_s",
        "1/s",
        geomean(&rates),
        n,
        "simulated references per second: geomean over scenarios of each one's median",
    );
    out.metric(
        "latency_ms",
        "ms",
        geomean(&medians) * 1e3,
        n,
        "Scenario::run wall time: geomean over scenarios of each one's median",
    );
    finish_common(&mut out, &runs.setups);
    out
}

/// `setup_s` and `peak_rss_mb` of a batch run.
pub fn finish_common(out: &mut Outcome, setups: &[f64]) {
    if setups.is_empty() {
        return;
    }
    out.metric(
        "setup_s",
        "s",
        median(setups),
        setups.len(),
        "one fresh process per set-up, two before each pass: median",
    );
    match crate::peak_rss_mb("self") {
        Ok(mb) => out.metric("peak_rss_mb", "MB", mb, 1, "VmHWM of the measuring process"),
        Err(e) => out.op(vec![e]),
    }
}

/// What one record → fit → optimize pass produced.
pub struct PipelinePass {
    pub record: RecordSummary,
    pub fit: FitReport,
    pub optimize: OptimizeReport,
}

/// Record `s` to a scratch `.mtr`, fit it, and optimize over the paper
/// market on the fitted parameters (the `optimize --from-fit` path).
pub fn pipeline(
    name: &str,
    s: &Scenario,
    trace: &Path,
    rec: &mut Recorder,
    parent: SpanId,
    req: u64,
) -> Result<PipelinePass, String> {
    let span = rec.begin("bench.record_scenario", name, Some(parent), req);
    let summary = record_scenario(s, trace);
    rec.end(span);
    let summary = summary.map_err(|e| format!("{name}: record: {e}"))?;
    let fit_span = rec.begin("trace.run_fit", name, Some(parent), req);
    let fit = run_fit(&FitRequest::new(trace.to_string_lossy()));
    rec.end(fit_span);
    let _ = std::fs::remove_file(trace);
    let fit = fit.map_err(|e| format!("{name}: fit: {e}"))?;
    let spec = WorkloadSpec::Custom {
        alpha: fit.alpha,
        beta: fit.beta,
        rho: fit.rho,
    };
    let opt_span = rec.begin("bench.run_optimize", name, Some(parent), req);
    let optimize = run_optimize(&OptimizeRequest::new(spec, FIT_BUDGET));
    rec.end(opt_span);
    let optimize = optimize.map_err(|e| format!("{name}: optimize: {e}"))?;
    Ok(PipelinePass {
        record: summary,
        fit,
        optimize,
    })
}

/// Check a pipeline pass: ρ is exactly records / instructions, the fit
/// saw every record, optimize found a cluster, and (α, β) repeat
/// bit-for-bit across passes.
fn check_pipeline(
    name: &str,
    p: &PipelinePass,
    first: &mut HashMap<String, (u64, u64)>,
) -> Vec<String> {
    let mut errors = Vec::new();
    let rho = p.record.records as f64 / p.record.total_instructions as f64;
    if p.fit.rho.to_bits() != rho.to_bits() {
        errors.push(format!(
            "{name}: fitted rho {} is not records/instructions {rho}",
            p.fit.rho
        ));
    }
    if p.fit.records != p.record.records {
        errors.push(format!(
            "{name}: fit read {} of {} records",
            p.fit.records, p.record.records
        ));
    }
    if p.optimize.best.is_none() {
        errors.push(format!(
            "{name}: optimize found no cluster under ${FIT_BUDGET}"
        ));
    }
    let bits = (p.fit.alpha.to_bits(), p.fit.beta.to_bits());
    if *first.entry(name.to_string()).or_insert(bits) != bits {
        errors.push(format!("{name}: (alpha, beta) changed between passes"));
    }
    errors
}

/// Scratch trace path for `name` in this process.
pub fn trace_path(plan: &Plan, name: &str) -> std::path::PathBuf {
    plan.scratch
        .join(format!("ledger-{}-{name}.mtr", std::process::id()))
}

/// Pipeline passes of one `trace_fit` run, per scenario.
pub struct TracePasses {
    pub names: Vec<&'static str>,
    /// Wall seconds of every pass, per scenario.
    pub seconds: Vec<Vec<f64>>,
    pub records: Vec<u64>,
    /// Bits of the fitted (alpha, beta), per scenario.
    pub fits: HashMap<String, (u64, u64)>,
    pub passes: u64,
    pub setups: Vec<f64>,
}

/// Run record → fit → optimize passes over the workload's scenarios,
/// checking every pass.
pub fn trace_passes(
    workload: Workload,
    plan: &Plan,
    rec: &mut Recorder,
    out: &mut Outcome,
) -> TracePasses {
    let names = workload.scenarios().to_vec();
    let scenarios: Vec<Scenario> = names.iter().map(|n| scenario(n, plan.size)).collect();
    let mut seconds = vec![Vec::new(); names.len()];
    let mut records = vec![0u64; names.len()];
    let mut fits: HashMap<String, (u64, u64)> = HashMap::new();
    let (passes, setups) = repeat_passes(workload, plan, rec, out, |pass, root, rec, out| {
        for i in order(plan.seed, pass, names.len()) {
            let span = rec.begin("ledger.pipeline", names[i], Some(root), pass);
            let result = pipeline(
                names[i],
                &scenarios[i],
                &trace_path(plan, names[i]),
                rec,
                span,
                pass,
            );
            rec.end(span);
            match result {
                Ok(p) => {
                    seconds[i].push(rec.seconds(span));
                    records[i] = p.record.records;
                    out.op(check_pipeline(names[i], &p, &mut fits));
                }
                Err(e) => out.op(vec![e]),
            }
        }
    });
    TracePasses {
        names,
        seconds,
        records,
        fits,
        passes,
        setups,
    }
}

/// The untraced `trace_fit` run.
pub fn run_trace_fit(workload: Workload, plan: &Plan, rec: &mut Recorder) -> Outcome {
    let mut out = Outcome::default();
    let runs = trace_passes(workload, plan, rec, &mut out);
    let mut rates = Vec::new();
    let mut medians = Vec::new();
    for (i, name) in runs.names.iter().enumerate() {
        if runs.seconds[i].is_empty() {
            continue;
        }
        let m = median(&runs.seconds[i]);
        rates.push(runs.records[i] as f64 / m);
        medians.push(m);
        let (a, b) = runs.fits.get(*name).copied().unwrap_or_default();
        out.details.push(format!(
            "{name}: median pass {m:.4} s of {}, {} records, alpha {} beta {}",
            runs.seconds[i].len(),
            runs.records[i],
            f64::from_bits(a),
            f64::from_bits(b)
        ));
    }
    if medians.len() == runs.names.len() {
        let n = runs.passes as usize;
        out.metric(
            "rate_per_s",
            "1/s",
            geomean(&rates),
            n,
            "trace records per second through record -> fit -> optimize: geomean over scenarios",
        );
        out.metric(
            "latency_ms",
            "ms",
            geomean(&medians) * 1e3,
            n,
            "record -> fit -> optimize pass: geomean over scenarios of each one's median",
        );
    }
    finish_common(&mut out, &runs.setups);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn pass_order_is_a_seeded_permutation() {
        let a = order(1, 3, 5);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3, 4]);
        assert_eq!(a, order(1, 3, 5));
        let distinct: std::collections::HashSet<_> = (0..20).map(|p| order(1, p, 5)).collect();
        assert!(distinct.len() > 5, "passes see different orders");
    }

    #[test]
    fn every_scenario_has_a_golden_digest() {
        for w in [Workload::SimHit, Workload::SimMiss, Workload::TraceFit] {
            for name in w.scenarios() {
                assert!(golden(name, Sizes::Paper).is_some(), "{name}");
                assert!(golden(name, Sizes::Small).is_none());
            }
        }
    }

    #[test]
    fn small_runs_pass_their_checks() {
        let s = scenario("C13-EDGE", Sizes::Small);
        let run = s.run().run;
        assert!(check_run("C13-EDGE", &run, Some(digest(&run.report))).is_empty());
        let errors = check_run("C13-EDGE", &run, Some(0));
        assert_eq!(errors.len(), 1, "{errors:?}");
    }
}
