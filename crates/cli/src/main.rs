//! `memhier` — the command-line front end to the IPPS'99 reproduction.
//!
//! ```text
//! memhier configs                              list C1..C15, N4, N8, FT8, FT16
//! memhier model --config C5 --workload FFT     analytic E(Instr)
//! memhier model --all                          all configs x kernels
//! memhier simulate --config C8 --workload LU   program-driven simulation
//!   [--metrics m.json] [--trace events.jsonl]  ... with observers attached
//! memhier fit --workload Radix                 measure alpha/beta/rho
//! memhier optimize --budget 20000 --workload Radix --confirm 4
//!   [--slo S] [--procs 1,2,4] [--mem 32,64] [--max-machines 32] ...
//!                                              fleet-scale model-guided search
//! memhier upgrade --budget 2500 --workload FFT
//! memhier recommend --workload FFT | --alpha A --beta B --rho R
//! ```
//!
//! Size flags for simulate/fit: `--small`, `--paper` (default medium).
//! All flag parsing goes through `memhier_bench::FlagParser`, so `--jobs`,
//! `--metrics`, `--trace`, sizes, and `--help` behave the same in every
//! subcommand.

use memhier::MemhierError;
use memhier_bench::runner::{characterize, Sizes};
use memhier_bench::{
    config_by_name, run_optimize, run_recommend, workload_kind_by_name, FlagParser, Matches,
    Scenario,
};
use memhier_core::machine::{MachineSpec, NetworkKind};
use memhier_core::model::AnalyticModel;
use memhier_core::params::configs;
use memhier_core::platform::ClusterSpec;
use memhier_cost::{
    network_by_name, pareto_frontier, plan_upgrade, CandidateSpace, OptimizeReport,
    OptimizeRequest, PriceTable, RecommendRequest, WorkloadSpec,
};
use memhier_serve::{ServeConfig, Server};
use memhier_workloads::registry::{Workload, WorkloadKind};
use std::process::ExitCode;
use std::time::Duration;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let rest = &args[1..];
    let result = match cmd.as_str() {
        "configs" => cmd_configs(),
        "workloads" => cmd_workloads(rest),
        "platforms" => cmd_platforms(rest),
        "model" => cmd_model(rest),
        "simulate" => cmd_simulate(rest),
        "record" => cmd_record(rest),
        "fit" => cmd_fit(rest),
        "optimize" => cmd_optimize(rest),
        "pareto" => cmd_pareto(rest),
        "upgrade" => cmd_upgrade(rest),
        "recommend" => cmd_recommend(rest),
        "serve" => cmd_serve(rest),
        "sweep" => cmd_sweep(rest),
        "reproduce" => cmd_reproduce(rest),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(MemhierError::Invalid(format!(
            "unknown command `{other}`\n{USAGE}"
        ))),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "memhier — cluster memory-hierarchy model, simulator & optimizer (IPPS'99)

USAGE:
  memhier configs
  memhier workloads [--json]                   list the workload registry
  memhier platforms [--json]                   list platform back-ends & networks
  memhier model    --config <C1..C15|N4|N8|FT8|FT16> --workload <NAME> [--json]
  memhier model    --all [--json]
  memhier simulate --config <C1..C15|N4|N8|FT8|FT16> --workload <name> [--small|--paper] [--json]
                   [--metrics <out.json> [--window <cycles>]]
                   [--trace <out.jsonl> [--trace-cap <n>]]
  memhier record   --scenario <CONFIG:WORKLOAD[:SIZE]> -o <trace.mtr>
  memhier fit      --workload <name> [--small|--paper] [--phases] [--json]
  memhier fit      --trace <file.mtr> [--granularity N] [--chunk-records N] [--json]
  memhier optimize --budget <dollars> (--workload <name> | --alpha A --beta B --rho R)
                   [--slo <s>] [--top <k>] [--confirm <k> [--confirm-size <tier>]]
                   [--procs LIST] [--cache LIST] [--mem LIST] [--max-machines N]
                   [--networks LIST] [--clock MHZ] [--request JSON|@FILE] [--json]
                   [--from-fit report.json] [--jobs N] [--checkpoint PATH] [--resume]
  memhier pareto   --workload <name> [--json]
  memhier upgrade  --budget <dollars> --workload <name> [--machines N --procs n
                    --cache KB --mem MB --network <eth10|eth100|atm|fattree>]
  memhier recommend (--workload <name> | --alpha A --beta B --rho R)
                    [--measure [--size <tier>]] [--budget <dollars> [--top <k>]]
                    [--format text|json]
  memhier serve    [--addr HOST:PORT] [--workers N] [--queue-depth N]
                   [--timeout-ms MS] [--read-timeout-ms MS] [--keepalive-timeout-ms MS]
                   [--cache-ttl-ms MS] [--drain-grace-ms MS]
                   [--addr-file PATH] [--faults SPEC]
  memhier sweep    --configs C1,C2,...|@plan.json --workloads FFT,LU,... [--json]
                   [--small|--paper] [--jobs N]
                   [--checkpoint PATH] [--resume] [--max-retries N] [--faults SPEC]
  memhier reproduce <table1|table2|fig2_smp|fig3_cow|fig4_clump|coherence|
                     speedup|case_budget5k|case_budget20k|case_upgrade|
                     case_fft_4x|recommendations|sensitivity|ablation|
                     sweep_map|utilization|all>
                    [--small|--paper] [--jobs N]

Every subcommand accepts --help for its own flag list.";

/// `--config` help: every name it accepts (the rows `memhier configs`
/// lists).
const CONFIG_HELP: &str = "named configuration: C1..C15, N4, N8, FT8 or FT16";

/// Parse a subcommand's arguments; `Ok(None)` means `--help` was printed.
fn sub(parser: &FlagParser, rest: &[String]) -> Result<Option<Matches>, String> {
    let m = parser.parse(rest)?;
    if m.has("--help") {
        print!("{}", parser.usage());
        return Ok(None);
    }
    m.apply_sweep_config()?;
    Ok(Some(m))
}

fn req<'a>(m: &'a Matches, name: &str) -> Result<&'a str, String> {
    m.get(name).ok_or_else(|| format!("{name} required"))
}

fn cmd_configs() -> Result<(), MemhierError> {
    println!("Paper configurations (Tables 3-5):");
    for c in configs::all_configs() {
        println!("  {}", c.describe());
    }
    println!("Extended configurations (NUMA & fat-tree):");
    for c in configs::extended_configs() {
        println!("  {}", c.describe());
    }
    Ok(())
}

/// `memhier workloads`: the workload registry with parameter schemas.
/// `--json` prints the same `workloads` array `GET /v1/registry` serves.
fn cmd_workloads(rest: &[String]) -> Result<(), MemhierError> {
    let parser = FlagParser::new("memhier workloads", "list the workload registry")
        .switch("--json", "machine-readable output (matches /v1/registry)");
    let Some(m) = sub(&parser, rest)? else {
        return Ok(());
    };
    if m.has("--json") {
        println!(
            "{}",
            serde_json::to_string_pretty(&memhier_bench::registry_info::workloads_json())?
        );
        return Ok(());
    }
    println!("Registered workloads:");
    for kind in WorkloadKind::ALL {
        let row = kind.info();
        print_registry_entry(
            row.key,
            row.aliases,
            row.description,
            Workload::schema(kind),
        );
    }
    Ok(())
}

/// `memhier platforms`: platform back-ends and network media.  `--json`
/// prints the same `platforms` array `GET /v1/registry` serves.
fn cmd_platforms(rest: &[String]) -> Result<(), MemhierError> {
    let parser = FlagParser::new(
        "memhier platforms",
        "list platform back-ends and network media",
    )
    .switch("--json", "machine-readable output (matches /v1/registry)");
    let Some(m) = sub(&parser, rest)? else {
        return Ok(());
    };
    if m.has("--json") {
        println!(
            "{}",
            serde_json::to_string_pretty(&serde_json::json!({
                "platforms": memhier_bench::registry_info::platforms_json(),
                "networks": memhier_bench::registry_info::networks_json(),
            }))?
        );
        return Ok(());
    }
    println!("Registered platform back-ends:");
    for f in &memhier_core::FAMILIES {
        print_registry_entry(f.key, f.aliases, f.description, f.params);
    }
    println!("Registered network media:");
    for net in NetworkKind::registered() {
        let s = net.spec();
        let aliases = if s.aliases.is_empty() {
            String::new()
        } else {
            format!("  (aliases: {})", s.aliases.join(", "))
        };
        println!("  {} [{}]{aliases}", s.key, s.wire);
        println!("      {}", s.description);
    }
    Ok(())
}

fn print_registry_entry(
    key: &str,
    aliases: &[&str],
    description: &str,
    params: &[memhier_core::ParamInfo],
) {
    let alias_note = if aliases.is_empty() {
        String::new()
    } else {
        format!("  (aliases: {})", aliases.join(", "))
    };
    println!("  {key}{alias_note}");
    println!("      {description}");
    for p in params {
        println!(
            "      --{:<14} {:>6}  {} (default {})",
            p.name, p.kind, p.about, p.default
        );
    }
}

fn cmd_model(rest: &[String]) -> Result<(), MemhierError> {
    let parser = FlagParser::new("memhier model", "analytic E(Instr) prediction")
        .option("--config", "NAME", CONFIG_HELP)
        .option(
            "--workload",
            "NAME",
            "any registry workload (see `memhier workloads`)",
        )
        .switch("--all", "every config x kernel pair")
        .switch("--json", "machine-readable output");
    let Some(m) = sub(&parser, rest)? else {
        return Ok(());
    };
    let model = AnalyticModel::default();
    let json = m.has("--json");
    if m.has("--all") {
        let mut out = Vec::new();
        for c in configs::all_configs() {
            for kind in WorkloadKind::PAPER {
                let w = kind.params();
                let e = model.evaluate_or_inf(&c, &w);
                if json {
                    out.push(serde_json::json!({
                        "config": c.name, "workload": w.name, "e_instr_seconds": e,
                    }));
                } else {
                    println!(
                        "{:4} {:6} E(Instr) = {:.3e} s",
                        c.name.as_deref().unwrap_or("?"),
                        w.name,
                        e
                    );
                }
            }
        }
        if json {
            println!("{}", serde_json::to_string_pretty(&out)?);
        }
        return Ok(());
    }
    let cfg = config_by_name(req(&m, "--config")?)?;
    let kind = workload_kind_by_name(req(&m, "--workload")?)?;
    let w = kind.params();
    let p = model.evaluate(&cfg, &w)?;
    if json {
        println!("{}", serde_json::to_string_pretty(&p)?);
    } else {
        let rep = p.report();
        println!("{} running {}", cfg.describe(), w.name);
        println!(
            "  T (memory time/ref)   = {:.2} cycles ({:.1}% M/D/1 queueing)",
            rep.t_cycles,
            100.0 * rep.queueing_share_of_t
        );
        println!("  per-processor CPI     = {:.2}", rep.per_proc_cpi);
        println!(
            "  barrier overhead      = {:.2} cycles/instr",
            rep.barrier_cycles_per_instr
        );
        println!(
            "  E(Instr)              = {:.4} cycles = {:.3e} s",
            p.e_instr_cycles, p.e_instr_seconds
        );
        println!("  levels:");
        for l in &rep.levels {
            println!(
                "    {:8} reach {:>8.5}  service {:>8.0}cy  queueing {:>10.1}cy  \
                 share {:>5.1}%  util {:.3}",
                l.name,
                l.reach_prob,
                l.service_cycles,
                l.queueing_cycles,
                100.0 * l.share_of_t,
                l.utilization
            );
        }
    }
    Ok(())
}

fn cmd_simulate(rest: &[String]) -> Result<(), MemhierError> {
    let parser = FlagParser::new("memhier simulate", "program-driven simulation of one run")
        .option("--config", "NAME", CONFIG_HELP)
        .option(
            "--workload",
            "NAME",
            "any registry workload (see `memhier workloads`)",
        )
        .switch("--json", "print the SimReport as JSON")
        .sweep_flags()
        .observer_flags();
    let Some(m) = sub(&parser, rest)? else {
        return Ok(());
    };
    let scenario = Scenario::builder()
        .config_name(req(&m, "--config")?)
        .workload_name(req(&m, "--workload")?)
        .size(m.sizes())
        .observers(m.observers()?)
        .build()?;
    let out = scenario.run();
    if let Some(path) = m.get("--metrics") {
        let series = out.metrics.as_ref().expect("metrics requested");
        let json = serde_json::to_string_pretty(series)?;
        std::fs::write(path, json).map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!(
            "wrote {} window(s) of metrics to {path}",
            series.windows.len()
        );
    }
    if let Some(path) = m.get("--trace") {
        let log = out.trace.as_ref().expect("trace requested");
        std::fs::write(path, log.to_jsonl()).map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!(
            "wrote {} trace event(s) to {path} ({} dropped at capacity)",
            log.events.len(),
            log.dropped
        );
    }
    let run = &out.run;
    if m.has("--json") {
        println!("{}", serde_json::to_string_pretty(&run.report)?);
        return Ok(());
    }
    let r = &run.report;
    println!(
        "{} running {} ({:?} size)",
        scenario.config.describe(),
        scenario.workload.name(),
        scenario.size
    );
    println!(
        "  instructions = {}  refs = {}",
        r.total_instructions, r.total_refs
    );
    println!(
        "  wall = {} cycles;  E(Instr) = {:.4} cycles = {:.3e} s",
        r.wall_cycles, r.e_instr_cycles, r.e_instr_seconds
    );
    println!(
        "  levels: l1 {}  c2c {}  local {}  remote-clean {}  remote-dirty {}  disk {}",
        r.levels.l1_hits,
        r.levels.cache_to_cache,
        r.levels.local_memory,
        r.levels.remote_clean,
        r.levels.remote_dirty,
        r.levels.disk
    );
    println!(
        "  coherence traffic = {:.1}% of {} bytes;  barriers = {} (wait {} cycles)",
        r.traffic.coherence_fraction() * 100.0,
        r.traffic.data_bytes + r.traffic.coherence_bytes,
        r.barriers,
        r.barrier_wait_cycles
    );
    println!(
        "  utilization: bus {:.3}  network {:.3}",
        r.bus_utilization(0),
        r.network_utilization()
    );
    Ok(())
}

fn cmd_record(rest: &[String]) -> Result<(), MemhierError> {
    let parser = FlagParser::new(
        "memhier record",
        "run a scenario and stream its address trace to a .mtr file",
    )
    .option(
        "--scenario",
        "SPEC",
        "CONFIG:WORKLOAD[:SIZE] or a JSON scenario object",
    )
    .option("-o", "FILE", "output trace path (.mtr)")
    .sweep_flags();
    let Some(m) = sub(&parser, rest)? else {
        return Ok(());
    };
    let scenario: Scenario = req(&m, "--scenario")?.parse()?;
    let out = req(&m, "-o")?;
    let summary = memhier_bench::record_scenario(&scenario, std::path::Path::new(out))?;
    let rho = if summary.total_instructions == 0 {
        0.0
    } else {
        summary.records as f64 / summary.total_instructions as f64
    };
    println!(
        "recorded {} references over {} instructions (rho = {:.3}) -> {}",
        summary.records, summary.total_instructions, rho, out
    );
    Ok(())
}

fn cmd_fit(rest: &[String]) -> Result<(), MemhierError> {
    let parser = FlagParser::new(
        "memhier fit",
        "measure alpha/beta/rho from the address trace",
    )
    .option(
        "--workload",
        "NAME",
        "any registry workload (see `memhier workloads`)",
    )
    .option("--trace", "FILE", "fit a recorded .mtr trace (streaming)")
    .option(
        "--granularity",
        "BYTES",
        "block granularity for --trace (power of two, default 64)",
    )
    .option(
        "--chunk-records",
        "N",
        "streaming chunk size for --trace (default 65536)",
    )
    .switch("--phases", "per-phase locality fits")
    .switch("--json", "machine-readable output")
    .sweep_flags();
    let Some(m) = sub(&parser, rest)? else {
        return Ok(());
    };
    if let Some(trace) = m.get("--trace") {
        return cmd_fit_trace(&m, trace);
    }
    let kind = workload_kind_by_name(req(&m, "--workload")?)?;
    let sizes = m.sizes();
    if m.has("--phases") {
        return cmd_fit_phases(kind, sizes, m.has("--json"));
    }
    let c = characterize(&sizes.workload(kind), 64);
    if m.has("--json") {
        println!("{}", serde_json::to_string_pretty(&c)?);
        return Ok(());
    }
    println!("{} ({:?} size):", c.name, sizes);
    println!(
        "  alpha = {:.3}   beta = {:.1} bytes   (R^2 = {:.4})",
        c.alpha, c.beta, c.r_squared
    );
    println!(
        "  rho = {:.3}   write fraction = {:.3}   sharing fraction = {:.3}",
        c.rho, c.write_fraction, c.sharing_fraction
    );
    println!(
        "  footprint = {:.0} bytes over {} refs",
        c.footprint_bytes, c.refs
    );
    let w = kind.params();
    println!(
        "  paper: alpha = {:.2}  beta = {:.1}  rho = {:.2}",
        w.locality.alpha, w.locality.beta, w.rho
    );
    Ok(())
}

/// Streaming fit of a recorded `.mtr` trace.  The request round-trips
/// through its own JSON parser and the `--json` output uses the same
/// serializer as `/v1/fit`, so the CLI and the service validate and emit
/// byte-identical JSON.
fn cmd_fit_trace(m: &Matches, trace: &str) -> Result<(), MemhierError> {
    use memhier_trace::{run_fit, FitRequest};
    let mut r = FitRequest::new(trace);
    if let Some(g) = m.parsed::<u64>("--granularity")? {
        r.granularity = g;
    }
    if let Some(n) = m.parsed::<u64>("--chunk-records")? {
        r.chunk_records = n;
    }
    let r = FitRequest::from_json(&r.to_json())?;
    let report = run_fit(&r)?;
    if m.has("--json") {
        println!("{}", serde_json::to_string_pretty(&report.to_json())?);
        return Ok(());
    }
    println!(
        "{} ({} records @ {}-byte blocks):",
        trace, report.records, report.granularity
    );
    println!(
        "  alpha = {:.3}   beta = {:.1} bytes   (R^2 = {:.4})",
        report.alpha, report.beta, report.r_squared
    );
    println!(
        "  rho = {:.3}   converged = {}",
        report.rho, report.converged
    );
    for s in &report.history {
        println!(
            "  @{:>9} records: alpha={:.3} beta={:<10.1} R^2={:.4}",
            s.records, s.alpha, s.beta, s.r_squared
        );
    }
    Ok(())
}

/// Per-phase locality fits (the bulk-synchronous structure of §3 makes a
/// single global fit blur phases with very different locality).
fn cmd_fit_phases(kind: WorkloadKind, sizes: Sizes, json: bool) -> Result<(), MemhierError> {
    use memhier_trace::PhaseAnalyzer;
    use memhier_workloads::spmd::stream_spmd;
    let program = sizes.workload(kind).instantiate(1);
    let (analyzer, _) = stream_spmd(program, |rxs| {
        let rx = rxs.into_iter().next().expect("one process");
        let mut an = PhaseAnalyzer::new(64);
        rx.for_each(|ev| match ev.address() {
            Some(a) => an.access(a),
            None if ev.is_barrier() => an.barrier(),
            None => {}
        });
        an
    });
    let (phases, global) = analyzer.finish();
    if json {
        println!("{}", serde_json::to_string_pretty(&phases)?);
        return Ok(());
    }
    println!(
        "{} phases, {} global refs:",
        phases.len(),
        global.total_refs()
    );
    for p in &phases {
        match &p.fit {
            Some(f) => println!(
                "  phase {:>3}: {:>9} refs  alpha={:.2} beta={:<10.1} R^2={:.3}  cold={:.1}%",
                p.index,
                p.refs,
                f.alpha,
                f.beta,
                f.r_squared,
                p.cold_fraction * 100.0
            ),
            None => println!(
                "  phase {:>3}: {:>9} refs  (too few points to fit)  cold={:.1}%",
                p.index,
                p.refs,
                p.cold_fraction * 100.0
            ),
        }
    }
    Ok(())
}

fn cmd_optimize(rest: &[String]) -> Result<(), MemhierError> {
    let parser = FlagParser::new(
        "memhier optimize",
        "fleet-scale model-guided cluster search under a budget",
    )
    .option(
        "--budget",
        "DOLLARS",
        "total budget (required unless --request)",
    )
    .option(
        "--workload",
        "NAME",
        "any registry workload (see `memhier workloads`)",
    )
    .option("--alpha", "A", "custom locality shape (with --beta --rho)")
    .option("--beta", "B", "custom locality scale, bytes")
    .option("--rho", "R", "custom memory-reference fraction")
    .option(
        "--from-fit",
        "FILE",
        "take alpha/beta/rho from a `memhier fit --json` report",
    )
    .option(
        "--slo",
        "SECONDS",
        "max acceptable model-predicted E(Instr)",
    )
    .option("--top", "K", "ranked configs to report (default 5)")
    .option(
        "--confirm",
        "K",
        "finalists to confirm by full simulation (default 0 = analytic only)",
    )
    .option(
        "--confirm-size",
        "TIER",
        "small|medium|paper confirmation tier (default small)",
    )
    .option(
        "--procs",
        "LIST",
        "per-machine processor counts, e.g. 1,2,4",
    )
    .option(
        "--cache",
        "LIST",
        "per-processor cache KB options, e.g. 256,512",
    )
    .option(
        "--mem",
        "LIST",
        "per-machine memory MB options, e.g. 32,64,128",
    )
    .option("--max-machines", "N", "largest cluster size (default 16)")
    .option("--networks", "LIST", "subset of eth10,eth100,atm,fattree")
    .option(
        "--clock",
        "MHZ",
        "CPU clock for every candidate (default 200)",
    )
    .option(
        "--request",
        "JSON|@FILE",
        "a full OptimizeRequest (JSON or WORKLOAD@BUDGET); overrides the flags above",
    )
    .switch("--json", "print the OptimizeReport as JSON")
    .sweep_flags();
    let Some(m) = sub(&parser, rest)? else {
        return Ok(());
    };
    let req = optimize_request(&m)?;
    let report = run_optimize(&req)?;
    if m.has("--json") {
        // The same serializer `/v1/optimize` uses, so the CLI and the
        // service emit byte-identical JSON.
        println!("{}", serde_json::to_string_pretty(&report.to_json())?);
        return Ok(());
    }
    print_optimize_report(&report);
    Ok(())
}

/// Build the typed optimize request from the flag set: `--request` takes
/// the wire form verbatim; otherwise the grid flags override the
/// paper-market defaults field by field.  Either way the request is
/// round-tripped through its own JSON parser, so the CLI enforces
/// exactly the validation `/v1/optimize` does.
fn optimize_request(m: &Matches) -> Result<OptimizeRequest, MemhierError> {
    if let Some(spec) = m.get("--request") {
        let text = match spec.strip_prefix('@') {
            Some(path) => std::fs::read_to_string(path)
                .map_err(|e| MemhierError::Invalid(format!("reading {path}: {e}")))?,
            None => spec.to_string(),
        };
        return Ok(text.trim().parse::<OptimizeRequest>()?);
    }
    let budget: f64 = req(m, "--budget")?.parse().map_err(|_| "bad --budget")?;
    let mut r = OptimizeRequest::new(workload_spec(m)?, budget);
    if let Some(slo) = m.parsed::<f64>("--slo")? {
        r.slo = Some(slo);
    }
    if let Some(top) = m.parsed::<usize>("--top")? {
        r.top = top;
    }
    if let Some(confirm) = m.parsed::<usize>("--confirm")? {
        r.confirm = confirm;
    }
    if let Some(size) = m.get("--confirm-size") {
        r.confirm_size = size.to_ascii_lowercase();
    }
    if let Some(list) = m.get("--procs") {
        r.search_space.proc_counts = csv_list(list, "--procs")?;
    }
    if let Some(list) = m.get("--cache") {
        r.search_space.cache_kb = csv_list(list, "--cache")?;
    }
    if let Some(list) = m.get("--mem") {
        r.search_space.memory_mb = csv_list(list, "--mem")?;
    }
    if let Some(n) = m.parsed::<u32>("--max-machines")? {
        r.search_space.max_machines = n;
    }
    if let Some(list) = m.get("--networks") {
        r.search_space.networks = csv_items(list, "--networks")?
            .iter()
            .map(|s| network_by_name(s))
            .collect::<Result<_, _>>()?;
    }
    if let Some(mhz) = m.parsed::<f64>("--clock")? {
        r.search_space.clock_mhz = mhz;
    }
    Ok(OptimizeRequest::from_json(&r.to_json())?)
}

/// The workload a request names: `--workload NAME`, a `--from-fit`
/// report from `memhier fit --json`, or the custom `--alpha/--beta/--rho`
/// triple.
fn workload_spec(m: &Matches) -> Result<WorkloadSpec, MemhierError> {
    if let Some(name) = m.get("--workload") {
        return Ok(WorkloadSpec::named(name)?);
    }
    if let Some(path) = m.get("--from-fit") {
        let text = std::fs::read_to_string(path)
            .map_err(|e| MemhierError::Invalid(format!("reading {path}: {e}")))?;
        let v: serde_json::Value = serde_json::from_str(&text)
            .map_err(|e| memhier_trace::TraceError::Syntax(e.to_string()))?;
        let report = memhier_trace::FitReport::from_json(&v)?;
        let spec = WorkloadSpec::Custom {
            alpha: report.alpha,
            beta: report.beta,
            rho: report.rho,
        };
        spec.resolve()?;
        return Ok(spec);
    }
    let alpha: f64 = req(m, "--alpha")
        .map_err(|_| "--workload, --from-fit, or --alpha/--beta/--rho required".to_string())?
        .parse()
        .map_err(|_| "bad --alpha")?;
    let beta: f64 = req(m, "--beta")?.parse().map_err(|_| "bad --beta")?;
    let rho: f64 = req(m, "--rho")?.parse().map_err(|_| "bad --rho")?;
    let spec = WorkloadSpec::Custom { alpha, beta, rho };
    spec.resolve()?;
    Ok(spec)
}

fn csv_items(list: &str, flag: &str) -> Result<Vec<String>, MemhierError> {
    let items: Vec<String> = list
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(str::to_string)
        .collect();
    if items.is_empty() {
        return Err(MemhierError::Invalid(format!("{flag}: empty list")));
    }
    Ok(items)
}

fn csv_list<T: std::str::FromStr>(list: &str, flag: &str) -> Result<Vec<T>, MemhierError> {
    csv_items(list, flag)?
        .iter()
        .map(|s| {
            s.parse::<T>()
                .map_err(|_| MemhierError::Invalid(format!("{flag}: bad entry `{s}`")))
        })
        .collect()
}

fn print_optimize_report(report: &OptimizeReport) {
    let s = &report.search;
    match report.slo {
        Some(slo) => println!(
            "Optimizing {} under ${:.0} (SLO {:.3e} s):",
            report.workload, report.budget, slo
        ),
        None => println!(
            "Optimizing {} under ${:.0}:",
            report.workload, report.budget
        ),
    }
    println!(
        "  searched {} candidates: {} unpriced, {} over budget, {} model-rejected, \
         {} SLO-filtered -> {} feasible",
        s.candidates, s.unpriced, s.over_budget, s.model_rejected, s.slo_filtered, s.feasible
    );
    println!(
        "  simulated {} finalist(s); pruning ratio {:.2}%",
        s.confirmed,
        100.0 * s.pruning_ratio
    );
    for (i, e) in report.ranked.iter().enumerate() {
        let sim = match &e.simulated {
            Some(sc) => format!(", sim {:.3e} s @ {}", sc.seconds, sc.size),
            None => String::new(),
        };
        println!(
            "  {}. {}  (${:.0}, model {:.3e} s{sim})",
            i + 1,
            e.config,
            e.cost,
            e.model_seconds
        );
    }
    match &report.best {
        Some(b) => println!("  best: {}  (${:.0})", b.config, b.cost),
        None => println!("  nothing feasible under this budget"),
    }
    println!("  Pareto frontier ({} point(s)):", report.pareto.len());
    for e in &report.pareto {
        println!(
            "    ${:>8.0}  model {:.3e} s  {}",
            e.cost, e.model_seconds, e.config
        );
    }
}

fn cmd_pareto(rest: &[String]) -> Result<(), MemhierError> {
    let parser = FlagParser::new("memhier pareto", "cost/performance Pareto frontier")
        .option(
            "--workload",
            "NAME",
            "any registry workload (see `memhier workloads`)",
        )
        .switch("--json", "machine-readable output");
    let Some(m) = sub(&parser, rest)? else {
        return Ok(());
    };
    let kind = workload_kind_by_name(req(&m, "--workload")?)?;
    let w = kind.params();
    let frontier = pareto_frontier(
        &w,
        &AnalyticModel::default(),
        &PriceTable::circa_1999(),
        &CandidateSpace::paper_market(),
    );
    if m.has("--json") {
        println!("{}", serde_json::to_string_pretty(&frontier)?);
        return Ok(());
    }
    println!("Cost / performance Pareto frontier for {}:", w.name);
    for r in &frontier {
        println!(
            "  ${:>6.0}  E(Instr) = {:.3e} s  {}",
            r.cost,
            r.e_instr_seconds,
            r.spec.describe()
        );
    }
    Ok(())
}

fn cmd_upgrade(rest: &[String]) -> Result<(), MemhierError> {
    let parser = FlagParser::new("memhier upgrade", "best upgrade for an existing cluster")
        .option("--budget", "DOLLARS", "upgrade budget")
        .option(
            "--workload",
            "NAME",
            "any registry workload (see `memhier workloads`)",
        )
        .option("--machines", "N", "existing machine count (default 2)")
        .option("--procs", "N", "processors per machine (default 1)")
        .option("--cache", "KB", "cache per processor (default 256)")
        .option("--mem", "MB", "memory per machine (default 32)")
        .option(
            "--network",
            "KIND",
            "eth10|eth100|atm|fattree (default eth10)",
        );
    let Some(m) = sub(&parser, rest)? else {
        return Ok(());
    };
    let budget: f64 = req(&m, "--budget")?.parse().map_err(|_| "bad --budget")?;
    let kind = workload_kind_by_name(req(&m, "--workload")?)?;
    let machines: u32 = m.parsed("--machines")?.unwrap_or(2);
    let procs: u32 = m.parsed("--procs")?.unwrap_or(1);
    let cache: u64 = m.parsed("--cache")?.unwrap_or(256);
    let mem: u64 = m.parsed("--mem")?.unwrap_or(32);
    let network = match m.get("--network") {
        None => NetworkKind::Ethernet10,
        Some(name) => network_by_name(name)?,
    };
    let existing = if machines > 1 {
        ClusterSpec::cluster(
            MachineSpec::new(procs, cache, mem, 200.0),
            machines,
            network,
        )
    } else {
        ClusterSpec::single(MachineSpec::new(procs, cache, mem, 200.0))
    };
    let w = kind.params();
    let plans = plan_upgrade(
        &existing,
        budget,
        &w,
        &AnalyticModel::default(),
        &PriceTable::circa_1999(),
    );
    let best = plans.first().ok_or("no valid upgrade plans")?;
    println!("Existing: {}", existing.describe());
    println!("Best upgrade for {} with ${budget:.0}:", w.name);
    println!("  actions: {}", best.actions.join(", "));
    println!("  cost: ${:.0}", best.cost);
    println!("  E(Instr): {:.3e} s", best.e_instr_seconds);
    Ok(())
}

/// Dispatch to the experiment harness.  Experiments answer to their
/// artifact names (`fig2_smp`, `case_budget5k`, ...) and to the short
/// forms (`fig2`, `budget5k`, ...).
fn cmd_reproduce(rest: &[String]) -> Result<(), MemhierError> {
    use memhier_bench::experiments as ex;
    let parser = FlagParser::new("memhier reproduce", "regenerate paper artifacts")
        .positionals("<EXPERIMENT>")
        .sweep_flags();
    let Some(m) = sub(&parser, rest)? else {
        return Ok(());
    };
    let which = m
        .positionals()
        .first()
        .cloned()
        .ok_or("which experiment? (try `all`)")?;
    let sizes = m.sizes();
    let chars = || ex::table2(sizes, false).1;
    match which.as_str() {
        "table1" => ex::table1().print(),
        "table2" => ex::table2(sizes, true).0.print(),
        "fig2" | "fig2_smp" => ex::fig2_smp(sizes, &chars()).0.print(),
        "fig3" | "fig3_cow" => ex::fig3_cow(sizes, &chars()).0.print(),
        "fig4" | "fig4_clump" => ex::fig4_clump(sizes, &chars()).0.print(),
        "coherence" => ex::coherence_traffic(sizes).print(),
        "speedup" => ex::speedup(sizes).print(),
        "budget5k" | "case_budget5k" => ex::case_budget(5000.0, false).print(),
        "budget20k" | "case_budget20k" => ex::case_budget(20_000.0, true).print(),
        "upgrade" | "case_upgrade" => ex::case_upgrade(2500.0).print(),
        "fft4x" | "case_fft_4x" => ex::case_fft_4x().print(),
        "recommendations" => ex::recommendations().print(),
        "sensitivity" => ex::sensitivity().print(),
        "ablation" => ex::ablation().print(),
        "sweep" | "sweep_map" => println!("{}", ex::sweep_map(20_000.0)),
        "utilization" => ex::utilization(sizes, &chars()).print(),
        "all" => {
            let t0 = std::time::Instant::now();
            eprintln!(
                "[reproduce] sweeps run on {} worker(s)",
                memhier_bench::sweeprun::jobs()
            );
            ex::table1().print();
            let (t2, cs) = ex::table2(sizes, true);
            t2.print();
            let kernels: Vec<_> = cs.iter().filter(|c| c.name != "TPC-C").cloned().collect();
            ex::fig2_smp(sizes, &kernels).0.print();
            ex::fig3_cow(sizes, &kernels).0.print();
            ex::fig4_clump(sizes, &kernels).0.print();
            ex::coherence_traffic(sizes).print();
            ex::speedup(sizes).print();
            ex::case_budget(5000.0, false).print();
            ex::case_budget(20_000.0, true).print();
            ex::case_upgrade(2500.0).print();
            ex::case_fft_4x().print();
            ex::recommendations().print();
            ex::sensitivity().print();
            ex::ablation().print();
            ex::utilization(sizes, &kernels).print();
            println!("{}", ex::sweep_map(20_000.0));
            eprintln!(
                "[reproduce] all experiments finished in {:.1}s",
                t0.elapsed().as_secs_f64()
            );
        }
        other => {
            return Err(MemhierError::Invalid(format!(
                "unknown experiment `{other}`"
            )))
        }
    }
    Ok(())
}

fn cmd_recommend(rest: &[String]) -> Result<(), MemhierError> {
    let parser = FlagParser::new("memhier recommend", "platform recommendation (\u{a7}6)")
        .option(
            "--workload",
            "NAME",
            "any registry workload (see `memhier workloads`)",
        )
        .option("--alpha", "A", "locality shape (with --beta --rho)")
        .option("--beta", "B", "locality scale, bytes")
        .option("--rho", "R", "memory-reference fraction")
        .switch(
            "--measure",
            "measure (alpha, beta, rho) from the trace instead of Table 2",
        )
        .option("--size", "TIER", "small|medium|paper measurement tier")
        .option(
            "--budget",
            "DOLLARS",
            "attach the cost-optimal concrete clusters under this budget",
        )
        .option("--top", "K", "ranked clusters with --budget (default 3)")
        .option("--format", "FMT", "text (default) or json");
    let Some(m) = sub(&parser, rest)? else {
        return Ok(());
    };
    let mut r = RecommendRequest::new(workload_spec(&m)?);
    r.measure = m.has("--measure");
    if let Some(size) = m.get("--size") {
        r.size = Some(size.to_ascii_lowercase());
    }
    if let Some(budget) = m.parsed::<f64>("--budget")? {
        r.budget = Some(budget);
    }
    if let Some(top) = m.parsed::<usize>("--top")? {
        r.top = top;
    }
    // Round-trip through the wire parser: the CLI enforces exactly the
    // validation `/v1/recommend` does.
    let request = RecommendRequest::from_json(&r.to_json())?;
    let report = run_recommend(&request)?;
    match m.get("--format") {
        None | Some("text") => {
            println!("{}: {:?}", report.workload, report.platform);
            println!("  {}", report.rationale);
            println!("  upgrade: {}", report.upgrade_advice);
            if let Some(ranked) = &report.ranked {
                println!("  under budget:");
                for (i, e) in ranked.iter().enumerate() {
                    println!(
                        "    {}. {}  (${:.0}, model {:.3e} s)",
                        i + 1,
                        e.config,
                        e.cost,
                        e.model_seconds
                    );
                }
            }
        }
        // The same serializer `/v1/recommend` uses, so the CLI and the
        // service emit byte-identical JSON.
        Some("json") => println!("{}", serde_json::to_string_pretty(&report.to_json())?),
        Some(other) => return Err(MemhierError::Invalid(format!("unknown format `{other}`"))),
    }
    Ok(())
}

/// An explicit `(configs × workloads)` simulation sweep through the
/// crash-safe checkpointed runner: `--checkpoint`/`--resume` journal and
/// skip completed grid points, `--faults` injects deterministic failures,
/// and quarantined points are reported instead of aborting the grid.
/// Rows print in grid order, so a resumed run's output is byte-identical
/// to an uninterrupted one.
fn cmd_sweep(rest: &[String]) -> Result<(), MemhierError> {
    use memhier_bench::{run_sweep_checkpointed, PointOutcome, SweepPlan};
    let parser = FlagParser::new("memhier sweep", "checkpointed (configs x workloads) sweep")
        .option(
            "--configs",
            "LIST|@FILE",
            "comma-separated configs (C1,C2) or @plan.json (scenario array)",
        )
        .option(
            "--workloads",
            "LIST",
            "comma-separated kernels, e.g. FFT,LU (unused with @FILE)",
        )
        .switch("--json", "machine-readable rows")
        .sweep_flags();
    let Some(m) = sub(&parser, rest)? else {
        return Ok(());
    };
    let plan = SweepPlan {
        name: "cli".to_string(),
        points: sweep_scenarios(&m)?,
    };
    let outcome = run_sweep_checkpointed(&plan, &m.checkpoint_config()?)?;
    let rows: Vec<serde_json::Value> = outcome
        .outcomes
        .iter()
        .map(|o| {
            let p = &plan.points[o.index()];
            let config = p.config.name.as_deref().unwrap_or("unnamed");
            match o {
                PointOutcome::Ok { result, .. } => serde_json::json!({
                    "index": o.index() as u64,
                    "config": config,
                    "workload": p.workload.name(),
                    "attempts": u64::from(o.attempts()),
                    "status": "ok",
                    "e_instr_seconds": result.run.report.e_instr_seconds,
                    "wall_cycles": result.run.report.wall_cycles,
                }),
                PointOutcome::Failed { error, .. } => serde_json::json!({
                    "index": o.index() as u64,
                    "config": config,
                    "workload": p.workload.name(),
                    "attempts": u64::from(o.attempts()),
                    "status": "failed",
                    "error": error.as_str(),
                }),
                PointOutcome::Panicked { message, .. } => serde_json::json!({
                    "index": o.index() as u64,
                    "config": config,
                    "workload": p.workload.name(),
                    "attempts": u64::from(o.attempts()),
                    "status": "panicked",
                    "error": message.as_str(),
                }),
            }
        })
        .collect();
    if m.has("--json") {
        println!("{}", serde_json::to_string_pretty(&rows)?);
    } else {
        for (o, p) in outcome.outcomes.iter().zip(&plan.points) {
            match o {
                PointOutcome::Ok { result, .. } => println!(
                    "{:4} {:6} E(Instr) = {:.3e} s  ({} attempt(s))",
                    p.config.name.as_deref().unwrap_or("unnamed"),
                    p.workload.name(),
                    result.run.report.e_instr_seconds,
                    o.attempts()
                ),
                _ => println!(
                    "{:4} {:6} QUARANTINED after {} attempt(s): {}",
                    p.config.name.as_deref().unwrap_or("unnamed"),
                    p.workload.name(),
                    o.attempts(),
                    o.error().unwrap_or("unknown")
                ),
            }
        }
    }
    let quarantined = outcome.quarantined();
    if quarantined > 0 {
        eprintln!("memhier sweep: {quarantined} point(s) quarantined");
    }
    Ok(())
}

/// Resolve `--configs`/`--workloads` into scenarios: the cross-product
/// of the two comma lists (cluster-major, like `/v1/sweep`), or — with
/// `--configs @FILE` — a JSON plan file holding an array of scenario
/// objects or compact `CONFIG:WORKLOAD[:SIZE]` strings.
fn sweep_scenarios(m: &Matches) -> Result<Vec<Scenario>, MemhierError> {
    let configs = req(m, "--configs")?;
    if let Some(path) = configs.strip_prefix('@') {
        let text = std::fs::read_to_string(path)
            .map_err(|e| MemhierError::Invalid(format!("reading {path}: {e}")))?;
        let v: serde_json::Value = serde_json::from_str(&text)?;
        let scenarios = Scenario::parse_batch(&v)?;
        if scenarios.is_empty() {
            return Err(MemhierError::Invalid(format!(
                "{path} contains no scenarios"
            )));
        }
        return Ok(scenarios);
    }
    let split = |list: &str| -> Vec<String> {
        list.split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .map(str::to_string)
            .collect()
    };
    let names = split(configs);
    let kinds = split(req(m, "--workloads")?);
    if names.is_empty() || kinds.is_empty() {
        return Err(MemhierError::Invalid(
            "--configs and --workloads must each name at least one entry".to_string(),
        ));
    }
    Ok(Scenario::grid(&names, &kinds, m.sizes())?)
}

fn cmd_serve(rest: &[String]) -> Result<(), MemhierError> {
    let parser = FlagParser::new("memhier serve", "run memhierd, the HTTP advisor service")
        .option(
            "--addr",
            "HOST:PORT",
            "bind address (default 127.0.0.1:7070; port 0 picks one)",
        )
        .option("--workers", "N", "worker threads (default 4)")
        .option("--queue-depth", "N", "admission queue bound (default 64)")
        .option("--timeout-ms", "MS", "per-request deadline (default 10000)")
        .option(
            "--cache-capacity",
            "N",
            "response-cache entries (default 256)",
        )
        .option("--cache-shards", "N", "response-cache shards (default 8)")
        .option(
            "--read-timeout-ms",
            "MS",
            "slow-client request deadline before 408 (default 10000)",
        )
        .option(
            "--keepalive-timeout-ms",
            "MS",
            "idle keep-alive connection lifetime (default 30000)",
        )
        .option(
            "--cache-ttl-ms",
            "MS",
            "cache entry age before stale-while-revalidate (default 0 = never stale)",
        )
        .option(
            "--drain-grace-ms",
            "MS",
            "after a shutdown signal, keep serving with /readyz at 503 for MS (default 0)",
        )
        .option("--addr-file", "PATH", "write the bound address to PATH")
        .option(
            "--faults",
            "SPEC",
            "deterministic fault-injection spec (also MEMHIER_FAULTS)",
        );
    let Some(m) = sub(&parser, rest)? else {
        return Ok(());
    };
    let mut config = ServeConfig::default();
    if let Some(addr) = m.get("--addr") {
        config.addr = addr.to_string();
    }
    if let Some(n) = m.parsed::<usize>("--workers")? {
        config.workers = n;
    }
    if let Some(n) = m.parsed::<usize>("--queue-depth")? {
        config.queue_depth = n;
    }
    if let Some(ms) = m.parsed::<u64>("--timeout-ms")? {
        config.timeout = Duration::from_millis(ms);
    }
    if let Some(n) = m.parsed::<usize>("--cache-capacity")? {
        config.cache_capacity = n;
    }
    if let Some(n) = m.parsed::<usize>("--cache-shards")? {
        config.cache_shards = n;
    }
    if let Some(ms) = m.parsed::<u64>("--read-timeout-ms")? {
        config.read_timeout = Duration::from_millis(ms);
    }
    if let Some(ms) = m.parsed::<u64>("--keepalive-timeout-ms")? {
        config.keepalive_timeout = Duration::from_millis(ms);
    }
    if let Some(ms) = m.parsed::<u64>("--cache-ttl-ms")? {
        config.cache_ttl = (ms > 0).then(|| Duration::from_millis(ms));
    }
    let drain_grace = Duration::from_millis(m.parsed::<u64>("--drain-grace-ms")?.unwrap_or(0));
    config.faults = m.fault_plan()?;
    if !config.faults.is_empty() {
        eprintln!("memhierd: fault injection active: {}", config.faults);
    }
    let server = Server::start(config.clone())?;
    let addr = server.local_addr();
    if let Some(path) = m.get("--addr-file") {
        std::fs::write(path, addr.to_string())?;
    }
    memhier_serve::signal::install();
    eprintln!(
        "memhierd listening on {addr} ({} workers, queue {}, {} ms deadline)",
        config.workers.max(1),
        config.queue_depth.max(1),
        config.timeout.as_millis()
    );
    while !memhier_serve::signal::shutdown_requested() {
        std::thread::sleep(Duration::from_millis(50));
    }
    // Drain: readiness drops first (so load balancers stop routing
    // here), traffic keeps being served through the grace window, then
    // the listener closes and in-flight work completes.
    eprintln!(
        "memhierd: shutdown signal received, draining ({}ms grace, /readyz now 503)",
        drain_grace.as_millis()
    );
    server.begin_drain();
    std::thread::sleep(drain_grace);
    let m = &server.state().metrics;
    let (ok, rejected) = (m.ok_count(), m.rejected_count());
    server.shutdown();
    eprintln!("memhierd: stopped cleanly ({ok} ok, {rejected} rejected busy)");
    Ok(())
}
