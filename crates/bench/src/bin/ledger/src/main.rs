//! `ledger`: run the memhier benchmark.
//!
//! ```text
//! ledger [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--spans PATH]
//! ```
//!
//! With `--workload`, the workload runs in this process: the report lists
//! every metric with its unit and sample count, and its last line is one
//! JSON object (`correct`, `attempted`, `failed`, `metrics`).  `--trace 1`
//! reports the per-layer metrics instead of the end-to-end ones and writes
//! the spans as JSONL.  Without `--workload`, every workload runs in its
//! own child process, one at a time.  The exit code is non-zero when any
//! output check fails.

use memhier_bench::Sizes;
use memhier_ledger::spans::Recorder;
use memhier_ledger::{Outcome, Plan, Workload};
use std::path::PathBuf;
use std::process::{Command, ExitCode};

const USAGE: &str = "usage: ledger [--workload sim_hit|sim_miss|trace_fit|serve_mix] [--seed N] [--seconds S] [--trace 0|1] [--spans PATH]";

struct Options {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans: Option<PathBuf>,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workload: None,
        seed: 1,
        seconds: 25.0,
        trace: false,
        spans: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                o.workload =
                    Some(Workload::parse(v).ok_or_else(|| format!("unknown workload `{v}`"))?);
            }
            "--seed" => o.seed = value()?.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => {
                o.seconds = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(o.seconds >= 0.0 && o.seconds.is_finite()) {
                    return Err("--seconds must be a non-negative number".to_string());
                }
            }
            "--trace" => {
                o.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            "--spans" => o.spans = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if o.spans.is_some() && (o.workload.is_none() || !o.trace) {
        return Err("--spans needs --workload and --trace 1".to_string());
    }
    Ok(o)
}

/// Where scratch traces and span files go: the build directory.
fn out_dir() -> Result<PathBuf, String> {
    let base =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    let dir = base.join("ledger");
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    Ok(dir)
}

fn print_report(w: Workload, o: &Options, out: &Outcome) {
    let mode = if o.trace { "traced" } else { "untraced" };
    println!("{} (seed {}, {} s, {mode})", w.name(), o.seed, o.seconds);
    for d in &out.details {
        println!("  {d}");
    }
    for m in &out.metrics {
        println!(
            "  {} = {} {}  [{} samples; {}]",
            m.name, m.value, m.unit, m.samples, m.note
        );
    }
    println!("  {} operations, {} failed", out.attempted, out.failed);
    for e in &out.errors {
        println!("  FAILED: {e}");
    }
}

fn run_one(w: Workload, o: &Options) -> Result<bool, String> {
    let dir = out_dir()?;
    let plan = Plan {
        seed: o.seed,
        seconds: o.seconds,
        size: Sizes::Paper,
        scratch: dir.clone(),
        exe: std::env::current_exe().map_err(|e| format!("locating the ledger executable: {e}"))?,
    };
    let mut rec = Recorder::new();
    let out = memhier_ledger::run(w, &plan, o.trace, &mut rec);
    print_report(w, o, &out);
    if o.trace {
        let path = o
            .spans
            .clone()
            .unwrap_or_else(|| dir.join(format!("spans-{}-seed{}.jsonl", w.name(), o.seed)));
        let file = std::fs::File::create(&path)
            .map_err(|e| format!("creating {}: {e}", path.display()))?;
        rec.write_jsonl(std::io::BufWriter::new(file))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!(
            "  {} spans written to {}",
            rec.spans().len(),
            path.display()
        );
    }
    let line = serde_json::to_string(&out.to_json()).map_err(|e| e.to_string())?;
    println!("{line}");
    Ok(out.correct())
}

/// Every workload, each in its own child process, one at a time; each
/// prints its own report and exits non-zero when a check fails.
fn run_all(o: &Options) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let (seed, seconds) = (o.seed.to_string(), o.seconds.to_string());
    let trace = if o.trace { "1" } else { "0" };
    let mut failed = Vec::new();
    for w in Workload::ALL {
        let status = Command::new(&exe)
            .args(["--workload", w.name(), "--seed", &seed])
            .args(["--seconds", &seconds, "--trace", trace])
            .status()
            .map_err(|e| format!("running {}: {e}", w.name()))?;
        if !status.success() {
            failed.push(w.name());
        }
    }
    if failed.is_empty() {
        println!("every workload passed its checks");
    } else {
        println!("FAILED: {}", failed.join(", "));
    }
    Ok(failed.is_empty())
}

fn main() -> ExitCode {
    // The ledger measures the default engine with nothing injected,
    // whatever the calling environment asks for; children inherit this.
    for var in ["MEMHIER_SIM_THREADS", "MEMHIER_JOBS", "MEMHIER_FAULTS"] {
        std::env::remove_var(var);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(result) = memhier_ledger::child(&args) {
        return match result {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("ledger: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("ledger: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match opts.workload {
        Some(w) => run_one(w, &opts),
        None => run_all(&opts),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("ledger: {e}");
            ExitCode::FAILURE
        }
    }
}
