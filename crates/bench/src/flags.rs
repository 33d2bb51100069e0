//! One typed flag parser for every entry point.
//!
//! Every `memhier` subcommand and the load-generator binaries parse their
//! arguments through [`FlagParser`], a single declarative
//! surface: registered switches (`--paper`) and valued options
//! (`--jobs N` / `--jobs=N`), auto-generated `--help`, rejection of
//! unknown flags, and shared bundles for the common knobs
//! ([`FlagParser::sweep_flags`], [`FlagParser::observer_flags`]) so
//! `--jobs`, `--metrics`, `--trace`, sizes, and `--help` behave
//! identically everywhere.

use crate::faults::FaultPlan;
use crate::runner::{ObserverConfig, Sizes};
use crate::sweeprun::CheckpointConfig;
use std::fmt::Write as _;

/// Default time-series window width (cycles) when `--metrics` is given
/// without `--window`.
pub const DEFAULT_METRICS_WINDOW: u64 = 100_000;
/// Default trace capacity (events) when `--trace` is given without
/// `--trace-cap`.
pub const DEFAULT_TRACE_CAP: usize = 65_536;

#[derive(Debug, Clone, Copy)]
struct Spec {
    name: &'static str,
    metavar: Option<&'static str>,
    help: &'static str,
}

/// Declarative argument parser shared by the CLI and the bench binaries.
#[derive(Debug, Clone)]
pub struct FlagParser {
    bin: &'static str,
    about: &'static str,
    specs: Vec<Spec>,
    positional_usage: Option<&'static str>,
}

impl FlagParser {
    /// Parser for binary `bin`, described by `about`.  `--help` is always
    /// registered.
    pub fn new(bin: &'static str, about: &'static str) -> Self {
        FlagParser {
            bin,
            about,
            specs: vec![Spec {
                name: "--help",
                metavar: None,
                help: "print this help and exit",
            }],
            positional_usage: None,
        }
    }

    /// Register a boolean switch (`--name`).
    pub fn switch(mut self, name: &'static str, help: &'static str) -> Self {
        self.specs.push(Spec {
            name,
            metavar: None,
            help,
        });
        self
    }

    /// Register a valued option (`--name VALUE` or `--name=VALUE`).
    pub fn option(mut self, name: &'static str, metavar: &'static str, help: &'static str) -> Self {
        self.specs.push(Spec {
            name,
            metavar: Some(metavar),
            help,
        });
        self
    }

    /// Accept positional arguments, documented as `usage` in help output.
    /// Without this, any positional argument is an error.
    pub fn positionals(mut self, usage: &'static str) -> Self {
        self.positional_usage = Some(usage);
        self
    }

    /// The common sweep knobs: `--small`, `--paper`, `--jobs N`, plus
    /// the crash-safety bundle (`--checkpoint`, `--resume`,
    /// `--max-retries`, `--faults`).
    pub fn sweep_flags(self) -> Self {
        self.switch("--small", "tiny problem sizes (CI tier)")
            .switch("--paper", "the paper's \u{a7}5.2 problem sizes")
            .option(
                "--jobs",
                "N",
                "worker threads for sweeps (also MEMHIER_JOBS)",
            )
            .option(
                "--checkpoint",
                "PATH",
                "append completed sweep points to this JSONL journal",
            )
            .switch(
                "--resume",
                "skip points already completed in the --checkpoint journal",
            )
            .option(
                "--max-retries",
                "N",
                "retries per point after a failure or panic (default 1)",
            )
            .option(
                "--faults",
                "SPEC",
                "deterministic fault-injection spec (also MEMHIER_FAULTS)",
            )
    }

    /// The observability knobs: `--metrics`, `--window`, `--trace`,
    /// `--trace-cap`.
    pub fn observer_flags(self) -> Self {
        self.option("--metrics", "PATH", "write windowed metrics JSON here")
            .option(
                "--window",
                "CYCLES",
                "metrics window width in cycles (default 100000)",
            )
            .option("--trace", "PATH", "write a bounded JSONL event trace here")
            .option(
                "--trace-cap",
                "N",
                "max trace events retained (default 65536)",
            )
    }

    fn find(&self, name: &str) -> Option<&Spec> {
        self.specs.iter().find(|s| s.name == name)
    }

    /// Rendered help text.
    pub fn usage(&self) -> String {
        let mut u = format!("{} — {}\n\nUsage: {}", self.bin, self.about, self.bin);
        if let Some(pos) = self.positional_usage {
            let _ = write!(u, " {pos}");
        }
        u.push_str(" [flags]\n\nFlags:\n");
        let width = self
            .specs
            .iter()
            .map(|s| s.name.len() + s.metavar.map(|m| m.len() + 1).unwrap_or(0))
            .max()
            .unwrap_or(0);
        for s in &self.specs {
            let head = match s.metavar {
                Some(m) => format!("{} {m}", s.name),
                None => s.name.to_string(),
            };
            let _ = writeln!(u, "  {head:<width$}  {}", s.help);
        }
        u
    }

    /// Parse `args` (without the program name).  Returns an error message
    /// for unknown flags, missing values, or unexpected positionals.
    /// Registered single-dash names (e.g. `-o`) are accepted too;
    /// unregistered ones fall through to positional handling.
    pub fn parse(&self, args: &[String]) -> Result<Matches, String> {
        let mut m = Matches {
            switches: Vec::new(),
            options: Vec::new(),
            positionals: Vec::new(),
        };
        let mut it = args.iter();
        while let Some(a) = it.next() {
            if let Some((name, value)) = a.split_once('=').filter(|_| a.starts_with("--")) {
                let spec = self
                    .find(name)
                    .ok_or_else(|| format!("unknown flag `{name}`"))?;
                if spec.metavar.is_none() {
                    return Err(format!("`{name}` takes no value"));
                }
                m.options.push((spec.name, value.to_string()));
            } else if a.starts_with("--") || (a.starts_with('-') && self.find(a).is_some()) {
                let spec = self.find(a).ok_or_else(|| format!("unknown flag `{a}`"))?;
                match spec.metavar {
                    None => m.switches.push(spec.name),
                    Some(metavar) => {
                        let v = it
                            .next()
                            .ok_or_else(|| format!("`{a}` needs a {metavar} value"))?;
                        m.options.push((spec.name, v.clone()));
                    }
                }
            } else if self.positional_usage.is_some() {
                m.positionals.push(a.clone());
            } else {
                return Err(format!("unexpected argument `{a}`"));
            }
        }
        Ok(m)
    }

    /// Parse the process arguments.  On a parse error, print it plus the
    /// usage to stderr and exit 2; on `--help`, print usage and exit 0.
    /// A present `--jobs` is installed process-wide (see
    /// [`Matches::apply_jobs`]), as is the sweep
    /// crash-safety config when any of its flags (or `MEMHIER_FAULTS`)
    /// is present.
    pub fn parse_env_or_exit(&self) -> Matches {
        let args: Vec<String> = std::env::args().skip(1).collect();
        match self.parse(&args) {
            Ok(m) => {
                if m.has("--help") {
                    print!("{}", self.usage());
                    std::process::exit(0);
                }
                if let Err(e) = m.apply_sweep_config() {
                    eprint!("error: {e}\n\n{}", self.usage());
                    std::process::exit(2);
                }
                m
            }
            Err(e) => {
                eprint!("error: {e}\n\n{}", self.usage());
                std::process::exit(2);
            }
        }
    }
}

/// Parsed arguments.
#[derive(Debug, Clone, Default)]
pub struct Matches {
    switches: Vec<&'static str>,
    options: Vec<(&'static str, String)>,
    positionals: Vec<String>,
}

impl Matches {
    /// Whether switch `name` (or a valued `name`) was given.
    pub fn has(&self, name: &str) -> bool {
        self.switches.contains(&name) || self.get(name).is_some()
    }

    /// Last value given for option `name`.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.options
            .iter()
            .rev()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Parse option `name` as `T`, erroring with the flag name on a
    /// malformed value.
    pub fn parsed<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        match self.get(name) {
            None => Ok(None),
            Some(v) => v
                .parse::<T>()
                .map(Some)
                .map_err(|_| format!("malformed value `{v}` for `{name}`")),
        }
    }

    /// Positional arguments, in order.
    pub fn positionals(&self) -> &[String] {
        &self.positionals
    }

    /// Problem-size tier from `--small`/`--paper` (default medium).
    pub fn sizes(&self) -> Sizes {
        if self.has("--paper") {
            Sizes::Paper
        } else if self.has("--small") {
            Sizes::Small
        } else {
            Sizes::Medium
        }
    }

    /// Observer configuration from `--metrics`/`--window`/`--trace`/
    /// `--trace-cap`: observers are attached only when an output path
    /// was requested.
    pub fn observers(&self) -> Result<ObserverConfig, String> {
        let window = self.parsed::<u64>("--window")?;
        let cap = self.parsed::<usize>("--trace-cap")?;
        Ok(ObserverConfig {
            metrics_window: self
                .get("--metrics")
                .map(|_| window.unwrap_or(DEFAULT_METRICS_WINDOW).max(1)),
            trace_capacity: self
                .get("--trace")
                .map(|_| cap.unwrap_or(DEFAULT_TRACE_CAP)),
        })
    }

    /// Install a present, well-formed `--jobs N` process-wide (override +
    /// `MEMHIER_JOBS`, so library code that sizes its own rayon pools —
    /// e.g. the cost optimizer — sees the same setting).
    pub fn apply_jobs(&self) {
        if let Ok(Some(n)) = self.parsed::<usize>("--jobs") {
            if n > 0 {
                crate::sweeprun::set_jobs(n);
                std::env::set_var("MEMHIER_JOBS", n.to_string());
            } else {
                eprintln!("warning: ignoring malformed --jobs (want a positive integer)");
            }
        } else if self.get("--jobs").is_some() {
            eprintln!("warning: ignoring malformed --jobs (want a positive integer)");
        }
    }

    /// The fault plan from `--faults SPEC`, falling back to
    /// `MEMHIER_FAULTS` (a missing flag and env var is the empty plan; a
    /// malformed spec in either is an error).
    pub fn fault_plan(&self) -> Result<FaultPlan, String> {
        match self.get("--faults") {
            Some(spec) => FaultPlan::parse(spec).map_err(|e| format!("--faults: {e}")),
            None => FaultPlan::from_env(),
        }
    }

    /// The sweep crash-safety config from `--checkpoint`/`--resume`/
    /// `--max-retries`/`--faults`.
    pub fn checkpoint_config(&self) -> Result<CheckpointConfig, String> {
        if self.resume_requested() && self.get("--checkpoint").is_none() {
            return Err("--resume needs --checkpoint PATH".to_string());
        }
        Ok(CheckpointConfig {
            path: self.get("--checkpoint").map(std::path::PathBuf::from),
            resume: self.resume_requested(),
            max_retries: self
                .parsed::<u32>("--max-retries")?
                .unwrap_or(crate::sweeprun::DEFAULT_MAX_RETRIES),
            faults: self.fault_plan()?,
        })
    }

    fn resume_requested(&self) -> bool {
        self.switches.contains(&"--resume")
    }

    /// Install `--jobs` plus, when any crash-safety knob is active, the
    /// process-wide [`CheckpointConfig`] that routes
    /// [`run_sweep`](crate::sweeprun::run_sweep) through the
    /// checkpointed path.
    pub fn apply_sweep_config(&self) -> Result<(), String> {
        self.apply_jobs();
        let cfg = self.checkpoint_config()?;
        if cfg.is_active() {
            crate::sweeprun::set_checkpoint_config(Some(cfg));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    fn parser() -> FlagParser {
        FlagParser::new("test", "a test parser")
            .sweep_flags()
            .observer_flags()
    }

    #[test]
    fn switches_and_options_both_forms() {
        let m = parser()
            .parse(&args(&["--paper", "--jobs", "4", "--metrics=m.json"]))
            .unwrap();
        assert!(m.has("--paper"));
        assert!(!m.has("--small"));
        assert_eq!(m.parsed::<usize>("--jobs").unwrap(), Some(4));
        assert_eq!(m.get("--metrics"), Some("m.json"));
        assert_eq!(m.sizes(), Sizes::Paper);
    }

    #[test]
    fn unknown_flag_rejected() {
        let e = parser().parse(&args(&["--bogus"])).unwrap_err();
        assert!(e.contains("--bogus"), "{e}");
        let e = parser().parse(&args(&["stray"])).unwrap_err();
        assert!(e.contains("stray"), "{e}");
    }

    #[test]
    fn positionals_when_allowed() {
        let p = FlagParser::new("t", "t").positionals("BUDGET");
        let m = p.parse(&args(&["20000"])).unwrap();
        assert_eq!(m.positionals(), &["20000".to_string()]);
    }

    #[test]
    fn missing_value_is_error() {
        let e = parser().parse(&args(&["--jobs"])).unwrap_err();
        assert!(e.contains("--jobs"), "{e}");
        let e = parser().parse(&args(&["--paper=yes"])).unwrap_err();
        assert!(e.contains("no value"), "{e}");
    }

    #[test]
    fn observer_config_defaults() {
        let m = parser().parse(&args(&["--metrics", "m.json"])).unwrap();
        let cfg = m.observers().unwrap();
        assert_eq!(cfg.metrics_window, Some(DEFAULT_METRICS_WINDOW));
        assert_eq!(cfg.trace_capacity, None);
        let m = parser()
            .parse(&args(&[
                "--metrics",
                "m.json",
                "--window",
                "500",
                "--trace",
                "t.jsonl",
                "--trace-cap",
                "9",
            ]))
            .unwrap();
        let cfg = m.observers().unwrap();
        assert_eq!(cfg.metrics_window, Some(500));
        assert_eq!(cfg.trace_capacity, Some(9));
        // No paths → no observers, regardless of tuning flags.
        let m = parser().parse(&args(&["--window", "500"])).unwrap();
        assert!(!m.observers().unwrap().is_active());
    }

    #[test]
    fn usage_lists_every_flag() {
        let u = parser().usage();
        for f in [
            "--help",
            "--small",
            "--paper",
            "--jobs",
            "--metrics",
            "--trace",
        ] {
            assert!(u.contains(f), "usage missing {f}:\n{u}");
        }
    }

    #[test]
    fn malformed_integer_is_an_error_not_a_panic() {
        // Parsing succeeds (the flag takes any string)…
        let m = parser().parse(&args(&["--jobs", "four"])).unwrap();
        // …but typed extraction reports the bad literal and the flag name.
        let e = m.parsed::<usize>("--jobs").unwrap_err();
        assert!(e.contains("--jobs"), "{e}");
        assert!(e.contains("four"), "{e}");
        // A negative literal is consumed as the value, then rejected by
        // the unsigned typed extraction.
        let m = parser().parse(&args(&["--jobs", "-3"])).unwrap();
        assert!(m.parsed::<usize>("--jobs").is_err());
        let m = parser().parse(&args(&["--window", "1e9"])).unwrap();
        assert!(m.parsed::<u64>("--window").is_err());
    }

    #[test]
    fn help_flag_is_always_accepted() {
        let m = parser().parse(&args(&["--help"])).unwrap();
        assert!(m.has("--help"));
        // --help wins even alongside other valid flags.
        let m = parser().parse(&args(&["--paper", "--help"])).unwrap();
        assert!(m.has("--help"));
    }

    #[test]
    fn checkpoint_config_from_flags() {
        let m = parser()
            .parse(&args(&[
                "--checkpoint",
                "ck.jsonl",
                "--resume",
                "--max-retries",
                "3",
                "--faults",
                "point:io:nth=2",
            ]))
            .unwrap();
        let cfg = m.checkpoint_config().unwrap();
        assert_eq!(cfg.path.as_deref(), Some(std::path::Path::new("ck.jsonl")));
        assert!(cfg.resume);
        assert_eq!(cfg.max_retries, 3);
        assert_eq!(cfg.faults.rules().len(), 1);
        assert!(cfg.is_active());
        // No crash-safety flags → inert config.
        let m = parser().parse(&args(&["--paper"])).unwrap();
        std::env::remove_var("MEMHIER_FAULTS");
        let cfg = m.checkpoint_config().unwrap();
        assert!(!cfg.is_active());
        assert_eq!(cfg.max_retries, crate::sweeprun::DEFAULT_MAX_RETRIES);
    }

    #[test]
    fn resume_without_checkpoint_is_an_error() {
        let m = parser().parse(&args(&["--resume"])).unwrap();
        let e = m.checkpoint_config().unwrap_err();
        assert!(e.contains("--checkpoint"), "{e}");
    }

    #[test]
    fn malformed_faults_flag_is_an_error() {
        let m = parser().parse(&args(&["--faults", "bogus"])).unwrap();
        let e = m.checkpoint_config().unwrap_err();
        assert!(e.contains("--faults"), "{e}");
    }

    #[test]
    fn usage_header_names_the_binary_and_about() {
        let u = FlagParser::new("serve_load", "closed-loop load generator").usage();
        assert!(u.contains("serve_load"), "{u}");
        assert!(u.contains("closed-loop load generator"), "{u}");
    }
}
