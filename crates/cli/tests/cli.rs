//! End-to-end tests of the `memhier` binary (spawned as a subprocess).

use std::process::Command;

fn memhier(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_memhier"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn no_args_prints_usage_and_fails() {
    let (ok, _, err) = memhier(&[]);
    assert!(!ok);
    assert!(err.contains("USAGE"));
}

#[test]
fn help_succeeds() {
    let (ok, out, _) = memhier(&["help"]);
    assert!(ok);
    assert!(out.contains("memhier"));
    assert!(out.contains("optimize"));
}

#[test]
fn unknown_command_fails_with_message() {
    let (ok, _, err) = memhier(&["frobnicate"]);
    assert!(!ok);
    assert!(err.contains("unknown command"));
}

#[test]
fn configs_lists_all_fifteen() {
    let (ok, out, _) = memhier(&["configs"]);
    assert!(ok);
    for i in 1..=15 {
        assert!(out.contains(&format!("C{i}:")), "missing C{i} in {out}");
    }
}

#[test]
fn model_prints_prediction() {
    let (ok, out, _) = memhier(&["model", "--config", "C5", "--workload", "FFT"]);
    assert!(ok, "{out}");
    assert!(out.contains("E(Instr)"));
    assert!(out.contains("cache"));
    assert!(out.contains("disk"));
}

#[test]
fn model_json_is_valid_json() {
    let (ok, out, _) = memhier(&["model", "--config", "C1", "--workload", "LU", "--json"]);
    assert!(ok);
    let v: serde_json::Value = serde_json::from_str(&out).expect("valid JSON");
    assert!(v.get("e_instr_seconds").is_some());
}

#[test]
fn model_rejects_unknown_config() {
    let (ok, _, err) = memhier(&["model", "--config", "C99", "--workload", "FFT"]);
    assert!(!ok);
    assert!(err.contains("unknown config"));
}

#[test]
fn model_rejects_unknown_workload() {
    let (ok, _, err) = memhier(&["model", "--config", "C1", "--workload", "SORT"]);
    assert!(!ok);
    assert!(err.contains("unknown workload"));
}

#[test]
fn simulate_small_runs() {
    let (ok, out, _) = memhier(&[
        "simulate",
        "--config",
        "C1",
        "--workload",
        "EDGE",
        "--small",
    ]);
    assert!(ok, "{out}");
    assert!(out.contains("wall ="));
    assert!(out.contains("levels:"));
}

#[test]
fn fit_small_reports_parameters() {
    let (ok, out, _) = memhier(&["fit", "--workload", "EDGE", "--small"]);
    assert!(ok, "{out}");
    assert!(out.contains("alpha ="));
    assert!(out.contains("paper:"));
}

#[test]
fn optimize_respects_budget_flag() {
    let (ok, out, _) = memhier(&["optimize", "--budget", "5000", "--workload", "LU"]);
    assert!(ok, "{out}");
    assert!(out.contains("Optimizing LU under $5000"), "{out}");
    assert!(out.contains("pruning ratio"), "{out}");
    assert!(out.contains("Pareto frontier"), "{out}");
    // An infeasible budget is diagnosed, not an error: every candidate
    // is counted into a pruning bucket.
    let (ok, out, _) = memhier(&["optimize", "--budget", "100", "--workload", "LU"]);
    assert!(ok, "{out}");
    assert!(out.contains("nothing feasible"), "{out}");
    assert!(out.contains("over budget"), "{out}");
}

#[test]
fn optimize_grid_flags_expand_thousands_of_candidates() {
    let (ok, out, _) = memhier(&[
        "optimize",
        "--budget",
        "30000",
        "--workload",
        "FFT",
        "--max-machines",
        "32",
        "--mem",
        "32,64,128,256",
        "--json",
    ]);
    assert!(ok, "{out}");
    let v: serde_json::Value = serde_json::from_str(out.trim()).expect("valid JSON");
    assert!(
        v["search"]["candidates"].as_u64().unwrap() >= 1000,
        "grid too small: {:?}",
        v["search"]
    );
    assert!(v["search"]["pruning_ratio"].as_f64().unwrap() > 0.99);
}

#[test]
fn optimize_rejects_bad_requests() {
    let (ok, _, err) = memhier(&["optimize", "--budget", "5000", "--workload", "SORT"]);
    assert!(!ok);
    assert!(err.contains("unknown workload"), "{err}");
    let (ok, _, err) = memhier(&[
        "optimize",
        "--budget",
        "5000",
        "--workload",
        "LU",
        "--networks",
        "token-ring",
    ]);
    assert!(!ok);
    assert!(err.contains("unknown network"), "{err}");
}

#[test]
fn recommend_from_parameters() {
    let (ok, out, _) = memhier(&[
        "recommend",
        "--alpha",
        "1.1",
        "--beta",
        "500",
        "--rho",
        "0.6",
    ]);
    assert!(ok);
    assert!(out.contains("SingleSmp"), "{out}");
}

#[test]
fn upgrade_prints_plan() {
    let (ok, out, _) = memhier(&["upgrade", "--budget", "2500", "--workload", "FFT"]);
    assert!(ok, "{out}");
    assert!(out.contains("Best upgrade"));
    assert!(out.contains("actions:"));
}

#[test]
fn pareto_frontier_prints_monotone_costs() {
    let (ok, out, _) = memhier(&["pareto", "--workload", "Radix"]);
    assert!(ok, "{out}");
    assert!(out.contains("Pareto frontier"));
    let costs: Vec<f64> = out
        .lines()
        .filter_map(|l| l.trim().strip_prefix('$'))
        .filter_map(|l| l.split_whitespace().next()?.parse().ok())
        .collect();
    assert!(costs.len() >= 3, "{out}");
    assert!(costs.windows(2).all(|w| w[0] < w[1]), "{costs:?}");
}

#[test]
fn fit_phases_segments_the_trace() {
    let (ok, out, _) = memhier(&["fit", "--workload", "EDGE", "--small", "--phases"]);
    assert!(ok, "{out}");
    assert!(out.contains("phases,"));
    assert!(out.contains("phase   0:"));
    // EDGE at small size: 2 iterations x 3 phases = 6 phases.
    assert!(out.contains("phase   5:"), "{out}");
}

#[test]
fn reproduce_table1_runs() {
    let (ok, out, _) = memhier(&["reproduce", "table1"]);
    assert!(ok);
    assert!(out.contains("gray block A"));
}

#[test]
fn reproduce_rejects_unknown_experiment() {
    let (ok, _, err) = memhier(&["reproduce", "fig9"]);
    assert!(!ok);
    assert!(err.contains("unknown experiment"));
}

#[test]
fn recommend_format_json_has_full_field_parity() {
    let (ok, out, _) = memhier(&["recommend", "--workload", "Radix", "--format", "json"]);
    assert!(ok, "{out}");
    let v: serde_json::Value = serde_json::from_str(out.trim()).expect("valid JSON");
    for field in [
        "workload",
        "alpha",
        "beta",
        "rho",
        "platform",
        "rationale",
        "upgrade_advice",
    ] {
        assert!(!v[field].is_null(), "missing `{field}` in {out}");
    }
    assert_eq!(v["workload"].as_str(), Some("Radix"));
    assert_eq!(v["platform"].as_str(), Some("SingleSmp"));
}

#[test]
fn recommend_rejects_unknown_format() {
    let (ok, _, err) = memhier(&["recommend", "--workload", "FFT", "--format", "yaml"]);
    assert!(!ok);
    assert!(err.contains("unknown format"), "{err}");
}

#[test]
fn recommend_text_is_default() {
    let (ok, out, _) = memhier(&["recommend", "--workload", "LU"]);
    assert!(ok, "{out}");
    assert!(out.contains("ManyWorkstationsSlowNetwork"), "{out}");
    assert!(out.contains("upgrade:"), "{out}");
}

#[test]
fn serve_help_lists_all_tuning_flags() {
    let (ok, out, _) = memhier(&["serve", "--help"]);
    assert!(ok, "{out}");
    for flag in [
        "--addr",
        "--workers",
        "--queue-depth",
        "--timeout-ms",
        "--cache-capacity",
        "--cache-shards",
        "--addr-file",
    ] {
        assert!(out.contains(flag), "serve --help missing {flag}:\n{out}");
    }
}

#[test]
fn subcommand_help_prints_usage_and_succeeds() {
    for cmd in ["model", "simulate", "fit", "optimize", "recommend"] {
        let (ok, out, _) = memhier(&[cmd, "--help"]);
        assert!(ok, "{cmd} --help failed");
        assert!(out.contains("--help"), "{cmd} --help output:\n{out}");
    }
}

#[test]
fn sweep_accepts_a_scenario_plan_file() {
    let dir = std::env::temp_dir().join(format!("memhier-plan-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let plan = dir.join("plan.json");
    // Compact strings and JSON objects mix freely in one plan.
    std::fs::write(
        &plan,
        r#"["C1:FFT:small", {"config": "C2", "workload": "LU", "size": "small"}]"#,
    )
    .unwrap();
    let spec = format!("@{}", plan.display());
    let (ok, out, err) = memhier(&["sweep", "--configs", &spec, "--jobs", "2", "--json"]);
    assert!(ok, "{err}");
    let v: serde_json::Value = serde_json::from_str(out.trim()).expect("valid JSON");
    let rows = v.as_array().expect("array of rows");
    assert_eq!(rows.len(), 2, "{out}");
    assert_eq!(rows[0]["config"].as_str(), Some("C1"));
    assert_eq!(rows[1]["workload"].as_str(), Some("LU"));
    std::fs::remove_dir_all(&dir).ok();
}

/// One plan file may mix size tiers, put observers on one point only and
/// carry workload parameters.  It sweeps to the same bytes at any
/// `--jobs` width, and a journal cut after two points resumes to them.
#[test]
fn sweep_runs_a_mixed_plan_file() {
    let spec = concat!(
        "@",
        env!("CARGO_MANIFEST_DIR"),
        "/../bench/tests/golden/scenarios/mixed_plan.json"
    );
    let sweep = |extra: &[&str]| {
        let mut args = vec!["sweep", "--configs", spec, "--json"];
        args.extend_from_slice(extra);
        let (ok, out, err) = memhier(&args);
        assert!(ok, "{err}");
        out
    };
    let serial = sweep(&["--jobs", "1"]);
    assert!(serial == sweep(&["--jobs", "8"]), "--jobs 1 and 8 differ");
    let v: serde_json::Value = serde_json::from_str(serial.trim()).expect("valid JSON");
    let rows = v.as_array().expect("array of rows");
    assert_eq!(rows.len(), 4, "{serial}");
    for row in rows {
        assert_eq!(row["status"].as_str(), Some("ok"), "{serial}");
    }
    assert_eq!(rows[3]["workload"].as_str(), Some("Radix"));

    let dir = std::env::temp_dir().join(format!("memhier-mixed-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let journal = dir.join("journal.jsonl");
    let journal_arg = journal.to_str().unwrap();
    assert!(sweep(&["--jobs", "2", "--checkpoint", journal_arg]) == serial);
    // What a kill after two appends leaves: the header and two records.
    let text = std::fs::read_to_string(&journal).unwrap();
    let kept: Vec<&str> = text.lines().take(3).collect();
    std::fs::write(&journal, kept.join("\n") + "\n").unwrap();
    let resumed = sweep(&["--jobs", "2", "--checkpoint", journal_arg, "--resume"]);
    assert!(
        resumed == serial,
        "resumed:\n{resumed}\nuninterrupted:\n{serial}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sweep_rejects_a_typoed_scenario_field() {
    let dir = std::env::temp_dir().join(format!("memhier-badplan-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let plan = dir.join("plan.json");
    std::fs::write(
        &plan,
        r#"[{"config": "C1", "workload": "FFT", "siez": "small"}]"#,
    )
    .unwrap();
    let spec = format!("@{}", plan.display());
    let (ok, _, err) = memhier(&["sweep", "--configs", &spec, "--json"]);
    assert!(!ok);
    assert!(err.contains("unknown scenario field `siez`"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

/// A 12-process clump cannot split EDGE's image rows: the plan is
/// rejected with a typed error before anything runs.
#[test]
fn sweep_rejects_an_undecomposable_scenario() {
    let dir = std::env::temp_dir().join(format!("memhier-undecomposable-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let plan = dir.join("plan.json");
    std::fs::write(
        &plan,
        r#"[{"config": {"platform": "clump", "params": {"machines": 3, "procs": 4}},
             "workload": "EDGE", "size": "small"}]"#,
    )
    .unwrap();
    let spec = format!("@{}", plan.display());
    let (ok, _, err) = memhier(&["sweep", "--configs", &spec, "--json"]);
    assert!(!ok);
    assert!(
        err.contains("does not decompose into 12 processes"),
        "{err}"
    );
    assert!(!err.contains("panicked"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn malformed_integer_flag_fails_cleanly() {
    let (ok, _, err) = memhier(&[
        "optimize",
        "--budget",
        "20000",
        "--workload",
        "FFT",
        "--top",
        "many",
    ]);
    assert!(!ok);
    assert!(err.contains("--top"), "{err}");
}
