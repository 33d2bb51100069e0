//! End-to-end trace pipeline: `memhier record` → `memhier fit --trace`
//! → `memhier optimize --from-fit`.  Fitting is chunk-size invariant
//! (identical report bytes at any `--chunk-records`), and a fit report
//! drives the optimizer exactly like the equivalent hand-written
//! `--alpha/--beta/--rho` triple.

use memhier_trace::FitReport;
use std::path::PathBuf;
use std::process::Command;

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

fn tmp(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    std::fs::create_dir_all(&dir).expect("create tmp dir");
    dir.join(name)
}

/// The full pipeline: record an FFT run, fit it streaming at several
/// chunk sizes (identical bytes), sanity-check the recovered locality,
/// and feed the report to the optimizer — whose output must be exactly
/// what the same α/β/ρ spelled as flags produces.
#[test]
fn record_fit_optimize_roundtrip() {
    let trace = tmp("fft_pipeline.mtr");
    let trace_str = trace.to_str().expect("utf8");
    let recorded = memhier_stdout(&["record", "--scenario", "C4:FFT:small", "-o", trace_str]);
    assert!(
        recorded.contains("recorded"),
        "unexpected output: {recorded}"
    );

    // Chunk-size invariance through the public CLI.
    let fit_json = memhier_stdout(&["fit", "--trace", trace_str, "--json"]);
    for chunk in ["1024", "65536", "100000000"] {
        let alt = memhier_stdout(&[
            "fit",
            "--trace",
            trace_str,
            "--chunk-records",
            chunk,
            "--json",
        ]);
        assert_eq!(alt, fit_json, "fit bytes differ at --chunk-records {chunk}");
    }

    // The recovered parameters describe a real hierarchical workload:
    // heavy-tailed locality in the paper's range and ρ from the actual
    // instruction mix.
    let v: serde_json::Value = serde_json::from_str(fit_json.trim()).expect("parse");
    let report = FitReport::from_json(&v).expect("typed report");
    assert!(
        report.alpha > 1.0 && report.alpha < 3.0,
        "alpha {} out of range",
        report.alpha
    );
    assert!(
        report.beta > 0.0 && report.beta.is_finite(),
        "beta {} out of range",
        report.beta
    );
    assert!(
        report.rho > 0.0 && report.rho < 1.0,
        "rho {} out of range",
        report.rho
    );
    assert!(report.r_squared > 0.8, "poor fit: R^2 {}", report.r_squared);

    // `--from-fit` is exactly the custom-workload spelling: the two
    // optimizer invocations must produce byte-identical reports.
    let fit_file = tmp("fft_pipeline_fit.json");
    std::fs::write(&fit_file, &fit_json).expect("write report");
    let from_fit = memhier_stdout(&[
        "optimize",
        "--budget",
        "15000",
        "--from-fit",
        fit_file.to_str().expect("utf8"),
        "--top",
        "3",
        "--json",
    ]);
    let from_flags = memhier_stdout(&[
        "optimize",
        "--budget",
        "15000",
        "--alpha",
        &format!("{:?}", report.alpha),
        "--beta",
        &format!("{:?}", report.beta),
        "--rho",
        &format!("{:?}", report.rho),
        "--top",
        "3",
        "--json",
    ]);
    assert_eq!(
        from_fit, from_flags,
        "--from-fit and --alpha/--beta/--rho diverge"
    );
}

/// Typed failures surface as clean CLI errors, not panics: a missing
/// trace file, a non-power-of-two granularity, and a malformed report.
#[test]
fn pipeline_errors_are_typed() {
    let run = |args: &[&str]| {
        let out = Command::new(env!("CARGO_BIN_EXE_memhier"))
            .args(args)
            .output()
            .expect("binary runs");
        assert!(!out.status.success(), "memhier {args:?} should fail");
        String::from_utf8_lossy(&out.stderr).to_string()
    };
    let missing = run(&["fit", "--trace", "/nonexistent/nope.mtr"]);
    assert!(missing.contains("error:"), "no error line: {missing}");

    let bad_gran = run(&[
        "fit",
        "--trace",
        "/nonexistent/nope.mtr",
        "--granularity",
        "65",
    ]);
    assert!(
        bad_gran.contains("granularity"),
        "granularity validation missing: {bad_gran}"
    );

    let bad_report = tmp("not_a_report.json");
    std::fs::write(&bad_report, r#"{"alpha": 1.5}"#).expect("write");
    let from_fit = run(&[
        "optimize",
        "--budget",
        "1000",
        "--from-fit",
        bad_report.to_str().unwrap(),
    ]);
    assert!(from_fit.contains("error:"), "no error line: {from_fit}");
}
