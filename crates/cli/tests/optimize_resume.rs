//! Kill-and-resume for the fleet optimizer: SIGKILL a checkpointed
//! `memhier optimize` while its confirmation sweep is mid-flight, resume
//! it, and require the final report to be byte-identical to an
//! uninterrupted run.  Mirrors `sweep_resume.rs`: the interrupted run is
//! slowed with an injected `point:delay` fault so the kill lands between
//! journal appends, and the resumed run drops the fault (the journal
//! fingerprint deliberately excludes the fault plan).

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// A 3-finalist confirmation over the small LU grid: enough sweep
/// points for a kill to land strictly inside the journal.
const OPTIMIZE_ARGS: &[&str] = &[
    "optimize",
    "--budget",
    "8000",
    "--workload",
    "LU",
    "--max-machines",
    "4",
    "--mem",
    "32,64",
    "--confirm",
    "3",
    "--jobs",
    "1",
    "--json",
];

fn memhier(extra: &[&str]) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_memhier"));
    cmd.args(OPTIMIZE_ARGS)
        .args(extra)
        .env_remove("MEMHIER_FAULTS")
        .env_remove("MEMHIER_JOBS");
    cmd
}

fn journal_lines(path: &Path) -> usize {
    std::fs::read_to_string(path)
        .map(|s| s.lines().filter(|l| !l.trim().is_empty()).count())
        .unwrap_or(0)
}

fn temp_journal() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("memhier-optimize-resume-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir.join("kill.jsonl")
}

#[test]
fn sigkill_mid_optimize_then_resume_matches_uninterrupted_run() {
    // Golden: the same request, no checkpointing, no faults, one shot.
    let golden = memhier(&[]).output().expect("golden run");
    assert!(
        golden.status.success(),
        "golden run failed: {}",
        String::from_utf8_lossy(&golden.stderr)
    );
    assert!(!golden.stdout.is_empty());

    // Interrupted: every confirmation point sleeps 500ms, so journal
    // appends are at least that far apart; kill on the first record.
    let journal = temp_journal();
    let _ = std::fs::remove_file(&journal);
    let mut child = memhier(&[
        "--checkpoint",
        journal.to_str().unwrap(),
        "--faults",
        "point:delay:ms=500",
    ])
    .stdout(Stdio::null())
    .stderr(Stdio::null())
    .spawn()
    .expect("spawn interrupted run");

    // Header + >= 1 record, then SIGKILL (std's kill on Unix).
    let deadline = Instant::now() + Duration::from_secs(60);
    while journal_lines(&journal) < 2 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    let lines_at_kill = journal_lines(&journal);
    assert!(
        lines_at_kill >= 2,
        "no journal record appeared before the deadline"
    );
    child.kill().expect("SIGKILL the optimize run");
    let status = child.wait().expect("reap killed optimize");
    assert!(!status.success(), "killed process must not report success");
    assert!(
        lines_at_kill < 4,
        "kill landed after all 3 finalists completed; nothing was interrupted"
    );

    // Resume with faults off: journaled finalists load, the rest re-run,
    // and the report comes out byte-for-byte the same.
    let resumed = memhier(&["--checkpoint", journal.to_str().unwrap(), "--resume"])
        .output()
        .expect("resumed run");
    assert!(
        resumed.status.success(),
        "resume failed: {}",
        String::from_utf8_lossy(&resumed.stderr)
    );
    let stderr = String::from_utf8_lossy(&resumed.stderr);
    assert!(
        stderr.contains("resumed"),
        "resume must report loaded points: {stderr}"
    );

    assert_eq!(
        String::from_utf8_lossy(&golden.stdout),
        String::from_utf8_lossy(&resumed.stdout),
        "resumed report must be byte-identical to the uninterrupted run"
    );
    let _ = std::fs::remove_file(&journal);
}

/// With no finalist the kernel can decompose across (a 32-row EDGE
/// image on 3 machines), there is nothing to confirm: no sweep runs, so
/// `--resume` neither checks nor rewrites the journal, whatever plan
/// wrote it.
#[test]
fn resume_with_no_simulatable_finalist_runs_no_sweep() {
    let journal = temp_journal().with_file_name("no-finalist.jsonl");
    let header = r#"{"memhier_journal": 1, "plan": "optimize", "points": 0, "fingerprint": "0123456789abcdef"}"#;
    std::fs::write(&journal, format!("{header}\n")).expect("write journal");
    let out = Command::new(env!("CARGO_BIN_EXE_memhier"))
        .args(["optimize", "--budget", "100000", "--workload", "EDGE"])
        .args(["--procs", "1", "--max-machines", "3", "--slo", "4.5e-9"])
        .args(["--confirm", "2", "--json", "--resume", "--checkpoint"])
        .arg(&journal)
        .env_remove("MEMHIER_FAULTS")
        .output()
        .expect("optimize run");
    assert!(
        out.status.success(),
        "optimize failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let report = String::from_utf8_lossy(&out.stdout);
    assert!(report.contains("\"feasible\": 12"), "{report}");
    assert!(report.contains("\"confirmed\": 0"), "{report}");
    let kept = std::fs::read_to_string(&journal).expect("journal kept");
    assert_eq!(kept.trim(), header, "the journal was touched");
    let _ = std::fs::remove_file(&journal);
}
