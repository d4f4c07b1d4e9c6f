//! Process-level integration tests: run the actual `ratio-rules` binary
//! end to end (Cargo builds it and exposes the path via
//! `CARGO_BIN_EXE_ratio-rules`).

use std::path::{Path, PathBuf};
use std::process::Command;

fn binary() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ratio-rules"))
}

/// A directory of one test's own under the system temp dir, removed with
/// everything in it when dropped, so also when the test fails.
struct TempDir(PathBuf);

impl std::ops::Deref for TempDir {
    type Target = Path;
    fn deref(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn workdir() -> TempDir {
    static NEXT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("rr_bin_{}_{n}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    TempDir(dir)
}

fn write_sales_csv(path: &std::path::Path) {
    let mut text = String::from("bread,milk,butter\n");
    for i in 0..50 {
        let t = 1.0 + i as f64 * 0.5;
        text.push_str(&format!("{},{},{}\n", 3.0 * t, 2.0 * t, t));
    }
    std::fs::write(path, text).unwrap();
}

#[test]
fn help_prints_usage_and_exits_zero() {
    let out = binary().arg("help").output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("USAGE"));
    assert!(stdout.contains("mine"));
}

#[test]
fn no_args_prints_usage() {
    let out = binary().output().unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8(out.stdout).unwrap().contains("COMMANDS"));
}

#[test]
fn unknown_command_fails_with_stderr() {
    let out = binary().arg("frobnicate").output().unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("unknown command"));
}

#[test]
fn mine_then_fill_pipeline() {
    let dir = workdir();
    let csv = dir.join("sales.csv");
    let model = dir.join("model.json");
    write_sales_csv(&csv);

    let out = binary()
        .args(["mine", "--input"])
        .arg(&csv)
        .arg("--output")
        .arg(&model)
        .args(["--k", "1"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8(out.stdout)
        .unwrap()
        .contains("mined 1 rules"));

    let out = binary()
        .args(["fill", "--model"])
        .arg(&model)
        .args(["--row", "30,?,?"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    // bread = 30 -> milk 20, butter 10 on the planted 3:2:1 line.
    assert!(stdout.contains("20.00"), "fill output: {stdout}");
    assert!(stdout.contains("10.00"), "fill output: {stdout}");
}

#[test]
fn evaluate_runs_on_real_file() {
    let dir = workdir();
    let csv = dir.join("eval.csv");
    write_sales_csv(&csv);
    let out = binary()
        .args(["evaluate", "--input"])
        .arg(&csv)
        .args(["--holes", "2"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("GE(col-avgs)"));
}

#[test]
fn chaos_exit_codes_are_distinct() {
    let dir = workdir();
    let csv = dir.join("chaos.csv");
    let model = dir.join("chaos_model.json");
    write_sales_csv(&csv);

    // Clean streaming mine (quarantine armed, no faults): exit 0.
    let out = binary()
        .args(["mine", "--input"])
        .arg(&csv)
        .arg("--output")
        .arg(&model)
        .args(["--k", "1", "--max-bad-rows", "5"])
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Injected faults inside a generous budget: the model mines, but the
    // exit code flags the degraded (quarantined) scan.
    let out = binary()
        .args(["mine", "--input"])
        .arg(&csv)
        .arg("--output")
        .arg(&model)
        .args([
            "--k",
            "1",
            "--fault-rate",
            "0.1",
            "--max-bad-rows",
            "50",
            "--retries",
            "3",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("quarantined"), "{stdout}");

    // Budget blown: exit 3 with a budget-exhausted message.
    let out = binary()
        .args(["mine", "--input"])
        .arg(&csv)
        .arg("--output")
        .arg(&model)
        .args(["--k", "1", "--fault-rate", "0.5", "--max-bad-rows", "1"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(3));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("error budget exhausted"), "{stderr}");

    // Strict mode (no quarantine flags) fails fast on the first fault.
    let out = binary()
        .args(["mine", "--input"])
        .arg(&csv)
        .arg("--output")
        .arg(&model)
        .args(["--k", "1", "--fault-rate", "0.5", "--retries", "1"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
}

#[test]
fn forced_eigensolve_failure_degrades_to_col_avgs() {
    let dir = workdir();
    let csv = dir.join("ladder.csv");
    let model = dir.join("ladder_model.json");
    write_sales_csv(&csv);

    // --ladder none removes every eigensolve stage: the miner must land
    // on the col-avgs floor instead of erroring, and exit 2.
    let out = binary()
        .args(["mine", "--input"])
        .arg(&csv)
        .arg("--output")
        .arg(&model)
        .args(["--degrade", "--ladder", "none"])
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(2),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("col-avgs baseline"), "{stdout}");
    let doc = std::fs::read_to_string(&model).unwrap();
    assert!(doc.contains("col_avgs"), "{doc}");
}

#[test]
fn checkpoint_file_resumes_across_processes() {
    let dir = workdir();
    let csv = dir.join("resume.csv");
    let model = dir.join("resume_model.json");
    let cp = dir.join("resume_scan.json");
    write_sales_csv(&csv);

    let out = binary()
        .args(["mine", "--input"])
        .arg(&csv)
        .arg("--output")
        .arg(&model)
        .args(["--k", "1", "--checkpoint"])
        .arg(&cp)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0));
    assert!(cp.exists());

    // A second process resumes from the file written by the first.
    let out = binary()
        .args(["mine", "--input"])
        .arg(&csv)
        .arg("--output")
        .arg(&model)
        .args(["--k", "1", "--resume"])
        .arg(&cp)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("resumed from checkpoint"), "{stdout}");
}

#[test]
fn missing_file_is_a_clean_error() {
    let out = binary()
        .args([
            "mine",
            "--input",
            "/nonexistent/x.csv",
            "--output",
            "/tmp/m.json",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(!String::from_utf8(out.stderr).unwrap().is_empty());
}
