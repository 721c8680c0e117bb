//! `simulate`'s workload expectations are reachable from plain flags, so a
//! run that misses one must end in a one-line `error: …` and exit code 1 —
//! not in a panic whose backtrace suggests a bug.

use std::process::Command;

/// Runs `simulate` with `args`, requires exit code 1 and a stderr of exactly
/// one `error: …` line, and returns that line.
fn one_line_failure(args: &[&str]) -> String {
    let output = Command::new(env!("CARGO_BIN_EXE_simulate"))
        .args(args)
        .output()
        .expect("simulate runs");
    let stderr = String::from_utf8(output.stderr).expect("stderr is UTF-8");
    assert_eq!(output.status.code(), Some(1), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    let lines: Vec<&str> = stderr.lines().collect();
    assert_eq!(lines.len(), 1, "stderr: {stderr}");
    assert!(lines[0].starts_with("error: "), "stderr: {stderr}");
    stderr
}

#[test]
fn faults_that_hit_no_running_application_are_a_one_line_error() {
    // Default --mttf: two failures in 300 arrivals, neither under a tenant.
    let stderr = one_line_failure(&[
        "--seed",
        "2008",
        "--arrivals",
        "300",
        "--catalog",
        "mixed",
        "--faults",
        "--algorithm",
        "paper",
    ]);
    assert!(
        stderr.contains("none of the 2 failure(s) hit a running application"),
        "worded from the counts (no victims, rather than evictions only): {stderr}"
    );
}

#[test]
fn reconfiguration_that_recovers_nothing_is_a_one_line_error() {
    one_line_failure(&[
        "--arrivals",
        "50",
        "--reconfigure",
        "--max-migrations",
        "0",
        "--algorithm",
        "paper",
    ]);
}
