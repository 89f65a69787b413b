//! The `nds` exit-code contract for flag values: 0 = ok, 1 = runtime
//! failure, 2 = flag-parse error. A numeric flag that is present but
//! malformed fails closed with exit 2 and a message naming the flag —
//! it never silently runs the defaults.

use std::process::{Command, Output};

fn nds(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_nds"))
        .args(args)
        .output()
        .expect("nds runs")
}

/// Assert `args` exits 2, prints nothing on stdout (no run started),
/// and names `flag` on stderr.
fn assert_usage_error(args: &[&str], flag: &str) {
    let out = nds(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(2),
        "{args:?} must exit 2; stderr: {stderr}"
    );
    assert!(
        stderr.contains(flag),
        "{args:?}: message must name {flag}: {stderr}"
    );
    assert!(
        out.stdout.is_empty(),
        "{args:?} must not run: {}",
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn malformed_mtbf_exits_2() {
    assert_usage_error(&["sched", "--mtbf", "abc"], "--mtbf");
}

#[test]
fn malformed_utilization_exits_2() {
    assert_usage_error(&["sched", "--utilization", "x"], "--utilization");
}

#[test]
fn numeric_flag_without_a_value_exits_2() {
    assert_usage_error(&["sched", "--utilization"], "--utilization");
    assert_usage_error(&["sched", "--mtbf", "--reps", "1"], "--mtbf");
}

#[test]
fn non_finite_numeric_flag_exits_2() {
    assert_usage_error(&["sched", "--owner-demand", "nan"], "--owner-demand");
    assert_usage_error(&["thresholds", "--target", "inf"], "--target");
}

#[test]
fn unknown_placement_exits_2() {
    assert_usage_error(&["sched", "--placement", "bogus"], "bogus");
}

#[test]
fn well_formed_numeric_flags_still_run() {
    let out = nds(&["thresholds", "--target", "0.8"]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(!out.stdout.is_empty());
}
