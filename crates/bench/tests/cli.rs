//! The experiment binaries share the `archx` front end: a malformed value
//! is an error and exit code 1, and `--telemetry` reports to stderr while
//! stdout keeps the table.

use std::process::{Command, Output};

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin)
        .args(args)
        .output()
        .expect("binary starts")
}

#[test]
fn malformed_value_is_an_error_not_a_panic() {
    let out = run(env!("CARGO_BIN_EXE_fig2_doubling"), &["instrs=1k"]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("invalid value `1k` for instrs"), "{stderr}");
    assert!(out.stdout.is_empty(), "nothing was evaluated");
}

#[test]
fn telemetry_flag_reports_json_to_stderr() {
    let out = run(
        env!("CARGO_BIN_EXE_tab1_baseline"),
        &["instrs=2000", "--telemetry", "json"],
    );
    assert_eq!(out.status.code(), Some(0));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("\"counters\""), "{stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Table 1"), "{stdout}");
    assert!(
        !stdout.contains("\"counters\""),
        "the report stays off stdout"
    );
}
