//! Argument errors of the `archx` binary: each exits 1 with a message
//! naming what was wrong, instead of silently running something else.

use std::process::{Command, Output};

fn archx(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_archx"))
        .args(args)
        .output()
        .expect("archx starts")
}

#[test]
fn unknown_suite_name_is_an_error() {
    let out = archx(&["analyze", "suite=spec71", "workloads=1", "instrs=200"]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown suite `spec71`"), "{stderr}");
    assert!(out.stdout.is_empty(), "nothing was analysed");
}

#[test]
fn explore_resume_needs_an_existing_journal() {
    let path = std::env::temp_dir().join(format!("archx-cli-missing-{}.jsonl", std::process::id()));
    let resume = format!("resume={}", path.display());
    let out = archx(&[
        "explore",
        "method=random",
        "budget=2",
        "workloads=1",
        "instrs=200",
        &resume,
    ]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("no journal to resume"), "{stderr}");
    assert!(!path.exists(), "a failed resume creates no journal");
}
