//! The `experiments` binary's flag handling, end to end: overrides hold
//! wherever `--quick` appears, a zero divisor is a usage error, and the
//! id list holds only paper artifacts.

use std::process::{Command, Output};

fn experiments(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_experiments")).args(args).output().unwrap()
}

#[test]
fn overrides_survive_a_later_quick() {
    let out = experiments(&["table1", "--scale", "64", "--k", "5", "--quick"]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("dataset 1/64") && stdout.contains("k = 5"), "{stdout}");
}

#[test]
fn zero_scale_is_a_usage_error() {
    let out = experiments(&["table1", "--scale", "0"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));
}

#[test]
fn list_names_only_paper_artifacts() {
    let out = experiments(&["list"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success() && stdout.contains("fig7"), "{stdout}");
    assert!(!stdout.contains("bench-"), "{stdout}");
}
