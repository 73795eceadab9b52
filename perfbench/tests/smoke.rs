//! Tiny-preset smoke of all three workloads, untraced and traced: the run
//! succeeds, every correctness check passes, and the JSON result line
//! carries each catalogue metric exactly once with its unit.

use perfbench::catalogue::{END_TO_END, PER_LAYER};
use std::process::Command;

fn run(workload: &str, trace: bool) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "0.2", "--tiny"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} (trace {trace}) failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(!stdout.contains("check FAIL"), "{stdout}");
    stdout.lines().last().expect("a result line").to_string()
}

fn assert_metrics(line: &str, catalogue: &[(&str, &str)]) {
    assert!(line.starts_with("{\"correct\": true, \"attempted\": "), "{line}");
    assert!(line.contains("\"failed\": 0,"), "{line}");
    for (name, unit) in catalogue {
        let key = format!("\"{name}\": {{\"value\": ");
        assert_eq!(line.matches(&key).count(), 1, "{name} must appear once: {line}");
        let after = &line[line.find(&key).expect("counted above") + key.len()..];
        let (value, rest) = after.split_once(',').expect("value then unit");
        assert!(value.parse::<f64>().is_ok_and(f64::is_finite), "{name} = {value}");
        assert!(rest.starts_with(&format!(" \"unit\": \"{unit}\"}}")), "{name} unit: {rest}");
    }
    assert_eq!(line.matches("\"value\"").count(), catalogue.len(), "no extra metrics: {line}");
}

#[test]
fn every_workload_reports_every_metric_and_passes_its_checks() {
    for workload in ["train", "serve", "live"] {
        assert_metrics(&run(workload, false), &END_TO_END);
        assert_metrics(&run(workload, true), &PER_LAYER);
    }
}

#[test]
fn benchmark_json_lists_the_catalogue() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert_eq!(json.matches(&entry).count(), 1, "{entry} in BENCHMARK.json");
    }
    assert_eq!(json.matches("\"unit\"").count(), END_TO_END.len() + PER_LAYER.len());
}
