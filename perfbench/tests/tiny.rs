//! A tiny-size pass of every workload: each run exits 0, passes every
//! output check, and prints exactly the metrics `BENCHMARK.json` declares
//! for its mode, each with its declared unit.

use std::process::{Command, Output};

const BIN: &str = env!("CARGO_BIN_EXE_perfbench");

fn benchmark_json() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")
}

/// The string values of `key` inside the `section` array, in order.
fn declared(section: &str, key: &str) -> Vec<String> {
    let text = benchmark_json();
    let start = text
        .find(&format!("\"{section}\": ["))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("the array closes")];
    let pat = format!("\"{key}\": \"");
    body.match_indices(&pat)
        .map(|(at, _)| {
            let rest = &body[at + pat.len()..];
            rest[..rest.find('"').expect("the string closes")].to_string()
        })
        .collect()
}

fn run(workload: &str, trace: &str) -> Output {
    Command::new(BIN)
        .args(["--workload", workload, "--seed", "7", "--seconds", "0.5"])
        .args(["--trace", trace, "--tiny"])
        .output()
        .expect("the benchmark binary runs")
}

/// Asserts the run's last line reports `section`'s metrics, and only
/// those, each with its declared unit; returns them by name.
fn assert_reports(workload: &str, trace: &str, section: &str) -> Vec<(String, f64)> {
    let out = run(workload, trace);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let result = stdout.lines().last().expect("a result line");
    assert!(
        result.starts_with("{\"correct\": true, \"attempted\": "),
        "{workload}: {result}"
    );
    assert!(result.contains("\"failed\": 0,"), "{workload}: {result}");
    let names = declared(section, "name");
    let units = declared(section, "unit");
    assert_eq!(names.len(), units.len());
    assert_eq!(
        result.matches("\"value\": ").count(),
        names.len(),
        "{workload} --trace {trace} prints other metrics than {section}: {result}"
    );
    if section == "end_to_end" {
        assert!(
            stdout.contains("\nfail_ratio = 0 ratio"),
            "{workload}: {stdout}"
        );
    }
    let mut values = Vec::new();
    for (name, unit) in names.iter().zip(&units) {
        let head = format!("\"{name}\": {{\"value\": ");
        let at = result
            .find(&head)
            .unwrap_or_else(|| panic!("{workload}: {name} missing from {result}"));
        let rest = &result[at + head.len()..];
        let value: f64 = rest[..rest.find(',').expect("value ends")]
            .parse()
            .expect("a numeric value");
        assert!(value.is_finite(), "{workload}: {name} = {value}");
        assert!(
            rest.contains(&format!(", \"unit\": \"{unit}\"}}")),
            "{workload}: {name} lacks unit {unit}"
        );
        values.push((name.clone(), value));
    }
    values
}

#[test]
fn every_workload_reports_its_end_to_end_metrics() {
    for workload in declared("workloads", "name") {
        assert_reports(&workload, "0", "end_to_end");
    }
}

#[test]
fn every_workload_reports_its_per_layer_metrics() {
    for workload in declared("workloads", "name") {
        let values = assert_reports(&workload, "1", "per_layer");
        // Resilience engages only when a fault plan is attached.
        for (name, value) in &values {
            if name.starts_with("resilience.") {
                assert_eq!(
                    *value > 0.0,
                    workload == "checkpointed",
                    "{workload}: {name} = {value}"
                );
            }
        }
    }
}

#[test]
fn an_unknown_workload_fails_without_a_result() {
    let out = run("no-such-workload", "0");
    assert_eq!(out.status.code(), Some(2));
    assert!(!String::from_utf8_lossy(&out.stdout).contains("\"correct\""));
}
