//! A short run of every workload must print every metric `BENCHMARK.json`
//! names, with its unit: the end-to-end metrics untraced, the per-layer
//! metrics traced.

use std::path::{Path, PathBuf};
use std::process::Command;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark sits in the repository")
        .to_path_buf()
}

/// Every `"key": "value"` string field inside `text`, in order.
fn string_fields(text: &str, key: &str) -> Vec<String> {
    let pat = format!("\"{key}\": \"");
    text.match_indices(&pat)
        .map(|(i, _)| {
            let rest = &text[i + pat.len()..];
            rest[..rest.find('"').expect("closing quote")].to_string()
        })
        .collect()
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let spec = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let start = spec
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &spec[start..];
    let body = &body[..body.find(']').expect("section is an array")];
    let names = string_fields(body, "name");
    let units = string_fields(body, "unit");
    assert_eq!(names.len(), units.len());
    names.into_iter().zip(units).collect()
}

fn workloads() -> Vec<String> {
    let spec = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let start = spec.find("\"workloads\"").expect("workloads present");
    let body = &spec[start..];
    string_fields(&body[..body.find(']').unwrap()], "name")
}

fn run(workload: &str, trace: u8) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .current_dir(repo_root())
        .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args(["--trace", &trace.to_string()])
        .output()
        .expect("run the benchmark");
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout.lines().last().expect("a result line").to_string()
}

fn check(result: &str, expected: &[(String, String)]) {
    assert!(result.starts_with("{\"correct\": true, "), "{result}");
    assert_eq!(
        result.matches("\"value\": ").count(),
        expected.len(),
        "metric count in {result}"
    );
    for (name, unit) in expected {
        let key = format!("\"{name}\": {{\"value\": ");
        let at = result
            .find(&key)
            .unwrap_or_else(|| panic!("{name} missing"));
        let rest = &result[at + key.len()..];
        let (value, rest) = rest.split_once(", ").expect("value then unit");
        let value: f64 = value.parse().unwrap_or_else(|_| panic!("{name}: {value}"));
        assert!(value.is_finite(), "{name}");
        assert!(
            rest.starts_with(&format!("\"unit\": \"{unit}\"}}")),
            "{name} should be in {unit}: {rest}"
        );
    }
}

#[test]
fn every_workload_emits_every_metric_with_its_unit() {
    let workloads = workloads();
    assert_eq!(workloads, ["http_hot", "inproc_cold", "ingest_durable"]);
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    for w in &workloads {
        check(&run(w, 0), &end_to_end);
        check(&run(w, 1), &per_layer);
    }
}

#[test]
fn refuses_settings_that_change_what_is_measured() {
    for var in [
        "CRYPTEXT_FAILPOINTS",
        "CRYPTEXT_SHARDS",
        "CRYPTEXT_CACHE_TIER2",
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .current_dir(repo_root())
            .args([
                "--workload",
                "http_hot",
                "--seed",
                "1",
                "--seconds",
                "1",
                "--trace",
                "0",
            ])
            .env(var, "1")
            .output()
            .expect("run the benchmark");
        assert!(!out.status.success(), "{var} must be refused");
        assert!(out.stdout.is_empty(), "a refused run prints no result");
    }
}
