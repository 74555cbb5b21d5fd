//! Runs every workload at its `--tiny` shape, plain and traced, and
//! holds the names the binary prints to the names `BENCHMARK.json`
//! promises. Run with `cargo test --release`: the shapes are sized for
//! an optimised build.

use json::Json;
use std::path::PathBuf;
use std::process::Command;

// The binary's own JSON reader, so the test parses what `--compare` parses.
#[allow(dead_code)]
#[path = "../src/json.rs"]
mod json;

const BIN: &str = env!("CARGO_BIN_EXE_bench_e2e");

fn contract() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
    Json::parse(&text).expect("BENCHMARK.json is JSON")
}

/// The sorted `name` values of the contract's array `section`.
fn names(contract: &Json, section: &str) -> Vec<String> {
    let mut names: Vec<String> = contract
        .get(section)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section:?}"))
        .as_array()
        .iter()
        .map(|entry| {
            let name = entry.get("name").and_then(Json::as_str);
            name.expect("every entry has a name").to_string()
        })
        .collect();
    names.sort();
    names
}

/// Runs the binary and returns its last stdout line.
fn last_line(out_dir: &PathBuf, args: &[&str]) -> String {
    let output = Command::new(BIN)
        .args(args)
        .args(["--tiny", "--out-dir"])
        .arg(out_dir)
        .output()
        .expect("the benchmark binary runs");
    assert!(
        output.status.success(),
        "{args:?} exited with {}: {}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout)
        .expect("utf-8 output")
        .lines()
        .last()
        .expect("a result line")
        .to_string()
}

#[test]
fn tiny_runs_print_the_names_benchmark_json_promises() {
    let contract = contract();
    let workloads = names(&contract, "workloads");
    assert_eq!(workloads.len(), 5, "{workloads:?}");
    let end_to_end = names(&contract, "end_to_end");
    let per_layer = names(&contract, "per_layer");

    let out_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("tiny-results");
    for workload in &workloads {
        for (trace, expected) in [("0", &end_to_end), ("1", &per_layer)] {
            let line = last_line(
                &out_dir,
                &[
                    "--workload",
                    workload,
                    "--seed",
                    "7",
                    "--seconds",
                    "0",
                    "--trace",
                    trace,
                ],
            );
            let result = Json::parse(&line).expect("the last line is JSON");
            assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{line}");
            assert_eq!(result.get("failed"), Some(&Json::Num(0.0)), "{line}");
            let metrics = result.get("metrics").expect("a metrics object");
            let mut printed = Vec::new();
            for (name, metric) in metrics.as_object() {
                let value = metric.get("value").and_then(Json::as_f64);
                assert!(value.is_some(), "{name} is not a number: {line}");
                printed.push(name.clone());
            }
            printed.sort();
            assert_eq!(&printed, expected, "{workload} --trace {trace}");
        }
        assert!(out_dir.join(format!("{workload}.json")).is_file());
        assert!(out_dir.join(format!("layers-{workload}.json")).is_file());
        assert!(out_dir.join(format!("trace-{workload}.json")).is_file());
    }

    // A run compared with itself is no regression; a wrong workload
    // name is refused before anything runs.
    let same = out_dir.join("design_flow.json");
    let status = Command::new(BIN)
        .arg("--compare")
        .args([&same, &same])
        .status()
        .expect("the benchmark binary runs");
    assert!(status.success());
    let status = Command::new(BIN)
        .args([
            "--workload",
            "no_such",
            "--seed",
            "1",
            "--seconds",
            "0",
            "--trace",
            "0",
        ])
        .status()
        .expect("the benchmark binary runs");
    assert!(!status.success());
}

#[test]
fn compare_flags_a_metric_that_got_worse_beyond_its_bound() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("compare");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let result = |latency: f64, failed_share: f64| {
        format!(
            "{{\"failed_share\": {failed_share}, \"metrics\": {{\
             \"latency_p50_s\": {{\"value\": {latency}, \"unit\": \"s\"}}, \
             \"throughput_per_s\": {{\"value\": 2.0, \"unit\": \"1/s\"}}}}}}"
        )
    };
    let write = |name: &str, text: String| {
        let path = dir.join(name);
        std::fs::write(&path, text).expect("temp file");
        path
    };
    let parent = write("parent.json", result(1.0, 0.0));
    let compare = |other: &PathBuf| {
        Command::new(BIN)
            .arg("--compare")
            .args([&parent, other])
            .status()
            .expect("the benchmark binary runs")
            .success()
    };
    assert!(compare(&write("steady.json", result(1.02, 0.0))));
    assert!(compare(&write("faster.json", result(0.5, 0.0))));
    assert!(!compare(&write("slower.json", result(1.5, 0.0))));
    assert!(!compare(&write("failing.json", result(1.0, 0.1))));
}
