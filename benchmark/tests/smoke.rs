//! Smoke mode (RMAT-10, a few dozen queries) of every workload, traced
//! and untraced: the run passes its oracle and emits every metric that
//! `BENCHMARK.json` names, with its unit.

use std::process::Command;

use xstream_e2e_bench::json::{parse, Json};
use xstream_e2e_bench::metrics::{Spec, END_TO_END, PER_LAYER};

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("valid JSON")
}

/// (name, unit) pairs of one metric list in BENCHMARK.json.
fn listed(bench: &Json, key: &str) -> Vec<(String, String)> {
    let Some(Json::Arr(items)) = bench.get(key) else {
        panic!("{key} missing");
    };
    items
        .iter()
        .map(|m| match (m.get("name"), m.get("unit")) {
            (Some(Json::Str(n)), Some(Json::Str(u))) => (n.clone(), u.clone()),
            _ => panic!("bad entry in {key}"),
        })
        .collect()
}

fn pairs(specs: &[Spec]) -> Vec<(String, String)> {
    specs
        .iter()
        .map(|s| (s.name.to_string(), s.unit.to_string()))
        .collect()
}

#[test]
fn tables_match_benchmark_json() {
    let bench = benchmark_json();
    assert_eq!(listed(&bench, "end_to_end"), pairs(END_TO_END));
    assert_eq!(listed(&bench, "per_layer"), pairs(PER_LAYER));
}

fn smoke(workload: &str) {
    let bench = benchmark_json();
    for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
        let out = Command::new(env!("CARGO_BIN_EXE_xstream-e2e-bench"))
            .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
            .args(["--trace", trace, "--smoke"])
            .current_dir(env!("CARGO_TARGET_TMPDIR"))
            .output()
            .expect("run benchmark");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success(),
            "{workload} trace {trace} failed:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let result = parse(stdout.lines().last().expect("a result line")).expect("JSON");
        assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(result.get("failed").and_then(Json::num), Some(0.0));
        assert!(result.get("attempted").and_then(Json::num).unwrap_or(0.0) >= 1.0);
        let Some(Json::Obj(metrics)) = result.get("metrics") else {
            panic!("no metrics object");
        };
        let emitted: Vec<(String, String)> = metrics
            .iter()
            .map(|(name, m)| match (m.get("value"), m.get("unit")) {
                (Some(Json::Num(_)), Some(Json::Str(unit))) => (name.clone(), unit.clone()),
                _ => panic!("{name}: value and unit expected"),
            })
            .collect();
        assert_eq!(emitted, listed(&bench, key), "{workload} trace {trace}");
        if trace == "0" {
            for (name, m) in metrics {
                let v = m.get("value").and_then(Json::num).unwrap_or(0.0);
                assert!(v > 0.0, "{workload}: end-to-end {name} is {v}");
            }
        }
    }
}

#[test]
fn batch_mem() {
    smoke("batch-mem");
}

#[test]
fn batch_disk() {
    smoke("batch-disk");
}

#[test]
fn serve_disk() {
    smoke("serve-disk");
}
