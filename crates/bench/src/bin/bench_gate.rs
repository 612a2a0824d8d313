//! CI bench regression gate: compares a fresh `CRITERION_JSON` result
//! file against a committed `BENCH_*.json` baseline and fails (exit 1)
//! when any benchmark's median regressed beyond the tolerance factor.
//!
//! ```text
//! bench_gate <fresh.json> <baseline.json> [tolerance]
//! ```
//!
//! The tolerance (default 1.5) is deliberately generous: CI runners
//! are noisy shared machines, and the gate exists to catch *real*
//! regressions — a pipeline change that doubles the superstep time —
//! not scheduling jitter. Benchmarks present in only one of the two
//! files are reported but do not fail the gate (new benchmarks land
//! before their baselines do). Improvements are reported as such;
//! refresh the committed baseline when they are real.

use std::process::ExitCode;
use xstream_server::json::{self, Json};

/// The `(id, median_ns)` pairs of a results file: a JSON array with
/// one object per benchmark. Objects lacking either field are skipped.
fn parse_medians(text: &str) -> Result<Vec<(String, u64)>, String> {
    let Json::Arr(results) = json::parse(text.as_bytes())? else {
        return Err("expected a JSON array of results".to_string());
    };
    Ok(results
        .iter()
        .filter_map(|r| {
            let id = r.get("id")?.as_str()?;
            Some((id.to_string(), r.get("median_ns")?.as_u64()?))
        })
        .collect())
}

fn load(path: &str) -> Result<Vec<(String, u64)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    parse_medians(&text).map_err(|e| format!("cannot parse {path}: {e}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    if args.len() < 3 {
        eprintln!("usage: bench_gate <fresh.json> <baseline.json> [tolerance]");
        return ExitCode::FAILURE;
    }
    let tolerance = match args.get(3).map(|t| t.parse::<f64>()) {
        None => 1.5,
        Some(Ok(t)) if t.is_finite() && t > 0.0 => t,
        Some(_) => {
            eprintln!(
                "bench_gate: tolerance must be a positive number, got `{}`",
                args[3]
            );
            return ExitCode::FAILURE;
        }
    };
    let (fresh, baseline) = match (load(&args[1]), load(&args[2])) {
        (Ok(fresh), Ok(baseline)) => (fresh, baseline),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("bench_gate: {e}");
            return ExitCode::FAILURE;
        }
    };
    if fresh.is_empty() || baseline.is_empty() {
        eprintln!(
            "bench_gate: no parsable results (fresh {}, baseline {})",
            fresh.len(),
            baseline.len()
        );
        return ExitCode::FAILURE;
    }

    let mut failed = false;
    let mut compared = 0usize;
    for (id, fresh_median) in &fresh {
        let Some((_, base_median)) = baseline.iter().find(|(b, _)| b == id) else {
            println!(
                "NEW        {id}: {:.1} ms (no baseline)",
                *fresh_median as f64 / 1e6
            );
            continue;
        };
        compared += 1;
        let ratio = *fresh_median as f64 / (*base_median).max(1) as f64;
        let verdict = if ratio > tolerance {
            failed = true;
            "REGRESSED"
        } else if ratio < 1.0 / tolerance {
            "IMPROVED "
        } else {
            "OK       "
        };
        println!(
            "{verdict}  {id}: {:.1} ms vs baseline {:.1} ms ({ratio:.2}x, tolerance {tolerance:.2}x)",
            *fresh_median as f64 / 1e6,
            *base_median as f64 / 1e6,
        );
    }
    for (id, base_median) in &baseline {
        if !fresh.iter().any(|(f, _)| f == id) {
            println!(
                "MISSING    {id}: baseline {:.1} ms had no fresh run",
                *base_median as f64 / 1e6
            );
        }
    }
    if compared == 0 {
        eprintln!("bench_gate: no overlapping benchmark ids between fresh and baseline");
        return ExitCode::FAILURE;
    }
    if failed {
        eprintln!("bench_gate: median regression beyond {tolerance:.2}x tolerance");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"[
  {"id": "g/a", "samples": 10, "min_ns": 1, "mean_ns": 2, "median_ns": 100000, "throughput_kind": "elements", "throughput_count": 5},
  {"id": "g/b", "samples": 10, "min_ns": 1, "mean_ns": 2, "median_ns": 200000}
]"#;

    #[test]
    fn parses_ids_and_medians() {
        let m = parse_medians(SAMPLE).unwrap();
        assert_eq!(
            m,
            vec![("g/a".to_string(), 100000), ("g/b".to_string(), 200000)]
        );
    }

    #[test]
    fn tolerates_compact_json() {
        let m = parse_medians(r#"[{"id":"x","median_ns":42}]"#).unwrap();
        assert_eq!(m, vec![("x".to_string(), 42)]);
    }

    #[test]
    fn rejects_a_malformed_file() {
        // Truncated mid-object, as a killed benchmark run leaves it.
        assert!(parse_medians(r#"[{"id": "x", "median_ns": 4"#).is_err());
        assert!(parse_medians(r#"{"id": "x", "median_ns": 4}"#).is_err());
    }
}
