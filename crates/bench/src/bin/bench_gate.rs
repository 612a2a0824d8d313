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

/// One `(id, median_ns)` pair from a results file.
fn parse_medians(json: &str) -> Vec<(String, u64)> {
    // The vendored criterion writes one object per line with stable
    // key order; this extracts the two fields of interest without a
    // JSON dependency, tolerating whitespace variations.
    let mut out = Vec::new();
    for obj in json.split('{').skip(1) {
        let id = match extract_str(obj, "\"id\"") {
            Some(v) => v,
            None => continue,
        };
        let median = match extract_u64(obj, "\"median_ns\"") {
            Some(v) => v,
            None => continue,
        };
        out.push((id, median));
    }
    out
}

fn extract_str(obj: &str, key: &str) -> Option<String> {
    let at = obj.find(key)? + key.len();
    let rest = &obj[at..];
    let open = rest.find('"')?;
    let rest = &rest[open + 1..];
    let close = rest.find('"')?;
    Some(rest[..close].to_string())
}

fn extract_u64(obj: &str, key: &str) -> Option<u64> {
    let at = obj.find(key)? + key.len();
    let rest = obj[at..].trim_start_matches([':', ' ']);
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    if args.len() < 3 {
        eprintln!("usage: bench_gate <fresh.json> <baseline.json> [tolerance]");
        return ExitCode::FAILURE;
    }
    let tolerance: f64 = args
        .get(3)
        .map(|t| t.parse().expect("tolerance must be a number"))
        .unwrap_or(1.5);
    let fresh_raw = std::fs::read_to_string(&args[1])
        .unwrap_or_else(|e| panic!("cannot read fresh results {}: {e}", args[1]));
    let base_raw = std::fs::read_to_string(&args[2])
        .unwrap_or_else(|e| panic!("cannot read baseline {}: {e}", args[2]));
    let fresh = parse_medians(&fresh_raw);
    let baseline = parse_medians(&base_raw);
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
        let m = parse_medians(SAMPLE);
        assert_eq!(
            m,
            vec![("g/a".to_string(), 100000), ("g/b".to_string(), 200000)]
        );
    }

    #[test]
    fn tolerates_compact_json() {
        let m = parse_medians(r#"[{"id":"x","median_ns":42}]"#);
        assert_eq!(m, vec![("x".to_string(), 42)]);
    }
}
