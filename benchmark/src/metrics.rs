//! Metric names, units and the result line.
//!
//! The two tables below are the benchmark's contract with
//! `BENCHMARK.json`: every workload emits every end-to-end metric
//! untraced (`--trace 0`) and every per-layer metric traced
//! (`--trace 1`). A layer that a workload does not exercise reports 0.

use std::collections::BTreeMap;

pub struct Spec {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> Spec {
    Spec { name, unit }
}

pub const END_TO_END: &[Spec] = &[
    m("setup_s", "s"),
    m("peak_rss_mb", "MB"),
    m("wcc_s", "s"),
    m("pagerank_s", "s"),
    m("bfs_s", "s"),
    m("qps", "1/s"),
    m("latency_p50_ms", "ms"),
    m("latency_p99_ms", "ms"),
];

pub const PER_LAYER: &[Spec] = &[
    // graph
    m("graph.read_s", "s"),
    m("graph.mirror_s", "s"),
    m("graph.degrees_s", "s"),
    // memory-engine
    m("mem.build_s", "s"),
    m("mem.wcc.superstep_s", "s"),
    m("mem.pagerank.superstep_s", "s"),
    m("mem.bfs.superstep_s", "s"),
    m("mem.scatter_s", "s"),
    m("mem.shuffle_s", "s"),
    m("mem.gather_s", "s"),
    m("mem.pagerank.edges_per_s", "1/s"),
    m("mem.membw_frac", "frac"),
    m("mem.alloc_count", "count"),
    m("mem.wcc.useful_edge_frac", "frac"),
    // disk-engine
    m("disk.build_s", "s"),
    m("disk.wcc.superstep_s", "s"),
    m("disk.pagerank.superstep_s", "s"),
    m("disk.bfs.superstep_s", "s"),
    m("disk.scatter_s", "s"),
    m("disk.shuffle_s", "s"),
    m("disk.gather_s", "s"),
    m("disk.blocked_s", "s"),
    m("disk.extract_s", "s"),
    m("disk.io_retries", "count"),
    m("disk.alloc_count", "count"),
    m("disk.bfs.partitions_skipped", "count"),
    m("disk.wcc.partitions_skipped", "count"),
    m("disk.bfs.partitions_sparse", "count"),
    m("disk.wcc.partitions_sparse", "count"),
    m("disk.wcc.useful_edge_frac", "frac"),
    m("disk.pagerank.useful_edge_frac", "frac"),
    m("disk.bfs.useful_edge_frac", "frac"),
    // storage
    m("storage.bytes_read", "B"),
    m("storage.bytes_written", "B"),
    m("storage.read_ops", "count"),
    m("storage.write_ops", "count"),
    m("storage.read_kib_per_op", "KiB"),
    m("storage.chunks_verified", "count"),
    m("storage.seq_read_gbps", "GB/s"),
    m("storage.seq_write_gbps", "GB/s"),
    m("storage.pagerank.stream_frac", "frac"),
    // algorithms
    m("algo.wcc.supersteps", "count"),
    m("algo.pagerank.supersteps", "count"),
    m("algo.bfs.supersteps", "count"),
    m("algo.driver_s", "s"),
    m("algo.vertex_ops_s", "s"),
    // server
    m("server.bfs.p50_ms", "ms"),
    m("server.bfs.p99_ms", "ms"),
    m("server.sssp.p50_ms", "ms"),
    m("server.sssp.p99_ms", "ms"),
    m("server.reach.p50_ms", "ms"),
    m("server.reach.p99_ms", "ms"),
    m("server.same-component.p50_ms", "ms"),
    m("server.same-component.p99_ms", "ms"),
    m("server.pagerank.p50_ms", "ms"),
    m("server.pagerank.p99_ms", "ms"),
    m("server.cache_hit_frac", "frac"),
    m("server.batched_frac", "frac"),
    m("server.edges_per_run", "count"),
    m("server.passes_per_run", "count"),
    m("server.rejected", "count"),
    m("server.timed_out", "count"),
    m("server.inflight_peak", "count"),
    m("server.service_bfs_ms", "ms"),
    m("server.service_sssp_ms", "ms"),
    m("server.overhead_ms", "ms"),
    // hardware bounds and the tracing cost itself
    m("hw.membw_gbps", "GB/s"),
    m("hw.membw_array_mib", "MiB"),
    m("hw.llc_mib", "MiB"),
    m("trace.overhead_s", "s"),
];

/// Named metric values of one run.
#[derive(Default)]
pub struct Metrics(BTreeMap<String, f64>);

impl Metrics {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.0.insert(name.into(), value);
    }

    pub fn add(&mut self, name: &str, value: f64) {
        *self.0.entry(name.to_string()).or_default() += value;
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// Median of the samples (mean of the middle two for an even count);
/// 0 for none.
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `p` in (0, 100] of the samples; 0 for none.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Peak resident set (VmHWM) of this process in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Resets VmHWM to the current RSS, so input generation and the oracle
/// do not count towards the workload's peak (Linux `clear_refs` 5).
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// The final result line: `correct`, `attempted`, `failed` and every
/// metric of `specs` with its unit, values with all their digits.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &Metrics,
    specs: &[Spec],
) -> String {
    let body: Vec<String> = specs
        .iter()
        .map(|s| {
            let v = metrics.get(s.name);
            let v = if v.is_finite() { v } else { 0.0 };
            format!(r#""{}":{{"value":{v:?},"unit":"{}"}}"#, s.name, s.unit)
        })
        .collect();
    format!(
        r#"{{"correct":{correct},"attempted":{attempted},"failed":{failed},"metrics":{{{}}}}}"#,
        body.join(",")
    )
}

/// Human-readable table of `specs` on stderr.
pub fn print_table(title: &str, metrics: &Metrics, specs: &[Spec]) {
    eprintln!("{title}");
    for s in specs {
        eprintln!("  {:<34} {:>16.6} {}", s.name, metrics.get(s.name), s.unit);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 100.0);
        assert_eq!(percentile(&v, 99.0), 198.0);
        assert_eq!(percentile(&[5.0], 99.0), 5.0);
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|s| s.name).collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
    }
}
