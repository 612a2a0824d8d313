//! Ablations of X-Stream's design decisions (DESIGN.md §5), beyond
//! the paper's own figures:
//!
//! * work stealing on/off under partition skew (§4.1),
//! * the two §3.2 out-of-core optimizations on/off.

use std::time::Duration;

use crate::figs::{cleanup, temp_store};
use crate::{fmt_duration, Effort, Table};
use xstream_algorithms::{pagerank, wcc};
use xstream_core::EngineConfig;
use xstream_disk::DiskEngine;
use xstream_graph::datasets::rmat_scale;
use xstream_graph::Rmat;

fn median_of_three(mut run: impl FnMut() -> Duration) -> Duration {
    let mut samples = [run(), run(), run()];
    samples.sort();
    samples[1]
}

/// Work stealing on/off over a skewed scale-free graph: RMAT
/// concentrates edges in low-id partitions, so static partition
/// assignment idles most threads (§4.1's motivation).
pub fn work_stealing(effort: Effort) -> Vec<(String, Duration)> {
    let g = Rmat::new(effort.rmat_scale())
        .with_edge_factor(16)
        .generate_undirected();
    let threads = effort.thread_sweep().last().copied().unwrap_or(2);
    let mut out = Vec::new();
    for stealing in [true, false] {
        let cfg = EngineConfig::default()
            .with_threads(threads)
            .with_partitions(64)
            .with_work_stealing(stealing);
        let t = median_of_three(|| {
            let (_, stats) = wcc::wcc_in_memory(&g, cfg.clone());
            stats.elapsed()
        });
        out.push((
            format!("work stealing {}", if stealing { "on" } else { "off" }),
            t,
        ));
    }
    out
}

/// The §3.2 optimizations on/off for an out-of-core PageRank run:
/// keeping the vertex array in memory (no per-partition write-back)
/// and gathering updates straight from the stream buffer when they
/// fit. Reported as bytes written to storage — the quantity the
/// optimizations exist to save.
pub fn disk_optimizations(effort: Effort) -> Vec<(String, u64, Duration)> {
    let g = rmat_scale(effort.rmat_scale().saturating_sub(2).max(12));
    let mut out = Vec::new();
    for (keep_v, mem_u) in [(true, true), (true, false), (false, true), (false, false)] {
        let cfg = EngineConfig {
            keep_vertices_in_memory: keep_v,
            in_memory_updates: mem_u,
            ..EngineConfig::default()
                .with_memory_budget(64 << 20)
                .with_io_unit(1 << 20)
        };
        let tag = format!("abl_opt_{keep_v}_{mem_u}");
        let store = temp_store(&tag, cfg.io_unit, false);
        let p = pagerank::Pagerank;
        let degrees = g.out_degrees();
        let mut e = DiskEngine::from_graph(store, &g, &p, cfg).expect("engine");
        e.store().accounting().reset();
        let (_, stats) = pagerank::run(&mut e, &p, &degrees, 5);
        let written = e.store().accounting().snapshot().bytes_written();
        drop(e);
        cleanup(&tag);
        out.push((
            format!(
                "vertices-in-mem={} updates-in-mem={}",
                if keep_v { "y" } else { "n" },
                if mem_u { "y" } else { "n" }
            ),
            written,
            stats.elapsed(),
        ));
    }
    out
}

/// Renders all ablations as one report.
pub fn report(effort: Effort) -> String {
    let mut out = String::new();

    let mut t = Table::new("Ablation: work stealing under RMAT skew").header(&["config", "WCC"]);
    for (label, d) in work_stealing(effort) {
        t.row(&[label, fmt_duration(d)]);
    }
    out.push_str(&t.render());
    out.push('\n');

    let mut t = Table::new("Ablation: sec 3.2 out-of-core optimizations (PageRank x5)").header(&[
        "config",
        "bytes written",
        "runtime",
    ]);
    for (label, written, d) in disk_optimizations(effort) {
        t.row(&[
            label,
            format!("{:.1} MB", written as f64 / 1e6),
            fmt_duration(d),
        ]);
    }
    out.push_str(&t.render());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disk_optimizations_reduce_writes() {
        let rows = disk_optimizations(Effort::Smoke);
        let on = rows
            .iter()
            .find(|(l, _, _)| l.contains("vertices-in-mem=y updates-in-mem=y"))
            .unwrap();
        let off = rows
            .iter()
            .find(|(l, _, _)| l.contains("vertices-in-mem=n updates-in-mem=n"))
            .unwrap();
        assert!(
            on.1 < off.1,
            "optimizations should save writes: {} vs {}",
            on.1,
            off.1
        );
    }

    #[test]
    fn all_ablations_run_at_smoke() {
        assert_eq!(work_stealing(Effort::Smoke).len(), 2);
    }
}
