//! Figure 14: strong scaling with thread count.
//!
//! The paper runs WCC, PageRank, BFS and SpMV over its largest
//! in-memory RMAT graph (scale 25) with 1..16 threads and observes
//! near-linear scaling. The harness sweeps the same algorithms on an
//! effort-scaled RMAT graph, and times the WCC engine build next to
//! them: its counting placement runs one input slice per worker, so
//! setup scales with the thread count too.

use std::time::{Duration, Instant};

use crate::{fmt_duration, Effort, Table};
use xstream_algorithms::{bfs, pagerank, spmv, wcc};
use xstream_core::EngineConfig;
use xstream_graph::datasets::rmat_scale;
use xstream_graph::EdgeList;
use xstream_memory::InMemoryEngine;

/// The four algorithm series of the figure.
pub const SERIES: &[&str] = &["WCC", "Pagerank", "BFS", "SpMV"];

/// One measured point.
#[derive(Debug, Clone, Copy)]
pub struct Point {
    /// Worker threads.
    pub threads: usize,
    /// Runtime per algorithm, same order as [`SERIES`].
    pub runtime: [Duration; 4],
    /// Wall time of the WCC engine build (`from_graph`).
    pub wcc_build: Duration,
    /// Peak shuffle-buffer residency of the WCC run, in percent
    /// (high-water records over held capacity): how tightly the
    /// adaptive equalization budget sized the pooled buffers to the
    /// observed steal skew at this thread count.
    pub residency_pct: f64,
}

fn run_series(g: &EdgeList, threads: usize) -> ([Duration; 4], Duration, f64) {
    let cfg = || EngineConfig::default().with_threads(threads);
    let program = wcc::Wcc::new();
    let t = Instant::now();
    let mut engine = InMemoryEngine::from_graph(g, &program, cfg());
    let wcc_build = t.elapsed();
    let (_, s_wcc) = wcc::run(&mut engine, &program);
    drop(engine);
    let (_, s_pr) = pagerank::pagerank_in_memory(g, 5, cfg());
    let (_, s_bfs) = bfs::bfs_in_memory(g, g.max_out_degree_vertex(), cfg());
    let (_, s_spmv) = spmv::spmv_in_memory(g, cfg());
    let residency = s_wcc.totals().buffer_residency_pct();
    (
        [
            s_wcc.elapsed(),
            s_pr.elapsed(),
            s_bfs.elapsed(),
            Duration::from_nanos(s_spmv.total_ns()),
        ],
        wcc_build,
        residency,
    )
}

/// Runs the sweep.
pub fn run(effort: Effort) -> Vec<Point> {
    let g = rmat_scale(effort.rmat_scale());
    effort
        .thread_sweep()
        .into_iter()
        .map(|threads| {
            let (runtime, wcc_build, residency_pct) = run_series(&g, threads);
            Point {
                threads,
                runtime,
                wcc_build,
                residency_pct,
            }
        })
        .collect()
}

/// Renders the figure as a table (runtimes, the WCC build time, and
/// the buffer-residency gauge the adaptive capacity policy exposes).
pub fn report(effort: Effort) -> String {
    let mut t =
        Table::new(format!("Fig 14: strong scaling, RMAT scale {}", effort.rmat_scale()).as_str())
            .header(&[
                "threads",
                "WCC",
                "Pagerank",
                "BFS",
                "SpMV",
                "WCC build",
                "buf resid",
            ]);
    for p in run(effort) {
        t.row(&[
            p.threads.to_string(),
            fmt_duration(p.runtime[0]),
            fmt_duration(p.runtime[1]),
            fmt_duration(p.runtime[2]),
            fmt_duration(p.runtime[3]),
            fmt_duration(p.wcc_build),
            format!("{:.0}%", p.residency_pct),
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_series_run_at_smoke_scale() {
        let pts = run(Effort::Smoke);
        assert!(!pts.is_empty());
        for p in &pts {
            for d in p.runtime {
                assert!(d.as_nanos() > 0);
            }
            assert!(p.wcc_build.as_nanos() > 0);
            // The residency gauge is populated and sane.
            assert!(
                p.residency_pct > 0.0 && p.residency_pct <= 100.0,
                "residency {} at {} threads",
                p.residency_pct,
                p.threads
            );
        }
    }
}
