//! Figure 18: sorting versus streaming, single-threaded.
//!
//! The pre-processing argument: index-based systems must first sort
//! the edge list, and by RMAT scale 25 a single-threaded X-Stream
//! finishes WCC, PageRank, BFS *and* SpMV each before either quicksort
//! or counting sort finishes ordering the edges. The harness repeats
//! the race at effort scale, and also times X-Stream's own
//! pre-processing: the in-memory engine's BFS build, whose counting
//! placement groups the edges by source without a comparison sort.

use std::time::{Duration, Instant};

use crate::{fmt_duration, Effort, Table};
use xstream_algorithms::{bfs, pagerank, spmv, wcc};
use xstream_core::EngineConfig;
use xstream_graph::datasets::rmat_scale;
use xstream_graph::sort::{counting_sort_by_source, quicksort_by_source};
use xstream_memory::InMemoryEngine;

/// One scale's measurements.
#[derive(Debug, Clone, Copy)]
pub struct Point {
    /// RMAT scale.
    pub scale: u32,
    /// Quicksort wall time.
    pub quicksort: Duration,
    /// Counting-sort wall time.
    pub counting_sort: Duration,
    /// Wall time of `InMemoryEngine::from_graph` for BFS on the same
    /// graph: the engine's own pre-processing.
    pub bfs_build: Duration,
    /// X-Stream full-run times: WCC, PageRank, BFS, SpMV.
    pub xstream: [Duration; 4],
}

/// Runs the race over a range of scales ending at the effort scale.
pub fn run(effort: Effort) -> Vec<Point> {
    let top = effort.rmat_scale().saturating_sub(1).max(10);
    let lo = top.saturating_sub(3);
    (lo..=top)
        .map(|scale| {
            let g = rmat_scale(scale);
            let cfg = || EngineConfig::single_threaded();

            let mut qs = g.clone();
            let t0 = Instant::now();
            quicksort_by_source(&mut qs);
            let quicksort = t0.elapsed();

            let mut cs = g.clone();
            let t0 = Instant::now();
            counting_sort_by_source(&mut cs);
            let counting_sort = t0.elapsed();

            let t0 = Instant::now();
            let engine = InMemoryEngine::from_graph(&g, &bfs::Bfs::new(), cfg());
            let bfs_build = t0.elapsed();
            drop(engine);

            let (_, s_wcc) = wcc::wcc_in_memory(&g, cfg());
            let (_, s_pr) = pagerank::pagerank_in_memory(&g, 5, cfg());
            let (_, s_bfs) = bfs::bfs_in_memory(&g, g.max_out_degree_vertex(), cfg());
            let (_, it_spmv) = spmv::spmv_in_memory(&g, cfg());
            Point {
                scale,
                quicksort,
                counting_sort,
                bfs_build,
                xstream: [
                    s_wcc.elapsed(),
                    s_pr.elapsed(),
                    s_bfs.elapsed(),
                    Duration::from_nanos(it_spmv.total_ns()),
                ],
            }
        })
        .collect()
}

/// Renders the figure as a table.
pub fn report(effort: Effort) -> String {
    let mut t = Table::new("Fig 18: sorting vs streaming (1 thread, RMAT)").header(&[
        "scale",
        "quicksort",
        "counting sort",
        "BFS build",
        "WCC",
        "Pagerank",
        "BFS",
        "SpMV",
    ]);
    for p in run(effort) {
        t.row(&[
            p.scale.to_string(),
            fmt_duration(p.quicksort),
            fmt_duration(p.counting_sort),
            fmt_duration(p.bfs_build),
            fmt_duration(p.xstream[0]),
            fmt_duration(p.xstream[1]),
            fmt_duration(p.xstream[2]),
            fmt_duration(p.xstream[3]),
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn race_produces_points() {
        let pts = run(Effort::Smoke);
        assert!(pts.len() >= 3);
        for p in &pts {
            assert!(p.quicksort.as_nanos() > 0);
            assert!(p.counting_sort.as_nanos() > 0);
            assert!(p.bfs_build.as_nanos() > 0);
        }
    }

    #[test]
    fn single_pass_algorithms_beat_quicksort_at_top_scale() {
        // SpMV streams the edges once; quicksort must move every edge
        // O(log E) times, so by the top scale streaming wins (the
        // paper's crossover claim).
        let pts = run(Effort::Smoke);
        let top = pts.last().unwrap();
        assert!(
            top.xstream[3] < top.quicksort,
            "SpMV {:?} should beat quicksort {:?}",
            top.xstream[3],
            top.quicksort
        );
    }
}
