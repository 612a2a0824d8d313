//! Figure 12: (a) runtimes of every algorithm on every dataset and
//! medium; (b) WCC iteration counts, runtime/streaming ratio and
//! wasted-edge percentages.
//!
//! The paper's headline applicability table: nine algorithms across
//! four in-memory graphs, three SSD-resident graphs and four
//! disk-resident graphs. Stand-ins replace the real datasets (see
//! Fig. 10) and the calibrated device model converts one accounted
//! disk-engine run per cell into modeled SSD and HDD runtimes.

use std::time::Duration;

use crate::figs::{cleanup, temp_store, ModeledRuntime};
use crate::{fmt_duration, Effort, Table};
use xstream_algorithms::engines::{self, AnyEngine, Orientation, Source};
use xstream_algorithms::util::splitmix64;
use xstream_algorithms::{bfs, bp, conductance, mcst, mis, pagerank, scc, spmv, sssp, wcc};
use xstream_core::{Edge, EdgeProgram, EngineConfig, RunStats};
use xstream_graph::datasets::{Dataset, Kind, Tier, DATASETS};
use xstream_graph::EdgeList;
use xstream_storage::StreamStore;

/// The algorithm columns of Fig. 12a, in the paper's order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algo {
    /// Weakly connected components.
    Wcc,
    /// Strongly connected components.
    Scc,
    /// Single-source shortest paths.
    Sssp,
    /// Minimum-cost spanning tree.
    Mcst,
    /// Maximal independent set.
    Mis,
    /// Conductance of a parity bisection.
    Cond,
    /// Sparse matrix-vector multiplication.
    Spmv,
    /// PageRank, 5 iterations.
    Pagerank,
    /// Belief propagation, 5 iterations.
    Bp,
}

/// All Fig. 12a columns.
pub const ALGOS: &[Algo] = &[
    Algo::Wcc,
    Algo::Scc,
    Algo::Sssp,
    Algo::Mcst,
    Algo::Mis,
    Algo::Cond,
    Algo::Spmv,
    Algo::Pagerank,
    Algo::Bp,
];

impl Algo {
    /// Paper column label.
    pub fn label(self) -> &'static str {
        match self {
            Algo::Wcc => "WCC",
            Algo::Scc => "SCC",
            Algo::Sssp => "SSSP",
            Algo::Mcst => "MCST",
            Algo::Mis => "MIS",
            Algo::Cond => "Cond.",
            Algo::Spmv => "SpMV",
            Algo::Pagerank => "Pagerank",
            Algo::Bp => "BP",
        }
    }

    /// Traversal-style algorithms need many iterations on high-diameter
    /// graphs; the paper omits them for yahoo-web.
    pub fn is_traversal(self) -> bool {
        matches!(
            self,
            Algo::Wcc | Algo::Scc | Algo::Sssp | Algo::Mcst | Algo::Mis
        )
    }
}

/// Gives a deterministic random orientation to an undirected expansion
/// (the paper assigns random edge directions to undirected graphs for
/// SCC). Keeps exactly one direction per vertex pair.
pub fn random_orientation(g: &EdgeList, seed: u64) -> EdgeList {
    let mut out = Vec::with_capacity(g.num_edges() / 2 + 1);
    for e in g.edges() {
        let (a, b) = (e.src.min(e.dst), e.src.max(e.dst));
        if e.src > e.dst {
            // Visit each undirected pair once, at its canonical copy.
            continue;
        }
        let flip = splitmix64(seed ^ ((a as u64) << 32 | b as u64)) & 1 == 1;
        let (s, d) = if flip { (b, a) } else { (a, b) };
        out.push(Edge::weighted(s, d, e.weight));
    }
    EdgeList::from_parts_unchecked(g.num_vertices(), out)
}

/// Prepares the edge stream an algorithm expects from a dataset
/// stand-in (weights are always present; generators attach them).
fn prepare(algo: Algo, ds: &Dataset, base: &EdgeList) -> EdgeList {
    let directed = || {
        if ds.kind == Kind::Undirected {
            random_orientation(base, 0x5eed)
        } else {
            base.clone()
        }
    };
    match algo {
        // Undirected expansion for symmetric algorithms.
        Algo::Wcc | Algo::Mis | Algo::Bp | Algo::Mcst => {
            if ds.kind == Kind::Undirected {
                base.clone()
            } else {
                base.to_undirected()
            }
        }
        // Bidirectional tagged stream over a directed graph.
        Algo::Scc => directed().to_bidirectional(),
        // Directed streams.
        Algo::Sssp | Algo::Cond | Algo::Spmv | Algo::Pagerank => directed(),
    }
}

/// Runs one algorithm over a stream `prepare` already oriented: on
/// the out-of-core engine over `store` when one is given, otherwise in
/// memory. A disk run also returns the modeled device runtimes of its
/// accounted I/O trace.
pub fn run_cell(
    algo: Algo,
    graph: &EdgeList,
    cfg: EngineConfig,
    store: Option<StreamStore>,
) -> (RunStats, Option<ModeledRuntime>) {
    let cell = Cell { graph, cfg, store };
    let n = graph.num_vertices();
    match algo {
        Algo::Wcc => cell.run(&wcc::Wcc::new(), false, |e, p, _| wcc::run(e, p).1),
        Algo::Scc => cell.run(&scc::Scc::new(), false, |e, p, _| scc::run(e, p).1),
        Algo::Sssp => cell.run(&sssp::Sssp::new(), false, |e, p, _| {
            sssp::run(e, p, graph.max_out_degree_vertex()).1
        }),
        Algo::Mcst => cell.run(&mcst::Mcst, false, |e, p, _| mcst::run(e, p).1),
        Algo::Mis => cell.run(&mis::Mis::new(), false, |e, p, _| mis::run(e, p).1),
        Algo::Cond => cell.run(&conductance::Conductance, false, |e, p, _| {
            one_iteration_stats(conductance::run(e, p, &|v| v & 1).1)
        }),
        Algo::Spmv => cell.run(&spmv::Spmv, false, |e, p, _| {
            one_iteration_stats(spmv::run(e, p, &vec![1.0f32; n]).1)
        }),
        Algo::Pagerank => cell.run(&pagerank::Pagerank, true, |e, p, degrees| {
            pagerank::run(e, p, degrees, 5).1
        }),
        Algo::Bp => cell.run(&bp::Bp, false, |e, p, _| bp::run(e, p, &bp_seeds(n), 5).1),
    }
}

/// One Fig. 12a cell: the prepared stream and the engine to run it on.
struct Cell<'a> {
    graph: &'a EdgeList,
    cfg: EngineConfig,
    store: Option<StreamStore>,
}

impl Cell<'_> {
    fn run<P: EdgeProgram>(
        self,
        program: &P,
        out_degrees: bool,
        driver: impl FnOnce(&mut AnyEngine<P>, &P, &[u32]) -> RunStats,
    ) -> (RunStats, Option<ModeledRuntime>) {
        let (mut engine, degrees) = engines::build(
            Source::Graph(self.graph),
            Orientation::Directed,
            self.store,
            program,
            self.cfg,
            out_degrees,
        )
        .expect("engine build");
        let stats = driver(&mut engine, program, &degrees);
        let modeled = match &engine {
            AnyEngine::Mem(_) => None,
            AnyEngine::Disk(e) => Some(ModeledRuntime::from_trace(
                Duration::from_nanos(stats.total_ns),
                &e.store().accounting().trace(),
            )),
        };
        (stats, modeled)
    }
}

fn one_iteration_stats(it: xstream_core::IterationStats) -> RunStats {
    let total_ns = it.total_ns();
    RunStats {
        iterations: vec![it],
        total_ns,
    }
}

fn bp_seeds(n: usize) -> Vec<(u32, usize)> {
    (0..8u32.min(n as u32))
        .map(|v| (v, (v & 1) as usize))
        .collect()
}

/// In-memory engine configuration for the Fig. 12 runs.
fn mem_cfg() -> EngineConfig {
    EngineConfig::default()
}

/// Out-of-core engine configuration scaled to the stand-in sizes. The
/// §3.4 inequality `N/K + 5SK <= M` must stay feasible for the largest
/// per-vertex state in the figure (BP's 24 bytes), so the budget is
/// raised to the theoretical minimum `2*sqrt(5NS)` plus head-room when
/// a stand-in's vertex set outgrows the effort's base budget.
fn disk_cfg(effort: Effort, num_vertices: usize) -> EngineConfig {
    let base: usize = match effort {
        Effort::Smoke => 8 << 20,
        Effort::Quick => 32 << 20,
        Effort::Full => 256 << 20,
    };
    let io_unit = 1usize << 20;
    let worst_state = 32usize;
    let n = (num_vertices * worst_state) as f64;
    let min_feasible = (2.0 * (5.0 * n * io_unit as f64).sqrt() * 1.3) as usize;
    EngineConfig::default()
        .with_memory_budget(base.max(min_feasible))
        .with_io_unit(io_unit)
}

/// Renders the Fig. 12a table (runtimes) and the Fig. 12b table (WCC
/// execution characteristics) in one report.
pub fn report(effort: Effort) -> String {
    let mut out = String::new();

    // ---- In-memory block ----
    let mut t12a = Table::new("Fig 12a: runtimes").header(
        &[
            &["medium/dataset"],
            ALGOS
                .iter()
                .map(|a| a.label())
                .collect::<Vec<_>>()
                .as_slice(),
        ]
        .concat(),
    );
    let mut wcc_rows: Vec<(String, RunStats)> = Vec::new();

    for ds in DATASETS.iter().filter(|d| d.tier == Tier::InMemory) {
        let base = ds.generate(effort.in_memory_divisor());
        let mut row = vec![format!("mem/{}", ds.name)];
        for &algo in ALGOS {
            let input = prepare(algo, ds, &base);
            let (stats, _) = run_cell(algo, &input, mem_cfg(), None);
            if algo == Algo::Wcc {
                wcc_rows.push((format!("mem/{}", ds.name), stats.clone()));
            }
            row.push(fmt_duration(stats.elapsed()));
        }
        t12a.row(&row);
    }

    // ---- Out-of-core block: one accounted run models both media ----
    let ooc: Vec<&Dataset> = DATASETS
        .iter()
        .filter(|d| d.tier == Tier::OutOfCore && d.kind != Kind::Bipartite)
        .collect();
    for medium in ["ssd", "disk"] {
        for ds in &ooc {
            // The paper omits traversal algorithms on yahoo-web (they
            // did not finish in reasonable time) and never lists
            // yahoo-web under SSD (it did not fit).
            if ds.name == "yahoo-web" && medium == "ssd" {
                continue;
            }
            let base = ds.generate(effort.out_of_core_divisor());
            let mut row = vec![format!("{medium}/{}", ds.name)];
            for &algo in ALGOS {
                if ds.name == "yahoo-web" && algo.is_traversal() {
                    row.push("-".to_string());
                    continue;
                }
                let input = prepare(algo, ds, &base);
                let tag = format!("fig12_{}_{}_{medium}", ds.name, algo.label());
                let cfg = disk_cfg(effort, input.num_vertices());
                let store = temp_store(&tag, cfg.io_unit, true);
                let (stats, modeled) = run_cell(algo, &input, cfg, Some(store));
                cleanup(&tag);
                let modeled = modeled.expect("a disk cell models its trace");
                let runtime = if medium == "ssd" {
                    modeled.ssd
                } else {
                    modeled.hdd
                };
                if algo == Algo::Wcc {
                    wcc_rows.push((format!("{medium}/{}", ds.name), stats));
                }
                row.push(fmt_duration(runtime));
            }
            t12a.row(&row);
        }
    }
    out.push_str(&t12a.render());
    out.push('\n');

    // ---- Fig 12b ----
    let mut t12b = Table::new("Fig 12b: WCC iterations, runtime/streaming ratio, wasted edges")
        .header(&["dataset", "# iters", "ratio", "wasted %"]);
    for (name, stats) in &wcc_rows {
        t12b.row(&[
            name.clone(),
            stats.num_iterations().to_string(),
            format!("{:.2}", stats.runtime_to_streaming_ratio()),
            format!("{:.0}", stats.wasted_pct()),
        ]);
    }
    out.push_str(&t12b.render());
    out.push('\n');

    // ---- Fig 12b addendum: BFS under the frontier-aware scatter ----
    // The paper's §6.3 weakness made concrete: a BFS run on the disk
    // engine, with the hybrid scatter's per-superstep gauges summed
    // over the run. `dense-equiv` is what the stream-everything design
    // would have paid (|E| per superstep).
    let mut t12c =
        Table::new("Fig 12b addendum: BFS frontier-aware scatter (disk engine)").header(&[
            "dataset",
            "# iters",
            "edges streamed",
            "dense-equiv",
            "skipped",
            "sparse",
            "peak dens %",
        ]);
    for ds in &ooc {
        if ds.name == "yahoo-web" {
            continue; // the paper omits traversals on yahoo-web
        }
        let base = ds.generate(effort.out_of_core_divisor());
        let input = prepare(Algo::Sssp, ds, &base); // plain directed stream
        let tag = format!("fig12_{}_bfs", ds.name);
        let store = temp_store(&tag, 1 << 16, true);
        let p = bfs::Bfs::new();
        // A genuinely constrained out-of-core shape (several streaming
        // partitions, forced spills): with `disk_cfg`'s comfortable
        // budget the stand-ins collapse to one partition, which gives
        // partition-granular skipping nothing to skip.
        let cfg = EngineConfig {
            in_memory_updates: false,
            ..EngineConfig::default()
                .with_io_unit(1 << 16)
                .with_memory_budget(2 << 20)
                .with_partitions(8)
        };
        let (mut e, _) = engines::build(
            Source::Graph(&input),
            Orientation::Directed,
            Some(store),
            &p,
            cfg,
            false,
        )
        .expect("disk engine");
        let (_, s) = bfs::run(&mut e, &p, input.max_out_degree_vertex());
        drop(e);
        cleanup(&tag);
        let t = s.totals();
        let dense_equiv = input.num_edges() as u64 * s.num_iterations() as u64;
        t12c.row(&[
            format!("disk/{}", ds.name),
            s.num_iterations().to_string(),
            t.edges_streamed.to_string(),
            dense_equiv.to_string(),
            t.partitions_skipped.to_string(),
            t.partitions_sparse.to_string(),
            format!("{:.1}", t.frontier_density * 100.0),
        ]);
    }
    out.push_str(&t12c.render());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use xstream_graph::datasets::by_name;

    #[test]
    fn random_orientation_halves_undirected_edges() {
        let g = xstream_graph::generators::erdos_renyi(50, 200, 7).to_undirected();
        let o = random_orientation(&g, 1);
        // Every undirected pair contributes one directed edge (self
        // loops keep their single copy from to_undirected).
        assert!(o.num_edges() <= g.num_edges() / 2 + 5);
        assert!(o.num_edges() >= g.num_edges() / 2 - 5);
    }

    #[test]
    fn in_memory_cell_runs() {
        let ds = by_name("amazon0601").unwrap();
        let base = ds.generate(2048);
        let input = prepare(Algo::Wcc, ds, &base);
        let (stats, modeled) = run_cell(Algo::Wcc, &input, mem_cfg(), None);
        assert!(modeled.is_none());
        assert!(stats.num_iterations() > 0);
    }

    #[test]
    fn out_of_core_cell_runs_and_models() {
        let ds = by_name("Twitter").unwrap();
        let base = ds.generate(1 << 14);
        let input = prepare(Algo::Pagerank, ds, &base);
        let cfg = disk_cfg(Effort::Smoke, input.num_vertices());
        let store = temp_store("fig12_test", cfg.io_unit, true);
        let (stats, modeled) = run_cell(Algo::Pagerank, &input, cfg, Some(store));
        cleanup("fig12_test");
        let modeled = modeled.expect("a disk cell models its trace");
        assert_eq!(stats.num_iterations(), 5);
        // The disk engine must actually touch storage, so the modeled
        // HDD time exceeds the modeled SSD time.
        assert!(modeled.hdd >= modeled.ssd);
    }
}
