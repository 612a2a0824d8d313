//! Cross-crate integration tests: every algorithm on the in-memory
//! engine and on the out-of-core engine — across partition counts, the
//! §3.2 optimization paths and the sparse-scatter path — must agree
//! with the sequential §2 `OracleEngine`. The engines share their
//! per-record scatter/gather kernels, so only the independent oracle
//! can catch a bug in them.

use xstream::algorithms::{
    als, bfs, bp, conductance, hyperanf, mcst, mis, pagerank, pagerank_delta, scc, spmv, sssp, wcc,
};
use xstream::core::{EngineConfig, OracleEngine};
use xstream::disk::DiskEngine;
use xstream::graph::{generators, EdgeList};
use xstream::memory::InMemoryEngine;
use xstream::storage::StreamStore;

fn temp_store(tag: &str) -> StreamStore {
    let root = std::env::temp_dir().join(format!("xstream_it_{tag}"));
    let _ = std::fs::remove_dir_all(&root);
    StreamStore::new(&root, 1 << 16).expect("store")
}

fn disk_cfg() -> EngineConfig {
    EngineConfig::default()
        .with_memory_budget(1 << 20)
        .with_io_unit(1 << 14)
        .with_threads(2)
}

fn mem_cfg(partitions: usize) -> EngineConfig {
    EngineConfig::default()
        .with_threads(2)
        .with_partitions(partitions)
}

fn test_graph(seed: u64) -> EdgeList {
    generators::erdos_renyi(500, 4000, seed).to_undirected()
}

/// Forced-spill disk configuration: updates always go through the
/// update files, with an I/O unit small enough to spill repeatedly.
fn spill_cfg() -> EngineConfig {
    EngineConfig {
        in_memory_updates: false,
        ..disk_cfg().with_io_unit(1 << 13)
    }
}

/// Forced-sparse disk configuration: every indexed partition with an
/// active source scatters through its run-offset index and ranged
/// reads (frontier-tracked programs only; others stream densely).
fn sparse_cfg() -> EngineConfig {
    disk_cfg().with_io_unit(8 << 10).with_frontier_threshold(0)
}

/// Runs `$run` — an expression over the engine bound to `$e` and a
/// fresh program bound to `$p` — on the oracle, on the in-memory
/// engine at K=1 and K=8, on the disk engine with forced spill and on
/// the disk engine with forced sparse scatter. Evaluates to the
/// oracle's result plus every other engine's result tagged with its
/// configuration.
macro_rules! on_every_engine {
    ($tag:expr, $graph:expr, $p:ident = $program:expr, |$e:ident| $run:expr) => {{
        let graph: &EdgeList = $graph;
        let want = {
            let $p = $program;
            let mut $e = OracleEngine::new(graph.num_vertices(), graph.edges().to_vec(), &$p);
            $run
        };
        let mut got = Vec::new();
        for k in [1usize, 8] {
            let $p = $program;
            let mut $e = InMemoryEngine::from_graph(graph, &$p, mem_cfg(k));
            got.push((format!("{} mem K={k}", $tag), $run));
        }
        let $p = $program;
        let store = temp_store(&format!("oracle_{}", $tag));
        let accounting = std::sync::Arc::clone(store.accounting());
        let mut $e = DiskEngine::from_graph(store, graph, &$p, spill_cfg()).expect("engine");
        let built = accounting.snapshot().bytes_written();
        got.push((format!("{} disk spill", $tag), $run));
        let spilled = accounting.snapshot().bytes_written() - built;
        assert!(spilled > 0, "{}: the disk engine never spilled updates", $tag);
        drop($e);
        let $p = $program;
        let store = temp_store(&format!("sparse_{}", $tag));
        let mut $e = DiskEngine::from_graph(store, graph, &$p, sparse_cfg()).expect("engine");
        got.push((format!("{} disk sparse", $tag), $run));
        (want, got)
    }};
}

fn assert_close(tag: &str, want: &[f32], got: &[f32], tolerance: f32) {
    assert_eq!(want.len(), got.len(), "{tag}");
    for (i, (w, g)) in want.iter().zip(got).enumerate() {
        assert!((w - g).abs() < tolerance, "{tag} [{i}]: {w} vs {g}");
    }
}

/// Deterministic positive edge weights (distinct enough that the
/// minimum spanning forest is unique).
fn weighted(mut g: EdgeList) -> EdgeList {
    for (i, e) in g.edges_mut().iter_mut().enumerate() {
        e.weight = 0.01 + ((i * 2654435761) % 1000) as f32 / 1000.0;
    }
    g
}

#[test]
fn wcc_agrees_across_engines_and_partitions() {
    let g = test_graph(1);
    let (want, got) = on_every_engine!("wcc", &g, p = wcc::Wcc::new(), |e| wcc::run(&mut e, &p).0);
    for (tag, labels) in got {
        assert_eq!(labels, want, "{tag}");
    }
    for parts in [2usize, 64] {
        let (labels, _) = wcc::wcc_in_memory(&g, mem_cfg(parts));
        assert_eq!(labels, want, "in-memory K={parts}");
    }
}

#[test]
fn bfs_agrees_across_engines() {
    let (want, got) = on_every_engine!("bfs", &test_graph(2), p = bfs::Bfs::new(), |e| bfs::run(
        &mut e, &p, 0
    )
    .0);
    for (tag, levels) in got {
        assert_eq!(levels, want, "{tag}");
    }
}

#[test]
fn sssp_agrees_across_engines() {
    let g = weighted(generators::erdos_renyi(300, 2500, 3).to_undirected());
    let (want, got) = on_every_engine!("sssp", &g, p = sssp::Sssp::new(), |e| sssp::run(
        &mut e, &p, 0
    )
    .0);
    for (tag, dist) in got {
        assert_eq!(want.len(), dist.len(), "{tag}");
        for (v, (w, d)) in want.iter().zip(&dist).enumerate() {
            assert!(
                (w - d).abs() < 1e-5 || (w.is_infinite() && d.is_infinite()),
                "{tag} vertex {v}: {w} vs {d}"
            );
        }
    }
}

#[test]
fn pagerank_agrees_across_engines() {
    let g = generators::preferential_attachment(400, 8, 4);
    let degrees = g.out_degrees();
    let (want, got) = on_every_engine!("pr", &g, p = pagerank::Pagerank, |e| pagerank::run(
        &mut e, &p, &degrees, 5
    )
    .0);
    for (tag, ranks) in got {
        assert_close(&tag, &want, &ranks, 1e-6);
    }
}

#[test]
fn spmv_agrees_with_direct_multiplication() {
    let g = generators::erdos_renyi(200, 1500, 5);
    let x: Vec<f32> = (0..200).map(|i| (i % 7) as f32).collect();

    // Direct y = A^T x.
    let mut expect = vec![0f32; 200];
    for e in g.edges() {
        expect[e.dst as usize] += e.weight * x[e.src as usize];
    }

    let (want, got) = on_every_engine!("spmv", &g, p = spmv::Spmv, |e| spmv::run(&mut e, &p, &x).0);
    assert_close("oracle", &expect, &want, 1e-3);
    for (tag, y) in got {
        assert_close(&tag, &expect, &y, 1e-3);
    }
}

#[test]
fn mis_valid_on_disk_engine() {
    let g = test_graph(6);
    let (want, got) = on_every_engine!("mis", &g, p = mis::Mis::new(), |e| mis::run(&mut e, &p).0);
    mis::verify_mis(&g, &want).expect("valid MIS from the oracle");
    for (tag, statuses) in got {
        assert_eq!(statuses, want, "{tag}");
        mis::verify_mis(&g, &statuses).unwrap_or_else(|e| panic!("{tag}: {e}"));
    }
}

#[test]
fn disk_optimization_paths_agree() {
    // §3.2: (a) vertices kept in memory vs written per partition;
    // (b) updates gathered from memory vs spilled to update files.
    let g = test_graph(7);
    let want = {
        let p = wcc::Wcc::new();
        let mut oracle = OracleEngine::new(g.num_vertices(), g.edges().to_vec(), &p);
        wcc::run(&mut oracle, &p).0
    };
    let (labels, _) = wcc::wcc_in_memory(&g, mem_cfg(4));
    assert_eq!(labels, want, "in-memory engine");
    for (keep_vertices, in_memory_updates) in
        [(true, true), (true, false), (false, true), (false, false)]
    {
        let cfg = EngineConfig {
            keep_vertices_in_memory: keep_vertices,
            in_memory_updates,
            ..disk_cfg()
        };
        let p = wcc::Wcc::new();
        let tag = format!("opt_{keep_vertices}_{in_memory_updates}");
        let mut disk = DiskEngine::from_graph(temp_store(&tag), &g, &p, cfg).expect("engine");
        let (labels, _) = wcc::run(&mut disk, &p);
        assert_eq!(
            labels, want,
            "keep_vertices={keep_vertices} in_memory_updates={in_memory_updates}"
        );
    }
}

#[test]
fn work_stealing_ablation_agrees() {
    let g = test_graph(8);
    let (with_ws, _) = wcc::wcc_in_memory(
        &g,
        EngineConfig::default()
            .with_threads(4)
            .with_partitions(16)
            .with_work_stealing(true),
    );
    let (without_ws, _) = wcc::wcc_in_memory(
        &g,
        EngineConfig::default()
            .with_threads(4)
            .with_partitions(16)
            .with_work_stealing(false),
    );
    assert_eq!(with_ws, without_ws);
}

#[test]
fn remaining_algorithms_agree_with_the_oracle() {
    // Integer results must match exactly; floating-point results to
    // the tolerance the algorithm's own tests use, since the engines
    // apply updates in a different order than the oracle.
    let directed = generators::erdos_renyi(300, 1200, 21);

    let (want, got) = on_every_engine!(
        "scc",
        &directed.to_bidirectional(),
        p = scc::Scc::new(),
        |e| scc::run(&mut e, &p).0
    );
    for (tag, ids) in got {
        assert_eq!(ids, want, "{tag}");
    }

    let (want, got) = on_every_engine!(
        "mcst",
        &weighted(directed.clone()).to_undirected(),
        p = mcst::Mcst,
        |e| {
            let mst = mcst::run(&mut e, &p).0;
            let mut edges: Vec<(u32, u32)> = mst.edges.iter().map(|e| (e.src, e.dst)).collect();
            edges.sort_unstable();
            (edges, mst.components, mst.total_weight)
        }
    );
    for (tag, (edges, components, weight)) in got {
        assert_eq!((&edges, components), (&want.0, want.1), "{tag}");
        assert!(
            (weight - want.2).abs() < 1e-3,
            "{tag}: {weight} vs {}",
            want.2
        );
    }

    let (want, got) = on_every_engine!(
        "conductance",
        &directed.to_undirected(),
        p = conductance::Conductance,
        |e| {
            let r = conductance::run(&mut e, &p, &|v| v & 1).0;
            (r.cut, r.vol0, r.vol1)
        }
    );
    for (tag, r) in got {
        assert_eq!(r, want, "{tag}");
    }

    let (want, got) = on_every_engine!("bp", &directed.to_undirected(), p = bp::Bp, |e| bp::run(
        &mut e,
        &p,
        &[(0, 0), (1, 1)],
        5
    )
    .0
    .concat());
    for (tag, beliefs) in got {
        assert_close(&tag, &want, &beliefs, 1e-4);
    }

    let (want, got) = on_every_engine!(
        "als",
        &generators::bipartite(60, 20, 600, 3).to_undirected(),
        p = als::Als::new(),
        |e| {
            let r = als::run(&mut e, &p, 60, 3).0;
            (r.factors.concat(), r.rmse)
        }
    );
    for (tag, (factors, rmse)) in got {
        assert_eq!(rmse.len(), want.1.len(), "{tag}");
        for (w, g) in want.1.iter().zip(&rmse) {
            assert!((w - g).abs() < 1e-4, "{tag} rmse: {w} vs {g}");
        }
        assert_close(&format!("{tag} factors"), &want.0, &factors, 1e-3);
    }

    let (want, got) = on_every_engine!(
        "hyperanf",
        &directed.to_undirected(),
        p = hyperanf::HyperAnf,
        |e| {
            let nf = hyperanf::run(&mut e, &p, 100).0;
            (nf.series, nf.steps)
        }
    );
    for (tag, nf) in got {
        assert_eq!(nf, want, "{tag}");
    }

    let degrees = directed.out_degrees();
    let (want, got) = on_every_engine!(
        "pagerank_delta",
        &directed,
        p = pagerank_delta::PagerankDelta::new(0.0),
        |e| pagerank_delta::run(&mut e, &p, &degrees, 30).0
    );
    for (tag, ranks) in got {
        assert_close(&tag, &want, &ranks, 1e-5);
    }
}
