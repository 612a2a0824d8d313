//! Differential tests for the frontier-aware scatter (Ligra-style
//! hybrid): the disk engine's partition skipping and sparse
//! index-based scatter must be invisible in the *results* — BFS, SSSP
//! and delta-PageRank answers are identical across every mode — while
//! being very visible in the *work*: tail supersteps of a traversal
//! stream an order of magnitude fewer edges than the paper's
//! stream-everything baseline.
//!
//! Every configuration forces the spill path (`in_memory_updates:
//! false`, small I/O unit), so sparse scatter, skipping and the dense
//! fallback all compose with the pooled out-of-core pipeline.

use xstream::algorithms::{bfs, pagerank_delta, sssp};
use xstream::core::record::{decode_records, Record};
use xstream::core::{Edge, EngineConfig, OracleEngine};
use xstream::disk::engine::edge_stream;
use xstream::disk::DiskEngine;
use xstream::graph::{generators, EdgeList};
use xstream::memory::InMemoryEngine;
use xstream::storage::StreamStore;

fn temp_store(tag: &str) -> StreamStore {
    let root = std::env::temp_dir().join(format!("xstream_frontier_{tag}"));
    let _ = std::fs::remove_dir_all(&root);
    StreamStore::new(&root, 1 << 13).expect("store")
}

/// Forced-spill configuration with `kp` streaming partitions; the
/// frontier knobs are layered on per test.
fn spill_cfg() -> EngineConfig {
    EngineConfig {
        in_memory_updates: false,
        ..EngineConfig::default()
            .with_threads(2)
            .with_io_unit(1 << 13)
            .with_memory_budget(1 << 20)
            .with_partitions(4)
    }
}

/// The hybrid-switch matrix every differential runs over: default
/// divisor, forced-sparse, forced-dense, and skipping disabled
/// entirely (the paper's baseline).
fn mode_matrix() -> Vec<(&'static str, EngineConfig)> {
    vec![
        ("default", spill_cfg()),
        ("sparse", spill_cfg().with_frontier_threshold(0)),
        ("dense", spill_cfg().with_frontier_threshold(usize::MAX)),
        ("off", spill_cfg().with_frontier_skip(false)),
    ]
}

#[test]
fn bfs_levels_identical_across_all_frontier_modes() {
    let g = generators::erdos_renyi(600, 3000, 13);
    let expected = {
        let p = bfs::Bfs::new();
        let mut e = InMemoryEngine::from_graph(
            &g,
            &p,
            EngineConfig::default().with_threads(2).with_partitions(4),
        );
        bfs::run(&mut e, &p, 7).0
    };
    for (tag, cfg) in mode_matrix() {
        let p = bfs::Bfs::new();
        let mut e =
            DiskEngine::from_graph(temp_store(&format!("bfs_{tag}")), &g, &p, cfg).expect("engine");
        let (levels, stats) = bfs::run(&mut e, &p, 7);
        assert_eq!(levels, expected, "{tag}: levels diverge");
        let t = stats.totals();
        assert!(t.bytes_written > 0, "{tag}: no spill happened");
        match tag {
            // The terminating superstep has an empty frontier, so any
            // frontier-aware mode must have skipped whole partitions.
            "default" | "sparse" => {
                assert!(t.partitions_skipped > 0, "{tag}: nothing skipped");
            }
            "dense" => {
                assert!(t.partitions_skipped > 0, "{tag}: nothing skipped");
                assert_eq!(t.partitions_sparse, 0, "{tag}: D=MAX must stay dense");
            }
            "off" => {
                assert_eq!(t.partitions_skipped, 0, "{tag}: skipping is off");
                assert_eq!(t.partitions_sparse, 0, "{tag}: skipping is off");
            }
            _ => unreachable!(),
        }
        if tag == "sparse" {
            assert!(t.partitions_sparse > 0, "D=0 never went sparse");
        }
    }
}

#[test]
fn sssp_distances_identical_across_all_frontier_modes() {
    // Deterministic positive weights; min-gather over the same update
    // multiset is order-insensitive, so equality is bitwise.
    let base = generators::erdos_renyi(500, 2800, 29);
    let edges: Vec<Edge> = base
        .edges()
        .iter()
        .enumerate()
        .map(|(i, e)| Edge::weighted(e.src, e.dst, 0.25 + (i % 13) as f32 * 0.125))
        .collect();
    let g = EdgeList::from_parts_unchecked(base.num_vertices(), edges);
    let expected = {
        let p = sssp::Sssp::new();
        let mut e = InMemoryEngine::from_graph(
            &g,
            &p,
            EngineConfig::default().with_threads(2).with_partitions(4),
        );
        sssp::run(&mut e, &p, 3).0
    };
    for (tag, cfg) in mode_matrix() {
        let p = sssp::Sssp::new();
        let mut e = DiskEngine::from_graph(temp_store(&format!("sssp_{tag}")), &g, &p, cfg)
            .expect("engine");
        let (dist, _) = sssp::run(&mut e, &p, 3);
        assert_eq!(dist, expected, "{tag}: distances diverge");
    }
}

#[test]
fn pagerank_delta_converges_identically_across_modes() {
    // Delta-PageRank is the non-traversal workload the hybrid scatter
    // exists for: its active set collapses geometrically. Floating-
    // point gathers may reassociate between modes, hence the epsilon
    // comparison rather than bitwise equality.
    let g = generators::erdos_renyi(400, 3200, 5);
    let degrees = g.out_degrees();
    let expected = {
        let p = pagerank_delta::PagerankDelta::new(0.0);
        let mut e = InMemoryEngine::from_graph(
            &g,
            &p,
            EngineConfig::default().with_threads(2).with_partitions(4),
        );
        pagerank_delta::run(&mut e, &p, &degrees, 30).0
    };
    for (tag, cfg) in mode_matrix() {
        let p = pagerank_delta::PagerankDelta::new(0.0);
        let mut e =
            DiskEngine::from_graph(temp_store(&format!("prd_{tag}")), &g, &p, cfg).expect("engine");
        let (ranks, _) = pagerank_delta::run(&mut e, &p, &degrees, 30);
        for (v, (a, b)) in ranks.iter().zip(&expected).enumerate() {
            assert!((a - b).abs() < 1e-4, "{tag} vertex {v}: {a} vs {b}");
        }
    }
    // With a positive tolerance the shrinking active set must actually
    // reach the sparse path under the default divisor.
    let p = pagerank_delta::PagerankDelta::new(1e-4);
    let mut e =
        DiskEngine::from_graph(temp_store("prd_shrink"), &g, &p, spill_cfg()).expect("engine");
    let (_, stats) = pagerank_delta::run(&mut e, &p, &degrees, 50);
    let t = stats.totals();
    assert!(
        t.partitions_skipped > 0 || t.partitions_sparse > 0,
        "collapsing delta frontier never left dense mode: {t:?}"
    );
}

#[test]
fn bfs_tail_supersteps_stream_an_order_of_magnitude_fewer_edges() {
    // A long-diameter graph: the BFS frontier is a narrow wave, so
    // almost every superstep is "tail" — exactly the regime where the
    // paper's stream-everything design pays |E| per level and the
    // hybrid scatter pays O(frontier).
    let g = generators::grid2d(48, 48);
    let run = |cfg: EngineConfig, tag: &str| {
        let p = bfs::Bfs::new();
        let mut e = DiskEngine::from_graph(temp_store(tag), &g, &p, cfg).expect("engine");
        bfs::run(&mut e, &p, 0)
    };
    let (levels_f, frontier) = run(spill_cfg(), "tail_frontier");
    let (levels_d, dense) = run(spill_cfg().with_frontier_skip(false), "tail_dense");
    assert_eq!(levels_f, levels_d, "frontier run changed the answer");
    assert_eq!(
        frontier.iterations.len(),
        dense.iterations.len(),
        "superstep counts must match"
    );
    // Every dense superstep streams the whole edge list; count the
    // supersteps where the frontier run streamed at least 10x fewer.
    let mut tail_wins = 0usize;
    for (f, d) in frontier.iterations.iter().zip(&dense.iterations) {
        assert_eq!(d.edges_streamed, g.num_edges() as u64);
        if f.edges_streamed.saturating_mul(10) <= d.edges_streamed {
            tail_wins += 1;
        }
    }
    assert!(
        tail_wins * 2 >= frontier.iterations.len(),
        "only {tail_wins}/{} supersteps streamed 10x fewer edges",
        frontier.iterations.len()
    );
    // And the run as a whole does far less edge I/O.
    let total_f: u64 = frontier.iterations.iter().map(|i| i.edges_streamed).sum();
    let total_d: u64 = dense.iterations.iter().map(|i| i.edges_streamed).sum();
    assert!(
        total_f.saturating_mul(10) <= total_d,
        "total edges streamed: frontier {total_f} vs dense {total_d}"
    );
    // The density gauge reflects the narrow wave.
    let peak = frontier
        .iterations
        .iter()
        .map(|i| i.frontier_density)
        .fold(0.0f64, f64::max);
    assert!(
        peak > 0.0 && peak < 0.5,
        "grid BFS frontier density should be a narrow wave, got {peak}"
    );
}

#[test]
fn chunked_index_build_matches_each_edge_file() {
    // An I/O unit far below one partition's edge file makes the tracked
    // build's count and place passes each read the file in several
    // chunks, and the sparse scatter's ranged reads span several runs.
    let io_unit = 512;
    let g = generators::erdos_renyi(600, 3000, 13);
    let root = std::env::temp_dir().join("xstream_frontier_chunked_index");
    let _ = std::fs::remove_dir_all(&root);
    let store = StreamStore::new(&root, io_unit).expect("store");
    let cfg = spill_cfg().with_io_unit(io_unit).with_frontier_threshold(0);
    let p = bfs::Bfs::new();
    let mut e = DiskEngine::from_graph(store, &g, &p, cfg).expect("engine");
    let (store, part) = (e.store(), *e.partitioner());
    for p in part.iter() {
        let edges: Vec<Edge> = decode_records(&store.read_all(&edge_stream(p)).expect("edges"));
        assert!(
            edges.len() * Edge::SIZE > 4 * io_unit,
            "partition {p} fits in too few reads"
        );
        // Within a run, edges keep their input order: the file is the
        // partition's input edges, stably grouped by source.
        let mut expect: Vec<Edge> = g
            .edges()
            .iter()
            .filter(|e| part.partition_of(e.src) == p)
            .copied()
            .collect();
        expect.sort_by_key(|e| e.src);
        assert_eq!(edges, expect, "partition {p}: edges.p");
    }
    // The run offsets stay in memory: no index stream on disk, none in
    // the manifest.
    let on_disk: Vec<String> = std::fs::read_dir(&root)
        .expect("store dir")
        .map(|d| d.expect("entry").file_name().into_string().expect("utf-8"))
        .collect();
    assert!(
        !on_disk.iter().any(|n| n.starts_with("index.")),
        "{on_disk:?}"
    );
    assert!(
        !e.manifest()
            .entries
            .iter()
            .any(|s| s.name.starts_with("index.")),
        "{:?}",
        e.manifest()
    );
    // Forced sparse, every active partition scatters from the resident
    // offsets through ranged reads; the levels are the literal §2
    // loop's, bitwise.
    let (levels, stats) = bfs::run(&mut e, &p, 7);
    assert!(
        stats.totals().partitions_sparse > 0,
        "the sparse path was never taken"
    );
    let mut oracle = OracleEngine::new(g.num_vertices(), g.edges().to_vec(), &p);
    assert_eq!(levels, bfs::run(&mut oracle, &p, 7).0);
    drop(e);
    let _ = std::fs::remove_dir_all(&root);
}
