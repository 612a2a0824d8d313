//! Forced-spill differential tests: the pooled out-of-core pipeline
//! must match the in-memory engine (and the sequential §2
//! `OracleEngine`) on real algorithms, not just min-label propagation.
//!
//! The configurations force the update-file path (`in_memory_updates:
//! false`) with a spill threshold small enough that every superstep
//! spills several times, so the recycled writer buffers, the
//! read-ahead gather and the truncate-reuse cycle are all exercised
//! under PageRank's floating-point payloads and WCC's activity gating.

use xstream::algorithms::{pagerank, wcc};
use xstream::core::{EngineConfig, OracleEngine};
use xstream::disk::DiskEngine;
use xstream::graph::{generators, EdgeList};
use xstream::storage::StreamStore;

fn temp_store(tag: &str) -> StreamStore {
    let root = std::env::temp_dir().join(format!("xstream_diskdiff_{tag}"));
    let _ = std::fs::remove_dir_all(&root);
    StreamStore::new(&root, 1 << 13).expect("store")
}

/// Forced-spill disk configuration: no §3.2 in-memory-updates
/// shortcut, small I/O units and budget so supersteps spill
/// repeatedly.
fn spill_cfg(threads: usize) -> EngineConfig {
    EngineConfig {
        in_memory_updates: false,
        ..EngineConfig::default()
            .with_threads(threads)
            .with_io_unit(1 << 13)
            .with_memory_budget(1 << 20)
    }
}

fn pagerank_graph() -> EdgeList {
    generators::preferential_attachment(600, 6, 11)
}

#[test]
fn pagerank_forced_spill_matches_in_memory() {
    let g = pagerank_graph();
    let degrees = g.out_degrees();
    let p = pagerank::Pagerank;
    let (mem_ranks, _) = pagerank::pagerank_in_memory(
        &g,
        5,
        EngineConfig::default().with_threads(2).with_partitions(8),
    );
    for threads in [1usize, 2] {
        let store = temp_store(&format!("pr_t{threads}"));
        let mut disk = DiskEngine::from_graph(store, &g, &p, spill_cfg(threads)).expect("engine");
        let (disk_ranks, stats) = pagerank::run(&mut disk, &p, &degrees, 5);
        // The spill path must actually have been taken.
        assert!(
            stats.totals().bytes_written > 0,
            "threads={threads}: no update spills occurred"
        );
        for (v, (m, d)) in mem_ranks.iter().zip(&disk_ranks).enumerate() {
            assert!(
                (m - d).abs() < 1e-5,
                "threads={threads} vertex {v}: {m} vs {d}"
            );
        }
    }
}

#[test]
fn pagerank_forced_spill_matches_reference_pipeline() {
    // Superstep by superstep, the pooled path must stream, generate
    // and apply exactly the updates the sequential §2 oracle does
    // (floating-point sums may differ only by ordering).
    let g = pagerank_graph();
    let degrees = g.out_degrees();
    let p = pagerank::Pagerank;

    let mut pooled =
        DiskEngine::from_graph(temp_store("prref_pooled"), &g, &p, spill_cfg(2)).expect("engine");
    let mut reference = OracleEngine::new(g.num_vertices(), g.edges().to_vec(), &p);

    // Mirror pagerank::run on both engines, superstep by superstep.
    use xstream::core::Engine;
    let n = g.num_vertices();
    let uniform = 1.0 / n as f32;
    let base = (1.0 - pagerank::DAMPING) / n as f32;
    let init = |s: &mut pagerank::PrState, v: u32| {
        *s = pagerank::PrState {
            rank: uniform,
            acc: 0.0,
            degree: degrees[v as usize] as f32,
        }
    };
    pooled.vertex_map(&mut |v, s| init(s, v));
    reference.vertex_map(&mut |v, s| init(s, v));
    let mut spilled = 0;
    for step in 0..5 {
        let a = pooled.try_scatter_gather(&p).expect("pooled superstep");
        let b = reference.scatter_gather(&p);
        spilled += a.bytes_written;
        assert_eq!(a.edges_streamed, b.edges_streamed, "step {step}");
        assert_eq!(a.updates_generated, b.updates_generated, "step {step}");
        assert_eq!(a.updates_applied, b.updates_applied, "step {step}");
        assert_eq!(a.vertices_changed, b.vertices_changed, "step {step}");
        let finish = &mut |_v: u32, s: &mut pagerank::PrState| {
            s.rank = base + pagerank::DAMPING * s.acc;
            s.acc = 0.0;
        };
        pooled.vertex_map(finish);
        reference.vertex_map(finish);
    }
    assert!(spilled > 0, "no update spills occurred");
    let pooled_ranks: Vec<f32> = pooled.states().iter().map(|s| s.rank).collect();
    let reference_ranks: Vec<f32> = reference.states().iter().map(|s| s.rank).collect();
    for (v, (a, b)) in pooled_ranks.iter().zip(&reference_ranks).enumerate() {
        assert!(
            (a - b).abs() < 1e-5,
            "vertex {v}: pooled {a} vs reference {b}"
        );
    }
}

#[test]
fn pagerank_forced_spill_parallel_gather_matches_in_memory() {
    // Fig. 14-style gather scaling: with several streaming partitions
    // and the vertex array in memory, partitions gather concurrently
    // on the worker pool. Every gather parallelism must reproduce the
    // in-memory engine's ranks (update order may differ, hence the
    // float tolerance).
    let g = pagerank_graph();
    let degrees = g.out_degrees();
    let p = pagerank::Pagerank;
    let (mem_ranks, _) = pagerank::pagerank_in_memory(
        &g,
        5,
        EngineConfig::default().with_threads(2).with_partitions(8),
    );
    for threads in [1usize, 2, 4] {
        let store = temp_store(&format!("pr_gt{threads}"));
        let cfg = spill_cfg(threads).with_partitions(4);
        let mut disk = DiskEngine::from_graph(store, &g, &p, cfg).expect("engine");
        let (disk_ranks, stats) = pagerank::run(&mut disk, &p, &degrees, 5);
        assert!(
            stats.totals().bytes_written > 0,
            "threads={threads}: no update spills occurred"
        );
        for (v, (m, d)) in mem_ranks.iter().zip(&disk_ranks).enumerate() {
            assert!(
                (m - d).abs() < 1e-5,
                "threads={threads} vertex {v}: {m} vs {d}"
            );
        }
    }
}

#[test]
fn wcc_forced_spill_parallel_gather_matches_serial() {
    // The parallel gather must be bit-identical to the serial gather
    // on an order-insensitive program, at every lane count.
    let g = generators::erdos_renyi(800, 2400, 17).to_undirected();
    let serial = {
        // The program carries the activity round; every engine gets a
        // fresh instance.
        let program = wcc::Wcc::new();
        let store = temp_store("wcc_gt_serial");
        let cfg = spill_cfg(1).with_partitions(4);
        let mut disk = DiskEngine::from_graph(store, &g, &program, cfg).expect("engine");
        let (labels, _) = wcc::run(&mut disk, &program);
        labels
    };
    for threads in [2usize, 4] {
        let program = wcc::Wcc::new();
        let store = temp_store(&format!("wcc_gt{threads}"));
        let cfg = spill_cfg(threads).with_partitions(4);
        let mut disk = DiskEngine::from_graph(store, &g, &program, cfg).expect("engine");
        let (labels, _) = wcc::run(&mut disk, &program);
        assert_eq!(labels, serial, "threads={threads}");
    }
}

#[test]
fn wcc_forced_spill_matches_in_memory() {
    let g = generators::erdos_renyi(800, 2400, 17).to_undirected();
    let reference = {
        let (labels, _) = wcc::wcc_in_memory(
            &g,
            EngineConfig::default().with_threads(2).with_partitions(8),
        );
        labels
    };
    for threads in [1usize, 2] {
        let program = wcc::Wcc::new();
        let store = temp_store(&format!("wcc_t{threads}"));
        let mut disk =
            DiskEngine::from_graph(store, &g, &program, spill_cfg(threads)).expect("engine");
        let (labels, stats) = wcc::run(&mut disk, &program);
        assert!(
            stats.totals().bytes_written > 0,
            "threads={threads}: no update spills occurred"
        );
        assert_eq!(labels, reference, "threads={threads}");
        assert_eq!(
            wcc::count_components(&labels),
            wcc::count_components(&reference)
        );
    }
}

#[test]
fn wcc_on_disk_vertices_with_forced_spill() {
    // The heaviest configuration: vertex state on disk *and* updates
    // spilled — every storage path of the engine in one run.
    let g = generators::erdos_renyi(500, 1500, 23).to_undirected();
    let reference = {
        let (labels, _) = wcc::wcc_in_memory(
            &g,
            EngineConfig::default().with_threads(1).with_partitions(4),
        );
        labels
    };
    let program = wcc::Wcc::new();
    let cfg = EngineConfig {
        keep_vertices_in_memory: false,
        ..spill_cfg(2)
    };
    let store = temp_store("wcc_ondisk");
    let mut disk = DiskEngine::from_graph(store, &g, &program, cfg).expect("engine");
    let (labels, _) = wcc::run(&mut disk, &program);
    assert_eq!(labels, reference);
}
