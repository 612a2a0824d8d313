//! Pinning differential tests (acceptance gate for the topology-aware
//! worker pool): `--pin-workers=cores` / `nodes` must be *placement*
//! optimizations only — PageRank and WCC, on both engines, with the
//! out-of-core runs forced through the spill path, must produce
//! results identical to unpinned runs. On a single-CPU or
//! affinity-restricted environment (like this repo's CI container)
//! the pin plan degrades to a no-op, which these tests also cover: the
//! engines must behave identically whether the plan materialized or
//! not, and engine teardown must leave the calling thread's affinity
//! untouched.

use xstream::algorithms::{pagerank, wcc};
use xstream::core::{EngineConfig, PinMode};
use xstream::disk::DiskEngine;
use xstream::graph::{generators, EdgeList};
use xstream::memory::InMemoryEngine;
use xstream::storage::topology::current_affinity;
use xstream::storage::StreamStore;

fn temp_store(tag: &str) -> StreamStore {
    let root = std::env::temp_dir().join(format!("xstream_pin_{tag}"));
    let _ = std::fs::remove_dir_all(&root);
    StreamStore::new(&root, 1 << 13).expect("store")
}

/// Forced-spill disk configuration (same shape as the disk
/// differential tests: every superstep spills several times).
fn spill_cfg(threads: usize, pin: PinMode) -> EngineConfig {
    EngineConfig {
        in_memory_updates: false,
        ..EngineConfig::default()
            .with_threads(threads)
            .with_io_unit(1 << 13)
            .with_memory_budget(1 << 20)
            .with_pinning(pin)
    }
}

fn test_graph() -> EdgeList {
    generators::preferential_attachment(600, 6, 23)
}

/// Update application order varies run to run (work stealing moves
/// partitions between slices nondeterministically, pinned or not), so
/// float sums agree only up to reassociation — the same tolerance the
/// disk differential tests use.
fn assert_ranks_close(a: &[f32], b: &[f32], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}");
    for (v, (x, y)) in a.iter().zip(b).enumerate() {
        assert!((x - y).abs() < 1e-5, "{what} vertex {v}: {x} vs {y}");
    }
}

#[test]
fn pinned_pagerank_matches_unpinned_on_both_engines() {
    let g = test_graph();
    let degrees = g.out_degrees();
    let p = pagerank::Pagerank;
    let affinity_before = current_affinity();

    // In-memory engine.
    let mem_cfg = |pin| {
        EngineConfig::default()
            .with_threads(2)
            .with_partitions(8)
            .with_pinning(pin)
    };
    let baseline = {
        let mut e = InMemoryEngine::from_graph(&g, &p, mem_cfg(PinMode::Off));
        pagerank::run(&mut e, &p, &degrees, 5).0
    };
    for pin in [PinMode::Cores, PinMode::Nodes] {
        let mut e = InMemoryEngine::from_graph(&g, &p, mem_cfg(pin));
        let (ranks, _) = pagerank::run(&mut e, &p, &degrees, 5);
        assert_ranks_close(&ranks, &baseline, &format!("in-memory, {pin:?}"));
    }

    // Out-of-core engine, forced spill.
    let disk_baseline = {
        let store = temp_store("pr_off");
        let mut e = DiskEngine::from_graph(store, &g, &p, spill_cfg(2, PinMode::Off)).unwrap();
        let (ranks, stats) = pagerank::run(&mut e, &p, &degrees, 5);
        assert!(stats.totals().bytes_written > 0, "spill path not taken");
        ranks
    };
    for pin in [PinMode::Cores, PinMode::Nodes] {
        let store = temp_store(&format!("pr_{pin:?}"));
        let mut e = DiskEngine::from_graph(store, &g, &p, spill_cfg(2, pin)).unwrap();
        let (ranks, _) = pagerank::run(&mut e, &p, &degrees, 5);
        assert_ranks_close(&ranks, &disk_baseline, &format!("disk, {pin:?}"));
    }

    // Engine teardown restored whatever affinity this thread had.
    assert_eq!(current_affinity(), affinity_before);
}

#[test]
fn pinned_wcc_matches_unpinned_on_both_engines() {
    let g = test_graph().to_undirected();

    // WCC labels are integer minima — order-insensitive, so these
    // comparisons are exact. (`Wcc` carries a round counter, hence a
    // fresh program per run.)
    let baseline = {
        let p = wcc::Wcc::new();
        let mut e = InMemoryEngine::from_graph(
            &g,
            &p,
            EngineConfig::default().with_threads(2).with_partitions(8),
        );
        wcc::run(&mut e, &p).0
    };

    for pin in [PinMode::Cores, PinMode::Nodes] {
        let p = wcc::Wcc::new();
        let mut mem = InMemoryEngine::from_graph(
            &g,
            &p,
            EngineConfig::default()
                .with_threads(2)
                .with_partitions(8)
                .with_pinning(pin),
        );
        let (labels, _) = wcc::run(&mut mem, &p);
        assert_eq!(labels, baseline, "in-memory, {pin:?}");

        let p = wcc::Wcc::new();
        let store = temp_store(&format!("wcc_{pin:?}"));
        let mut disk = DiskEngine::from_graph(store, &g, &p, spill_cfg(4, pin)).unwrap();
        let (labels, stats) = wcc::run(&mut disk, &p);
        assert!(stats.totals().bytes_written > 0, "spill path not taken");
        assert_eq!(labels, baseline, "disk, {pin:?}");
    }
}

#[test]
fn pinned_runs_report_capacity_gauges() {
    // The capacity gauges must be populated with pinning on (the
    // output buffers' blocks are first touched by the pinned workers
    // that fill them).
    let g = test_graph().to_undirected();
    let p = wcc::Wcc::new();
    let store = temp_store("gauges");
    let mut disk = DiskEngine::from_graph(store, &g, &p, spill_cfg(2, PinMode::Cores)).unwrap();
    let (_, stats) = wcc::run(&mut disk, &p);
    let t = stats.totals();
    assert!(t.shuffle_capacity > 0, "capacity gauge empty");
    assert!(t.shuffle_high_water > 0, "high-water gauge empty");
    assert!(t.shuffle_budget > 0, "budget gauge empty");
    // The residency gauge is finite and positive.
    let r = t.buffer_residency_pct();
    assert!(r > 0.0 && r.is_finite(), "residency {r}% out of range");
}
