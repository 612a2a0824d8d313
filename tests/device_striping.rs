//! Per-device striped I/O tests (paper Fig. 15: separate edge and
//! update devices).
//!
//! A two-device `device_fn` must (a) route every stream family's
//! traffic to the device it is mapped to — asserted through the
//! `iostats` per-device counters — (b) actually service both devices
//! *concurrently* during a superstep — asserted through the traced
//! event timeline: update writes on device 1 land inside the window
//! in which device 0 is still streaming edges — and (c) leave results
//! bit-identical to the single-device run, since placement must never
//! change semantics.

use std::sync::Arc;

use xstream::algorithms::wcc;
use xstream::core::config::MAX_MAPPED_DEVICES;
use xstream::core::{DeviceMap, EngineConfig};
use xstream::disk::DiskEngine;
use xstream::graph::generators;
use xstream::storage::iostats::IoKind;
use xstream::storage::{IoAccounting, StreamStore};

fn two_device_store(tag: &str, tracing: bool) -> (StreamStore, Arc<IoAccounting>) {
    let root = std::env::temp_dir().join(format!("xstream_devstripe_{tag}"));
    let _ = std::fs::remove_dir_all(&root);
    let map = DeviceMap::new(0, 1);
    let acc = Arc::new(IoAccounting::new(tracing));
    let store = StreamStore::new(&root, 1 << 13)
        .unwrap()
        .with_accounting(Arc::clone(&acc))
        .with_device_fn(map.num_devices(), move |name| map.device_of(name));
    (store, acc)
}

/// Forced-spill configuration over several partitions, so both the
/// edge streams (device 0) and the update streams (device 1) carry
/// real traffic every superstep.
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

#[test]
fn device_map_bound_matches_storage_accounting() {
    // core::config::MAX_MAPPED_DEVICES is declared in the core crate
    // (which storage depends on, so it cannot import the accounting
    // constant); this pins the two together.
    assert_eq!(
        MAX_MAPPED_DEVICES as usize,
        xstream::storage::iostats::MAX_DEVICES
    );
}

#[test]
fn traffic_lands_on_the_mapped_devices() {
    let g = generators::erdos_renyi(600, 8000, 41).to_undirected();
    let (store, acc) = two_device_store("routing", false);
    let program = wcc::Wcc::new();
    let mut disk = DiskEngine::from_graph(store, &g, &program, spill_cfg()).unwrap();
    acc.reset(); // Discard pre-processing; measure supersteps only.
    let it = disk.try_scatter_gather(&program).unwrap();
    assert!(it.updates_generated > 0);

    let snap = disk.store().accounting().snapshot();
    // Device 0: edge streams — read every superstep, never written
    // after pre-processing.
    assert!(
        snap.per_device[0].bytes_read > 0,
        "no edge reads on device 0"
    );
    assert_eq!(
        snap.per_device[0].bytes_written, 0,
        "non-edge traffic written to device 0"
    );
    // Device 1: update streams — spilled during scatter, streamed back
    // during gather.
    assert!(
        snap.per_device[1].bytes_written > 0,
        "no update spills on device 1"
    );
    assert!(
        snap.per_device[1].bytes_read > 0,
        "no update reads on device 1"
    );
    // The per-device split is exact: totals add up, and exactly the
    // two mapped devices were engaged.
    assert_eq!(snap.active_devices(), 2);
    assert_eq!(snap.bytes_read(), it.bytes_read);
    assert_eq!(snap.bytes_written(), it.bytes_written);
}

#[test]
fn both_devices_service_io_concurrently() {
    // Enough updates (~160K × 8 B) to cross the 1 MB spill threshold
    // mid-scatter, so the device-1 writer runs while device 0 is
    // still streaming edges.
    let g = generators::erdos_renyi(2000, 80_000, 42).to_undirected();
    let (store, acc) = two_device_store("overlap", true);
    let program = wcc::Wcc::new();
    let mut disk = DiskEngine::from_graph(store, &g, &program, spill_cfg()).unwrap();
    acc.reset();
    disk.try_scatter_gather(&program).unwrap();

    let trace = disk.store().accounting().trace();
    let edge_reads: Vec<u64> = trace
        .iter()
        .filter(|e| e.device == 0 && e.kind == IoKind::Read)
        .map(|e| e.at_ns)
        .collect();
    let update_writes: Vec<u64> = trace
        .iter()
        .filter(|e| e.device == 1 && e.kind == IoKind::Write)
        .map(|e| e.at_ns)
        .collect();
    assert!(!edge_reads.is_empty() && !update_writes.is_empty());
    // The update-device writer thread must land spills while the
    // edge-device reader is still streaming edges of the same scatter
    // phase — i.e. inside the edge-read window, not after it.
    let edge_window_end = *edge_reads.iter().max().unwrap();
    let first_update_write = *update_writes.iter().min().unwrap();
    assert!(
        first_update_write < edge_window_end,
        "update device idled until the edge device finished \
         (first update write {first_update_write} ns, edge reads end {edge_window_end} ns)"
    );
}

#[test]
fn two_device_run_matches_single_device_run() {
    let g = generators::erdos_renyi(700, 3000, 43).to_undirected();
    let single = {
        let program = wcc::Wcc::new();
        let root = std::env::temp_dir().join("xstream_devstripe_single");
        let _ = std::fs::remove_dir_all(&root);
        let store = StreamStore::new(&root, 1 << 13).unwrap();
        let mut disk = DiskEngine::from_graph(store, &g, &program, spill_cfg()).unwrap();
        let (labels, _) = wcc::run(&mut disk, &program);
        labels
    };
    // The program carries the activity round, so each engine gets a
    // fresh instance.
    let program = wcc::Wcc::new();
    let (store, _) = two_device_store("differential", false);
    // Per-device writer/reader threads with parallel gather on top.
    let cfg = spill_cfg().with_threads(4);
    let mut disk = DiskEngine::from_graph(store, &g, &program, cfg).unwrap();
    let (labels, stats) = wcc::run(&mut disk, &program);
    assert!(stats.totals().bytes_written > 0, "spill path not exercised");
    assert_eq!(labels, single);
}
