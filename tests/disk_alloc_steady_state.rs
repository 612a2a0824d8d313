//! Steady-state allocation test for the *out-of-core* pooled pipeline
//! (the disk-engine counterpart of `alloc_steady_state.rs`).
//!
//! Lives in its own integration-test binary on purpose: the allocation
//! counters of `xstream::core::alloc_stats` are process-wide, and a
//! dedicated binary means no sibling test allocates concurrently and
//! pollutes the measurement. The engine's persistent I/O threads and
//! worker pool are part of the measured region by design — the claim
//! is that a *whole* forced-spill superstep (reads, parallel scatter,
//! spills, writes, gather, truncate) stays off the allocator once the
//! pools are warm.

use xstream::core::EngineConfig;
use xstream::core::{Edge, EdgeProgram, Engine, OracleEngine, VertexId};
use xstream::disk::DiskEngine;
use xstream::graph::generators;
use xstream::storage::StreamStore;

/// Constant-volume program: every edge emits an update every
/// superstep, so the pooled buffers reach their high-water marks
/// quickly and stay exactly warm afterwards.
struct MinLabel;

impl EdgeProgram for MinLabel {
    type State = u32;
    type Update = u32;

    fn init(&self, v: VertexId) -> u32 {
        v
    }

    fn scatter(&self, s: &u32, _e: &Edge) -> Option<u32> {
        Some(*s)
    }

    fn gather(&self, d: &mut u32, u: &u32) -> bool {
        if u < d {
            *d = *u;
            true
        } else {
            false
        }
    }
}

#[test]
fn disk_supersteps_reach_an_allocation_free_steady_state() {
    let g = generators::erdos_renyi(4000, 40_000, 99).to_undirected();
    let root = std::env::temp_dir().join("xstream_disk_alloc_steady");
    let _ = std::fs::remove_dir_all(&root);

    // (threads, vertex state on disk) — the on-disk-vertices
    // configuration is the fully out-of-core regime: spilled updates
    // *and* per-partition vertex files, loaded into pooled scratch and
    // written back via truncate + append through cached handles. At
    // every thread count the engine's pooled I/O buffers must converge
    // to zero allocations. The scatter output buffers are sized at
    // build and never grow.
    for (threads, ondisk_vertices) in [(1usize, false), (2, false), (4, false), (2, true)] {
        let store = StreamStore::new(
            &root.join(format!("t{threads}_v{ondisk_vertices}")),
            1 << 13,
        )
        .unwrap();
        // Forced-spill configuration: the §3.2 in-memory-updates
        // shortcut is off, so every superstep exercises the full disk
        // round trip — spill serialization, background appends, the
        // read-ahead gather and the truncate TRIM.
        let cfg = EngineConfig {
            in_memory_updates: false,
            keep_vertices_in_memory: !ondisk_vertices,
            ..EngineConfig::default()
                .with_threads(threads)
                .with_io_unit(1 << 13)
                .with_memory_budget(1 << 20)
        };
        let mut engine = DiskEngine::from_graph(store, &g, &MinLabel, cfg).unwrap();

        let warmup = engine.try_scatter_gather(&MinLabel).unwrap();
        assert!(
            warmup.alloc_count > 0,
            "threads={threads}: superstep 1 should warm the pools"
        );
        assert!(
            warmup.updates_generated > 0 && warmup.bytes_written > 0,
            "threads={threads}: spill path not exercised"
        );

        // Buffer → partition assignment in the writer's recycle pool
        // depends on I/O timing, so its buffers' capacities converge
        // over a few supersteps rather than strictly at superstep 2.
        // Demand a run of five consecutive zero-allocation supersteps
        // within a bounded warm-up phase.
        let mut consecutive_zero = 0;
        let mut supersteps = 0;
        let mut last = warmup.clone();
        while consecutive_zero < 5 {
            supersteps += 1;
            assert!(
                supersteps <= 15,
                "threads={threads}: no allocation-free steady state \
                 within {supersteps} supersteps"
            );
            let it = engine.try_scatter_gather(&MinLabel).unwrap();
            assert!(it.updates_generated > 0, "constant-volume program stalled");
            if it.alloc_count == 0 {
                assert_eq!(it.alloc_bytes, 0);
                consecutive_zero += 1;
            } else {
                consecutive_zero = 0;
            }
            last = it;
        }
        // In the converged steady state the capacity gauges are
        // populated.
        assert!(
            last.shuffle_budget > 0 && last.shuffle_capacity > 0,
            "threads={threads}: capacity gauges empty at steady state"
        );

        // Negative control: the sequential oracle allocates a fresh
        // update list every superstep, and the counters must see it.
        let mut oracle = OracleEngine::new(g.num_vertices(), g.edges().to_vec(), &MinLabel);
        let oracle_step = oracle.scatter_gather(&MinLabel);
        assert!(
            oracle_step.alloc_count > 0,
            "threads={threads}: oracle superstep unexpectedly \
             allocation-free"
        );
    }
    let _ = std::fs::remove_dir_all(&root);
}
