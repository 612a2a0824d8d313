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

use xstream::core::{Edge, EdgeProgram, Engine, OracleEngine, VertexId};
use xstream::core::{EngineConfig, PinMode};
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

    // (threads, vertex state on disk, pinning) — the on-disk-vertices
    // configuration is the fully out-of-core regime: spilled updates
    // *and* per-partition vertex files, loaded into pooled scratch and
    // written back via truncate + append through cached handles. Every
    // thread count is swept with pinning off *and* on: the adaptive
    // capacity equalization must converge to zero allocations either
    // way (on this repo's 1-CPU CI container the pinned runs exercise
    // the graceful-no-op path; on real hardware they exercise the
    // pinned first-touch path).
    for (threads, ondisk_vertices, pin) in [
        (1usize, false, PinMode::Off),
        (1, false, PinMode::Cores),
        (2, false, PinMode::Off),
        (2, false, PinMode::Cores),
        (4, false, PinMode::Off),
        (4, false, PinMode::Cores),
        (2, true, PinMode::Off),
    ] {
        let store = StreamStore::new(
            &root.join(format!("t{threads}_v{ondisk_vertices}_p{pin:?}")),
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
                .with_pinning(pin)
        };
        let mut engine = DiskEngine::from_graph(store, &g, &MinLabel, cfg).unwrap();

        let warmup = engine.try_scatter_gather(&MinLabel).unwrap();
        assert!(
            warmup.alloc_count > 0,
            "threads={threads} pin={pin:?}: superstep 1 should warm the pools"
        );
        assert!(
            warmup.updates_generated > 0 && warmup.bytes_written > 0,
            "threads={threads} pin={pin:?}: spill path not exercised"
        );

        // Buffer → partition assignment in the writer's recycle pool
        // depends on I/O timing, so capacities converge over a few
        // supersteps rather than strictly at superstep 2 (and the
        // adaptive budget may shrink skew-era capacity once while its
        // envelopes settle). Demand a run of five consecutive
        // zero-allocation supersteps within a bounded ratchet phase.
        let mut consecutive_zero = 0;
        let mut supersteps = 0;
        let mut last = warmup.clone();
        while consecutive_zero < 5 {
            supersteps += 1;
            assert!(
                supersteps <= 15,
                "threads={threads} pin={pin:?}: no allocation-free steady state \
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
        // In the converged steady state the adaptive gauges are
        // populated and stable enough to report.
        assert!(
            last.shuffle_budget > 0 && last.shuffle_capacity > 0,
            "threads={threads} pin={pin:?}: capacity gauges empty at steady state"
        );

        // Negative control: the sequential oracle allocates a fresh
        // update list every superstep, and the counters must see it.
        let mut oracle = OracleEngine::new(g.num_vertices(), g.edges().to_vec(), &MinLabel);
        let oracle_step = oracle.scatter_gather(&MinLabel);
        assert!(
            oracle_step.alloc_count > 0,
            "threads={threads} pin={pin:?}: oracle superstep unexpectedly \
             allocation-free"
        );
    }
    let _ = std::fs::remove_dir_all(&root);
}
