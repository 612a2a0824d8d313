//! Allocation test for the in-memory superstep.
//!
//! This lives in its own integration-test binary on purpose: the
//! allocation counters of `xstream::core::alloc_stats` are
//! process-wide, and a dedicated binary with a single `#[test]` means
//! no sibling test can allocate concurrently and pollute the
//! measurement. The engine's own worker threads are part of the
//! measured region by design — the claim is that the *whole* superstep
//! (dispatch included) stays off the allocator, from the first one.

use xstream::core::{Edge, EdgeProgram, Engine, EngineConfig, OracleEngine, VertexId};
use xstream::graph::generators;
use xstream::memory::InMemoryEngine;

/// Constant-volume program: every edge emits an update every
/// iteration, filling the update layout's regions.
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
fn zero_heap_allocation_from_iteration_two_onward() {
    let g = generators::erdos_renyi(4000, 40_000, 99).to_undirected();

    // The update layout, its pass scratch and the work queues are all
    // sized at build, so the claim holds *strictly* from iteration 1,
    // whatever the partition → thread assignment: with or without work
    // stealing, on any thread count.
    for (threads, stealing) in [
        (1usize, true),
        (1, false),
        (2, false),
        (4, false),
        (2, true),
        (4, true),
    ] {
        let cfg = EngineConfig::default()
            .with_threads(threads)
            .with_partitions(64)
            .with_work_stealing(stealing);
        let mut engine = InMemoryEngine::from_graph(&g, &MinLabel, cfg);
        for iteration in 1..=6 {
            let it = engine.scatter_gather(&MinLabel);
            assert_eq!(
                it.alloc_count, 0,
                "threads={threads} stealing={stealing} iteration={iteration}: \
                 superstep allocated {} times ({} bytes)",
                it.alloc_count, it.alloc_bytes
            );
            assert_eq!(it.alloc_bytes, 0);
        }
    }

    // Negative control: the sequential oracle allocates a fresh update
    // list every superstep, and the counters must see it.
    let mut oracle = OracleEngine::new(g.num_vertices(), g.edges().to_vec(), &MinLabel);
    let oracle_allocs = oracle.scatter_gather(&MinLabel).alloc_count;
    assert!(
        oracle_allocs > 0,
        "oracle superstep unexpectedly allocation-free"
    );
}
