//! Steady-state allocation test for the in-memory superstep at one and
//! two threads, on a dense program.
//!
//! Own binary on purpose: `alloc_stats` counters are process-wide, so a
//! sibling test allocating during a measurement window fails it (same
//! discipline as `alloc_steady_state.rs`).

use xstream::core::{Edge, EdgeProgram, Engine, EngineConfig, OracleEngine, VertexId};
use xstream::graph::generators;
use xstream::memory::InMemoryEngine;

/// In-degree counting: one scatter pass, gather adds 1.
struct DegreeCount;

impl EdgeProgram for DegreeCount {
    type State = u32;
    type Update = u32;

    fn init(&self, _v: VertexId) -> u32 {
        0
    }

    fn scatter(&self, _s: &u32, _e: &Edge) -> Option<u32> {
        Some(1)
    }

    fn gather(&self, d: &mut u32, u: &u32) -> bool {
        *d += *u;
        true
    }
}

fn engine_cfg(threads: usize, partitions: usize) -> EngineConfig {
    EngineConfig::default()
        .with_threads(threads)
        .with_partitions(partitions)
}

#[test]
fn steady_state_superstep_is_allocation_free() {
    let g = generators::erdos_renyi(2000, 20_000, 13).to_undirected();
    // Negative control: the counters see the sequential oracle's fresh
    // update list.
    let mut oracle = OracleEngine::new(g.num_vertices(), g.edges().to_vec(), &DegreeCount);
    assert!(
        oracle.scatter_gather(&DegreeCount).alloc_count > 0,
        "oracle superstep unexpectedly allocation-free"
    );
    for threads in [1usize, 2] {
        let mut e = InMemoryEngine::from_graph(&g, &DegreeCount, engine_cfg(threads, 64));
        // The layout is sized at build: the first superstep is
        // allocation-free too.
        let first = e.scatter_gather(&DegreeCount);
        assert_eq!(
            first.alloc_count, 0,
            "threads={threads}: first superstep allocated {} bytes",
            first.alloc_bytes
        );
        // Sibling tests share the process-wide counters; accept the
        // first interference-free window.
        let clean_window = xstream::core::alloc_stats::any_allocation_free_window(20, || {
            e.scatter_gather(&DegreeCount);
        });
        assert!(
            clean_window,
            "threads={threads}: steady-state superstep allocated in every window"
        );
    }
}
