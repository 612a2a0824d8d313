//! The in-memory engine's build allocates memory linear in the edges,
//! the vertices, and the update layout's T × fan0 region table — never
//! a table per thread on top, which would grow with the square of the
//! thread count at large partition counts.
//!
//! Own binary on purpose: `alloc_stats` counters are process-wide, so a
//! sibling test allocating during the build would inflate the count.

use std::mem::size_of;

use xstream::core::program::TargetedUpdate;
use xstream::core::{alloc_stats, Edge, EdgeProgram, EngineConfig, VertexId};
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

#[test]
fn build_allocation_is_linear_in_the_region_table() {
    let (n, m, k, threads) = (8192usize, 40_000usize, 4096usize, 8usize);
    let g = generators::erdos_renyi(n, m, 5);
    let m = g.num_edges();
    // One stage: the fused first digit is the destination partition, so
    // the region table is T × K with T = 4 × threads scatter tasks.
    let cfg = EngineConfig::default()
        .with_threads(threads)
        .with_partitions(k)
        .with_shuffle_fanout(k);
    let before = alloc_stats::snapshot();
    let engine = InMemoryEngine::from_graph(&g, &DegreeCount, cfg);
    let bytes = before.delta(&alloc_stats::snapshot()).bytes as usize;
    assert_eq!(engine.plan().stages, 1);
    let cells = 4 * threads * k;
    // The edges, placed once, and the update slots; the vertex states;
    // the placement's per-worker run table (K × workers runs of two
    // words); the region table (a start and a two-word cursor per
    // cell); 1 MiB for the pool, the queues and the rest.
    let bound = 2 * m * (size_of::<Edge>() + size_of::<TargetedUpdate<u32>>())
        + n * size_of::<u32>()
        + 2 * k * threads * 16
        + 3 * cells * size_of::<usize>()
        + (1 << 20);
    assert!(
        bytes <= bound,
        "build allocated {bytes} bytes, over the {bound}-byte bound \
         ({cells} region cells, {m} edges)"
    );
}
