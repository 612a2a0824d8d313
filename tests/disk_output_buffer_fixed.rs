//! The out-of-core engine's scatter output is a fixed stream buffer
//! (§3.3): both output buffers are sized at build and allocated once,
//! so a fresh engine's first superstep grows no bucket, the reported
//! capacity never moves, and the answers stay the oracle's.
//!
//! Lives in its own integration-test binary on purpose: the allocation
//! counters of `xstream::core::alloc_stats` are process-wide, and a
//! dedicated binary means no sibling test allocates concurrently.

use xstream::core::{Edge, EdgeProgram, Engine, EngineConfig, OracleEngine, VertexId};
use xstream::disk::DiskEngine;
use xstream::graph::{generators, EdgeList};
use xstream::storage::StreamStore;

/// Every edge emits every superstep, and the states sum their updates
/// with wrapping adds: exact whatever the update order.
struct WrappingSum;

impl EdgeProgram for WrappingSum {
    type State = u32;
    type Update = u32;

    fn init(&self, v: VertexId) -> u32 {
        v
    }

    fn scatter(&self, s: &u32, e: &Edge) -> Option<u32> {
        Some(s.wrapping_mul(31).wrapping_add(e.dst + 1))
    }

    fn gather(&self, d: &mut u32, u: &u32) -> bool {
        *d = d.wrapping_add(*u);
        true
    }
}

/// About 400K edges, three quarters of them into vertex 0: a star
/// that sends most updates to partition 0, plus a uniform remainder.
fn skewed_graph() -> EdgeList {
    let n = 20_000u32;
    let mut edges: Vec<Edge> = (0..300_000u32)
        .map(|i| Edge::new(1 + i % (n - 1), 0))
        .collect();
    edges.extend_from_slice(generators::erdos_renyi(n as usize, 100_000, 5).edges());
    EdgeList::new(n as usize, edges)
}

#[test]
fn output_buffers_are_fixed_at_build() {
    let g = skewed_graph();
    let k = 64usize;
    let root = std::env::temp_dir().join("xstream_disk_output_buffer_fixed");
    // The first superstep's allocations of a fresh engine, per thread
    // count.
    let mut first = Vec::new();
    for threads in [1usize, 2, 4] {
        let dir = root.join(format!("t{threads}"));
        let _ = std::fs::remove_dir_all(&dir);
        let store = StreamStore::new(&dir, 1 << 13).unwrap();
        // Forced spill: every update takes the disk round trip, in
        // several windows of the 1 MiB buffer floor per superstep.
        let cfg = EngineConfig {
            in_memory_updates: false,
            ..EngineConfig::default()
                .with_threads(threads)
                .with_partitions(k)
                .with_io_unit(1 << 13)
                .with_memory_budget(1 << 20)
        };
        let mut engine = DiskEngine::from_graph(store, &g, &WrappingSum, cfg).unwrap();
        let mut oracle = OracleEngine::new(g.num_vertices(), g.edges().to_vec(), &WrappingSum);
        let mut capacity = None;
        for step in 0..4 {
            let it = engine.try_scatter_gather(&WrappingSum).unwrap();
            let want = oracle.scatter_gather(&WrappingSum);
            assert_eq!(it.updates_generated, want.updates_generated, "step {step}");
            assert!(
                it.bytes_written >= 3 << 20,
                "threads={threads}: fewer than three spill windows"
            );
            if step == 0 {
                first.push((threads, it.alloc_count));
            }
            let cap = *capacity.get_or_insert(it.shuffle_capacity);
            assert_eq!(it.shuffle_capacity, cap, "threads={threads} step {step}");
            assert!(it.shuffle_high_water >= it.shuffle_budget);
            assert!(it.shuffle_high_water <= cap / 2);
            let r = it.buffer_residency_pct();
            assert!(
                r > 0.0 && r.is_finite(),
                "threads={threads} step {step}: residency {r}% out of range"
            );
            assert_eq!(
                engine.states(),
                oracle.states(),
                "threads={threads} step {step}"
            );
        }
    }
    // Each worker adds K (worker, partition) buckets. A bucket that
    // grows on demand allocates in a fresh engine's first superstep,
    // several times over; a buffer sized at build does not, so a worker
    // adds fewer first-superstep allocations than it adds buckets. The
    // rest is the storage layer's warm-up (per-stream checksum vectors,
    // pooled read chunks and writer buffers, about one per partition),
    // so with more than one worker the first superstep allocates fewer
    // times than it has buckets.
    let (_, base) = first[0];
    for &(threads, allocs) in &first[1..] {
        let (buckets, added) = (threads * k, (threads - 1) * k);
        assert!(
            allocs.saturating_sub(base) < added as u64,
            "threads={threads}: the first superstep allocated {allocs} times against \
             {base} at one thread, at least one more per added bucket ({added})"
        );
        assert!(
            allocs < buckets as u64,
            "threads={threads}: the first superstep allocated {allocs} times, \
             not fewer than its {buckets} (worker, partition) buckets"
        );
    }
    let _ = std::fs::remove_dir_all(&root);
}
