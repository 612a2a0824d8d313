//! The `scatter_gather` benchmark: the pooled fused pipeline on an
//! RMAT scale-18 graph (2^18 vertices, 16× edge factor ≈ 4.2M edges),
//! 16 worker threads.
//!
//! Measures one full scatter → shuffle → gather superstep of a
//! constant-volume program (every edge emits an update every
//! iteration, the worst case for shuffle traffic):
//!
//! * `pooled_fused_*` — the production pipeline: the static
//!   [`xstream_storage::UpdateLayout`] laid out at build, scatter fused
//!   with the first shuffle stage, per-group remaining stages,
//!   merge-free gather, persistent worker pool.
//!
//! Run with `CRITERION_JSON=<path> cargo bench --bench scatter_gather`
//! to record the JSON baseline (`BENCH_superstep.json` at the repo
//! root). The benchmark also *asserts* the pooled pipeline's
//! steady-state allocation counter stays at zero, so regressions fail
//! loudly rather than silently skewing numbers.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

use xstream_core::{Edge, EdgeProgram, Engine, EngineConfig, VertexId};
use xstream_graph::datasets::rmat_scale;
use xstream_memory::InMemoryEngine;

/// Constant-volume scatter: every edge emits, every update applies —
/// the superstep cost is identical across iterations, which makes the
/// per-iteration comparison meaningful.
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
        *d = d.wrapping_add(*u);
        true
    }
}

fn bench_superstep(c: &mut Criterion) {
    let g = rmat_scale(18);
    let edges = g.num_edges() as u64;

    // Paper-faithful automatic partitioning (single-stage plan at this
    // scale) and a forced many-partition configuration that exercises
    // several in-place shuffle stages after the fused one. Work
    // stealing is disabled so the partition → thread assignment (and
    // with it each slice's buffer high-water mark) is deterministic —
    // that makes the zero-allocation assertion below exact; stealing
    // convergence has its own test (tests/alloc_steady_state.rs).
    let configs: [(&str, EngineConfig); 2] = [
        (
            "rmat18_auto",
            EngineConfig::default()
                .with_threads(16)
                .with_work_stealing(false),
        ),
        (
            "rmat18_k1024_f16",
            EngineConfig::default()
                .with_threads(16)
                .with_partitions(1024)
                .with_shuffle_fanout(16)
                .with_work_stealing(false),
        ),
    ];

    let mut group = c.benchmark_group("scatter_gather");
    group.sample_size(12);
    group.throughput(Throughput::Elements(edges));

    for (tag, cfg) in &configs {
        let mut pooled = InMemoryEngine::from_graph(&g, &DegreeCount, cfg.clone());
        // Warm the pool so the measurement is the steady state.
        pooled.scatter_gather(&DegreeCount);
        group.bench_function(format!("pooled_fused_{tag}"), |b| {
            b.iter(|| black_box(pooled.scatter_gather(&DegreeCount)))
        });

        // Steady-state allocation flatness, asserted where the numbers
        // are produced: after the timed iterations above the pool is
        // deep in steady state, so every further superstep must report
        // a zero allocation count.
        let alloc_counts: Vec<u64> = (0..6)
            .map(|_| pooled.scatter_gather(&DegreeCount).alloc_count)
            .collect();
        println!("{tag}: steady-state alloc counts per superstep: {alloc_counts:?}");
        assert!(
            alloc_counts.iter().all(|&n| n == 0),
            "{tag}: pooled pipeline allocated in steady state: {alloc_counts:?}"
        );
    }
    group.finish();
}

criterion_group!(benches, bench_superstep);
criterion_main!(benches);
