//! The `disk_superstep` benchmark: the pooled, fully overlapped
//! out-of-core pipeline on an RMAT scale-18 graph (2^18 vertices,
//! ≈ 8.4M undirected edges), forced onto the spill path.
//!
//! Measures one full out-of-core superstep of a constant-volume
//! program (every edge emits an update every iteration):
//!
//! * `pooled_overlap_*` — the production pipeline: persistent
//!   read-ahead and writer threads with recycling buffer pools,
//!   parked worker pool, fused scatter → per-partition buckets,
//!   truncate-reuse update streams. Zero steady-state allocation,
//!   asserted below.
//! * `pooled_overlap_*_noverify` — the same pipeline with
//!   verify-on-read disabled; the delta against the default is the
//!   per-chunk CRC cost.
//!
//! Run with `CRITERION_JSON=<path> cargo bench --bench disk_superstep`
//! to record the JSON baseline (`BENCH_disk_superstep.json` at the
//! repo root).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

use xstream_core::{Edge, EdgeProgram, EngineConfig, VertexId};
use xstream_disk::DiskEngine;
use xstream_graph::datasets::rmat_scale;
use xstream_storage::StreamStore;

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

/// Forced-spill configuration: the §3.2 in-memory-updates shortcut is
/// disabled so every superstep runs the full disk round trip — the
/// paper's out-of-core regime, and the path the pooled redesign
/// targets. 16 threads and a 64 MB budget over 1 MB I/O units give a
/// handful of streaming partitions and several spills per superstep.
fn disk_cfg() -> EngineConfig {
    EngineConfig {
        in_memory_updates: false,
        ..EngineConfig::default()
            .with_threads(16)
            .with_io_unit(1 << 20)
            .with_memory_budget(64 << 20)
    }
}

fn fresh_store(tag: &str) -> StreamStore {
    let root = std::env::temp_dir().join(format!("xstream_bench_disk_{tag}"));
    let _ = std::fs::remove_dir_all(&root);
    StreamStore::new(&root, 1 << 20).unwrap()
}

fn bench_disk_superstep(c: &mut Criterion) {
    let g = rmat_scale(18);
    let edges = g.num_edges() as u64;

    let mut group = c.benchmark_group("disk_superstep");
    group.sample_size(10);
    group.throughput(Throughput::Elements(edges));

    let mut pooled =
        DiskEngine::from_graph(fresh_store("pooled"), &g, &DegreeCount, disk_cfg()).unwrap();
    // Warm the pools (buffer capacities converge over the first few
    // supersteps) so the measurement is the steady state.
    for _ in 0..3 {
        pooled.try_scatter_gather(&DegreeCount).unwrap();
    }
    group.bench_function("pooled_overlap_rmat18_spill", |b| {
        b.iter(|| black_box(pooled.try_scatter_gather(&DegreeCount).unwrap()))
    });

    // Checksum-verification overhead: the pooled bench above runs with
    // the default verify-on-read (every durable chunk CRC-checked as it
    // leaves disk); this variant disables it. The delta between the two
    // is the integrity tax, gated like any other number by bench_gate.
    let mut noverify = DiskEngine::from_graph(
        fresh_store("noverify"),
        &g,
        &DegreeCount,
        disk_cfg().with_verify_reads(false),
    )
    .unwrap();
    for _ in 0..3 {
        noverify.try_scatter_gather(&DegreeCount).unwrap();
    }
    group.bench_function("pooled_overlap_rmat18_spill_noverify", |b| {
        b.iter(|| black_box(noverify.try_scatter_gather(&DegreeCount).unwrap()))
    });
    drop(noverify);

    // Steady-state allocation flatness, asserted where the numbers are
    // produced — with verification on (the default), so the gate proves
    // the CRC path recycles its buffers too. The writer's recycle pool
    // assigns buffers to
    // partitions by I/O timing, so capacities may ratchet for a few
    // supersteps before settling; demand a run of three consecutive
    // zero-allocation supersteps within a bounded window.
    let mut consecutive_zero = 0;
    let mut counts = Vec::new();
    for _ in 0..12 {
        let n = pooled.try_scatter_gather(&DegreeCount).unwrap().alloc_count;
        counts.push(n);
        if n == 0 {
            consecutive_zero += 1;
            if consecutive_zero >= 3 {
                break;
            }
        } else {
            consecutive_zero = 0;
        }
    }
    println!("pooled steady-state alloc counts per superstep: {counts:?}");
    assert!(
        consecutive_zero >= 3,
        "pooled disk pipeline failed to reach a zero-allocation steady state: {counts:?}"
    );
    drop(pooled);

    group.finish();
    for tag in ["pooled", "noverify"] {
        let _ =
            std::fs::remove_dir_all(std::env::temp_dir().join(format!("xstream_bench_disk_{tag}")));
    }
}

criterion_group!(benches, bench_disk_superstep);
criterion_main!(benches);
