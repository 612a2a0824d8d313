//! Criterion micro-benchmarks for the X-Stream building blocks:
//! record codec throughput, single- and multi-stage shuffles, the
//! build's placement by source vertex, the in-memory engine's
//! scatter-gather superstep, the sort baselines it competes
//! against, and the first touch of a bulk buffer from the system
//! allocator against the global one, which advises it onto huge pages.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;

use xstream_algorithms::{pagerank, wcc};
use xstream_core::alloc_stats::CountingAllocator;
use xstream_core::record::{decode_records, records_as_bytes};
use xstream_core::{Edge, EngineConfig};
use xstream_graph::datasets::rmat_scale;
use xstream_graph::sort::{counting_sort_by_source, quicksort_by_source};
use xstream_graph::Rmat;
use xstream_storage::shuffle::{multistage_shuffle, shuffle, CountingPlacement, MultiStagePlan};

fn bench_record_codec(c: &mut Criterion) {
    let edges: Vec<Edge> = (0..1_000_000u32)
        .map(|i| Edge::weighted(i, i.wrapping_mul(2654435761) >> 8, 1.0))
        .collect();
    let bytes = records_as_bytes(&edges).to_vec();
    let mut g = c.benchmark_group("record_codec");
    g.throughput(Throughput::Bytes(bytes.len() as u64));
    g.bench_function("encode_1m_edges", |b| {
        b.iter(|| black_box(records_as_bytes(black_box(&edges))))
    });
    g.bench_function("decode_1m_edges", |b| {
        b.iter(|| black_box(decode_records::<Edge>(black_box(&bytes))))
    });
    g.finish();
}

fn bench_shuffle(c: &mut Criterion) {
    let edges: Vec<Edge> = Rmat::new(18).generate().into_edges();
    let mut g = c.benchmark_group("shuffle");
    g.throughput(Throughput::Elements(edges.len() as u64));
    for k in [16usize, 256, 4096] {
        g.bench_with_input(BenchmarkId::new("single_stage", k), &k, |b, &k| {
            let shift = 18 - k.trailing_zeros();
            b.iter(|| black_box(shuffle(&edges, k, |e| (e.src >> shift) as usize)))
        });
    }
    for stages in [1u32, 2, 3] {
        let k = 4096usize;
        let plan = MultiStagePlan::with_stages(k, stages);
        g.bench_with_input(
            BenchmarkId::new("multistage_4096", stages),
            &plan,
            |b, plan| {
                let shift = 18 - 12;
                b.iter(|| {
                    black_box(multistage_shuffle(edges.clone(), *plan, |e| {
                        (e.src >> shift) as usize
                    }))
                })
            },
        );
    }
    // The in-memory build's tracked placement: the edges keyed by
    // source vertex, |V| = 2^18 keys, which `place_slice` takes in two
    // cache-bounded levels; the chunked one-level placement beside it.
    let cache = EngineConfig::default().cache_size;
    let num_keys = 1usize << 18;
    let src = |e: &Edge| e.src as usize;
    let mut placement = CountingPlacement::with_capacity(edges.len());
    g.bench_function(BenchmarkId::new("place_by_source", "two_level"), |b| {
        b.iter(|| black_box(placement.place_slice(&edges, num_keys, None, cache, src).1[1]))
    });
    g.bench_function(BenchmarkId::new("place_by_source", "one_level"), |b| {
        b.iter(|| {
            placement.begin(num_keys);
            placement.count(edges.iter().copied(), src);
            placement.place(edges.iter().copied(), src);
            black_box(placement.finish().expect("a pure key").1[1])
        })
    });
    g.finish();
}

fn bench_scatter_gather(c: &mut Criterion) {
    let g18 = rmat_scale(16);
    let mut g = c.benchmark_group("superstep");
    g.sample_size(10);
    g.throughput(Throughput::Elements(g18.num_edges() as u64));
    g.bench_function("wcc_superstep_rmat16", |b| {
        b.iter(|| {
            let p = wcc::Wcc::new();
            let mut e =
                xstream_memory::InMemoryEngine::from_graph(&g18, &p, EngineConfig::default());
            black_box(xstream_core::Engine::scatter_gather(&mut e, &p))
        })
    });
    g.bench_function("pagerank_5iter_rmat16", |b| {
        b.iter(|| {
            black_box(pagerank::pagerank_in_memory(
                &g18,
                5,
                EngineConfig::default(),
            ))
        })
    });
    g.finish();
}

fn bench_sort_baselines(c: &mut Criterion) {
    let g16 = rmat_scale(16);
    let mut g = c.benchmark_group("sort_vs_stream");
    g.sample_size(10);
    g.throughput(Throughput::Elements(g16.num_edges() as u64));
    g.bench_function("quicksort_rmat16", |b| {
        b.iter(|| {
            let mut copy = g16.clone();
            quicksort_by_source(&mut copy);
            black_box(copy)
        })
    });
    g.bench_function("counting_sort_rmat16", |b| {
        b.iter(|| {
            let mut copy = g16.clone();
            counting_sort_by_source(&mut copy);
            black_box(copy)
        })
    });
    g.bench_function("wcc_full_run_rmat16", |b| {
        b.iter(|| black_box(wcc::wcc_in_memory(&g16, EngineConfig::single_threaded())))
    });
    g.finish();
}

/// Allocates `layout` from `alloc`, writes every byte once (the
/// first touch that faults its pages in) and frees it.
fn first_touch(alloc: &impl GlobalAlloc, layout: Layout) -> u8 {
    // SAFETY: `layout` has nonzero size; the block is written in full
    // before it is read and freed with the layout it came from.
    unsafe {
        let ptr = alloc.alloc(layout);
        assert!(!ptr.is_null(), "out of memory");
        std::ptr::write_bytes(ptr, 1, layout.size());
        let last = ptr.add(layout.size() - 1).read_volatile();
        alloc.dealloc(ptr, layout);
        last
    }
}

fn bench_bulk_first_touch(c: &mut Criterion) {
    let layout = Layout::from_size_align(64 << 20, 64).expect("a valid layout");
    let mut g = c.benchmark_group("bulk");
    g.sample_size(10);
    g.throughput(Throughput::Bytes(layout.size() as u64));
    g.bench_function(BenchmarkId::new("first_touch_64mib", "system"), |b| {
        b.iter(|| first_touch(&System, layout))
    });
    g.bench_function(BenchmarkId::new("first_touch_64mib", "global"), |b| {
        b.iter(|| first_touch(&CountingAllocator, layout))
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_record_codec,
    bench_shuffle,
    bench_scatter_gather,
    bench_sort_baselines,
    bench_bulk_first_touch
);
criterion_main!(benches);
