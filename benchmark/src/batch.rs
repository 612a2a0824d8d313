//! `batch-mem` and `batch-disk`: WCC, PageRank (5 iterations) and BFS,
//! each timed from the `.xse` path to the extracted answer, the way
//! `xstream run` does it on either engine.

use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use xstream_algorithms::{bfs, pagerank, wcc};
use xstream_core::{EngineConfig, RunStats};
use xstream_disk::{DiskEngine, EdgeIngest};
use xstream_graph::fileio::read_edge_file;
use xstream_memory::InMemoryEngine;
use xstream_storage::{IoAccounting, IoSnapshot, StreamStore};

use crate::bounds::{mem_superstep_bytes, print_roofline, Bounds, Row};
use crate::metrics::{median, percentile, Metrics};
use crate::trace::{root_of, totals, write_spans, Span, Traced, Tracer};
use crate::{gen, oracle, Outcome, RunArgs};

pub const ALGOS: [&str; 3] = ["wcc", "pagerank", "bfs"];
const PAGERANK_ITERATIONS: usize = 5;

#[derive(Clone, Copy, PartialEq)]
pub enum Kind {
    Mem,
    Disk,
}

/// Graph size of the batch workloads (smoke mode: RMAT-10).
const SCALE: u32 = 18;

/// The §3 out-of-core settings: a 16 MiB budget is below the 34 MB
/// update stream of one RMAT-18 PageRank superstep, so updates spill.
fn disk_config() -> EngineConfig {
    EngineConfig::default()
        .with_memory_budget(16 << 20)
        .with_io_unit(1 << 20)
        .with_partitions(16)
}

struct Oracle {
    root: u32,
    labels: Vec<u32>,
    levels: Vec<u32>,
    ranks: Vec<f64>,
}

/// One repetition: the three answers with their timings.
#[derive(Default)]
struct Rep {
    /// Wall seconds from file path to answer, per algorithm.
    answer_s: [f64; 3],
    /// Build seconds (read, mirror, degrees, engine build), summed.
    setup_s: f64,
    stats: [RunStats; 3],
    io: IoSnapshot,
    mismatches: Vec<String>,
}

/// Seconds of `f`, with a span when the tracer is on.
fn timed<R>(tracer: &Tracer, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let out = tracer.span(name, f);
    (out, t.elapsed().as_secs_f64())
}

fn store(dir: &Path, cfg: &EngineConfig, acc: &Arc<IoAccounting>) -> Result<StreamStore, String> {
    let _ = std::fs::remove_dir_all(dir);
    StreamStore::new(dir, cfg.io_unit)
        .map(|s| s.with_accounting(Arc::clone(acc)))
        .map_err(|e| format!("store {}: {e}", dir.display()))
}

fn rep(kind: Kind, input: &Path, work: &Path, o: &Oracle, tracer: &Tracer) -> Result<Rep, String> {
    let mut r = Rep::default();
    let acc = Arc::new(IoAccounting::new(tracer.enabled()));
    let io_err = |e: xstream_core::Error| e.to_string();
    let mem_cfg = EngineConfig::default();
    let disk_cfg = disk_config();

    // WCC over the undirected expansion.
    let t = Instant::now();
    let (labels, stats) = tracer.span("wcc", || -> Result<_, String> {
        let p = wcc::Wcc::new();
        Ok(match kind {
            Kind::Mem => {
                let (g, a) = timed(tracer, "read_edge_file", || read_edge_file(input));
                let g = g.map_err(io_err)?;
                let (und, b) = timed(tracer, "to_undirected", || g.to_undirected());
                let (e, c) = timed(tracer, "from_graph", || {
                    InMemoryEngine::from_graph(&und, &p, mem_cfg.clone())
                });
                r.setup_s += a + b + c;
                let mut e = Traced::new(e, tracer);
                tracer.span("run", || wcc::run(&mut e, &p))
            }
            Kind::Disk => {
                let s = store(&work.join("wcc"), &disk_cfg, &acc)?;
                let ingest = EdgeIngest::undirected(input);
                let (e, a) = timed(tracer, "from_ingest", || {
                    DiskEngine::from_ingest(s, &ingest, &p, disk_cfg.clone())
                });
                r.setup_s += a;
                let mut e = Traced::new(e.map_err(io_err)?, tracer);
                tracer.span("run", || wcc::run(&mut e, &p))
            }
        })
    })?;
    r.answer_s[0] = t.elapsed().as_secs_f64();
    if labels != o.labels {
        r.mismatches.push(format!(
            "wcc: {} components, oracle {}",
            wcc::count_components(&labels),
            oracle::count_components(&o.labels)
        ));
    }
    r.stats[0] = stats;

    // PageRank, out-degrees computed the way the CLI does on each engine.
    let t = Instant::now();
    let (ranks, stats) = tracer.span("pagerank", || -> Result<_, String> {
        let p = pagerank::Pagerank;
        Ok(match kind {
            Kind::Mem => {
                let (g, a) = timed(tracer, "read_edge_file", || read_edge_file(input));
                let g = g.map_err(io_err)?;
                let (degrees, b) = timed(tracer, "out_degrees", || g.out_degrees());
                let (e, c) = timed(tracer, "from_graph", || {
                    InMemoryEngine::from_graph(&g, &p, mem_cfg.clone())
                });
                r.setup_s += a + b + c;
                let mut e = Traced::new(e, tracer);
                tracer.span("run", || {
                    pagerank::run(&mut e, &p, &degrees, PAGERANK_ITERATIONS)
                })
            }
            Kind::Disk => {
                let s = store(&work.join("pagerank"), &disk_cfg, &acc)?;
                let n = o.levels.len();
                let counts = Arc::new(Mutex::new(vec![0u32; n]));
                let ingest = {
                    let counts = Arc::clone(&counts);
                    EdgeIngest::new(input).with_observer(move |chunk| {
                        let mut d = counts.lock().expect("degree counter poisoned");
                        for e in chunk {
                            d[e.src as usize] += 1;
                        }
                    })
                };
                let (e, a) = timed(tracer, "from_ingest", || {
                    DiskEngine::from_ingest(s, &ingest, &p, disk_cfg.clone())
                });
                r.setup_s += a;
                let mut e = Traced::new(e.map_err(io_err)?, tracer);
                let degrees = std::mem::take(&mut *counts.lock().expect("degree counter poisoned"));
                tracer.span("run", || {
                    pagerank::run(&mut e, &p, &degrees, PAGERANK_ITERATIONS)
                })
            }
        })
    })?;
    r.answer_s[1] = t.elapsed().as_secs_f64();
    if let Err(msg) = oracle::check_ranks(&ranks, &o.ranks) {
        r.mismatches.push(format!("pagerank: {msg}"));
    }
    r.stats[1] = stats;

    // BFS from the highest out-degree vertex.
    let t = Instant::now();
    let (levels, stats) = tracer.span("bfs", || -> Result<_, String> {
        let p = bfs::Bfs::new();
        Ok(match kind {
            Kind::Mem => {
                let (g, a) = timed(tracer, "read_edge_file", || read_edge_file(input));
                let g = g.map_err(io_err)?;
                let (e, b) = timed(tracer, "from_graph", || {
                    InMemoryEngine::from_graph(&g, &p, mem_cfg.clone())
                });
                r.setup_s += a + b;
                let mut e = Traced::new(e, tracer);
                tracer.span("run", || bfs::run(&mut e, &p, o.root))
            }
            Kind::Disk => {
                let s = store(&work.join("bfs"), &disk_cfg, &acc)?;
                let (e, a) = timed(tracer, "from_ingest", || {
                    DiskEngine::from_ingest(s, &EdgeIngest::new(input), &p, disk_cfg.clone())
                });
                r.setup_s += a;
                let mut e = Traced::new(e.map_err(io_err)?, tracer);
                tracer.span("run", || bfs::run(&mut e, &p, o.root))
            }
        })
    })?;
    r.answer_s[2] = t.elapsed().as_secs_f64();
    if levels != o.levels {
        let reached = |l: &[u32]| l.iter().filter(|&&x| x != oracle::UNREACHED).count();
        r.mismatches.push(format!(
            "bfs: {} reached, oracle {}",
            reached(&levels),
            reached(&o.levels)
        ));
    }
    r.stats[2] = stats;

    r.io = acc.snapshot();
    for algo in ALGOS {
        let _ = std::fs::remove_dir_all(work.join(algo));
    }
    Ok(r)
}

pub fn run(kind: Kind, args: &RunArgs) -> Result<Outcome, String> {
    let scale = if args.smoke { 10 } else { SCALE };
    let input = args.work.join("graph.xse");
    let o = {
        let g = gen::rmat(scale, args.seed);
        gen::write_xse(&input, &g)?;
        let root = oracle::max_out_degree_vertex(g.num_vertices, &g.edges);
        Oracle {
            root,
            labels: oracle::components(g.num_vertices, &g.edges),
            levels: oracle::Csr::new(g.num_vertices, &g.edges).bfs(root),
            ranks: oracle::pagerank(g.num_vertices, &g.edges, PAGERANK_ITERATIONS),
        }
    };
    crate::metrics::reset_peak_rss();
    eprintln!(
        "{}: RMAT-{scale} seed {} ({} vertices), BFS root {}",
        args.workload,
        args.seed,
        o.levels.len(),
        o.root
    );

    let mut out = Outcome::default();
    let check = |r: &Rep, out: &mut Outcome| {
        out.attempted += ALGOS.len() as u64;
        out.failed += r.mismatches.len() as u64;
        for m in &r.mismatches {
            eprintln!("MISMATCH {m}");
        }
    };

    if args.trace {
        // Untraced baseline rep for the overhead figure, then the traced rep.
        let base = rep(kind, &input, &args.work, &o, &Tracer::new(false))?;
        check(&base, &mut out);
        let tracer = Tracer::new(true);
        let traced = rep(kind, &input, &args.work, &o, &tracer)?;
        check(&traced, &mut out);
        let spans = tracer.take();
        let trace_path = args.work.with_extension("spans.ndjson");
        write_spans(&trace_path, &spans).map_err(|e| format!("writing spans: {e}"))?;
        eprintln!("spans: {} written to {}", spans.len(), trace_path.display());
        let bounds = Bounds::measure(&args.work, args.smoke)?;
        let file_bytes = std::fs::metadata(&input).map_or(0, |md| md.len()) as f64;
        let rows = layer_metrics(kind, &traced, &spans, &bounds, file_bytes, &mut out.metrics);
        print_roofline(&rows);
        let sum = |r: &Rep| r.answer_s.iter().sum::<f64>();
        out.metrics
            .set("trace.overhead_s", sum(&traced) - sum(&base));
        return Ok(out);
    }

    let min_reps = 3;
    let start = Instant::now();
    let mut reps = Vec::new();
    while reps.len() < min_reps || start.elapsed().as_secs_f64() < args.seconds {
        let r = rep(kind, &input, &args.work, &o, &Tracer::new(false))?;
        check(&r, &mut out);
        eprintln!(
            "rep {}: setup {:.3}s wcc {:.3}s pagerank {:.3}s bfs {:.3}s",
            reps.len(),
            r.setup_s,
            r.answer_s[0],
            r.answer_s[1],
            r.answer_s[2]
        );
        reps.push(r);
    }
    let m = &mut out.metrics;
    let per = |i: usize| reps.iter().map(|r| r.answer_s[i]).collect::<Vec<_>>();
    m.set(
        "setup_s",
        median(&reps.iter().map(|r| r.setup_s).collect::<Vec<_>>()),
    );
    for (i, algo) in ALGOS.iter().enumerate() {
        m.set(format!("{algo}_s"), median(&per(i)));
    }
    // On the batch workloads one query is one algorithm answer.
    let all: Vec<f64> = (0..3).flat_map(per).collect();
    m.set("qps", all.len() as f64 / all.iter().sum::<f64>());
    m.set("latency_p50_ms", 1e3 * median(&all));
    m.set("latency_p99_ms", 1e3 * percentile(&all, 99.0));
    eprintln!("{} reps, {} answers", reps.len(), all.len());
    Ok(out)
}

/// Per-layer metrics of one traced rep, and its roofline rows.
fn layer_metrics(
    kind: Kind,
    r: &Rep,
    spans: &[Span],
    b: &Bounds,
    file_bytes: f64,
    m: &mut Metrics,
) -> Vec<Row> {
    let secs = |ns: u64| ns as f64 * 1e-9;
    let t = totals(spans);
    let total_s = |name: &str| t.get(name).map_or(0.0, |x| secs(x.1));
    let layer = if kind == Kind::Mem { "mem" } else { "disk" };

    m.set("graph.read_s", total_s("read_edge_file"));
    m.set("graph.mirror_s", total_s("to_undirected"));
    m.set("graph.degrees_s", total_s("out_degrees"));
    m.set(
        format!("{layer}.build_s"),
        total_s("from_graph") + total_s("from_ingest"),
    );
    // Superstep time per algorithm: scatter_gather spans under each root.
    for (i, s) in spans.iter().enumerate() {
        if s.name == "scatter_gather" {
            if let Some(algo) = root_of(spans, i, &ALGOS) {
                m.add(&format!("{layer}.{algo}.superstep_s"), secs(s.ns()));
            }
        }
    }
    let mut alloc = 0u64;
    for (i, algo) in ALGOS.iter().enumerate() {
        let st = &r.stats[i];
        let tot = st.totals();
        m.add(&format!("{layer}.scatter_s"), secs(tot.scatter_ns));
        m.add(&format!("{layer}.shuffle_s"), secs(tot.shuffle_ns));
        m.add(&format!("{layer}.gather_s"), secs(tot.gather_ns));
        m.set(
            format!("algo.{algo}.supersteps"),
            st.num_iterations() as f64,
        );
        // Steady state: every superstep after the first.
        alloc += st
            .iterations
            .iter()
            .skip(1)
            .map(|it| it.alloc_count)
            .sum::<u64>();
        let useful = tot.updates_generated as f64 / tot.edges_streamed.max(1) as f64;
        if kind == Kind::Disk {
            m.add("disk.blocked_s", secs(tot.streaming_ns));
            m.add("disk.io_retries", tot.io_retries as f64);
            m.set(format!("disk.{algo}.useful_edge_frac"), useful);
            if *algo != "pagerank" {
                m.set(
                    format!("disk.{algo}.partitions_skipped"),
                    tot.partitions_skipped as f64,
                );
                m.set(
                    format!("disk.{algo}.partitions_sparse"),
                    tot.partitions_sparse as f64,
                );
            }
        } else if *algo == "wcc" {
            m.set("mem.wcc.useful_edge_frac", useful);
        }
    }
    m.set(format!("{layer}.alloc_count"), alloc as f64);
    if kind == Kind::Disk {
        m.set("disk.extract_s", total_s("states"));
    }

    let driver = t.get("run").map_or(0.0, |x| secs(x.2));
    m.set("algo.driver_s", driver);
    m.set(
        "algo.vertex_ops_s",
        total_s("vertex_map") + total_s("vertex_fold") + total_s("seed_frontier"),
    );

    // Roofline: supersteps against memory bandwidth (in memory) or the
    // sequential stream read bound (out of core); file reads against
    // the stream read bound.
    let mut rows = Vec::new();
    if kind == Kind::Mem {
        rows.push(Row {
            layer: "graph.read".into(),
            bytes: file_bytes * t.get("read_edge_file").map_or(0, |x| x.0) as f64,
            secs: m.get("graph.read_s"),
            bound: "stream read",
            bound_bps: b.seq_read_bps,
        });
    }
    for (i, algo) in ALGOS.iter().enumerate() {
        let tot = r.stats[i].totals();
        let (bytes, bound, bound_bps) = match kind {
            Kind::Mem => (mem_superstep_bytes(&tot), "memory bw", b.membw_bps),
            Kind::Disk => (
                (tot.bytes_read + tot.bytes_written) as f64,
                "stream read",
                b.seq_read_bps,
            ),
        };
        rows.push(Row {
            layer: format!("{layer}.{algo}.superstep"),
            bytes,
            secs: m.get(&format!("{layer}.{algo}.superstep_s")),
            bound,
            bound_bps,
        });
    }
    let pr = &rows[rows.len() - 2];
    let pr_frac = pr.bytes / pr.secs.max(1e-12) / pr.bound_bps;
    if kind == Kind::Mem {
        let edges = r.stats[1].totals().edges_streamed as f64;
        m.set("mem.pagerank.edges_per_s", edges / pr.secs.max(1e-12));
        m.set("mem.membw_frac", pr_frac);
    } else {
        m.set("storage.pagerank.stream_frac", pr_frac);
    }
    let io = &r.io;
    let read_ops: u64 = io.per_device.iter().map(|d| d.read_ops).sum();
    let write_ops: u64 = io.per_device.iter().map(|d| d.write_ops).sum();
    m.set("storage.bytes_read", io.bytes_read() as f64);
    m.set("storage.bytes_written", io.bytes_written() as f64);
    m.set("storage.read_ops", read_ops as f64);
    m.set("storage.write_ops", write_ops as f64);
    m.set(
        "storage.read_kib_per_op",
        io.bytes_read() as f64 / 1024.0 / read_ops.max(1) as f64,
    );
    m.set("storage.chunks_verified", io.chunks_verified as f64);
    b.set_metrics(m);
    rows
}
