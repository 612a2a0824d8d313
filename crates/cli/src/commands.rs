//! The `xstream` subcommands.

use std::fmt::{self, Write as _};
use std::num::{NonZeroU64, NonZeroUsize};
use std::path::{Path, PathBuf};
use std::str::FromStr;

use crate::args::{Args, Bytes, CliError};
use xstream_algorithms::engines::{self, Algo, AnyEngine, Source};
use xstream_algorithms::{
    bfs, conductance, mcst, mis, pagerank, pagerank_delta, scc, spmv, sssp, wcc,
};
use xstream_core::{EdgeProgram, Engine, EngineConfig, IterationStats, RetryPolicy, RunStats};
use xstream_graph::fileio::{read_edge_file, write_edge_file, EdgeFileReader};
use xstream_graph::import::ImportOptions;
use xstream_graph::{generators, transform, Rmat};
use xstream_storage::StreamStore;
use xstream_streams::{semi, wstream, FileSource, Mirrored};

// ---------------------------------------------------------------- generate

/// `xstream generate <KIND> -o FILE`.
pub fn generate(args: &Args) -> Result<String, CliError> {
    let kind = args.operand(0);
    let out = args
        .get("output")
        .ok_or_else(|| CliError::Usage("missing -o OUTPUT".into()))?;
    let seed = args.value("seed")?.unwrap_or(42u64);
    let degree = args.value::<usize>("degree")?;
    let vertices = || {
        args.value::<usize>("vertices")?
            .ok_or_else(|| CliError::Usage(format!("{kind} needs --vertices")))
    };
    let mut graph = match kind {
        "rmat" => {
            let scale = args
                .value("scale")?
                .ok_or_else(|| CliError::Usage("rmat needs --scale".into()))?;
            let mut r = Rmat::new(scale).with_seed(seed);
            if let Some(d) = degree {
                r = r.with_edge_factor(d);
            }
            r.generate()
        }
        "erdos-renyi" => {
            let v = vertices()?;
            let e = args
                .value("edges")?
                .unwrap_or(v.saturating_mul(degree.unwrap_or(8)));
            generators::erdos_renyi(v, e, seed)
        }
        "pref-attach" => {
            generators::preferential_attachment(vertices()?, degree.unwrap_or(8), seed)
        }
        "grid" => {
            let side = (vertices()? as f64).sqrt().ceil() as usize;
            generators::grid2d(side.max(2), side.max(2))
        }
        "web" => generators::webgraph(vertices()?, degree.unwrap_or(16), 64, seed),
        "bipartite" => {
            let v = vertices()?;
            let users = (v * 24) / 25;
            let e = args.value("edges")?.unwrap_or(v * 16);
            generators::bipartite(users.max(2), (v - users).max(1), e, seed)
        }
        other => return Err(CliError::Usage(format!("unknown generator `{other}`"))),
    };
    if args.switch("undirected") {
        graph = graph.to_undirected();
    }
    if args.switch("weighted") {
        use rand_seed::SimpleRng;
        let mut rng = SimpleRng::new(seed ^ 0x5eed);
        for e in graph.edges_mut() {
            e.weight = rng.next_unit_f32();
        }
    }
    write_edge_file(Path::new(out), &graph)?;
    Ok(format!(
        "wrote {} vertices, {} edges to {out}\n",
        graph.num_vertices(),
        graph.num_edges()
    ))
}

/// Tiny xorshift RNG so `--weighted` needs no external dependency in
/// this crate.
mod rand_seed {
    /// Xorshift64* generator.
    pub struct SimpleRng(u64);

    impl SimpleRng {
        /// Seeds the generator (zero is remapped).
        pub fn new(seed: u64) -> Self {
            Self(seed.max(1))
        }

        /// Next float in `[0, 1)`.
        pub fn next_unit_f32(&mut self) -> f32 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            (self.0 >> 40) as f32 / (1u64 << 24) as f32
        }
    }
}

// -------------------------------------------------------------------- info

/// `xstream info FILE` — one streaming pass, O(V) memory.
pub fn info(args: &Args) -> Result<String, CliError> {
    let path = args.operand(0);
    let i = transform::streamed_info(Path::new(path))?;
    let mut s = String::new();
    let _ = writeln!(s, "file:        {path}");
    let _ = writeln!(s, "vertices:    {}", i.num_vertices);
    let _ = writeln!(s, "edges:       {}", i.num_edges);
    let _ = writeln!(
        s,
        "avg degree:  {:.2}",
        i.num_edges as f64 / i.num_vertices.max(1) as f64
    );
    let _ = writeln!(s, "max out-deg: {}", i.max_out_degree);
    let _ = writeln!(s, "isolated:    {}", i.isolated);
    let _ = writeln!(s, "self loops:  {}", i.self_loops);
    Ok(s)
}

// ------------------------------------------------------------------ import

/// `xstream import <SRC> <DST>`.
pub fn import(args: &Args) -> Result<String, CliError> {
    let (src, dst) = (args.operand(0), args.operand(1));
    let mut opts = ImportOptions {
        format: args.value("format")?.unwrap_or_default(),
        num_vertices: args.value("num-vertices")?,
        undirected: args.switch("undirected"),
        ..ImportOptions::default()
    };
    if let Some(t) = args.value::<usize>("threads")? {
        opts.threads = t.max(1);
    }
    let r = xstream_graph::import::import(Path::new(src), Path::new(dst), &opts)?;
    let skipped = if r.skipped_lines > 0 {
        format!(" ({} comment/blank lines skipped)", r.skipped_lines)
    } else {
        String::new()
    };
    Ok(format!(
        "imported {} edges over {} vertices to {dst}{skipped}\n",
        r.num_edges, r.num_vertices
    ))
}

// --------------------------------------------------------------------- run

/// `--engine`: where the streams live, for both `run` and `serve`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EngineKind {
    /// The in-memory engine (§4); `memory` is an alias.
    Mem,
    /// The out-of-core engine (§3).
    Disk,
}

impl FromStr for EngineKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "mem" | "memory" => Ok(EngineKind::Mem),
            "disk" => Ok(EngineKind::Disk),
            other => Err(format!("expected mem or disk, got `{other}`")),
        }
    }
}

impl fmt::Display for EngineKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            EngineKind::Mem => "mem",
            EngineKind::Disk => "disk",
        })
    }
}

fn engine_kind(args: &Args) -> Result<EngineKind, CliError> {
    Ok(args.value("engine")?.unwrap_or(EngineKind::Mem))
}

/// The engine flags `run` and `serve` share.
fn engine_config(args: &Args) -> Result<EngineConfig, CliError> {
    let mut cfg = EngineConfig::default();
    if let Some(t) = args.value("threads")? {
        cfg = cfg.with_threads(t);
    }
    if let Some(k) = args.value("partitions")? {
        cfg = cfg.with_partitions(k);
    }
    if let Some(Bytes(b)) = args.value("memory-budget")? {
        cfg = cfg.with_memory_budget(b);
    }
    if let Some(Bytes(u)) = args.value("io-unit")? {
        cfg = cfg.with_io_unit(u);
    }
    if let Some(map) = args.value("device-map")? {
        cfg = cfg.with_device_map(map);
    }
    if let Some(mode) = args.value("pin-workers")? {
        cfg = cfg.with_pinning(mode);
    }
    if let Some(r) = args.value::<u32>("max-retries")? {
        // N *extra* attempts after the first = N + 1 total.
        cfg = cfg.with_retry(RetryPolicy {
            max_attempts: r.saturating_add(1),
            ..RetryPolicy::default()
        });
    }
    if let Some(n) = args.value("checkpoint-every")? {
        cfg = cfg.with_checkpoint_every(n);
    }
    if let Some(d) = args.value("frontier-threshold")? {
        cfg = cfg.with_frontier_threshold(d);
    }
    if args.switch("no-frontier-skip") {
        cfg = cfg.with_frontier_skip(false);
    }
    if args.switch("no-verify-reads") {
        cfg = cfg.with_verify_reads(false);
    }
    Ok(cfg)
}

fn summarize(algo: Algo, extra: &str, stats: &RunStats, disk: bool) -> String {
    let t = stats.totals();
    let mut s = format!(
        "{algo}: {extra}\niterations: {}, runtime: {:.3}s, edges streamed: {}, \
         updates: {} (wasted {:.0}%)\n",
        stats.num_iterations(),
        stats.elapsed().as_secs_f64(),
        t.edges_streamed,
        t.updates_generated,
        stats.wasted_pct(),
    );
    if t.shuffle_capacity > 0 {
        // Only the out-of-core engine's buffers adapt; the in-memory
        // engine's update layout is fixed at build.
        let sizing = if disk {
            format!("adaptive budget {} records/slice", t.shuffle_budget)
        } else {
            "static update layout".to_string()
        };
        let _ = writeln!(
            s,
            "shuffle buffers: {} records capacity (peak residency {:.0}%, {sizing})",
            t.shuffle_capacity,
            t.buffer_residency_pct(),
        );
    }
    if t.partitions_skipped > 0 || t.partitions_sparse > 0 {
        let _ = writeln!(
            s,
            "frontier: {} partition streams skipped, {} scattered sparse \
             (peak density {:.1}%)",
            t.partitions_skipped,
            t.partitions_sparse,
            t.frontier_density * 100.0,
        );
    }
    if t.chunks_verified > 0 || t.corruptions_detected > 0 {
        let _ = writeln!(
            s,
            "integrity: {} chunks verified on read, {} corruptions detected",
            t.chunks_verified, t.corruptions_detected,
        );
    }
    s
}

/// `--epsilon` of pagerank-delta: a non-negative finite tolerance.
/// Zero propagates every nonzero delta (the exact untruncated series).
struct Epsilon(f32);

impl FromStr for Epsilon {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        s.parse::<f32>()
            .ok()
            .filter(|e| *e >= 0.0 && e.is_finite())
            .map(Epsilon)
            .ok_or_else(|| format!("expected a non-negative number, got `{s}`"))
    }
}

/// Validates `--root` for the traversal algorithms before any engine
/// is built: an out-of-range root is a usage error with the valid
/// range, not a panic deep inside scatter.
fn validated_root(args: &Args, algo: Algo, num_vertices: usize) -> Result<u32, CliError> {
    let root = args.value::<u32>("root")?.unwrap_or(0);
    if matches!(algo, Algo::Bfs | Algo::Sssp) && root as usize >= num_vertices {
        return Err(CliError::Usage(if num_vertices == 0 {
            format!("--root {root}: the graph has no vertices")
        } else {
            format!(
                "--root {root} is outside the graph's vertex range \
                 (valid roots: 0..={})",
                num_vertices - 1
            )
        }));
    }
    Ok(root)
}

/// Marker file stamped into every partition-store directory the CLI
/// creates; wiping a `--store` directory requires it (or an empty
/// directory), so a typo'd path never deletes unrelated data.
pub const STORE_MARKER: &str = ".xstream-store";

/// A prepared partition-store directory. The default (CLI-chosen)
/// temp location is unique per invocation — concurrent `xstream run`
/// processes cannot clobber each other's partition files — and removes
/// itself on drop; an explicit `--store DIR` is kept.
struct StoreDir {
    path: PathBuf,
    ephemeral: bool,
}

impl StoreDir {
    fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for StoreDir {
    fn drop(&mut self) {
        if self.ephemeral {
            let _ = std::fs::remove_dir_all(&self.path);
        }
    }
}

fn create_marked(dir: &Path) -> Result<(), CliError> {
    std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(dir.join(STORE_MARKER), b"xstream partition store\n"))
        .map_err(|e| CliError::Run(format!("creating store directory {}: {e}", dir.display())))
}

/// Resolves the disk engine's partition-store directory: an explicit
/// `--store DIR` is wiped only when that is provably safe (empty, or
/// marked as an xstream store by a previous run); with `--resume` a
/// marked directory is *kept* instead — its checkpoint frames are the
/// whole point (edge/update streams are rebuilt by ingest either way);
/// the default is a fresh unique temp directory.
fn prepare_store_dir(args: &Args, resume: bool) -> Result<StoreDir, CliError> {
    if let Some(dir) = args.get("store") {
        let dir = PathBuf::from(dir);
        if dir.exists() {
            if !dir.is_dir() {
                return Err(CliError::Run(format!(
                    "--store {}: exists and is not a directory",
                    dir.display()
                )));
            }
            let non_empty = std::fs::read_dir(&dir)
                .map(|mut it| it.next().is_some())
                .unwrap_or(false);
            if non_empty && !dir.join(STORE_MARKER).is_file() {
                return Err(CliError::Run(format!(
                    "--store {}: refusing to wipe a non-empty directory without an \
                     {STORE_MARKER} marker (it was not created by xstream run); \
                     pass an empty directory or remove it yourself",
                    dir.display()
                )));
            }
            if resume && dir.join(STORE_MARKER).is_file() {
                return Ok(StoreDir {
                    path: dir,
                    ephemeral: false,
                });
            }
            std::fs::remove_dir_all(&dir)
                .map_err(|e| CliError::Run(format!("--store {}: {e}", dir.display())))?;
        }
        create_marked(&dir)?;
        Ok(StoreDir {
            path: dir,
            ephemeral: false,
        })
    } else {
        let base = std::env::temp_dir();
        let pid = std::process::id();
        let mut attempt = 0u32;
        loop {
            let nanos = std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.subsec_nanos())
                .unwrap_or(0);
            let dir = base.join(format!("xstream_run_{pid}_{nanos:09}_{attempt}"));
            match std::fs::create_dir(&dir) {
                Ok(()) => {
                    std::fs::write(dir.join(STORE_MARKER), b"xstream partition store\n")
                        .map_err(|e| CliError::Run(format!("marking store directory: {e}")))?;
                    return Ok(StoreDir {
                        path: dir,
                        ephemeral: true,
                    });
                }
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists && attempt < 1000 => {
                    attempt += 1;
                }
                Err(e) => {
                    return Err(CliError::Run(format!(
                        "creating store directory {}: {e}",
                        dir.display()
                    )))
                }
            }
        }
    }
}

/// `xstream run <ALGO> <FILE>`.
pub fn run(args: &Args) -> Result<String, CliError> {
    let algo: Algo = args.operand(0).parse().map_err(CliError::Usage)?;
    let path = PathBuf::from(args.operand(1));
    let kind = engine_kind(args)?;
    let iterations = args.value("iterations")?.unwrap_or(5);
    let Epsilon(eps) = args.value("epsilon")?.unwrap_or(Epsilon(1e-7));
    let resume = args.switch("resume");
    // Declared on the engine config too, so the disk engine validates
    // the layout flags against the store's manifest *before* the
    // rebuild replaces it (a mismatch then names the flag while the
    // original layout record is still on disk).
    let cfg = engine_config(args)?.with_resume(resume);
    if resume {
        if kind != EngineKind::Disk {
            return Err(CliError::Usage(
                "--resume requires --engine disk (checkpoints live in the \
                 partition store)"
                    .into(),
            ));
        }
        if args.get("store").is_none() {
            return Err(CliError::Usage(
                "--resume requires an explicit --store DIR (the default store \
                 is a fresh temp directory with nothing to resume from)"
                    .into(),
            ));
        }
    }
    // Header-only peek: the vertex count for root validation. The disk
    // engine streams the edge payload itself, never materialized (§3).
    let num_vertices = EdgeFileReader::open(&path)?.num_vertices();
    let root = validated_root(args, algo, num_vertices)?;
    let dir = match kind {
        EngineKind::Mem => None,
        EngineKind::Disk => Some(prepare_store_dir(args, resume)?),
    };
    let store = match &dir {
        None => None,
        Some(dir) => Some(engines::open_store(dir.path(), &cfg)?),
    };
    let run = Run {
        algo,
        path: &path,
        store,
        cfg,
    };
    let out = match algo {
        Algo::Wcc => run.drive(&wcc::Wcc::new(), false, |e, p, _| {
            let (labels, stats) = wcc::run(e, p);
            (
                format!("{} components", wcc::count_components(&labels)),
                stats,
            )
        }),
        Algo::Bfs => run.drive(&bfs::Bfs::new(), false, |e, p, _| {
            let (levels, stats) = bfs::run(e, p, root);
            let reached = levels.iter().filter(|&&l| l != bfs::UNREACHED).count();
            (format!("{reached} vertices reached"), stats)
        }),
        Algo::Sssp => run.drive(&sssp::Sssp::new(), false, |e, p, _| {
            let (dist, stats) = sssp::run(e, p, root);
            let reached = dist.iter().filter(|d| d.is_finite()).count();
            (format!("{reached} vertices reachable"), stats)
        }),
        Algo::Pagerank => run.drive(&pagerank::Pagerank, true, |e, p, degrees| {
            let (ranks, stats) = pagerank::run(e, p, degrees, iterations);
            (top_vertex(&ranks), stats)
        }),
        Algo::PagerankDelta => run.drive(
            &pagerank_delta::PagerankDelta::new(eps),
            true,
            |e, p, degrees| {
                let (ranks, stats) = pagerank_delta::run(e, p, degrees, iterations);
                (top_vertex(&ranks), stats)
            },
        ),
        Algo::Spmv => run.drive(&spmv::Spmv, false, |e, p, _| {
            let x = vec![1.0f32; e.num_vertices()];
            let (y, it) = spmv::run(e, p, &x);
            let norm: f64 = y.iter().map(|v| f64::from(*v) * f64::from(*v)).sum();
            (format!("|y|^2 = {norm:.3}"), one_iteration(it))
        }),
        Algo::Mis => run.drive(&mis::Mis::new(), false, |e, p, _| {
            let (statuses, stats) = mis::run(e, p);
            let members = statuses
                .iter()
                .filter(|&&s| s == mis::status::IN_SET)
                .count();
            (format!("{members} members"), stats)
        }),
        Algo::Scc => run.drive(&scc::Scc::new(), false, |e, p, _| {
            let (mut ids, stats) = scc::run(e, p);
            ids.sort_unstable();
            ids.dedup();
            (
                format!("{} strongly connected components", ids.len()),
                stats,
            )
        }),
        Algo::Mcst => run.drive(&mcst::Mcst, false, |e, p, _| {
            let (result, stats) = mcst::run(e, p);
            (
                format!(
                    "forest weight {:.3} over {} trees",
                    result.total_weight, result.components
                ),
                stats,
            )
        }),
        Algo::Conductance => run.drive(&conductance::Conductance, false, |e, p, _| {
            let (r, it) = conductance::run(e, p, &|v| v & 1);
            (
                format!("cut {} / volumes {} : {}", r.cut, r.vol0, r.vol1),
                one_iteration(it),
            )
        }),
    };
    drop(dir); // Removes the default temp store; keeps --store.
    out
}

/// What every `run` arm shares: the input, the engine it runs on and
/// how the answer is reported.
struct Run<'a> {
    algo: Algo,
    path: &'a Path,
    /// The partition store of a disk run; `None` runs in memory.
    store: Option<StreamStore>,
    cfg: EngineConfig,
}

impl Run<'_> {
    /// Builds `program`'s engine over the file in the algorithm's
    /// orientation (with out-degree counts when asked), runs `driver` on
    /// it and writes the summary. A disk run first applies `--resume`
    /// and ends with its I/O volume.
    fn drive<P: EdgeProgram>(
        self,
        program: &P,
        out_degrees: bool,
        driver: impl FnOnce(&mut AnyEngine<P>, &P, &[u32]) -> (String, RunStats),
    ) -> Result<String, CliError> {
        let resume = self.cfg.resume;
        let (mut engine, degrees) = engines::build(
            Source::File(self.path),
            self.algo.orientation(),
            self.store,
            program,
            self.cfg,
            out_degrees,
        )?;
        let mut out = String::new();
        if let (AnyEngine::Disk(e), true) = (&mut engine, resume) {
            // A missing or invalid checkpoint is not an error: the run
            // starts fresh and says so.
            out = match e.resume_from_checkpoint()? {
                Some(step) => format!("resumed from checkpoint after superstep {step}\n"),
                None => "no valid checkpoint in store; starting fresh\n".to_string(),
            };
        }
        let (answer, stats) = driver(&mut engine, program, &degrees);
        let disk = matches!(engine, AnyEngine::Disk(_));
        out.push_str(&summarize(self.algo, &answer, &stats, disk));
        if let AnyEngine::Disk(e) = &engine {
            let io = e.store().accounting().snapshot();
            let _ = writeln!(
                out,
                "io: {:.1} MB read, {:.1} MB written",
                io.bytes_read() as f64 / 1e6,
                io.bytes_written() as f64 / 1e6,
            );
        }
        Ok(out)
    }
}

/// The answer line of the PageRank variants.
fn top_vertex(ranks: &[f32]) -> String {
    ranks
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map(|(v, r)| format!("top vertex {v} (rank {r:.6})"))
        .unwrap_or_default()
}

/// Run statistics of the one-pass algorithms (SpMV, conductance).
fn one_iteration(it: IterationStats) -> RunStats {
    RunStats {
        iterations: vec![it],
        total_ns: 0,
    }
}

// ------------------------------------------------------------------- serve

/// The shutdown flag `xstream serve` polls, shared with the signal
/// handler through a `OnceLock` so the handler body is just an atomic
/// store (async-signal-safe). Tests drive shutdown through it too.
fn serve_shutdown_flag() -> std::sync::Arc<std::sync::atomic::AtomicBool> {
    use std::sync::atomic::AtomicBool;
    use std::sync::{Arc, OnceLock};
    static FLAG: OnceLock<Arc<AtomicBool>> = OnceLock::new();
    Arc::clone(FLAG.get_or_init(|| Arc::new(AtomicBool::new(false))))
}

/// Routes SIGTERM and SIGINT to the serve shutdown flag (graceful
/// drain + exit 0). Declared directly against libc — the project's
/// dependency policy admits no signal crates (same precedent as the
/// `sched_setaffinity` declaration in the storage crate's topology
/// module).
fn install_serve_signal_handlers() {
    extern "C" fn on_signal(_sig: i32) {
        serve_shutdown_flag().store(true, std::sync::atomic::Ordering::SeqCst);
    }
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    // SAFETY: installing a handler whose body is a single atomic store
    // (async-signal-safe); the OnceLock is initialized before handlers
    // are installed, so the handler's get() never races init.
    let handler = on_signal as extern "C" fn(i32);
    unsafe {
        signal(SIGTERM, handler as usize);
        signal(SIGINT, handler as usize);
    }
}

/// `xstream serve <FILE> ...` — block serving queries until SIGTERM or
/// SIGINT, then drain and return the final counter summary (exit 0).
pub fn serve(args: &Args) -> Result<String, CliError> {
    let shutdown = serve_shutdown_flag();
    shutdown.store(false, std::sync::atomic::Ordering::SeqCst);
    install_serve_signal_handlers();
    serve_until(args, shutdown)
}

/// The body of [`serve`] with an injectable shutdown flag (tests set
/// the flag from another thread instead of delivering signals).
fn serve_until(
    args: &Args,
    shutdown: std::sync::Arc<std::sync::atomic::AtomicBool>,
) -> Result<String, CliError> {
    use xstream_server::{GraphService, ServeOptions, Server};

    let path = args.operand(0);
    let kind = engine_kind(args)?;
    let iterations = args.value("iterations")?.unwrap_or(5);
    let cfg = engine_config(args)?;
    let port = args.value("port")?.unwrap_or(0);
    let max_inflight = args.value("max-inflight")?.map_or(32, NonZeroUsize::get);
    let query_timeout = args.value("query-timeout")?.map_or(30_000, NonZeroU64::get);
    let cache_entries = args.value("cache-entries")?.unwrap_or(256);

    // Built before the engine so bad flags fail fast, dropped after
    // the server exits (removes a default ephemeral store, keeps an
    // explicit --store).
    let (service, store_dir) = match kind {
        EngineKind::Mem => {
            let graph = read_edge_file(Path::new(path))?;
            (GraphService::open_memory(graph, cfg, iterations), None)
        }
        EngineKind::Disk => {
            let dir = prepare_store_dir(args, false)?;
            let service = GraphService::open_disk(Path::new(path), dir.path(), cfg, iterations)
                .map_err(CliError::Run)?;
            (service, Some(dir))
        }
    };
    let opts = ServeOptions {
        port,
        max_inflight,
        query_timeout: std::time::Duration::from_millis(query_timeout),
        cache_entries,
    };
    let server = Server::bind(service, opts, shutdown).map_err(CliError::Run)?;
    // Printed (and flushed) before blocking so scripts can scrape the
    // resolved ephemeral port; the summary itself is returned through
    // dispatch once the server drains.
    println!(
        "serving {path} on {} ({kind} engine, max-inflight {max_inflight}, \
         query-timeout {query_timeout} ms, cache {cache_entries} entries)",
        server.local_addr()
    );
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    let stats = server.run();
    drop(store_dir);
    Ok(format!("shutdown complete\n{}\n", stats.summary()))
}

// ------------------------------------------------------------------- scrub

/// `xstream scrub <STORE>` — verify every durable stream of
/// a partition store against its manifest; with `--repair`, rebuild
/// derived streams and quarantine stale ones.
///
/// Detect-only scrub of a damaged store is an *error* (nonzero exit),
/// so CI and scripts can gate on it; a repair that resolves everything
/// it found exits cleanly.
pub fn scrub(args: &Args) -> Result<String, CliError> {
    let dir = PathBuf::from(args.operand(0));
    if !dir.is_dir() {
        return Err(CliError::Run(format!("{}: not a directory", dir.display())));
    }
    if !dir.join(STORE_MARKER).is_file() {
        return Err(CliError::Run(format!(
            "{}: no {STORE_MARKER} marker; refusing to scrub a directory that \
             is not an xstream partition store",
            dir.display()
        )));
    }
    let repair = args.switch("repair");
    let report = xstream_disk::scrub(&dir, repair)?;
    let mut s = String::new();
    if report.manifest_ok {
        let _ = writeln!(
            s,
            "store {} (generation {}, fingerprint {:#018x})",
            dir.display(),
            report.generation,
            report.fingerprint
        );
    } else {
        let _ = writeln!(
            s,
            "store {}: MANIFEST missing or corrupt — streams cannot be verified \
             (re-running the original ingest re-seals the store)",
            dir.display()
        );
    }
    for sr in &report.streams {
        use xstream_disk::{Action, Verdict};
        let verdict = match &sr.verdict {
            Verdict::Intact => "intact".to_string(),
            Verdict::SidecarRotted => "stream intact, checksum sidecar rotted".to_string(),
            Verdict::Corrupt { detail } => format!("CORRUPT: {detail}"),
            Verdict::Missing => "MISSING".to_string(),
            Verdict::NeedsRebuild => "flagged for rebuild".to_string(),
            Verdict::Unlisted => "not in manifest (stale)".to_string(),
            Verdict::Unverified => "unverified (per-run stream)".to_string(),
        };
        let action = match sr.action {
            Action::None => "",
            Action::Rebuilt => " -> rebuilt",
            Action::SidecarRewritten => " -> sidecar rewritten",
            Action::Quarantined => " -> quarantined",
            Action::Unrepairable => " -> UNREPAIRABLE (primary data; re-ingest required)",
            Action::RepairNeeded => " -> run with --repair to fix",
        };
        let _ = writeln!(s, "  {:<16} {verdict}{action}", sr.name);
    }
    if report.is_clean() {
        let _ = writeln!(s, "store is clean");
        Ok(s)
    } else if report.has_unresolved_damage() {
        let _ = writeln!(s, "store has unresolved damage");
        Err(CliError::Run(s))
    } else {
        let _ = writeln!(
            s,
            "all damage repaired (manifest re-sealed at generation {})",
            report.generation
        );
        Ok(s)
    }
}

// -------------------------------------------------------------- components

/// `xstream components <FILE>`.
///
/// The edge file is presented to the streaming models as a
/// [`FileSource`] wrapped in [`Mirrored`] — each pass re-reads the
/// file in bounded chunks with per-edge undirected mirroring, so the
/// doubled edge list is never materialized (the models' whole point is
/// sequential passes over a stream larger than memory).
pub fn components(args: &Args) -> Result<String, CliError> {
    let path = args.operand(0);
    let graph = Mirrored(FileSource::open(Path::new(path), 1 << 14)?);
    match args.value("model")?.unwrap_or(Model::Semi) {
        Model::Semi => {
            let labels = semi::connected_components(&graph)?;
            let mut distinct = labels.clone();
            distinct.sort_unstable();
            distinct.dedup();
            Ok(format!(
                "semi-streaming CC: {} components in 1 pass\n",
                distinct.len()
            ))
        }
        Model::Wstream => {
            let capacity = args.value("capacity")?.unwrap_or(1 << 16);
            let r = wstream::connected_components(&graph, capacity, wstream::Backing::Memory)?;
            let mut distinct = r.labels.clone();
            distinct.sort_unstable();
            distinct.dedup();
            Ok(format!(
                "w-stream CC: {} components in {} passes ({} edges forwarded, capacity {capacity})\n",
                distinct.len(),
                r.passes,
                r.forwarded_edges
            ))
        }
    }
}

/// `--model`: the streaming model `components` runs in.
enum Model {
    /// Semi-streaming: one pass, O(V) memory.
    Semi,
    /// W-Stream: bounded passes over bounded edge memory.
    Wstream,
}

impl FromStr for Model {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "semi" => Ok(Model::Semi),
            "wstream" => Ok(Model::Wstream),
            other => Err(format!("expected semi or wstream, got `{other}`")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flags::{self, Flag, COMMANDS, FLAGS};
    use crate::{dispatch, usage};
    use xstream_storage::manifest::{Manifest, MANIFEST_NAME};

    fn sv(items: &[&str]) -> Vec<String> {
        items.iter().map(|s| s.to_string()).collect()
    }

    fn tmpfile(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("xstream_cli_tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn serve_validates_flags_and_shuts_down_cleanly() {
        let path = tmpfile("serve_cli.edges");
        dispatch(&sv(&[
            "generate",
            "erdos-renyi",
            "--vertices",
            "100",
            "--edges",
            "500",
            "-o",
            path.to_str().unwrap(),
        ]))
        .unwrap();
        let p = path.to_str().unwrap();
        for argv in [
            vec!["serve"],
            vec!["serve", p, "--engine", "warp"],
            vec!["serve", p, "--max-inflight", "0"],
            vec!["serve", p, "--query-timeout", "0"],
            vec!["serve", p, "--port", "99999"],
        ] {
            let err = dispatch(&sv(&argv)).unwrap_err();
            assert!(matches!(err, CliError::Usage(_)), "{argv:?}");
        }
        // Full startup + graceful drain through the injectable flag
        // (the signal path stores into the same kind of flag).
        let flag = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let args = Args::parse("serve", &sv(&[p, "--port", "0", "--threads", "2"])).unwrap();
        let thread_flag = std::sync::Arc::clone(&flag);
        let handle = std::thread::spawn(move || serve_until(&args, thread_flag));
        std::thread::sleep(std::time::Duration::from_millis(300));
        flag.store(true, std::sync::atomic::Ordering::SeqCst);
        let out = handle.join().unwrap().unwrap();
        assert!(out.contains("shutdown complete"), "{out}");
        assert!(out.contains("served 0 queries"), "{out}");
    }

    #[test]
    fn generate_info_run_pipeline() {
        let path = tmpfile("pipe.edges");
        let out = dispatch(&sv(&[
            "generate",
            "rmat",
            "--scale",
            "8",
            "--undirected",
            "-o",
            path.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("wrote 256 vertices"));

        let out = dispatch(&sv(&["info", path.to_str().unwrap()])).unwrap();
        assert!(out.contains("vertices:    256"));

        let out = dispatch(&sv(&["run", "wcc", path.to_str().unwrap()])).unwrap();
        assert!(out.contains("components"), "{out}");

        let out = dispatch(&sv(&[
            "run",
            "pagerank",
            path.to_str().unwrap(),
            "--iterations",
            "3",
            "--threads",
            "2",
        ]))
        .unwrap();
        assert!(out.contains("top vertex"), "{out}");
    }

    #[test]
    fn disk_engine_run_reports_io() {
        let path = tmpfile("disk.edges");
        dispatch(&sv(&[
            "generate",
            "erdos-renyi",
            "--vertices",
            "500",
            "--edges",
            "3000",
            "--undirected",
            "-o",
            path.to_str().unwrap(),
        ]))
        .unwrap();
        let store = std::env::temp_dir().join("xstream_cli_tests_store");
        for algo in ["wcc", "bfs", "pagerank"] {
            let out = dispatch(&sv(&[
                "run",
                algo,
                path.to_str().unwrap(),
                "--engine",
                "disk",
                "--memory-budget",
                "1M",
                "--io-unit",
                "16K",
                "--store",
                store.to_str().unwrap(),
            ]))
            .unwrap();
            assert!(out.contains("MB read"), "{algo}: {out}");
            let _ = std::fs::remove_dir_all(&store);
        }
    }

    #[test]
    fn every_algorithm_runs_on_both_engines() {
        let path = tmpfile("allalgos.edges");
        dispatch(&sv(&[
            "generate",
            "erdos-renyi",
            "--vertices",
            "300",
            "--edges",
            "2000",
            "--weighted",
            "-o",
            path.to_str().unwrap(),
        ]))
        .unwrap();
        for algo in Algo::ALL {
            let [mem, disk] = ["mem", "disk"].map(|engine| {
                let store =
                    std::env::temp_dir().join(format!("xstream_cli_allalgos_{algo}_{engine}"));
                let out = dispatch(&sv(&[
                    "run",
                    algo.name(),
                    path.to_str().unwrap(),
                    "--engine",
                    engine,
                    "--memory-budget",
                    "1M",
                    "--io-unit",
                    "16K",
                    "--store",
                    store.to_str().unwrap(),
                ]))
                .unwrap_or_else(|e| panic!("{algo} on {engine}: {e}"));
                assert!(out.contains("iterations"), "{algo}/{engine}: {out}");
                let _ = std::fs::remove_dir_all(&store);
                out.lines().next().unwrap_or_default().to_string()
            });
            match algo {
                // Integer answers: the whole answer line agrees.
                Algo::Wcc | Algo::Bfs | Algo::Sssp | Algo::Mis | Algo::Scc | Algo::Conductance => {
                    assert_eq!(mem, disk, "{algo}")
                }
                // Float ranks may reassociate; the top vertex agrees.
                Algo::Pagerank | Algo::PagerankDelta => {
                    let top =
                        |line: &str| line.split(" (rank").next().unwrap_or_default().to_string();
                    assert!(mem.contains("top vertex"), "{mem}");
                    assert_eq!(top(&mem), top(&disk), "{algo}: {mem} vs {disk}");
                }
                Algo::Spmv | Algo::Mcst => {}
            }
        }
    }

    #[test]
    fn run_and_serve_share_one_engine_flag() {
        let path = tmpfile("engineflag.edges");
        dispatch(&sv(&[
            "generate",
            "erdos-renyi",
            "--vertices",
            "100",
            "--edges",
            "400",
            "-o",
            path.to_str().unwrap(),
        ]))
        .unwrap();
        let p = path.to_str().unwrap();
        for engine in ["mem", "memory", "disk"] {
            let store = std::env::temp_dir().join(format!("xstream_cli_engineflag_{engine}"));
            let common = [
                "--engine",
                engine,
                "--memory-budget",
                "1M",
                "--io-unit",
                "16K",
                "--store",
                store.to_str().unwrap(),
            ];
            let out = dispatch(&sv(&[&["run", "wcc", p][..], &common].concat())).unwrap();
            assert!(out.contains("components"), "run --engine {engine}: {out}");
            // A pre-set shutdown flag: serve binds, drains at once and
            // returns its summary.
            let args =
                Args::parse("serve", &sv(&[&[p, "--port", "0"][..], &common].concat())).unwrap();
            let flag = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(true));
            let out = serve_until(&args, flag).unwrap();
            assert!(
                out.contains("shutdown complete"),
                "serve --engine {engine}: {out}"
            );
            let _ = std::fs::remove_dir_all(&store);
        }
        for cmd in [&["run", "wcc", p][..], &["serve", p]] {
            let err = dispatch(&sv(&[cmd, &["--engine", "warp"]].concat())).unwrap_err();
            assert!(matches!(err, CliError::Usage(_)), "{cmd:?}: {err}");
        }
    }

    #[test]
    fn threads_and_device_map_flags() {
        let path = tmpfile("devmap.edges");
        dispatch(&sv(&[
            "generate",
            "erdos-renyi",
            "--vertices",
            "400",
            "--edges",
            "2500",
            "--undirected",
            "-o",
            path.to_str().unwrap(),
        ]))
        .unwrap();
        let store = std::env::temp_dir().join("xstream_cli_tests_devmap");
        let out = dispatch(&sv(&[
            "run",
            "wcc",
            path.to_str().unwrap(),
            "--engine",
            "disk",
            "--threads",
            "4",
            "--partitions",
            "4",
            "--device-map",
            "edges=0,updates=1",
            "--memory-budget",
            "1M",
            "--io-unit",
            "16K",
            "--store",
            store.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("components"), "{out}");
        let _ = std::fs::remove_dir_all(&store);

        // A malformed map is a usage error.
        let err = dispatch(&sv(&[
            "run",
            "wcc",
            path.to_str().unwrap(),
            "--engine",
            "disk",
            "--device-map",
            "bogus",
        ]))
        .unwrap_err();
        assert!(matches!(err, CliError::Usage(_)));
    }

    #[test]
    fn frontier_flags_accepted_and_validated() {
        let path = tmpfile("frontier.edges");
        dispatch(&sv(&[
            "generate",
            "erdos-renyi",
            "--vertices",
            "400",
            "--edges",
            "2400",
            "-o",
            path.to_str().unwrap(),
        ]))
        .unwrap();
        // BFS on the disk engine with frontier scatter (default),
        // forced-sparse, and skipping disabled all agree on the
        // reachable count; the default run reports frontier activity.
        let run = |extra: &[&str]| {
            let store = std::env::temp_dir().join("xstream_cli_tests_frontier");
            let mut argv = sv(&[
                "run",
                "bfs",
                path.to_str().unwrap(),
                "--engine",
                "disk",
                "--memory-budget",
                "1M",
                "--io-unit",
                "16K",
                "--partitions",
                "4",
                "--store",
                store.to_str().unwrap(),
            ]);
            argv.extend(sv(extra));
            let out = dispatch(&argv);
            let _ = std::fs::remove_dir_all(&store);
            out
        };
        let reached = |s: &str| {
            s.lines()
                .find(|l| l.contains("vertices reached"))
                .map(str::to_string)
        };
        let dflt = run(&[]).unwrap();
        assert!(dflt.contains("frontier:"), "{dflt}");
        let sparse = run(&["--frontier-threshold", "0"]).unwrap();
        let dense = run(&["--no-frontier-skip"]).unwrap();
        assert!(!dense.contains("frontier:"), "{dense}");
        assert_eq!(reached(&dflt), reached(&sparse), "{dflt} vs {sparse}");
        assert_eq!(reached(&dflt), reached(&dense), "{dflt} vs {dense}");
        // pagerank-delta accepts --epsilon; a bad value is a usage
        // error, as is giving the switch a value.
        let out = dispatch(&sv(&[
            "run",
            "pagerank-delta",
            path.to_str().unwrap(),
            "--epsilon",
            "0",
            "--iterations",
            "10",
        ]))
        .unwrap();
        assert!(out.contains("top vertex"), "{out}");
        let err = dispatch(&sv(&[
            "run",
            "pagerank-delta",
            path.to_str().unwrap(),
            "--epsilon",
            "wat",
        ]))
        .unwrap_err();
        assert!(matches!(err, CliError::Usage(_)), "{err}");
        let err = Args::parse("run", &sv(&["wcc", "g", "--no-frontier-skip=yes"])).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)), "{err}");
    }

    #[test]
    fn pin_workers_flag_accepted_and_validated() {
        let path = tmpfile("pin.edges");
        dispatch(&sv(&[
            "generate",
            "erdos-renyi",
            "--vertices",
            "200",
            "--edges",
            "1200",
            "--undirected",
            "-o",
            path.to_str().unwrap(),
        ]))
        .unwrap();
        // Both spellings work, on both engines; on a restricted
        // environment pinning is a silent no-op and results match.
        let baseline = dispatch(&sv(&["run", "wcc", path.to_str().unwrap()])).unwrap();
        for mode in ["cores", "nodes", "off"] {
            let out = dispatch(&sv(&[
                "run",
                "wcc",
                path.to_str().unwrap(),
                &format!("--pin-workers={mode}"),
                "--threads",
                "2",
            ]))
            .unwrap();
            // Same component count line regardless of pinning.
            assert_eq!(
                out.lines().next(),
                baseline.lines().next(),
                "mode {mode}: {out}"
            );
        }
        let err = dispatch(&sv(&[
            "run",
            "wcc",
            path.to_str().unwrap(),
            "--pin-workers",
            "sideways",
        ]))
        .unwrap_err();
        assert!(matches!(err, CliError::Usage(_)));
    }

    /// Whether `section` lists `flag` in its flag column.
    fn documents(section: &str, flag: &Flag) -> bool {
        let label = flag.label();
        section.lines().any(|line| {
            line.strip_prefix("      ")
                .and_then(|rest| rest.strip_prefix(&label))
                .is_some_and(|tail| tail.is_empty() || tail.starts_with(' '))
        })
    }

    #[test]
    fn flag_table_drives_parsing_and_help() {
        let help = usage();
        for f in FLAGS {
            let rows = FLAGS.iter().filter(|g| g.long == f.long).count();
            assert_eq!(rows, 1, "--{} declared {rows} times", f.long);
            for c in f.commands {
                assert!(flags::command(c).is_some(), "--{}: no command {c}", f.long);
            }
        }
        for cmd in COMMANDS {
            let section = flags::section(cmd);
            assert!(help.contains(&section), "{} missing from usage()", cmd.name);
            for f in FLAGS {
                let mut spellings = vec![format!("--{}", f.long)];
                spellings.extend(f.short.map(|s| format!("-{s}")));
                for spelled in spellings {
                    let mut argv = vec!["x".to_string(); cmd.operands.len()];
                    argv.push(spelled.clone());
                    if f.metavar.is_some() {
                        argv.push("1".into());
                    }
                    let parsed = Args::parse(cmd.name, &argv);
                    if f.commands.contains(&cmd.name) {
                        assert!(documents(&section, f), "{spelled} not in {section}");
                        assert!(parsed.is_ok(), "{} {spelled}: {parsed:?}", cmd.name);
                    } else {
                        assert!(!documents(&section, f), "{spelled} in {section}");
                        match parsed {
                            Err(CliError::Usage(msg)) => {
                                assert!(msg.contains(&spelled), "{msg}");
                                assert!(msg.contains(cmd.name), "{msg}");
                            }
                            other => panic!("{} {spelled}: {other:?}", cmd.name),
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn unknown_misplaced_and_extra_arguments_are_usage_errors() {
        for (argv, offender) in [
            (&["run", "wcc", "g", "--thread", "8"][..], "--thread"),
            (&["info", "g", "--threads", "4"], "--threads"),
            (
                &[
                    "generate",
                    "grid",
                    "--vertices",
                    "16",
                    "--verbose",
                    "-o",
                    "x",
                ],
                "--verbose",
            ),
            (&["serve", "g", "--resume"], "--resume"),
            (&["serve", "g", "--root", "5"], "--root"),
            (&["serve", "g", "--epsilon", "3"], "--epsilon"),
            (&["run", "wcc", "g", "extra"], "extra"),
            (
                &["run", "wcc", "g", "--gather-threads", "2"],
                "--gather-threads",
            ),
        ] {
            match dispatch(&sv(argv)) {
                Err(CliError::Usage(msg)) => assert!(msg.contains(offender), "{argv:?}: {msg}"),
                other => panic!("{argv:?}: expected a usage error, got {other:?}"),
            }
        }
    }

    #[test]
    fn manifest_layout_flags_are_run_flags() {
        // The store manifest records the layout-deciding flags by name,
        // and `--resume` under a changed one names it back; every name
        // recorded must be a flag `run` takes.
        let path = tmpfile("manifest_flags.edges");
        dispatch(&sv(&[
            "generate",
            "erdos-renyi",
            "--vertices",
            "200",
            "--edges",
            "1000",
            "-o",
            path.to_str().unwrap(),
        ]))
        .unwrap();
        let store = std::env::temp_dir().join("xstream_cli_tests_manifest_flags");
        let _ = std::fs::remove_dir_all(&store);
        dispatch(&sv(&[
            "run",
            "bfs",
            path.to_str().unwrap(),
            "--engine",
            "disk",
            "--memory-budget",
            "1M",
            "--io-unit",
            "16K",
            "--store",
            store.to_str().unwrap(),
        ]))
        .unwrap();
        let bytes = std::fs::read(store.join(MANIFEST_NAME)).unwrap();
        let manifest = Manifest::decode(&bytes).expect("sealed manifest");
        let recorded: Vec<&str> = manifest
            .config
            .iter()
            .filter_map(|(key, _)| key.strip_prefix("--"))
            .collect();
        assert!(!recorded.is_empty(), "{:?}", manifest.config);
        for name in recorded {
            let flag = flags::flag(name).unwrap_or_else(|| panic!("--{name} is no flag"));
            assert!(flag.commands.contains(&"run"), "--{name} is not a run flag");
        }
        let _ = std::fs::remove_dir_all(&store);
    }

    #[test]
    fn checkpoint_and_resume_flags() {
        let path = tmpfile("ckpt.edges");
        dispatch(&sv(&[
            "generate",
            "erdos-renyi",
            "--vertices",
            "300",
            "--edges",
            "2000",
            "--undirected",
            "-o",
            path.to_str().unwrap(),
        ]))
        .unwrap();
        let store = std::env::temp_dir().join("xstream_cli_tests_ckpt");
        let _ = std::fs::remove_dir_all(&store);
        let run = |extra: &[&str]| {
            let mut argv = sv(&[
                "run",
                "wcc",
                path.to_str().unwrap(),
                "--engine",
                "disk",
                "--checkpoint-every",
                "1",
                "--max-retries",
                "2",
                "--memory-budget",
                "1M",
                "--io-unit",
                "16K",
                "--store",
                store.to_str().unwrap(),
            ]);
            argv.extend(sv(extra));
            dispatch(&argv)
        };
        let base = run(&[]).unwrap();
        // The kept store holds at least one checkpoint frame.
        assert!(
            store.join("checkpoint.0").is_file() || store.join("checkpoint.1").is_file(),
            "no checkpoint frame written"
        );
        // A resumed run restores it and reports the same components.
        let resumed = run(&["--resume"]).unwrap();
        assert!(resumed.contains("resumed from checkpoint"), "{resumed}");
        let comp = |s: &str| {
            s.lines()
                .find(|l| l.contains("components"))
                .map(str::to_string)
        };
        assert_eq!(comp(&base), comp(&resumed), "{base} vs {resumed}");
        // --resume needs the disk engine and an explicit store.
        let err = dispatch(&sv(&["run", "wcc", path.to_str().unwrap(), "--resume"])).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)), "{err}");
        let err = dispatch(&sv(&[
            "run",
            "wcc",
            path.to_str().unwrap(),
            "--engine",
            "disk",
            "--resume",
        ]))
        .unwrap_err();
        assert!(matches!(err, CliError::Usage(_)), "{err}");
        let _ = std::fs::remove_dir_all(&store);
    }

    #[test]
    fn scrub_detects_damage_and_repair_restores_the_store() {
        let path = tmpfile("scrub.edges");
        dispatch(&sv(&[
            "generate",
            "erdos-renyi",
            "--vertices",
            "400",
            "--edges",
            "2400",
            "-o",
            path.to_str().unwrap(),
        ]))
        .unwrap();
        let store = std::env::temp_dir().join("xstream_cli_tests_scrub");
        let _ = std::fs::remove_dir_all(&store);
        // BFS tracks its frontier, so the build seals sparse-scatter
        // index streams into the manifest alongside edges/checkpoints.
        let out = dispatch(&sv(&[
            "run",
            "bfs",
            path.to_str().unwrap(),
            "--engine",
            "disk",
            "--memory-budget",
            "1M",
            "--io-unit",
            "16K",
            "--partitions",
            "4",
            "--checkpoint-every",
            "1",
            "--store",
            store.to_str().unwrap(),
        ]))
        .unwrap();
        // Verification is on by default and reports its work.
        assert!(out.contains("chunks verified on read"), "{out}");

        // A freshly-written store is clean.
        let scrub = |extra: &[&str]| {
            let mut argv = sv(&["scrub", store.to_str().unwrap()]);
            argv.extend(sv(extra));
            dispatch(&argv)
        };
        let out = scrub(&[]).unwrap();
        assert!(out.contains("store is clean"), "{out}");

        // Rot one byte of a derived index stream: detect-only scrub
        // fails (nonzero exit for CI gates) and points at --repair.
        let rot = |name: &str, at: u64| {
            use std::io::{Read, Seek, SeekFrom, Write};
            let mut f = std::fs::OpenOptions::new()
                .read(true)
                .write(true)
                .open(store.join(name))
                .unwrap();
            f.seek(SeekFrom::Start(at)).unwrap();
            let mut b = [0u8; 1];
            f.read_exact(&mut b).unwrap();
            f.seek(SeekFrom::Start(at)).unwrap();
            f.write_all(&[b[0] ^ 0xff]).unwrap();
        };
        rot("index.2", 40);
        let err = scrub(&[]).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("index.2"), "{msg}");
        assert!(msg.contains("CORRUPT"), "{msg}");
        assert!(msg.contains("--repair"), "{msg}");

        // --repair rebuilds the index from its verified edge stream
        // and re-seals the manifest; the store is clean again and the
        // repaired store still runs (resume included).
        let out = scrub(&["--repair"]).unwrap();
        assert!(out.contains("rebuilt"), "{out}");
        assert!(out.contains("all damage repaired"), "{out}");
        let out = scrub(&[]).unwrap();
        assert!(out.contains("store is clean"), "{out}");

        // Rotted primary data is detected but not fabricated back:
        // repair reports it unrepairable and still exits nonzero.
        rot("edges.1", 100);
        let err = scrub(&["--repair"]).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("edges.1"), "{msg}");
        assert!(msg.contains("UNREPAIRABLE"), "{msg}");

        // Refuses directories that are not stores.
        let not_store = std::env::temp_dir().join("xstream_cli_tests_notastore");
        std::fs::create_dir_all(&not_store).unwrap();
        let err = dispatch(&sv(&["scrub", not_store.to_str().unwrap()])).unwrap_err();
        assert!(err.to_string().contains(STORE_MARKER), "{err}");
        let _ = std::fs::remove_dir_all(&not_store);
        let _ = std::fs::remove_dir_all(&store);
    }

    #[test]
    fn resume_under_changed_layout_flags_names_the_flag() {
        let path = tmpfile("resumecfg.edges");
        dispatch(&sv(&[
            "generate",
            "erdos-renyi",
            "--vertices",
            "300",
            "--edges",
            "1800",
            "--undirected",
            "-o",
            path.to_str().unwrap(),
        ]))
        .unwrap();
        let store = std::env::temp_dir().join("xstream_cli_tests_resumecfg");
        let _ = std::fs::remove_dir_all(&store);
        let run = |extra: &[&str]| {
            let mut argv = sv(&[
                "run",
                "wcc",
                path.to_str().unwrap(),
                "--engine",
                "disk",
                "--memory-budget",
                "1M",
                "--io-unit",
                "16K",
                "--checkpoint-every",
                "1",
                "--store",
                store.to_str().unwrap(),
            ]);
            argv.extend(sv(extra));
            dispatch(&argv)
        };
        run(&["--partitions", "4"]).unwrap();
        // Resuming under a different partition count is rejected with
        // the offending flag named, not a silent fresh start.
        let err = run(&["--partitions", "8", "--resume"]).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("--partitions"), "{msg}");
        assert!(msg.contains("--resume"), "{msg}");
        // With the original layout the resume goes through.
        let out = run(&["--partitions", "4", "--resume"]).unwrap();
        assert!(out.contains("resumed from checkpoint"), "{out}");
        let _ = std::fs::remove_dir_all(&store);
    }

    #[test]
    fn store_dir_safety() {
        let path = tmpfile("storesafety.edges");
        dispatch(&sv(&[
            "generate",
            "erdos-renyi",
            "--vertices",
            "200",
            "--edges",
            "1000",
            "-o",
            path.to_str().unwrap(),
        ]))
        .unwrap();
        let run = |store: &Path| {
            dispatch(&sv(&[
                "run",
                "wcc",
                path.to_str().unwrap(),
                "--engine",
                "disk",
                "--memory-budget",
                "1M",
                "--io-unit",
                "16K",
                "--store",
                store.to_str().unwrap(),
            ]))
        };
        // A non-empty directory without the marker is refused — and
        // survives untouched.
        let precious = std::env::temp_dir().join("xstream_cli_precious");
        let _ = std::fs::remove_dir_all(&precious);
        std::fs::create_dir_all(&precious).unwrap();
        std::fs::write(precious.join("thesis.tex"), b"irreplaceable").unwrap();
        let err = run(&precious).unwrap_err();
        assert!(matches!(err, CliError::Run(_)), "{err}");
        assert!(err.to_string().contains(STORE_MARKER), "{err}");
        assert_eq!(
            std::fs::read(precious.join("thesis.tex")).unwrap(),
            b"irreplaceable"
        );
        // An empty directory is fine, gains the marker, and a second
        // run over the now-marked directory is allowed to wipe it.
        std::fs::remove_file(precious.join("thesis.tex")).unwrap();
        run(&precious).unwrap();
        assert!(precious.join(STORE_MARKER).is_file());
        run(&precious).unwrap();
        let _ = std::fs::remove_dir_all(&precious);
        // A store path that is a file is refused.
        let file = std::env::temp_dir().join("xstream_cli_store_file");
        std::fs::write(&file, b"x").unwrap();
        assert!(matches!(run(&file), Err(CliError::Run(_))));
        let _ = std::fs::remove_file(&file);
    }

    #[test]
    fn default_store_is_unique_and_cleaned_up() {
        let path = tmpfile("defstore.edges");
        dispatch(&sv(&[
            "generate",
            "erdos-renyi",
            "--vertices",
            "150",
            "--edges",
            "800",
            "-o",
            path.to_str().unwrap(),
        ]))
        .unwrap();
        let leftovers = || {
            std::fs::read_dir(std::env::temp_dir())
                .unwrap()
                .filter_map(|e| e.ok())
                .filter(|e| {
                    e.file_name()
                        .to_string_lossy()
                        .starts_with(&format!("xstream_run_{}_", std::process::id()))
                })
                .count()
        };
        let before = leftovers();
        dispatch(&sv(&[
            "run",
            "wcc",
            path.to_str().unwrap(),
            "--engine",
            "disk",
            "--memory-budget",
            "1M",
            "--io-unit",
            "16K",
        ]))
        .unwrap();
        // The per-invocation temp store removed itself.
        assert_eq!(leftovers(), before);
    }

    #[test]
    fn out_of_range_root_is_a_usage_error() {
        let path = tmpfile("root.edges");
        dispatch(&sv(&[
            "generate",
            "grid",
            "--vertices",
            "100",
            "-o",
            path.to_str().unwrap(),
        ]))
        .unwrap();
        for engine in ["mem", "disk"] {
            for algo in ["bfs", "sssp"] {
                let err = dispatch(&sv(&[
                    "run",
                    algo,
                    path.to_str().unwrap(),
                    "--engine",
                    engine,
                    "--memory-budget",
                    "1M",
                    "--io-unit",
                    "16K",
                    "--root",
                    "100000",
                ]))
                .unwrap_err();
                match err {
                    CliError::Usage(msg) => {
                        assert!(msg.contains("valid roots"), "{algo}/{engine}: {msg}")
                    }
                    other => panic!("{algo}/{engine}: expected usage error, got {other}"),
                }
            }
        }
        // An in-range root still works, and pagerank ignores --root
        // entirely (no spurious validation).
        let out = dispatch(&sv(&["run", "bfs", path.to_str().unwrap(), "--root", "99"])).unwrap();
        assert!(out.contains("vertices reached"), "{out}");
        let out = dispatch(&sv(&[
            "run",
            "pagerank",
            path.to_str().unwrap(),
            "--root",
            "100000",
        ]))
        .unwrap();
        assert!(out.contains("top vertex"), "{out}");
    }

    #[test]
    fn out_of_range_edges_are_an_error_on_both_engines() {
        // Four declared vertices and an edge naming vertex 9, with no
        // checksum sidecar: every engine must report the edge, never
        // panic while building.
        let path = tmpfile("out_of_range.edges");
        let _ = std::fs::remove_file(xstream_graph::fileio::sum_path(&path));
        let mut bytes = b"XSTREAM1".to_vec();
        for word in [4u64, 2] {
            bytes.extend_from_slice(&word.to_le_bytes());
        }
        for (src, dst) in [(0u32, 1u32), (0, 9)] {
            bytes.extend_from_slice(&src.to_le_bytes());
            bytes.extend_from_slice(&dst.to_le_bytes());
            bytes.extend_from_slice(&0f32.to_le_bytes());
        }
        std::fs::write(&path, bytes).unwrap();
        let p = path.to_str().unwrap();
        for engine in ["mem", "disk"] {
            for algo in ["wcc", "bfs"] {
                let err = dispatch(&sv(&[
                    "run",
                    algo,
                    p,
                    "--engine",
                    engine,
                    "--memory-budget",
                    "1M",
                    "--io-unit",
                    "16K",
                ]))
                .unwrap_err();
                assert!(
                    err.to_string().contains("outside the declared range"),
                    "{algo}/{engine}: {err}"
                );
            }
        }
        // The in-memory server builds its engine at startup.
        let args = Args::parse("serve", &sv(&[p, "--engine", "mem", "--port", "0"])).unwrap();
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(true));
        let err = serve_until(&args, stop).unwrap_err();
        assert!(
            err.to_string().contains("outside the declared range"),
            "serve: {err}"
        );
    }

    #[test]
    fn import_then_run_pipeline() {
        let dir = std::env::temp_dir().join("xstream_cli_import");
        std::fs::create_dir_all(&dir).unwrap();
        let src = dir.join("snap.txt");
        let dst = dir.join("snap.xse");
        std::fs::write(&src, "# tiny SNAP fixture\n0 1\n1 2\n2 3\n3 0\n\n4 4 2.5\n").unwrap();
        let out = dispatch(&sv(&[
            "import",
            src.to_str().unwrap(),
            dst.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("imported 5 edges over 5 vertices"), "{out}");
        assert!(out.contains("2 comment/blank lines skipped"), "{out}");
        let info = dispatch(&sv(&["info", dst.to_str().unwrap()])).unwrap();
        assert!(info.contains("vertices:    5"), "{info}");
        assert!(info.contains("self loops:  1"), "{info}");
        // The imported file runs on both engines and agrees: the
        // 0-1-2-3 cycle plus the isolated self-loop vertex give two
        // components. (Explicit --store: the default-store path is
        // owned by `default_store_is_unique_and_cleaned_up`, which
        // counts this process's ephemeral temp dirs and would race a
        // concurrent default-store run.)
        let store = dir.join("store");
        for engine in ["mem", "disk"] {
            let out = dispatch(&sv(&[
                "run",
                "wcc",
                dst.to_str().unwrap(),
                "--engine",
                engine,
                "--memory-budget",
                "1M",
                "--io-unit",
                "16K",
                "--store",
                store.to_str().unwrap(),
            ]))
            .unwrap();
            assert!(out.contains("2 components"), "{engine}: {out}");
        }
        // Bad format name is a usage error.
        let err = dispatch(&sv(&[
            "import",
            src.to_str().unwrap(),
            dst.to_str().unwrap(),
            "--format",
            "yaml",
        ]))
        .unwrap_err();
        assert!(matches!(err, CliError::Usage(_)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn components_models_agree() {
        let path = tmpfile("cc.edges");
        dispatch(&sv(&[
            "generate",
            "pref-attach",
            "--vertices",
            "400",
            "--degree",
            "4",
            "-o",
            path.to_str().unwrap(),
        ]))
        .unwrap();
        let semi_out = dispatch(&sv(&[
            "components",
            path.to_str().unwrap(),
            "--model",
            "semi",
        ]))
        .unwrap();
        let w_out = dispatch(&sv(&[
            "components",
            path.to_str().unwrap(),
            "--model",
            "wstream",
            "--capacity",
            "16",
        ]))
        .unwrap();
        // Both report the same component count.
        let count = |s: &str| {
            s.split("CC: ")
                .nth(1)
                .and_then(|t| t.split(' ').next())
                .map(str::to_string)
        };
        assert_eq!(count(&semi_out), count(&w_out), "{semi_out} vs {w_out}");
        // So does `run wcc` on both engines. Every edge of this graph
        // points at an older vertex, so a WCC that read the file
        // directed instead of undirected would split it apart.
        let store = tmpfile("cc_store");
        for engine in ["mem", "disk"] {
            let out = dispatch(&sv(&[
                "run",
                "wcc",
                path.to_str().unwrap(),
                "--engine",
                engine,
                "--store",
                store.to_str().unwrap(),
            ]))
            .unwrap();
            let components = out
                .split(" components")
                .next()
                .and_then(|h| h.split(": ").nth(1));
            assert_eq!(components, count(&semi_out).as_deref(), "{engine}: {out}");
        }
        let _ = std::fs::remove_dir_all(&store);
    }

    #[test]
    fn bad_invocations_produce_usage_errors() {
        assert!(matches!(dispatch(&sv(&["run"])), Err(CliError::Usage(_))));
        assert!(matches!(
            dispatch(&sv(&["frobnicate"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            dispatch(&sv(&["generate", "rmat"])),
            Err(CliError::Usage(_))
        ));
        let help = dispatch(&sv(&["help"])).unwrap();
        assert!(help.contains("USAGE"));
    }

    #[test]
    fn weighted_switch_assigns_weights() {
        let path = tmpfile("weights.edges");
        dispatch(&sv(&[
            "generate",
            "grid",
            "--vertices",
            "100",
            "--weighted",
            "-o",
            path.to_str().unwrap(),
        ]))
        .unwrap();
        let g = read_edge_file(&path).unwrap();
        assert!(g.edges().iter().any(|e| e.weight > 0.0));
        let out = dispatch(&sv(&["run", "mcst", path.to_str().unwrap()])).unwrap();
        assert!(out.contains("forest weight"), "{out}");
    }
}
