//! The out-of-core engine's main loop (paper Fig. 6), built — like the
//! in-memory engine — around a zero-allocation, fully overlapped
//! steady state, with every phase striped across the worker pool and
//! every stream striped across its storage device's own I/O threads.
//!
//! One superstep is:
//!
//! 1. **Scatter + fused shuffle** — the persistent striped
//!    [`ReadAhead`] (one prefetch thread per device of the store's
//!    `device_fn`, Fig. 15) streams each partition's edge file with
//!    prefetch distance 1 *and rolls into the next partition's file
//!    while this one still computes* (§3.3). Every loaded chunk fans
//!    out to the engine's parked [`WorkerPool`] workers, which append
//!    updates *directly into per-partition chains* of blocks of an
//!    [`OutputBuffer`] (the §4.3 layering of the in-memory primitives
//!    over loaded disk chunks, with the single-stage shuffle fused
//!    into scatter). The engine keeps **two** such buffers — the
//!    paper's two output buffers, sized at build — and
//!    spills are **zero-copy**: when the filling buffer reaches the
//!    spill threshold the buffers swap, and each run of the full one
//!    is submitted *by reference* to the persistent [`AsyncWriter`]
//!    (one writer thread per device), which appends straight from the
//!    blocks while the workers scatter into the other buffer (§3.3's
//!    double-buffered output without the copy).
//! 2. **Gather** — updates generated after the last spill stay
//!    *resident* in the filling buffer and are gathered from memory (a
//!    generalization of §3.2 optimization 2: the tail buffer exists
//!    either way, so it never pays the disk round trip). Spilled
//!    partitions gather from their update files; with the vertex
//!    array in memory and more than one streaming partition, the
//!    partitions gather **in parallel on the pool workers** — each
//!    partition owns a disjoint vertex-state slice, so workers apply
//!    `program.gather` with no locks, and each worker streams its own
//!    partition's file so the load of one partition overlaps the
//!    apply of another (Fig. 14's core scaling applied to gather, on
//!    `min(threads, K)` lanes). The serial fallback (on-disk vertex
//!    state, one partition, one thread, or update files too large for
//!    the memory gate) streams files through the read-ahead thread
//!    exactly as the paper describes. Update streams are truncated, not deleted (a TRIM,
//!    §3.3), so their file handles — and the output buffers — survive
//!    into the next superstep.
//!
//! Two §3.2 optimizations are implemented: the vertex array stays in
//! memory when it fits the budget, and updates skip the disk entirely
//! (gather reads the output buffer directly) when one stream buffer
//! holds the whole scatter output.
//!
//! For programs that opt into [`FrontierMode::Tracked`], the engine
//! additionally keeps a double-buffered active-vertex bitmap
//! ([`FrontierPair`]): gather marks every vertex it changed, and the
//! next scatter decides per partition — *before* queueing any
//! read-ahead — whether to **skip** it outright (no active sources:
//! zero I/O), stream it **densely** as above, or run an **index-based
//! sparse scatter** (Ligra's hybrid, applied to streams): ingest
//! groups each partition's edge file by source vertex and keeps the
//! per-vertex run offsets in memory next to the vertex array (§3.2
//! keeps vertex-side arrays resident and streams only edges and
//! updates), so a sparse partition issues pooled ranged reads of just
//! the active vertices' edge runs.
//! The dense/sparse switch compares the active edge count against
//! [`EngineConfig::wants_sparse_scatter`]'s threshold.
//!
//! All memory — the two scatter output buffers, spill byte buffers, read
//! chunks, vertex decode scratch, gather stream buffers, interned
//! stream names — is owned by the engine or its per-device I/O threads
//! and recycled across supersteps; the I/O threads and the worker pool
//! are spawned once at construction. This holds for on-disk vertex
//! state too: partition loads decode into pooled scratch
//! ([`VertexStorage::load_scatter`]) and write-backs truncate + append
//! through cached handles. The output buffers are sized at build and
//! never grow; once they and the pooled I/O buffers are allocated and
//! have seen their
//! high-water marks, a superstep performs **no heap allocation** and
//! spawns **no threads** (tracked in [`IterationStats::alloc_count`]
//! via [`xstream_core::alloc_stats`]). `streaming_ns` counts only the
//! time the superstep thread was *blocked* on stream I/O (waiting for
//! a read chunk, for writer backpressure, or for a spill/drain
//! barrier), making the Fig. 12b runtime/streaming ratios comparable
//! to the in-memory engine's. Tests check the pipeline against the
//! sequential [`xstream_core::OracleEngine`].

use std::mem::size_of;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use crate::vertices::VertexStorage;
use xstream_core::program::{gather_updates, scatter_edges, TargetedUpdate};
use xstream_core::record::{records_as_bytes, RecordIter};
use xstream_core::{
    alloc_stats, Edge, EdgeProgram, Engine, EngineConfig, Error, Frontier, FrontierMode,
    FrontierPair, IterationStats, Partitioner, Record, Result, VertexId,
};
use xstream_graph::fileio::EdgeFileReader;
use xstream_graph::{EdgeList, MirrorMode};
use xstream_storage::pool::{PerWorkerPtr, StatesPtr, WorkerPool};
use xstream_storage::shuffle::CountingPlacement;
use xstream_storage::{
    AsyncWriter, Manifest, OutputBuffer, ReadAhead, StreamEntry, StreamRole, StreamStore,
    WriteMark, MANIFEST_NAME,
};

/// Path-based ingest descriptor: *what* edge file to stream and *how*
/// to expand it on the fly during the pre-processing shuffle.
///
/// This is the out-of-core entry point the paper describes (§3: one
/// streaming pass over an unordered edge list, no sort, no in-memory
/// graph): [`DiskEngine::from_ingest`] reads the file chunk by chunk,
/// applies the [`MirrorMode`] to each loaded chunk *before* partition
/// routing, and appends the shuffled runs to the partition edge files.
/// The undirected/bidirectional doubling that
/// [`EdgeList::to_undirected`]/[`EdgeList::to_bidirectional`] perform
/// in RAM therefore costs O(chunk) memory here, and ingest as a whole
/// is bounded by the chunk buffers plus vertex state — never the edge
/// list.
#[derive(Clone)]
pub struct EdgeIngest {
    path: PathBuf,
    mirror: MirrorMode,
    /// Per-chunk observer invoked on every ingested (post-mirror,
    /// validated) chunk; lets callers fold a second streaming pass —
    /// e.g. PageRank's out-degree count — into the one ingest pass.
    observer: Option<ChunkObserver>,
}

/// Shared per-chunk ingest callback (see [`EdgeIngest::with_observer`]).
type ChunkObserver = Arc<dyn Fn(&[Edge]) + Send + Sync>;

impl std::fmt::Debug for EdgeIngest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EdgeIngest")
            .field("path", &self.path)
            .field("mirror", &self.mirror)
            .field("observer", &self.observer.as_ref().map(|_| "Fn(&[Edge])"))
            .finish()
    }
}

impl EdgeIngest {
    /// Streams the file as stored (directed).
    pub fn new(path: impl Into<PathBuf>) -> Self {
        Self {
            path: path.into(),
            mirror: MirrorMode::None,
            observer: None,
        }
    }

    /// Streams the file with on-the-fly undirected expansion (every
    /// chunk is mirrored before partition routing; self-loops stay
    /// single).
    pub fn undirected(path: impl Into<PathBuf>) -> Self {
        Self::new(path).with_mirror(MirrorMode::Undirected)
    }

    /// Streams the file with on-the-fly bidirectional expansion
    /// (forward/backward direction tags for SCC-style traversals).
    pub fn bidirectional(path: impl Into<PathBuf>) -> Self {
        Self::new(path).with_mirror(MirrorMode::Bidirectional)
    }

    /// Replaces the mirroring mode.
    pub fn with_mirror(mut self, mirror: MirrorMode) -> Self {
        self.mirror = mirror;
        self
    }

    /// Installs a per-chunk observer called on every ingested chunk
    /// *after* mirroring and validation. The observer sees exactly the
    /// edges the engine will stream — doubled for undirected ingest —
    /// which makes it the place to fold auxiliary whole-graph passes
    /// (degree counting, histograms) into the single ingest read
    /// instead of re-reading the edge file.
    pub fn with_observer(mut self, f: impl Fn(&[Edge]) + Send + Sync + 'static) -> Self {
        self.observer = Some(Arc::new(f));
        self
    }

    /// The edge file to stream.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The chunk-level expansion applied during ingest.
    pub fn mirror(&self) -> MirrorMode {
        self.mirror
    }
}

/// Name of the edge stream of partition `p`.
pub fn edge_stream(p: usize) -> String {
    format!("edges.{p}")
}

/// Name of the update stream of partition `p`.
pub fn update_stream(p: usize) -> String {
    format!("updates.{p}")
}

/// The engine-config `(flag, value)` pairs that decide the on-disk
/// layout and the semantics of a resumed run. Recorded in the store
/// manifest and folded into the checkpoint fingerprint, so `--resume`
/// under a changed flag fails with a message *naming* the flag instead
/// of silently restarting (or worse, resuming wrong).
/// The non-flag `vertices` entry records the graph shape, so a resume
/// over a different graph is named too; it is part of the fingerprint.
fn layout_flags(config: &EngineConfig, kp: usize, num_vertices: usize) -> Vec<(String, String)> {
    vec![
        ("vertices".into(), num_vertices.to_string()),
        ("--partitions".into(), kp.to_string()),
        ("--io-unit".into(), config.io_unit.to_string()),
        (
            "--frontier-threshold".into(),
            config.frontier_threshold.to_string(),
        ),
        (
            "--no-frontier-skip".into(),
            (!config.frontier_skip).to_string(),
        ),
    ]
}

/// Rejects a resume whose layout-deciding flags differ from the
/// store's previous manifest, naming the first offending flag — the
/// alternative is a fingerprint mismatch the user can't diagnose (or,
/// for flags outside the fingerprint, a silently wrong resume).
fn check_layout_compatible(flags: &[(String, String)], prior: &[(String, String)]) -> Result<()> {
    for (flag, val) in flags {
        if let Some((_, prev)) = prior.iter().find(|(k, _)| k == flag) {
            if prev != val {
                return Err(Error::Config(format!(
                    "cannot --resume: {flag} changed from {prev} to {val}; \
                     rerun with the original value or drop --resume to start fresh"
                )));
            }
        }
    }
    Ok(())
}

/// The fingerprint binding checkpoints and the store manifest to this
/// exact (graph shape, program, state layout, layout-deciding config)
/// combination.
fn run_fingerprint<P: EdgeProgram>(
    num_vertices: usize,
    num_edges: usize,
    flags: &[(String, String)],
) -> u64 {
    let nv = (num_vertices as u64).to_le_bytes();
    let ne = (num_edges as u64).to_le_bytes();
    let ss = (size_of::<P::State>() as u64).to_le_bytes();
    let ty = std::any::type_name::<P>();
    let mut parts: Vec<&[u8]> = Vec::with_capacity(4 + flags.len() * 2);
    parts.extend([&nv[..], &ne[..], &ss[..], ty.as_bytes()]);
    for (k, v) in flags {
        parts.push(k.as_bytes());
        parts.push(v.as_bytes());
    }
    crate::checkpoint::fingerprint(&parts)
}

/// Per-partition scatter modes for one superstep (pooled in
/// `DiskEngine::modes`).
const MODE_DENSE: u8 = 0;
const MODE_SKIP: u8 = 1;
const MODE_SPARSE: u8 = 2;

/// Per-worker gather counters, cache-line aligned so concurrent
/// workers never false-share a line on their hottest loop.
#[derive(Debug, Default, Clone, Copy)]
#[repr(align(64))]
struct GatherCounters {
    applied: u64,
    changed: u64,
    /// Time this worker spent loading update files (`read_all_into`);
    /// the lane-wise maximum is the gather's critical-path I/O time.
    io_ns: u64,
}

/// The out-of-core streaming engine.
pub struct DiskEngine<P: EdgeProgram> {
    config: EngineConfig,
    store: Arc<StreamStore>,
    partitioner: Partitioner,
    num_edges: usize,
    vertices: VertexStorage<P::State>,
    /// Update records buffered across all workers' chains before a
    /// spill (§3.4 stream-buffer sizing).
    spill_threshold: usize,
    /// One stream buffer's byte size (`spill_threshold` in bytes);
    /// doubles as the memory envelope the parallel gather's lane
    /// buffers may claim (the idle output pools' capacity).
    stream_buffer_bytes: usize,
    /// Updates generated after the last spill stayed resident in
    /// `scratch`; gather reads those chains in place (the
    /// generalization of §3.2 optimization 2).
    resident_updates: bool,
    /// Whether this superstep spilled updates to the per-partition
    /// files (gather then streams them back).
    spilled_updates: bool,
    /// Persistent per-device background writer threads with a
    /// recycling buffer pool. Declared before the output buffers so
    /// the engine's drop joins the writer — draining any zero-copy
    /// spill jobs that still point into the buffers — before the
    /// buffers are freed.
    writer: AsyncWriter,
    /// Persistent per-device read-ahead threads with recycling buffer
    /// pools.
    reader: ReadAhead,
    /// The *filling* half of the double-buffered scatter output
    /// (§3.3): the fused scatter+shuffle writes each worker's updates
    /// into its chain of blocks for their partition. Both halves are
    /// sized at build, to hold the spill threshold plus one scatter
    /// step's updates, and allocated, untouched, by their first write.
    scratch: OutputBuffer<TargetedUpdate<P::Update>>,
    /// The *draining* half: the buffer most recently handed to the
    /// writer by a zero-copy spill. Untouched until the barrier
    /// covering that spill (`spill_mark`) has been waited on.
    drain: OutputBuffer<TargetedUpdate<P::Update>>,
    /// Writer barrier token covering the last zero-copy spill's
    /// borrowed runs; `drain` may be reused once `wait_until` passes
    /// it.
    spill_mark: WriteMark,
    /// Parked worker threads (`None` when single-threaded); worker 0
    /// is the calling thread.
    pool: Option<WorkerPool>,
    /// Interned stream names: submitting a write or queueing a read
    /// clones an `Arc`, never allocates.
    edge_names: Vec<Arc<str>>,
    update_names: Vec<Arc<str>>,
    /// Pooled per-worker byte buffers for the parallel gather's
    /// partition update-file loads.
    gather_bufs: Vec<Vec<u8>>,
    /// Pooled per-worker gather statistics.
    gather_counters: Vec<GatherCounters>,
    /// Whether the last superstep ran to completion. A superstep that
    /// bailed out mid-flight (I/O error) leaves queued read-ahead
    /// streams, partial update files and possibly unflushed spill jobs
    /// behind; the next superstep restores stream consistency first
    /// (see `recover()`).
    clean: bool,
    /// Pooled copy of the in-memory vertex array taken before each
    /// superstep when retries are allowed, so a transiently failed
    /// attempt — whose gather may have half-applied its updates — can
    /// be rolled back exactly. Empty when vertex state is on disk or
    /// `retry.max_attempts == 1`.
    vertex_snapshot: Vec<P::State>,
    /// Whether the current superstep's gather has started mutating
    /// vertex state. Gates on-disk retries: without a snapshot, a
    /// fault after the first gather mutation cannot be rolled back
    /// (checkpoint/resume is the recovery path there).
    gather_dirty: bool,
    /// First error `recover()` swallowed while draining the
    /// writer — the failed superstep's root cause is reported by the
    /// superstep itself, but a *recovery-time* failure must not vanish
    /// either; it is kept here until read.
    recovery_error: Option<Error>,
    /// Supersteps completed over the engine's lifetime (drives the
    /// checkpoint cadence and slot alternation).
    completed_supersteps: u64,
    /// Supersteps still to *skip* after a checkpoint restore: the
    /// driver replays its loop, and the engine answers the first k
    /// `scatter_gather` calls (and suppresses `vertex_map`s) without
    /// touching state, so the driver's own per-round bookkeeping stays
    /// aligned with the restored superstep index.
    skip_supersteps: u64,
    /// Whether the program opted into [`FrontierMode::Tracked`].
    tracked: bool,
    /// Double-buffered active-vertex bitmaps: `current` gates scatter,
    /// gather marks into `next`. Sized lazily (first tracked
    /// superstep); all storage is reused afterwards.
    frontier: FrontierPair,
    /// Whether `frontier.current` reflects the vertex states. Cleared
    /// by `vertex_map` (drivers may re-seed arbitrarily) and by
    /// `recover()`; a superstep with an invalid frontier rebuilds it
    /// from a `needs_scatter` state scan.
    frontier_valid: bool,
    /// Per partition: whether ingest grouped its edge file by source
    /// and filled its slice of `run_index`. Partitions too large to
    /// group within the stream-buffer budget stay in ingest order and
    /// always scatter densely; so does every partition when vertex
    /// state is on disk.
    sparse_indexed: Vec<bool>,
    /// Every partition's run-offset index back to back, in the memory
    /// engine's layout: partition `p`'s `range.len() + 1` offsets into
    /// its source-grouped edge file start at `range.start + p`, so
    /// local vertex `lv`'s edges are records
    /// `offsets[lv]..offsets[lv + 1]`. Resident beside the in-memory
    /// vertex array; empty for dense programs and for on-disk vertex
    /// state.
    run_index: Vec<u32>,
    /// Pooled per-partition scatter mode of the running superstep.
    modes: Vec<u8>,
    /// Pooled merged `(byte offset, byte length)` ranges of the active
    /// vertices' edge runs in the partition being sparsely scattered.
    run_ranges: Vec<(u64, u32)>,
    /// Pooled assembly buffer the sparse ranged reads append into.
    run_buf: Vec<u8>,
    /// The sealed store manifest: written after ingest, updated at
    /// checkpoint time, and amended when a checkpoint slot reads back
    /// corrupt (flagging it for `scrub --repair`).
    manifest: Manifest,
    /// The `(flag, value)` config pairs the store's *previous* manifest
    /// recorded, if any — `resume_from_checkpoint` validates this run's
    /// flags against them and names the offending flag on mismatch.
    prior_config: Vec<(String, String)>,
    /// This run's layout-deciding config pairs (see [`layout_flags`]).
    config_flags: Vec<(String, String)>,
}

impl<P: EdgeProgram> DiskEngine<P> {
    /// Builds an engine from an in-memory edge list, writing the
    /// partition edge files into `store`.
    pub fn from_graph(
        store: StreamStore,
        graph: &EdgeList,
        program: &P,
        config: EngineConfig,
    ) -> Result<Self> {
        let chunk = (config.io_unit / Edge::SIZE).max(1);
        let edges = graph.edges();
        let mut offset = 0usize;
        let source = move |buf: &mut Vec<Edge>| {
            buf.clear();
            if offset >= edges.len() {
                return Ok(false);
            }
            let end = (offset + chunk).min(edges.len());
            buf.extend_from_slice(&edges[offset..end]);
            offset = end;
            Ok(true)
        };
        Self::build(
            store,
            graph.num_vertices(),
            MirrorMode::None,
            source,
            None,
            program,
            config,
        )
    }

    /// Builds an engine by streaming an on-disk edge file (the paper's
    /// input path: pre-processing reads the unordered list once and
    /// shuffles it into partition files — no sort). Shorthand for
    /// [`Self::from_ingest`] with [`MirrorMode::None`].
    pub fn from_edge_file(
        store: StreamStore,
        path: &Path,
        program: &P,
        config: EngineConfig,
    ) -> Result<Self> {
        Self::from_ingest(store, &EdgeIngest::new(path), program, config)
    }

    /// Builds an engine by streaming the edge file named by `ingest`,
    /// applying its [`MirrorMode`] to each loaded chunk before
    /// partition routing. The graph is never materialized: ingest
    /// holds one (pooled) chunk buffer, the reused shuffle placement, the
    /// writer's recycled spill buffers and the vertex state — memory
    /// bounded by O(io_unit × threads) + vertex state, independent of
    /// the edge count.
    pub fn from_ingest(
        store: StreamStore,
        ingest: &EdgeIngest,
        program: &P,
        config: EngineConfig,
    ) -> Result<Self> {
        let mut reader = EdgeFileReader::open(ingest.path())?;
        let num_vertices = reader.num_vertices();
        let chunk = (config.io_unit / Edge::SIZE).max(1);
        let source = move |buf: &mut Vec<Edge>| reader.read_chunk_into(chunk, buf);
        Self::build(
            store,
            num_vertices,
            ingest.mirror(),
            source,
            ingest.observer.clone(),
            program,
            config,
        )
    }

    fn build(
        store: StreamStore,
        num_vertices: usize,
        mirror: MirrorMode,
        mut next_chunk: impl FnMut(&mut Vec<Edge>) -> Result<bool>,
        observer: Option<ChunkObserver>,
        program: &P,
        config: EngineConfig,
    ) -> Result<Self> {
        let state_bytes = num_vertices * size_of::<P::State>();
        let k = config.out_of_core_partitions(state_bytes).ok_or_else(|| {
            Error::Config(format!(
                "memory budget {} cannot satisfy N/K + 5SK <= M for N = {state_bytes}, S = {}",
                config.memory_budget, config.io_unit
            ))
        })?;
        let partitioner = Partitioner::new(num_vertices, k);
        let kp = partitioner.num_partitions();
        let edge_names: Vec<Arc<str>> = (0..kp).map(|p| Arc::from(edge_stream(p))).collect();
        let update_names: Vec<Arc<str>> = (0..kp).map(|p| Arc::from(update_stream(p))).collect();
        let threads = config.threads.max(1);

        // Pre-processing (§3.2): stream the input, shuffle each loaded
        // chunk in memory, append per-partition runs to the edge files.
        // The appends run on the engine's persistent per-device writer
        // threads so reading and shuffling the next input chunk
        // overlaps them (§3.3) — the same writer later serves every
        // superstep's spills. Depth `threads + 2` bounds the owned
        // buffers in flight per device; a spill's borrowed runs queue
        // without waiting, and the ping-pong barrier bounds them.
        let store = Arc::new(store.with_verify(config.verify_reads));
        let writer = AsyncWriter::new(Arc::clone(&store), threads + 2)?;
        // A reused store directory may carry the previous run's
        // manifest; its generation continues and its config pairs are
        // kept so `--resume` can reject changed flags *by name* before
        // this build's re-seal replaces the record.
        let (prior_generation, prior_config) = match store.read_all(MANIFEST_NAME) {
            Ok(bytes) if !bytes.is_empty() => Manifest::decode(&bytes)
                .map(|m| (m.generation, m.config))
                .unwrap_or_default(),
            _ => Default::default(),
        };
        // A declared resume intent is validated *here*, before the
        // rebuild below replaces the streams and re-seals the manifest
        // — failing later would leave the store re-laid-out under the
        // rejected flags, so the user's corrected retry would be
        // compared against the failed attempt instead of the original
        // run.
        let prior_config = if config.resume {
            check_layout_compatible(&layout_flags(&config, kp, num_vertices), &prior_config)?;
            prior_config
        } else {
            // Without a declared resume the rebuild below re-seals the
            // manifest under the current layout; keeping the stale
            // pre-rebuild pairs would make a later programmatic
            // `resume_from_checkpoint` compare against a record this
            // build just replaced (the checkpoint fingerprint still
            // guards against restoring a foreign vertex array).
            layout_flags(&config, kp, num_vertices)
        };
        // A reused store directory — a kept `--store`, or a `--resume`
        // over the one an interrupted run left behind — may still hold
        // partition streams from the previous ingest; building again
        // must *replace* them, or re-ingest would double every edge.
        // (Checkpoint streams are deliberately left alone: resume reads
        // them after the rebuild.)
        for name in edge_names.iter().chain(update_names.iter()) {
            store.truncate(name)?;
        }
        let mut num_edges = 0usize;
        {
            let mut placement: CountingPlacement<Edge> = CountingPlacement::default();
            let mut chunk: Vec<Edge> = Vec::new();
            while next_chunk(&mut chunk)? {
                // On-the-fly expansion (undirected/bidirectional
                // doubling) happens here, per chunk, before partition
                // routing — the streaming replacement for the
                // `EdgeList::to_*` whole-graph copies.
                mirror.mirror_in_place(&mut chunk);
                for e in &chunk {
                    xstream_graph::transform::validate_edge(e, num_vertices)?;
                }
                if let Some(obs) = &observer {
                    obs(&chunk);
                }
                num_edges += chunk.len();
                let (runs, offsets) =
                    placement.place_slice(&chunk, kp, None, config.cache_size, |e| {
                        partitioner.partition_of(e.src)
                    });
                for p in 0..kp {
                    let run = &runs[offsets[p]..offsets[p + 1]];
                    if run.is_empty() {
                        continue;
                    }
                    let mut buf = writer.acquire();
                    buf.extend_from_slice(records_as_bytes(run));
                    writer.submit(Arc::clone(&edge_names[p]), buf)?;
                }
            }
            writer.flush()?;
        }

        let usz = size_of::<TargetedUpdate<P::Update>>();
        // The stream buffer must admit at least one I/O unit per
        // partition (§3.4 sizing: chunk array of S*K bytes).
        let buffer_bytes = (config.memory_budget / 4)
            .max(config.io_unit.saturating_mul(kp))
            .max(1 << 20);
        let spill_threshold = (buffer_bytes / usz).max(1024);
        // The output buffers hold whatever a spill can find in them:
        // below the threshold before a scatter step, plus the step's
        // updates — at most one per edge of a read-ahead chunk or of
        // the sparse scatter's ranged reads (under two I/O units) —
        // and never more than one superstep's |E|.
        let step_edges =
            (store.io_unit() / Edge::SIZE).max(2 * (config.io_unit / Edge::SIZE).max(1));
        let output_records = (spill_threshold + step_edges).min(num_edges);

        let in_memory_vertices =
            config.keep_vertices_in_memory && state_bytes <= config.memory_budget / 2;

        // Frontier-tracked programs get sparse-scatter indexes: group
        // each partition's edge file by source vertex with a counting
        // placement keyed by source (a second, bounded streaming pass:
        // count on one read-ahead stream of the file, place on another)
        // and keep the per-vertex run offsets in `run_index`. Within a
        // run, edges keep their ingest order. Partitions whose edge file
        // exceeds the stream-buffer budget keep their ingest order and
        // always scatter densely; a frontier can still *skip* them when
        // they have no active sources. The index costs 4(|V| + K) bytes, so
        // it is built only beside a resident vertex array: next to one
        // that did not fit the budget it would break §3.4's
        // `N/K + 5SK <= M`, and every partition scatters densely.
        let tracked = program.frontier_mode() == FrontierMode::Tracked;
        // Job depth 2 per device: the current stream plus the next one
        // queued for cross-partition read-ahead (§3.3).
        let mut reader = ReadAhead::striped(2, store.num_devices());
        let mut sparse_indexed = vec![false; kp];
        let mut run_index: Vec<u32> = Vec::new();
        if tracked && in_memory_vertices {
            // One placement buffer reserved once for the largest
            // eligible partition, fed in the reader's I/O-unit chunks —
            // never the raw bytes and the decoded edges side by side,
            // so the pass stays well under one partition-file of
            // cumulative allocation (the out-of-core ingest bound).
            let eligible =
                |blen: usize| blen <= buffer_bytes && blen / Edge::SIZE <= u32::MAX as usize;
            let max_records = (0..kp)
                .map(|p| store.len(&edge_names[p]) as usize)
                .filter(|&b| eligible(b))
                .max()
                .unwrap_or(0)
                / Edge::SIZE;
            let mut placement = CountingPlacement::<Edge>::with_capacity(max_records);
            run_index.reserve_exact(num_vertices + kp);
            for p in 0..kp {
                let blen = store.len(&edge_names[p]) as usize;
                let range = partitioner.range(p);
                if !eligible(blen) {
                    run_index.resize(run_index.len() + range.len() + 1, 0);
                    continue;
                }
                let mut stray = None;
                let mut key = |e: &Edge| {
                    let lv = (e.src as usize).wrapping_sub(range.start);
                    if lv < range.len() {
                        lv
                    } else {
                        stray.get_or_insert(e.src);
                        0
                    }
                };
                placement.begin(range.len());
                // Both passes are ordinary verified stream reads; the
                // place pass is queued behind the count pass, so the
                // reader prefetches it while counting finishes.
                for _ in 0..2 {
                    reader.begin(store.read_source(&edge_names[p], Edge::SIZE)?)?;
                }
                for placing in [false, true] {
                    while let Some(chunk) = reader.next_chunk()? {
                        let records = RecordIter::<Edge>::new(chunk);
                        if placing {
                            placement.place(records, &mut key);
                        } else {
                            placement.count(records, &mut key);
                        }
                    }
                }
                if let Some(src) = stray {
                    return Err(Error::InvalidInput(format!(
                        "{}: edge source {src} outside the partition's vertices {range:?}",
                        edge_names[p]
                    )));
                }
                let (edges, offsets) = placement
                    .finish()
                    .map_err(|e| Error::InvalidInput(format!("{}: {e}", edge_names[p])))?;
                store.truncate(&edge_names[p])?;
                store.append(&edge_names[p], records_as_bytes(edges))?;
                // Offsets fit u32: `eligible` caps the partition's edges.
                run_index.extend(offsets.iter().map(|&o| o as u32));
                sparse_indexed[p] = true;
            }
        }

        // Seal the store: persist a per-chunk checksum sidecar for
        // every durable stream this build wrote, and record them all —
        // with the graph/config fingerprint — in an atomically
        // replaced MANIFEST. Checkpoint slots survive the rebuild
        // (resume reads them right after), so their sidecars are
        // re-sealed from the reloaded sums and carried into the new
        // manifest too.
        let config_flags = layout_flags(&config, kp, num_vertices);
        let mut manifest = Manifest {
            generation: prior_generation + 1,
            fingerprint: run_fingerprint::<P>(num_vertices, num_edges, &config_flags),
            config: config_flags.clone(),
            entries: Vec::new(),
        };
        let durable = (0..kp)
            .map(edge_stream)
            .chain((0..2).map(|s| format!("checkpoint.{s}")));
        for name in durable {
            let len = store.len(&name);
            if len == 0 && name.starts_with("checkpoint.") {
                continue;
            }
            let sealed = store.seal_sums(&name)?;
            manifest.upsert(StreamEntry {
                role: StreamRole::of_stream(&name),
                name,
                len,
                sum_crc: sealed.unwrap_or(0),
                has_sums: sealed.is_some(),
                needs_rebuild: false,
            });
        }
        store.write_atomic(MANIFEST_NAME, &manifest.encode())?;

        let sparse_any = sparse_indexed.iter().any(|&b| b);
        let max_range_len = (0..kp)
            .filter(|&p| sparse_indexed[p])
            .map(|p| partitioner.range(p).len())
            .max()
            .unwrap_or(0);
        let run_io_cap = (config.io_unit / Edge::SIZE).max(1) * Edge::SIZE;

        let vertices = VertexStorage::initialize(&store, &partitioner, in_memory_vertices, |v| {
            program.init(v)
        })?;

        let pool = (threads > 1).then(|| WorkerPool::new(threads - 1));
        let spill_mark = writer.submitted();

        Ok(Self {
            config,
            partitioner,
            num_edges,
            vertices,
            spill_threshold,
            stream_buffer_bytes: buffer_bytes,
            resident_updates: false,
            spilled_updates: false,
            writer,
            reader,
            store,
            scratch: OutputBuffer::for_records(threads, kp, output_records),
            drain: OutputBuffer::for_records(threads, kp, output_records),
            spill_mark,
            pool,
            edge_names,
            update_names,
            gather_bufs: vec![Vec::new(); threads],
            gather_counters: vec![GatherCounters::default(); threads],
            clean: true,
            vertex_snapshot: Vec::new(),
            gather_dirty: false,
            recovery_error: None,
            completed_supersteps: 0,
            skip_supersteps: 0,
            tracked,
            frontier: FrontierPair::new(),
            frontier_valid: false,
            sparse_indexed,
            run_index,
            modes: vec![MODE_DENSE; kp],
            // Sparse-scatter pools are warmed here, at build time:
            // sparse mode typically kicks in *late* (once the frontier
            // has collapsed), and a first-use allocation then would
            // break the steady-state alloc-free guarantee.
            run_ranges: Vec::with_capacity(if sparse_any { max_range_len } else { 0 }),
            run_buf: Vec::with_capacity(if sparse_any { 2 * run_io_cap } else { 0 }),
            manifest,
            prior_config,
            config_flags,
        })
    }

    /// Restores stream consistency after a superstep abandoned
    /// mid-flight: discards queued/in-flight read-ahead streams,
    /// drains the writer (releasing any zero-copy spill runs still
    /// borrowing the scratch pools), and truncates the partially
    /// written update files so a retried superstep does not gather
    /// stale updates. A drain-time writer error is usually the same
    /// root cause the failed superstep already reported — but it is
    /// *kept* in [`Self::last_recovery_error`], never dropped, so a
    /// later retry's symptom can never shadow it. Vertex state is
    /// whatever the failed superstep left; the retry loop restores it
    /// from its pre-superstep snapshot (in-memory state), and
    /// checkpoint/resume covers the on-disk case — this function
    /// guarantees no cross-stream corruption and no deadlock on retry.
    fn recover(&mut self) -> Result<()> {
        self.reader.reset();
        if let Err(e) = self.writer.flush() {
            // Keep the *first* swallowed error: it is the closest
            // thing to a root cause this engine will ever see.
            self.recovery_error.get_or_insert(e);
        }
        self.spill_mark = self.writer.submitted();
        for name in &self.update_names {
            self.store.truncate(name)?;
        }
        // The failed attempt's frontier may describe states a rollback
        // is about to rewrite; force the next attempt to rebuild from
        // the (restored) states.
        self.frontier_valid = false;
        self.clean = true;
        Ok(())
    }

    /// The first error `recover()` observed while draining the
    /// writer after a failed superstep, if any — the root cause that
    /// would previously have been silently discarded. Cleared by
    /// [`Self::take_recovery_error`].
    pub fn last_recovery_error(&self) -> Option<&Error> {
        self.recovery_error.as_ref()
    }

    /// Takes (and clears) the recovery-time writer error, if any.
    pub fn take_recovery_error(&mut self) -> Option<Error> {
        self.recovery_error.take()
    }

    /// Fingerprint binding checkpoints to this exact (graph shape,
    /// program, state layout, layout-deciding config) combination — a
    /// frame from a different graph, program, build *or flag set* is
    /// rejected at resume (the manifest's config pairs additionally
    /// name the offending flag).
    fn checkpoint_fingerprint(&self) -> u64 {
        run_fingerprint::<P>(
            self.partitioner.num_vertices(),
            self.num_edges,
            &self.config_flags,
        )
    }

    /// The sealed store manifest (exposed for `scrub` and tests).
    pub fn manifest(&self) -> &Manifest {
        &self.manifest
    }

    /// Atomically replaces the on-disk manifest with the in-memory one.
    fn write_manifest(&self) -> Result<()> {
        self.store
            .write_atomic(MANIFEST_NAME, &self.manifest.encode())
    }

    /// Supersteps this engine has completed (restored ones included
    /// after a [`Self::resume_from_checkpoint`]).
    pub fn completed_supersteps(&self) -> u64 {
        self.completed_supersteps
    }

    /// Persists the current vertex state as a checksummed checkpoint
    /// frame ([`crate::checkpoint`]) via a crash-atomic
    /// write-temp-then-rename, alternating between two slots so the
    /// previous checkpoint survives a crash during this write.
    ///
    /// Driven automatically by
    /// [`EngineConfig::checkpoint_every`](xstream_core::EngineConfig);
    /// public so callers with their own cadence (e.g. time-based) can
    /// checkpoint explicitly between supersteps.
    pub fn write_checkpoint(&mut self) -> Result<()> {
        let states = self.vertices.collect_all(&self.store, &self.partitioner)?;
        // A checkpoint is taken post-gather, so `frontier.current`
        // (already advanced) is exactly the active set the *next*
        // superstep scatters — persisting it lets a mid-traversal
        // resume skip the rebuild scan and restore the frontier
        // bit-for-bit.
        let aux = if self.tracked && self.frontier_valid {
            self.frontier.current.to_bytes()
        } else {
            Vec::new()
        };
        let frame = crate::checkpoint::encode_frame(
            self.checkpoint_fingerprint(),
            self.completed_supersteps,
            &states,
            &aux,
        );
        let slot = self.completed_supersteps % 2;
        let name = format!("checkpoint.{slot}");
        self.store.write_atomic(&name, &frame)?;
        // Seal the slot's checksum sidecar and record it in the
        // manifest, so a later scrub (or resume after a crash) can
        // tell rot from a merely foreign frame.
        let sealed = self.store.seal_sums(&name)?;
        self.manifest.upsert(StreamEntry {
            name,
            role: StreamRole::Checkpoint,
            len: frame.len() as u64,
            sum_crc: sealed.unwrap_or(0),
            has_sums: sealed.is_some(),
            needs_rebuild: false,
        });
        self.write_manifest()
    }

    /// Restores vertex state from the newest valid checkpoint in the
    /// store, if any, and arranges for the already-completed supersteps
    /// to be skipped (reported as instant no-op iterations) by the
    /// driving loop.
    ///
    /// Both slots are read and validated — magic, version, CRC over the
    /// whole frame, graph/program fingerprint, record count; a torn or
    /// foreign frame in one slot silently falls back to the other, and
    /// two invalid slots mean a fresh run. Returns the superstep index
    /// the engine resumed at (`None` when starting fresh).
    pub fn resume_from_checkpoint(&mut self) -> Result<Option<u64>> {
        // Refuse to resume under different layout-deciding flags: the
        // store's previous manifest recorded the pairs the interrupted
        // run used, so a mismatch names the offending flag. (A caller
        // that declared `EngineConfig::resume` was already checked in
        // `new`, before the store rebuild; this re-check covers
        // programmatic callers that skipped the declaration.)
        check_layout_compatible(&self.config_flags, &self.prior_config)?;
        let fp = self.checkpoint_fingerprint();
        let count = self.partitioner.num_vertices();
        let mut best: Option<(u64, Vec<P::State>, Vec<u8>)> = None;
        let mut bad_slots: Vec<u64> = Vec::new();
        for slot in 0..2u64 {
            let name = format!("checkpoint.{slot}");
            // A rotted slot (checksum sidecar mismatch) falls back to
            // the other slot exactly like a torn frame would — but is
            // recorded, so scrub can quarantine it.
            let bytes = match self.store.read_all(&name) {
                Ok(b) => b,
                Err(Error::Corrupt { .. }) => {
                    bad_slots.push(slot);
                    continue;
                }
                Err(e) => return Err(e),
            };
            match crate::checkpoint::decode_frame::<P::State>(&bytes, fp, count) {
                Some((step, states, aux)) => {
                    if best.as_ref().is_none_or(|(b, _, _)| step > *b) {
                        best = Some((step, states, aux));
                    }
                }
                None => {
                    // Distinguish rot (structurally invalid: record the
                    // bad slot) from a merely foreign frame (valid CRC,
                    // different graph/config: plain fresh-run fallback).
                    if !bytes.is_empty() && !crate::checkpoint::frame_is_valid(&bytes) {
                        bad_slots.push(slot);
                    }
                }
            }
        }
        for &slot in &bad_slots {
            let name = format!("checkpoint.{slot}");
            eprintln!("warning: checkpoint slot {slot} is corrupt; falling back");
            match self.manifest.entry_mut(&name) {
                Some(e) => e.needs_rebuild = true,
                None => {
                    let len = self.store.len(&name);
                    self.manifest.upsert(StreamEntry {
                        name,
                        role: StreamRole::Checkpoint,
                        len,
                        sum_crc: 0,
                        has_sums: false,
                        needs_rebuild: true,
                    });
                }
            }
        }
        if !bad_slots.is_empty() {
            if let Err(e) = self.write_manifest() {
                eprintln!("warning: could not record bad checkpoint slots: {e}");
            }
        }
        let Some((step, states, aux)) = best else {
            return Ok(None);
        };
        for p in self.partitioner.iter() {
            let range = self.partitioner.range(p);
            self.vertices
                .update_partition(&self.store, &self.partitioner, p, |s| {
                    s.copy_from_slice(&states[range]);
                    Ok(true)
                })?;
        }
        // Restore the checkpointed active set, if the frame carried
        // one. A frame without it (dense program, or a checkpoint from
        // before the program opted in) just leaves the frontier
        // invalid — the first real superstep rebuilds it from a
        // `needs_scatter` scan, which the frontier contract guarantees
        // yields the same set.
        if self.tracked && !aux.is_empty() {
            self.frontier.ensure(&self.partitioner);
            self.frontier_valid = self.frontier.current.load_bytes(&aux, &self.partitioner);
        }
        self.completed_supersteps = step;
        self.skip_supersteps = step;
        Ok(Some(step))
    }

    /// The partitioner in use (exposed for experiments).
    pub fn partitioner(&self) -> &Partitioner {
        &self.partitioner
    }

    /// The underlying stream store (for I/O accounting inspection).
    pub fn store(&self) -> &StreamStore {
        &self.store
    }

    /// Fallible scatter-gather superstep; the [`Engine`] trait method
    /// panics on I/O errors, this variant reports them.
    ///
    /// Runs `superstep_once` under the configured
    /// [`RetryPolicy`](xstream_core::RetryPolicy): a *transient* failure
    /// ([`Error::is_transient`]) triggers stream recovery, a rollback of
    /// the in-memory vertex state to its pre-superstep snapshot, a
    /// bounded exponential backoff, and a re-run. Permanent failures
    /// (`ENOSPC`, permission, config, malformed input) fail fast with
    /// the engine left consistent for a later retry or resume. When the
    /// budget runs out the last error is wrapped in
    /// [`Error::Exhausted`]. Attempts beyond the first are surfaced in
    /// [`IterationStats::io_retries`].
    pub fn try_scatter_gather(&mut self, program: &P) -> Result<IterationStats> {
        let policy = self.config.retry;
        let max_attempts = policy.max_attempts.max(1);
        // Snapshot the in-memory vertex array so a failed attempt can
        // be rolled back exactly. Pooled: the buffer is retained across
        // supersteps, so the steady state stays allocation-free.
        let can_snapshot = max_attempts > 1 && self.vertices.in_memory_mut().is_some();
        if can_snapshot {
            let states = self.vertices.in_memory_mut().expect("checked above");
            self.vertex_snapshot.clear();
            self.vertex_snapshot.extend_from_slice(states);
        }
        let mut attempts = 0u32;
        let verify0 = self.store.accounting().snapshot();
        loop {
            attempts += 1;
            match self.superstep_once(program) {
                Ok(mut stats) => {
                    stats.io_retries = (attempts - 1) as u64;
                    // Verification counters span the whole loop, so a
                    // corruption detected by a *failed* attempt still
                    // shows up in the successful iteration's stats.
                    let v1 = self.store.accounting().snapshot();
                    stats.chunks_verified =
                        v1.chunks_verified.saturating_sub(verify0.chunks_verified);
                    stats.corruptions_detected = v1
                        .corruptions_detected
                        .saturating_sub(verify0.corruptions_detected);
                    return Ok(stats);
                }
                Err(e) => {
                    // Whatever happens next, leave the streams usable.
                    self.recover()?;
                    if !e.is_transient() {
                        return Err(e);
                    }
                    if attempts >= max_attempts {
                        return Err(Error::Exhausted {
                            attempts,
                            source: Box::new(e),
                        });
                    }
                    if can_snapshot {
                        let states = self.vertices.in_memory_mut().expect("checked above");
                        states.copy_from_slice(&self.vertex_snapshot);
                    } else if self.gather_dirty {
                        // On-disk vertex state and gather already
                        // mutated some partitions: a blind re-run would
                        // double-apply updates. Checkpoint/resume is
                        // the recovery path for this configuration.
                        return Err(e);
                    }
                    // Bounded exponential backoff: base * 2^(attempt-1),
                    // capped at one second.
                    let delay = policy
                        .backoff
                        .saturating_mul(1u32 << (attempts - 1).min(6))
                        .min(std::time::Duration::from_secs(1));
                    if !delay.is_zero() {
                        std::thread::sleep(delay);
                    }
                }
            }
        }
    }

    /// One scatter-gather attempt; the retry wrapper above decides what
    /// a failure means.
    fn superstep_once(&mut self, program: &P) -> Result<IterationStats> {
        if !self.clean {
            self.recover()?;
        }
        self.clean = false;
        self.gather_dirty = false;
        let alloc_before = alloc_stats::snapshot();
        let io_before = self.store.accounting().snapshot();
        let mut stats = IterationStats::default();
        // Time the superstep thread spends *blocked* on stream I/O:
        // waiting for a read chunk, for writer backpressure, or for a
        // spill/drain barrier. Compute fully overlapped with I/O does
        // not count (§3.3's measure of overlap quality).
        let mut blocked_ns = 0u64;

        let use_frontier = self.plan_modes(program, &mut stats)?;

        let t_scatter = Instant::now();
        self.scatter(program, &mut stats, &mut blocked_ns)?;
        stats.scatter_ns = t_scatter.elapsed().as_nanos() as u64;

        let t_gather = Instant::now();
        self.gather(program, &mut stats, &mut blocked_ns, use_frontier)?;
        stats.gather_ns = t_gather.elapsed().as_nanos() as u64;
        if use_frontier {
            // Promote the set gather just marked: it is exactly the
            // next superstep's scatter frontier (the program contract
            // behind [`FrontierMode::Tracked`]).
            self.frontier.advance();
        }

        stats.shuffle_budget = self.spill_threshold as u64;
        stats.shuffle_capacity = (self.scratch.capacity() + self.drain.capacity()) as u64;

        let io = self.store.accounting().snapshot();
        stats.bytes_read = io.bytes_read() - io_before.bytes_read();
        stats.bytes_written = io.bytes_written() - io_before.bytes_written();
        stats.chunks_verified = io.chunks_verified.saturating_sub(io_before.chunks_verified);
        stats.corruptions_detected = io
            .corruptions_detected
            .saturating_sub(io_before.corruptions_detected);
        stats.streaming_ns = blocked_ns;
        stats.mem_refs = stats.estimated_mem_refs();
        let alloc = alloc_before.delta(&alloc_stats::snapshot());
        stats.alloc_count = alloc.count;
        stats.alloc_bytes = alloc.bytes;
        self.clean = true;
        Ok(stats)
    }

    /// Mode planning: rebuilds a stale frontier and decides every
    /// partition's scatter mode up front, so the strict in-order
    /// read-ahead schedule of [`Self::scatter`] queues *only* the
    /// partitions that stream densely — skipped and sparse partitions
    /// cost the prefetch threads zero I/O. Returns whether the
    /// frontier is in use this superstep.
    fn plan_modes(&mut self, program: &P, stats: &mut IterationStats) -> Result<bool> {
        if !(self.tracked && self.config.frontier_skip) {
            stats.frontier_density = 1.0;
            self.modes.fill(MODE_DENSE);
            return Ok(false);
        }
        if !self.frontier_valid {
            // Rebuild from a `needs_scatter` state scan (`ensure` sizes
            // the bitmaps on first use and clears them; both are pure
            // memsets once sized).
            self.frontier.ensure(&self.partitioner);
            for p in self.partitioner.iter() {
                let base = self.partitioner.range(p).start;
                let states = self
                    .vertices
                    .load_scatter(&self.store, &self.partitioner, p)?;
                self.frontier
                    .current
                    .mark_active(p, base, states, |s| program.needs_scatter(s));
            }
            self.frontier_valid = true;
        }
        // A failed attempt's partial gather may have left marks.
        self.frontier.next.clear();
        stats.frontier_density = self.frontier.current.density();
        for p in self.partitioner.iter() {
            self.modes[p] = self.partition_mode(p);
        }
        Ok(true)
    }

    /// The scatter mode of partition `p` under the current frontier:
    /// skip it with no active sources (or no edges), go sparse when its
    /// run-offset index says the active vertices' runs are few enough,
    /// stream it densely otherwise.
    fn partition_mode(&self, p: usize) -> u8 {
        if self.frontier.current.active_in(p) == 0 {
            return MODE_SKIP;
        }
        if !self.sparse_indexed[p] {
            return MODE_DENSE;
        }
        let range = self.partitioner.range(p);
        let offsets = &self.run_index[range.start + p..=range.end + p];
        if offsets[range.len()] == 0 {
            MODE_SKIP
        } else if self
            .config
            .sparse_scatter_pays(&self.frontier.current, range, offsets)
        {
            MODE_SPARSE
        } else {
            MODE_DENSE
        }
    }

    /// Scatter phase: the merged scatter + fused shuffle of Fig. 6.
    /// Dense partitions stream their edge files through the read-ahead
    /// threads; sparse partitions assemble their active vertices' edge
    /// runs from pooled ranged reads. Both feed every loaded chunk to
    /// one scatter-then-spill step.
    fn scatter(
        &mut self,
        program: &P,
        stats: &mut IterationStats,
        blocked_ns: &mut u64,
    ) -> Result<()> {
        let kp = self.partitioner.num_partitions();
        // Rearm both output buffers. (`drain` is reusable here: the
        // previous superstep's flush — or `recover` — covered every
        // borrowed run.)
        self.scratch.rearm();
        self.drain.rearm();
        self.resident_updates = false;
        let store = &self.store;
        let partitioner = &self.partitioner;
        let vertices = &mut self.vertices;
        let reader = &mut self.reader;
        let writer = &self.writer;
        let scratch = &mut self.scratch;
        let drain = &mut self.drain;
        let spill_mark = &mut self.spill_mark;
        let pool = self.pool.as_ref();
        let edge_names = &self.edge_names;
        let update_names = &self.update_names;
        let frontier = &self.frontier.current;
        let run_index = &self.run_index;
        let run_ranges = &mut self.run_ranges;
        let run_buf = &mut self.run_buf;
        let spill_threshold = self.spill_threshold;
        // Sparse ranged reads are merged and flushed in I/O-unit
        // portions, rounded to whole edge records so no flush ever
        // splits an edge.
        let io_cap = (self.config.io_unit / Edge::SIZE).max(1) * Edge::SIZE;
        let mut spilled = false;

        // The scatter-then-spill step. Scatters one loaded chunk into
        // the filling buffer; once that buffer reaches the spill
        // threshold, waits out the previous spill's borrowed runs,
        // swaps the ping-pong buffers, rearms the fresh one and hands
        // the full one's runs to the per-device writer threads by
        // reference — scatter continues into the fresh buffer while
        // the writer drains the other (§3.3's double-buffered output,
        // minus the copy).
        let mut scatter_step = |bytes: &[u8],
                                states: &[P::State],
                                base: usize,
                                stats: &mut IterationStats,
                                blocked_ns: &mut u64|
         -> Result<()> {
            stats.edges_streamed += (bytes.len() / Edge::SIZE) as u64;
            scatter_chunk_pooled(pool, scratch, program, states, base, bytes, partitioner);
            let held = scratch.len();
            if held < spill_threshold {
                return Ok(());
            }
            stats.updates_generated += held as u64;
            stats.shuffle_high_water = stats.shuffle_high_water.max(held as u64);
            let t_io = Instant::now();
            writer.wait_until(*spill_mark);
            *blocked_ns += t_io.elapsed().as_nanos() as u64;
            std::mem::swap(scratch, drain);
            scratch.rearm();
            spill_borrowed(writer, update_names, drain, kp, blocked_ns)?;
            *spill_mark = writer.submitted();
            spilled = true;
            Ok(())
        };

        // Queue the first densely-streamed partition; each dense
        // partition then queues the next dense one before consuming its
        // own chunks (§3.3 read-ahead across partitions, restricted to
        // the ones that actually stream).
        let modes = &self.modes;
        let mut dense_iter = (0..kp).filter(|&p| modes[p] == MODE_DENSE);
        let mut queued = dense_iter.next();
        if let Some(first) = queued {
            reader.begin(store.read_source(&edge_names[first], Edge::SIZE)?)?;
        }
        for s in partitioner.iter() {
            let range = partitioner.range(s);
            let base = range.start;
            match modes[s] {
                MODE_SKIP => {
                    // No active sources: this partition costs zero I/O
                    // this superstep.
                    stats.partitions_skipped += 1;
                }
                MODE_SPARSE => {
                    stats.partitions_sparse += 1;
                    let states = vertices.load_scatter(store, partitioner, s)?;
                    // Merge the active vertices' edge runs into ranged
                    // reads; `run_at` is local vertex `lv`'s byte offset
                    // in the edge file.
                    let offsets = &run_index[base + s..=range.end + s];
                    let run_at = |lv: usize| u64::from(offsets[lv]) * Edge::SIZE as u64;
                    run_ranges.clear();
                    frontier.for_each_active_in(range, |v| {
                        let lv = v as usize - base;
                        push_run(run_ranges, run_at(lv)..run_at(lv + 1), io_cap);
                        true
                    });
                    for (i, &(off, len)) in run_ranges.iter().enumerate() {
                        let t_io = Instant::now();
                        store.read_range_into(&edge_names[s], off, len as usize, run_buf)?;
                        *blocked_ns += t_io.elapsed().as_nanos() as u64;
                        if run_buf.len() >= io_cap || i + 1 == run_ranges.len() {
                            scatter_step(run_buf, states, base, stats, blocked_ns)?;
                            run_buf.clear();
                        }
                    }
                }
                _ => {
                    debug_assert_eq!(queued, Some(s), "dense queue out of order");
                    queued = dense_iter.next();
                    if let Some(n) = queued {
                        // §3.3 read-ahead across partitions: the reader
                        // thread rolls into the next live edge file
                        // while this partition still computes.
                        reader.begin(store.read_source(&edge_names[n], Edge::SIZE)?)?;
                    }
                    let states = vertices.load_scatter(store, partitioner, s)?;
                    loop {
                        let t_io = Instant::now();
                        let chunk = reader.next_chunk()?;
                        *blocked_ns += t_io.elapsed().as_nanos() as u64;
                        let Some(bytes) = chunk else {
                            break;
                        };
                        scatter_step(bytes, states, base, stats, blocked_ns)?;
                    }
                }
            }
        }
        let tail = scratch.len();
        stats.updates_generated += tail as u64;
        stats.shuffle_high_water = stats.shuffle_high_water.max(tail as u64);
        if tail > 0 {
            if spilled || self.config.in_memory_updates {
                // Updates since the last spill stay resident: the
                // buffer exists either way, so gather reads it in place
                // — §3.2 optimization 2, generalized to the tail of a
                // spilling superstep.
                self.resident_updates = true;
            } else {
                // Forced-spill configuration with everything still
                // buffered: the whole output goes to disk.
                spill_borrowed(writer, update_names, scratch, kp, blocked_ns)?;
                spilled = true;
            }
        }
        self.spilled_updates = spilled;
        // The gather phase must observe every update: drain the writer
        // before leaving the scatter phase. (This also releases every
        // borrowed run.)
        let t_io = Instant::now();
        writer.flush()?;
        *spill_mark = writer.submitted();
        *blocked_ns += t_io.elapsed().as_nanos() as u64;
        Ok(())
    }

    /// Gather phase: in parallel on the pool workers when the vertex
    /// array is in memory and the update files pass the memory gate,
    /// serially otherwise.
    fn gather(
        &mut self,
        program: &P,
        stats: &mut IterationStats,
        blocked_ns: &mut u64,
        mark_next: bool,
    ) -> Result<()> {
        let kp = self.partitioner.num_partitions();
        let lanes = self.config.threads.clamp(1, kp.max(1));
        let mut parallel =
            lanes > 1 && kp > 1 && self.pool.is_some() && self.vertices.in_memory_mut().is_some();
        if parallel && self.spilled_updates {
            // Memory gate: each gather lane holds one whole partition
            // update file at a time, and the two scatter output pools
            // (~one stream buffer each) sit idle during gather — their
            // envelope is the budget the lane buffers may claim. A
            // partition skew that would bust it (update files are
            // unbounded in a genuinely out-of-core run) falls back to
            // the serial chunk-streaming gather, which is bounded by
            // construction.
            let max_file = self
                .update_names
                .iter()
                .map(|n| self.store.len(n))
                .max()
                .unwrap_or(0);
            parallel = (max_file as usize).saturating_mul(lanes) <= 2 * self.stream_buffer_bytes;
        }
        if parallel {
            self.gather_parallel(program, stats, lanes, blocked_ns, mark_next)
        } else {
            self.gather_serial(program, stats, blocked_ns, mark_next)
        }
    }

    /// Serial gather: one partition at a time on the superstep thread
    /// (the paper's base design), streaming spilled update files
    /// through the read-ahead threads with cross-partition prefetch,
    /// and applying the resident tail straight from the output
    /// buffer. Handles every storage combination, including on-disk
    /// vertex state.
    fn gather_serial(
        &mut self,
        program: &P,
        stats: &mut IterationStats,
        blocked_ns: &mut u64,
        mark_next: bool,
    ) -> Result<()> {
        let kp = self.partitioner.num_partitions();
        let store = &self.store;
        let partitioner = &self.partitioner;
        let vertices = &mut self.vertices;
        let reader = &mut self.reader;
        let scratch = &self.scratch;
        let update_names = &self.update_names;
        let next_frontier = mark_next.then_some(&self.frontier.next);
        let usz = size_of::<TargetedUpdate<P::Update>>();
        let from_files = self.spilled_updates;
        let resident = self.resident_updates;
        if !from_files && !resident {
            return Ok(());
        }
        // From here on vertex state may have been mutated by a partial
        // gather; a retry without a snapshot can no longer blindly
        // re-run (updates would double-apply).
        self.gather_dirty = true;

        if from_files {
            reader.begin(store.read_source(&update_names[0], usz)?)?;
        }
        for p in partitioner.iter() {
            if from_files && p + 1 < kp {
                reader.begin(store.read_source(&update_names[p + 1], usz)?)?;
            }
            let base = partitioner.range(p).start;
            let (mut applied, mut changed) = (0u64, 0u64);
            {
                let reader = &mut *reader;
                let blocked = &mut *blocked_ns;
                vertices.update_partition(store, partitioner, p, |states| {
                    let mut apply = |(a, c): (u64, u64)| {
                        applied += a;
                        changed += c;
                    };
                    if from_files {
                        loop {
                            let t_io = Instant::now();
                            let chunk = reader.next_chunk()?;
                            *blocked += t_io.elapsed().as_nanos() as u64;
                            let Some(bytes) = chunk else {
                                break;
                            };
                            let updates = RecordIter::new(bytes);
                            apply(gather_updates(
                                program,
                                states,
                                base,
                                p,
                                updates,
                                next_frontier,
                            ));
                        }
                    }
                    if resident {
                        apply(gather_resident(
                            program,
                            states,
                            base,
                            p,
                            scratch,
                            next_frontier,
                        ));
                    }
                    Ok(changed > 0)
                })?;
            }
            if from_files {
                // Truncating the stream is a TRIM (§3.3); keeping the
                // handle lets the next superstep append with no open()
                // and no allocation.
                store.truncate(&update_names[p])?;
            }
            stats.updates_applied += applied;
            stats.vertices_changed += changed;
        }
        Ok(())
    }

    /// Parallel gather (requires the vertex array in memory, more than
    /// one streaming partition, and update files small enough for the
    /// caller's memory gate): partitions are strided across `lanes`
    /// pool workers; each worker loads *its own* partitions' update
    /// files — whole, one at a time — into its pooled byte buffer (so
    /// the load of one partition overlaps the apply of another, across
    /// devices) and applies file plus resident-tail updates to the
    /// partition's disjoint vertex-state slice — node-parallel, no
    /// locks. The slowest lane's cumulative load time (the phase's
    /// critical-path I/O) is added to `blocked_ns`.
    fn gather_parallel(
        &mut self,
        program: &P,
        stats: &mut IterationStats,
        lanes: usize,
        blocked_ns: &mut u64,
        mark_next: bool,
    ) -> Result<()> {
        let kp = self.partitioner.num_partitions();
        self.gather_dirty = true;
        let pool = self.pool.as_ref().expect("parallel gather requires a pool");
        // Marking is an atomic fetch-or, so concurrent lanes share the
        // next-generation bitmap without synchronization.
        let next_frontier = mark_next.then_some(&self.frontier.next);
        let states = self
            .vertices
            .in_memory_mut()
            .expect("parallel gather requires in-memory vertices");
        debug_assert!(lanes <= self.gather_bufs.len());
        for c in &mut self.gather_counters {
            *c = GatherCounters::default();
        }
        let first_error: std::sync::Mutex<Option<Error>> = std::sync::Mutex::new(None);
        {
            let store = &self.store;
            let partitioner = &self.partitioner;
            let scratch = &self.scratch;
            let update_names = &self.update_names;
            let from_files = self.spilled_updates;
            let resident = self.resident_updates;
            let states_ptr = StatesPtr(states.as_mut_ptr());
            let states_ptr = &states_ptr;
            let bufs = PerWorkerPtr(self.gather_bufs.as_mut_ptr());
            let counters = PerWorkerPtr(self.gather_counters.as_mut_ptr());
            let first_error = &first_error;
            let job = |tid: usize| {
                if tid >= lanes {
                    return;
                }
                // SAFETY: each dispatch runs every tid exactly once
                // and tid < lanes <= len of both arrays, so these
                // `&mut` borrows are disjoint across workers.
                let buf: &mut Vec<u8> = unsafe { bufs.get_mut(tid) };
                let ctr: &mut GatherCounters = unsafe { counters.get_mut(tid) };
                // Static stride: worker t owns partitions t, t+lanes,…
                // — a fixed disjoint claim, so the state sub-slices
                // below never alias.
                let mut p = tid;
                while p < kp {
                    let range = partitioner.range(p);
                    let base = range.start;
                    // SAFETY: partition ranges are disjoint and each
                    // partition is claimed by exactly one worker.
                    let part_states = unsafe { states_ptr.partition_slice_mut(range) };
                    let mut apply = |(a, c): (u64, u64)| {
                        ctr.applied += a;
                        ctr.changed += c;
                    };
                    if from_files {
                        let t_io = Instant::now();
                        let loaded = store.read_all_into(&update_names[p], buf);
                        ctr.io_ns += t_io.elapsed().as_nanos() as u64;
                        if let Err(e) = loaded {
                            if let Ok(mut slot) = first_error.lock() {
                                slot.get_or_insert(e);
                            }
                            return;
                        }
                        let updates = RecordIter::new(buf);
                        apply(gather_updates(
                            program,
                            part_states,
                            base,
                            p,
                            updates,
                            next_frontier,
                        ));
                    }
                    if resident {
                        apply(gather_resident(
                            program,
                            part_states,
                            base,
                            p,
                            scratch,
                            next_frontier,
                        ));
                    }
                    p += lanes;
                }
            };
            pool.run(&job);
        }
        if let Some(e) = first_error.into_inner().unwrap_or(None) {
            return Err(e);
        }
        for c in &self.gather_counters {
            stats.updates_applied += c.applied;
            stats.vertices_changed += c.changed;
        }
        // The gather's critical-path I/O: the slowest lane's cumulative
        // file-load time. Lane loads overlap each other and the other
        // lanes' applies, so the max — not the sum — is what gates the
        // phase (keeps `streaming_ns` comparable with the serial
        // path's blocked-read accounting).
        *blocked_ns += self
            .gather_counters
            .iter()
            .map(|c| c.io_ns)
            .max()
            .unwrap_or(0);
        if self.spilled_updates {
            for name in &self.update_names {
                self.store.truncate(name)?;
            }
        }
        Ok(())
    }
}

/// Applies partition `p`'s resident updates — every worker's chain for
/// it — to `states`, whose element `i` is vertex `base + i` (see
/// [`gather_updates`]). Returns `(applied, changed)`.
fn gather_resident<P: EdgeProgram>(
    program: &P,
    states: &mut [P::State],
    base: usize,
    p: usize,
    scratch: &OutputBuffer<TargetedUpdate<P::Update>>,
    next_frontier: Option<&Frontier>,
) -> (u64, u64) {
    let (mut applied, mut changed) = (0, 0);
    for run in scratch.runs(p) {
        let run = run.iter().copied();
        let (a, c) = gather_updates(program, states, base, p, run, next_frontier);
        applied += a;
        changed += c;
    }
    (applied, changed)
}

/// Threshold below which a loaded chunk is scattered inline instead of
/// dispatched to the pool (the handshake is cheap but not free).
const PARALLEL_SCATTER_MIN: usize = 4096;

/// Scatters one decoded edge chunk across the pooled workers, worker
/// `t` taking the `t`-th share of the edges and appending to its own
/// chains of `scratch` (the §4.3 layering of the in-memory engine's
/// [`scatter_edges`] over loaded disk chunks, fused with the
/// single-stage shuffle).
fn scatter_chunk_pooled<P: EdgeProgram>(
    pool: Option<&WorkerPool>,
    scratch: &mut OutputBuffer<TargetedUpdate<P::Update>>,
    program: &P,
    states: &[P::State],
    base: usize,
    bytes: &[u8],
    partitioner: &Partitioner,
) {
    let n_edges = bytes.len() / Edge::SIZE;
    if n_edges == 0 {
        return;
    }
    let threads = scratch.workers();
    let writer = scratch.writer();
    let run = |tid: usize, range: std::ops::Range<usize>| {
        let mut out = writer.worker(tid);
        let sub = &bytes[range.start * Edge::SIZE..range.end * Edge::SIZE];
        scatter_edges(program, states, base, RecordIter::new(sub), |u| {
            out.push(u, partitioner.partition_of(u.target))
        });
    };
    match pool {
        Some(pool) if n_edges >= PARALLEL_SCATTER_MIN => {
            let per = n_edges.div_ceil(threads);
            let job = |tid: usize| {
                let lo = (tid * per).min(n_edges);
                let hi = ((tid + 1) * per).min(n_edges);
                run(tid, lo..hi);
            };
            pool.run(&job);
        }
        _ => run(0, 0..n_edges),
    }
}

/// Appends the byte range `run` of an edge file to the sparse scatter's
/// ranged reads `reads` as `(offset, length)` pairs, extending the last
/// read when `run` continues it. No read grows beyond `io_cap` bytes,
/// so the assembly buffer stays bounded; with `io_cap` and the run
/// bounds whole multiples of [`Edge::SIZE`], no read splits an edge.
fn push_run(reads: &mut Vec<(u64, u32)>, run: std::ops::Range<u64>, io_cap: usize) {
    let (mut lo, hi) = (run.start, run.end);
    while lo < hi {
        if let Some((o, l)) = reads.last_mut() {
            if *o + *l as u64 == lo && (*l as usize) < io_cap {
                let take = (hi - lo).min((io_cap - *l as usize) as u64);
                *l += take as u32;
                lo += take;
                continue;
            }
        }
        let take = (hi - lo).min(io_cap as u64);
        reads.push((lo, take as u32));
        lo += take;
    }
}

/// Runs below this size are coalesced into one pooled buffer per
/// partition instead of submitted zero-copy: with many workers and
/// partitions the runs can shrink far below the large sequential
/// writes the paper's I/O model assumes, and the per-append overhead
/// (syscall + accounting) then outweighs the saved copy.
const BORROW_MIN_BYTES: usize = 64 << 10;

/// Zero-copy spill: submits every large run of `full` to the
/// per-device writer threads *by reference* — no byte buffer, no copy;
/// the writer appends straight from the buffer's blocks. Runs smaller
/// than [`BORROW_MIN_BYTES`] are coalesced per partition into a
/// recycled buffer first (one large append instead of many small
/// ones), unless the blocks themselves are that large: then the only
/// small runs are the chains' partly filled last blocks, at most one
/// per chain, and a copy of one would queue behind the borrowed runs
/// and hold the spill until the writer reached it. Submission order
/// within each stream is preserved either way.
/// The caller must not mutate `full` until a writer barrier
/// ([`AsyncWriter::wait_until`] with a [`WriteMark`] taken after this
/// call, or [`AsyncWriter::flush`]) covers these submissions — the
/// engine's ping-pong output buffers provide exactly that window. Only
/// the time spent *blocked* on writer backpressure counts toward
/// `blocked_ns`.
fn spill_borrowed<U: Record>(
    writer: &AsyncWriter,
    names: &[Arc<str>],
    full: &OutputBuffer<TargetedUpdate<U>>,
    kp: usize,
    blocked_ns: &mut u64,
) -> Result<()> {
    let borrow_all = full.block() * size_of::<TargetedUpdate<U>>() >= BORROW_MIN_BYTES;
    for (p, name) in names.iter().enumerate().take(kp) {
        let mut coalesced: Option<Vec<u8>> = None;
        for run in full.runs(p) {
            let bytes = records_as_bytes(run);
            if borrow_all || bytes.len() >= BORROW_MIN_BYTES {
                // Keep the stream's byte order: flush the pending
                // small-run buffer before this larger run.
                if let Some(buf) = coalesced.take() {
                    let t_io = Instant::now();
                    writer.submit(Arc::clone(name), buf)?;
                    *blocked_ns += t_io.elapsed().as_nanos() as u64;
                }
                let t_io = Instant::now();
                // SAFETY: the engine keeps `full` alive and unmutated
                // until the next `wait_until`/`flush` barrier
                // (ping-pong contract documented above).
                unsafe {
                    writer.submit_borrowed(Arc::clone(name), bytes.as_ptr(), bytes.len())?;
                }
                *blocked_ns += t_io.elapsed().as_nanos() as u64;
            } else {
                coalesced
                    .get_or_insert_with(|| writer.acquire())
                    .extend_from_slice(bytes);
            }
        }
        if let Some(buf) = coalesced {
            if buf.is_empty() {
                writer.recycle(buf);
            } else {
                let t_io = Instant::now();
                writer.submit(Arc::clone(name), buf)?;
                *blocked_ns += t_io.elapsed().as_nanos() as u64;
            }
        }
    }
    Ok(())
}

impl<P: EdgeProgram> Engine<P> for DiskEngine<P> {
    fn num_vertices(&self) -> usize {
        self.partitioner.num_vertices()
    }

    fn num_edges(&self) -> usize {
        self.num_edges
    }

    fn scatter_gather(&mut self, program: &P) -> IterationStats {
        if self.skip_supersteps > 0 {
            // Resuming from a checkpoint: the first `k` supersteps of
            // the driving loop were already executed (and persisted)
            // by the interrupted run. Report them as no-cost
            // iterations — `vertices_changed: 1` keeps convergence
            // loops going — without touching streams or counters
            // (`completed_supersteps` already includes them).
            self.skip_supersteps -= 1;
            return IterationStats {
                vertices_changed: 1,
                ..Default::default()
            };
        }
        let mut stats = self
            .try_scatter_gather(program)
            .expect("out-of-core scatter-gather failed");
        self.completed_supersteps += 1;
        let every = self.config.checkpoint_every;
        if every > 0 && self.completed_supersteps.is_multiple_of(every as u64) {
            match self.write_checkpoint() {
                Ok(()) => stats.checkpoints += 1,
                // A full device must not kill a healthy superstep: the
                // run's results do not depend on the checkpoint, so
                // skip it with a warning and try again at the next
                // cadence point (the previous checkpoint is intact —
                // slots are written atomically).
                Err(Error::Io(e)) if e.raw_os_error() == Some(28) => {
                    eprintln!(
                        "warning: checkpoint skipped at superstep {}: device full ({e})",
                        self.completed_supersteps
                    );
                }
                Err(e) => panic!("checkpoint write failed after successful superstep: {e}"),
            }
        }
        stats
    }

    fn vertex_map(&mut self, f: &mut dyn FnMut(VertexId, &mut P::State)) {
        if self.skip_supersteps > 0 {
            // Replayed supersteps already incorporate the maps the
            // original run interleaved with them (the checkpoint was
            // taken post-gather, pre-map of the *next* iteration, so
            // exactly the maps up to the restored superstep are in the
            // persisted state). Re-applying them here would
            // double-apply. The restored frontier must survive the
            // replay too, so invalidation below is skipped with it.
            return;
        }
        // The map may activate or deactivate any vertex; the next
        // superstep rebuilds the frontier from a `needs_scatter` scan.
        self.frontier_valid = false;
        for p in self.partitioner.iter() {
            let base = self.partitioner.range(p).start;
            self.vertices
                .update_partition(&self.store, &self.partitioner, p, |states| {
                    for (i, s) in states.iter_mut().enumerate() {
                        f((base + i) as VertexId, s);
                    }
                    Ok(true)
                })
                .expect("vertex map failed");
        }
    }

    fn vertex_fold(
        &mut self,
        init: f64,
        f: &mut dyn FnMut(f64, VertexId, &P::State) -> f64,
    ) -> f64 {
        let mut acc = init;
        for p in self.partitioner.iter() {
            let states = self
                .vertices
                .load_scatter(&self.store, &self.partitioner, p)
                .expect("vertex load failed");
            let base = self.partitioner.range(p).start;
            for (i, s) in states.iter().enumerate() {
                acc = f(acc, (base + i) as VertexId, s);
            }
        }
        acc
    }

    fn states(&mut self) -> Vec<P::State> {
        self.vertices
            .collect_all(&self.store, &self.partitioner)
            .expect("vertex collect failed")
    }

    fn seed_frontier(&mut self, sources: &[VertexId]) {
        // During checkpoint replay the restored frontier must survive
        // (see `vertex_map`): the sources hint describes the *initial*
        // state, not the restored one.
        if self.skip_supersteps == 0 && self.tracked && self.config.frontier_skip {
            self.frontier.seed(&self.partitioner, sources);
            self.frontier_valid = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xstream_core::Termination;
    use xstream_graph::generators;

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

    fn temp_store(tag: &str) -> StreamStore {
        let root = std::env::temp_dir().join(format!("xstream_disk_eng_{tag}"));
        let _ = std::fs::remove_dir_all(&root);
        StreamStore::new(&root, 8192).unwrap()
    }

    fn small_config() -> EngineConfig {
        EngineConfig::default()
            .with_threads(2)
            .with_io_unit(8192)
            .with_memory_budget(1 << 20)
    }

    #[test]
    fn min_label_matches_in_memory_engine() {
        let g = generators::erdos_renyi(300, 2500, 21).to_undirected();
        let store = temp_store("minlabel");
        let mut disk = DiskEngine::from_graph(store, &g, &MinLabel, small_config()).unwrap();
        disk.run(&MinLabel, Termination::Converged);
        let disk_states = disk.states();

        let mut mem = xstream_memory::InMemoryEngine::from_graph(
            &g,
            &MinLabel,
            EngineConfig::default().with_threads(2).with_partitions(8),
        );
        mem.run(&MinLabel, Termination::Converged);
        assert_eq!(disk_states, mem.states());
    }

    #[test]
    fn forced_spilling_still_correct() {
        // A tiny spill threshold forces the update files path.
        let g = generators::path(200).to_undirected();
        let store = temp_store("spill");
        let cfg = EngineConfig {
            in_memory_updates: false,
            ..small_config()
        };
        let mut disk = DiskEngine::from_graph(store, &g, &MinLabel, cfg).unwrap();
        disk.run(&MinLabel, Termination::Converged);
        assert!(disk.states().iter().all(|&l| l == 0));
    }

    #[test]
    fn on_disk_vertices_path() {
        let g = generators::cycle(64);
        let store = temp_store("ondiskverts");
        let cfg = EngineConfig {
            keep_vertices_in_memory: false,
            ..small_config()
        };
        let mut disk = DiskEngine::from_graph(store, &g, &MinLabel, cfg).unwrap();
        disk.run(&MinLabel, Termination::Converged);
        assert!(disk.states().iter().all(|&l| l == 0));
    }

    #[test]
    fn from_edge_file_roundtrip() {
        let dir = std::env::temp_dir().join("xstream_disk_input_fromfile");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.xse");
        let g = generators::erdos_renyi(100, 900, 5).to_undirected();
        xstream_graph::fileio::write_edge_file(&path, &g).unwrap();
        let store = temp_store("fromfile");
        let mut disk = DiskEngine::from_edge_file(store, &path, &MinLabel, small_config()).unwrap();
        assert_eq!(disk.num_edges(), g.num_edges());
        disk.run(&MinLabel, Termination::Converged);
        let mut mem = xstream_memory::InMemoryEngine::from_graph(
            &g,
            &MinLabel,
            EngineConfig::default().with_partitions(4),
        );
        mem.run(&MinLabel, Termination::Converged);
        assert_eq!(disk.states(), mem.states());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mirrored_ingest_matches_materialized_expansion() {
        // Streaming a *directed* file with on-the-fly undirected
        // mirroring must equal building from the doubled-in-RAM graph.
        let dir = std::env::temp_dir().join("xstream_disk_input_mirror");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.xse");
        let g = generators::preferential_attachment(200, 4, 11);
        xstream_graph::fileio::write_edge_file(&path, &g).unwrap();

        let store = temp_store("mirror_stream");
        let mut streamed = DiskEngine::from_ingest(
            store,
            &EdgeIngest::undirected(&path),
            &MinLabel,
            small_config(),
        )
        .unwrap();
        let und = g.to_undirected();
        assert_eq!(streamed.num_edges(), und.num_edges());
        streamed.run(&MinLabel, Termination::Converged);

        let store = temp_store("mirror_mat");
        let mut materialized =
            DiskEngine::from_graph(store, &und, &MinLabel, small_config()).unwrap();
        materialized.run(&MinLabel, Termination::Converged);
        assert_eq!(streamed.states(), materialized.states());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn ingest_rejects_out_of_range_edges() {
        // A file whose header under-declares the vertex range must be
        // refused at ingest, not panic deep inside the partitioner.
        let dir = std::env::temp_dir().join("xstream_disk_input_oob");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.xse");
        // Handcraft the raw bytes — the writers themselves now refuse
        // to seal a file whose header under-declares the vertex range.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(xstream_graph::fileio::MAGIC);
        bytes.extend_from_slice(&4u64.to_le_bytes());
        bytes.extend_from_slice(&1u64.to_le_bytes());
        bytes.extend_from_slice(records_as_bytes(&[Edge::new(0, 9)]));
        std::fs::write(&path, &bytes).unwrap();
        let store = temp_store("oob");
        let r = DiskEngine::from_edge_file(store, &path, &MinLabel, small_config());
        assert!(matches!(r, Err(Error::InvalidInput(_))));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn push_run_merges_adjacent_runs_and_splits_at_the_io_cap() {
        let e = Edge::SIZE as u64;
        let io_cap = 4 * Edge::SIZE;
        // Two adjacent runs, a gap, a run of 10 edges, a run continuing
        // it, and an empty run.
        let runs = [
            0..2 * e,
            2 * e..3 * e,
            5 * e..15 * e,
            15 * e..16 * e,
            20 * e..20 * e,
        ];
        let mut reads = Vec::new();
        for run in runs.clone() {
            push_run(&mut reads, run, io_cap);
        }
        let want: Vec<(u64, u32)> = [(0, 3), (5, 4), (9, 4), (13, 3)]
            .iter()
            .map(|&(o, l)| (o * e, (l * e) as u32))
            .collect();
        assert_eq!(reads, want);
        for &(off, len) in &reads {
            assert!(len > 0 && len as usize <= io_cap);
            assert_eq!((off % e, len as u64 % e), (0, 0), "a read splits an edge");
        }
        let read: u64 = reads.iter().map(|&(_, l)| l as u64).sum();
        assert_eq!(read, runs.iter().map(|r| r.end - r.start).sum::<u64>());
    }

    #[test]
    fn io_accounting_sees_edge_traffic() {
        let g = generators::erdos_renyi(200, 5000, 8);
        let store = temp_store("acct");
        let mut disk = DiskEngine::from_graph(store, &g, &MinLabel, small_config()).unwrap();
        let it = disk.try_scatter_gather(&MinLabel).unwrap();
        assert_eq!(it.edges_streamed, 5000);
        // Edges are read from disk every iteration.
        assert!(it.bytes_read >= (5000 * Edge::SIZE) as u64);
    }

    #[test]
    fn vertex_map_and_fold_on_disk() {
        let g = generators::path(50);
        let store = temp_store("vmap");
        let cfg = EngineConfig {
            keep_vertices_in_memory: false,
            ..small_config()
        };
        let mut disk = DiskEngine::from_graph(store, &g, &MinLabel, cfg).unwrap();
        disk.vertex_map(&mut |v, s| *s = v + 1);
        let sum = disk.vertex_fold(0.0, &mut |acc, _v, s| acc + *s as f64);
        assert_eq!(sum, (1..=50).map(f64::from).sum::<f64>());
    }

    #[test]
    fn infeasible_budget_is_reported() {
        let g = generators::path(1 << 16);
        let store = temp_store("infeasible");
        let cfg = EngineConfig::default()
            .with_io_unit(16 << 20)
            .with_memory_budget(1 << 10);
        let r = DiskEngine::from_graph(store, &g, &MinLabel, cfg);
        assert!(matches!(r, Err(Error::Config(_))));
    }

    #[test]
    fn pooled_and_reference_pipelines_agree() {
        // The pooled pipeline must match the sequential §2 oracle
        // superstep by superstep — spilled or not, at every gather
        // parallelism. Min-label is order-insensitive in its states
        // but not in how often a vertex changes, so change counts are
        // compared only as zero vs nonzero.
        let g = generators::preferential_attachment(300, 4, 7).to_undirected();
        for (tag, in_memory_updates, threads) in [
            ("agree_mem", true, 4),
            ("agree_spill", false, 1),
            ("agree_spill_par", false, 4),
        ] {
            let cfg = EngineConfig {
                in_memory_updates,
                ..small_config().with_threads(threads)
            };
            let mut pooled = DiskEngine::from_graph(temp_store(tag), &g, &MinLabel, cfg).unwrap();
            let mut oracle =
                xstream_core::OracleEngine::new(g.num_vertices(), g.edges().to_vec(), &MinLabel);
            for step in 0..4 {
                let a = pooled.try_scatter_gather(&MinLabel).unwrap();
                let b = oracle.scatter_gather(&MinLabel);
                assert_eq!(a.edges_streamed, b.edges_streamed, "{tag} step {step}");
                assert_eq!(
                    a.updates_generated, b.updates_generated,
                    "{tag} step {step}"
                );
                assert_eq!(a.updates_applied, b.updates_applied, "{tag} step {step}");
                assert_eq!(
                    a.vertices_changed == 0,
                    b.vertices_changed == 0,
                    "{tag} step {step}"
                );
                assert_eq!(pooled.states(), oracle.states(), "{tag} step {step}");
            }
        }
    }

    #[test]
    fn gather_parallelism_sweep_matches_serial() {
        // Forced spill with several partitions: 1/2/4 gather lanes (one
        // per thread) must all converge to the serial result.
        let g = generators::erdos_renyi(600, 4000, 33).to_undirected();
        let cfg_base = EngineConfig {
            in_memory_updates: false,
            ..EngineConfig::default()
                .with_io_unit(8192)
                .with_memory_budget(1 << 20)
                .with_partitions(8)
        };
        let expected = {
            let store = temp_store("gsweep_serial");
            let cfg = cfg_base.clone().with_threads(1);
            let mut disk = DiskEngine::from_graph(store, &g, &MinLabel, cfg).unwrap();
            disk.run(&MinLabel, Termination::Converged);
            disk.states()
        };
        assert!(expected.iter().all(|&l| l == 0));
        for lanes in [2usize, 4] {
            let store = temp_store(&format!("gsweep_{lanes}"));
            let cfg = cfg_base.clone().with_threads(lanes);
            let mut disk = DiskEngine::from_graph(store, &g, &MinLabel, cfg).unwrap();
            disk.run(&MinLabel, Termination::Converged);
            assert_eq!(disk.states(), expected, "threads={lanes}");
        }
    }

    #[test]
    fn resident_tail_skips_the_disk_round_trip() {
        // A spilling superstep leaves its post-spill tail in memory:
        // the bytes written must cover only the spilled prefix, and
        // gather must still apply every update.
        // Enough updates to cross the 1 MB spill threshold at least
        // once, with a remainder left over as the resident tail.
        let g = generators::erdos_renyi(2000, 70_000, 13).to_undirected();
        let store = temp_store("tail");
        let cfg = EngineConfig {
            in_memory_updates: false,
            ..small_config()
        };
        let mut disk = DiskEngine::from_graph(store, &g, &MinLabel, cfg).unwrap();
        let it = disk.try_scatter_gather(&MinLabel).unwrap();
        let usz = size_of::<TargetedUpdate<u32>>() as u64;
        assert!(it.updates_generated > 0);
        assert_eq!(it.updates_applied, it.updates_generated);
        // Spills happened, but not every update hit the disk.
        assert!(it.bytes_written > 0, "spill path not exercised");
        assert!(
            it.bytes_written < it.updates_generated * usz,
            "resident tail was written to disk anyway ({} >= {})",
            it.bytes_written,
            it.updates_generated * usz
        );
    }
}
