//! The in-memory scatter-gather engine (paper §4), built around a
//! static update layout and a zero-allocation superstep.
//!
//! The build groups the edges by source partition and, in one more
//! parallel pass over them, lays out every update the graph can
//! produce. Each superstep an edge emits at most one update, to its
//! destination's partition, so the shuffle's counts are bounded by the
//! edge list: the K source partitions are cut into
//! `T = min(K, 4 × threads)` contiguous scatter *tasks*, and each
//! (task, first radix digit of the destination partition) pair gets an
//! exact region of one [`UpdateLayout`] buffer of `|E|` slots. One
//! iteration is then:
//!
//! 1. **Scatter + fused first shuffle stage** — threads claim tasks
//!    from pooled work queues (stealing when idle, §4.1), stream each
//!    partition of the task in ascending order — skipping it, or
//!    scattering only its active vertices' runs, when a tracked
//!    frontier makes that pay — and write every update straight into
//!    its region at a cursor checked against the region's end. With
//!    the common single-stage plan the entire shuffle collapses into
//!    scatter.
//! 2. **Shuffle** — a multi-stage plan (§4.2) runs its remaining radix
//!    passes per digit group over the filled region prefixes, the
//!    groups spread over the workers.
//! 3. **Gather** — threads claim partitions again and apply partition
//!    `q`'s regions `(0, q)` … `(T-1, q)` — or its final chunk under a
//!    multi-stage plan — to the partition's vertex states, which fit in
//!    the CPU cache by construction.
//!
//! Updates reach each vertex in (source partition, edge position)
//! order whatever the thread count, steal schedule or shuffle plan, so
//! results are bitwise reproducible. Every buffer — the update layout,
//! its pass scratch, the work queues — is sized at build and worker
//! threads are parked in a persistent [`WorkerPool`], so a superstep
//! performs **no heap allocation**, the first included (tracked
//! programs size their frontier bitmaps once; see
//! [`IterationStats::alloc_count`] and [`xstream_core::alloc_stats`]).
//! Tests check the pipeline against the sequential
//! [`xstream_core::OracleEngine`].

use std::mem::size_of;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use crate::queue::WorkQueues;
use parking_lot::Mutex;
use xstream_core::program::{gather_updates, scatter_edges, TargetedUpdate};
use xstream_core::{
    alloc_stats, Edge, EdgeProgram, Engine, EngineConfig, FrontierMode, FrontierPair,
    IterationStats, Partitioner, VertexId,
};
use xstream_graph::EdgeList;
use xstream_storage::pool::{StatesPtr, WorkerPool};
use xstream_storage::shuffle::{CountingPlacement, MultiStagePlan, CACHE_LINE};
use xstream_storage::{StreamBuffer, UpdateLayout};

/// Scatter tasks per worker thread: enough for work stealing to even
/// out skewed partitions, few enough to keep the layout's per-task
/// regions large.
const TASKS_PER_THREAD: usize = 4;

/// One worker's phase counters, kept on its stack and folded into the
/// superstep's totals once per phase.
#[derive(Debug, Default, Clone, Copy)]
struct WorkerCounters {
    edges_streamed: u64,
    updates_generated: u64,
    updates_applied: u64,
    vertices_changed: u64,
    partitions_skipped: u64,
    partitions_sparse: u64,
}

impl WorkerCounters {
    fn add(&mut self, o: &Self) {
        self.edges_streamed += o.edges_streamed;
        self.updates_generated += o.updates_generated;
        self.updates_applied += o.updates_applied;
        self.vertices_changed += o.vertices_changed;
        self.partitions_skipped += o.partitions_skipped;
        self.partitions_sparse += o.partitions_sparse;
    }
}

/// The source partitions of scatter task `t` of `tasks` over `k`.
fn task_partitions(t: usize, k: usize, tasks: usize) -> Range<usize> {
    t * k / tasks..(t + 1) * k / tasks
}

/// Row lengths up to which [`count_digits`] counts on the stack.
const STACK_ROW: usize = 64;

/// Adds to `row[d]` the edges whose destination partition has
/// first-stage digit `d`. Neighbouring tasks' rows share cache lines
/// when they are short, and workers counting them at once would pass
/// those lines back and forth on every edge, so a short row is counted
/// on the stack and added once.
fn count_digits(row: &mut [usize], edges: &[Edge], plan: MultiStagePlan, partitioner: Partitioner) {
    let mut stack = [0usize; STACK_ROW];
    let short = row.len() <= STACK_ROW;
    let counters = if short {
        &mut stack[..row.len()]
    } else {
        &mut *row
    };
    for e in edges {
        counters[plan.digit0(partitioner.partition_of(e.dst))] += 1;
    }
    if short {
        for (count, add) in row.iter_mut().zip(stack) {
            *count += add;
        }
    }
}

/// The update layout's region sizes: for every scatter task `t` and
/// first-stage digit `d`, at `t * plan.fan0() + d`, the number of edges
/// of `t`'s partitions whose destination partition has digit `d`. Each
/// task's edges are contiguous in the grouped `edges`, so workers claim
/// tasks and count each into its own row.
fn region_counts(
    edges: &StreamBuffer<Edge>,
    partitioner: Partitioner,
    plan: MultiStagePlan,
    tasks: usize,
    pool: Option<&WorkerPool>,
) -> Vec<usize> {
    let k = partitioner.num_partitions();
    let fan0 = plan.fan0();
    let mut counts = vec![0; tasks * fan0];
    let rows = StatesPtr(counts.as_mut_ptr());
    let next_task = AtomicUsize::new(0);
    let job = |_: usize| loop {
        let t = next_task.fetch_add(1, Ordering::Relaxed);
        if t >= tasks {
            break;
        }
        // SAFETY: `fetch_add` hands each task to one worker, and the
        // tasks' rows are disjoint and inside `counts`.
        let row = unsafe { rows.partition_slice_mut(t * fan0..(t + 1) * fan0) };
        for p in task_partitions(t, k, tasks) {
            count_digits(row, edges.chunk(p), plan, partitioner);
        }
    };
    match pool {
        Some(pool) => pool.run(&job),
        None => job(0),
    }
    counts
}

/// The in-memory streaming engine.
pub struct InMemoryEngine<P: EdgeProgram> {
    config: EngineConfig,
    partitioner: Partitioner,
    plan: MultiStagePlan,
    states: Vec<P::State>,
    /// Edges grouped by source partition; chunk `p` is partition `p`'s
    /// edge list, streamed sequentially during scatter.
    edges: StreamBuffer<Edge>,
    num_edges: usize,
    /// Parked worker threads (`None` when single-threaded); worker 0
    /// is the calling thread.
    pool: Option<WorkerPool>,
    /// The static update layout: one exact region per (scatter task,
    /// first-stage digit), laid out at build.
    updates: UpdateLayout<TargetedUpdate<P::Update>>,
    /// Pooled work queues, refilled before every phase.
    queues: WorkQueues,
    /// Whether the program opted into frontier tracking
    /// ([`FrontierMode::Tracked`]).
    tracked: bool,
    /// Double-buffered active-vertex bitmaps (Ligra-hybrid scatter);
    /// sized lazily on the first tracked superstep and pooled after.
    frontier: FrontierPair,
    /// Whether `frontier.current` reflects the vertex states. A
    /// `vertex_map` invalidates it; the next superstep rebuilds it from
    /// a `needs_scatter` scan.
    frontier_valid: bool,
    /// For tracked programs, every partition's run-offset index back
    /// to back: partition `p`'s `range.len() + 1` offsets into its
    /// source-grouped edge chunk start at `range.start + p`. Empty for
    /// dense programs.
    run_index: Vec<u32>,
}

impl<P: EdgeProgram> InMemoryEngine<P> {
    /// Builds an engine over `graph` (an unordered edge list),
    /// initializing vertex state with `program.init`.
    ///
    /// Setup starts the iteration-persistent worker pool, then performs
    /// the one-time streaming partitioning of the edge list on it — a
    /// counting placement in per-worker input slices straight from the
    /// borrowed list into the engine's one edge buffer, *not* a sort
    /// (the paper's key pre-processing advantage, Fig. 18), in two
    /// cache-bounded levels when the keys outnumber the cache's lines.
    /// One more parallel pass over the grouped edges sizes the update
    /// layout's regions.
    pub fn from_graph(graph: &EdgeList, program: &P, config: EngineConfig) -> Self {
        let num_vertices = graph.num_vertices();
        let footprint =
            size_of::<P::State>() + size_of::<Edge>() + size_of::<TargetedUpdate<P::Update>>();
        let k = config.in_memory_partitions(num_vertices, footprint);
        let partitioner = Partitioner::new(num_vertices, k);
        let k = partitioner.num_partitions();
        let fanout = config
            .shuffle_fanout
            .unwrap_or_else(|| (config.cache_size / CACHE_LINE).next_power_of_two().max(2));
        let plan = MultiStagePlan::new(k, fanout);
        let num_edges = graph.num_edges();
        let threads = config.threads.max(1);
        let tasks = k.min(TASKS_PER_THREAD * threads);

        let pool = (threads > 1).then(|| WorkerPool::new(threads - 1));

        // Group the edges by source partition, each placement counting
        // and placing per-worker input slices on the pool (Fig. 7).
        // Dense programs need nothing finer: one placement keyed by
        // partition. Tracked programs also need each partition's chunk
        // grouped by source vertex so the sparse scatter can address
        // one vertex's out-edge run: one placement keyed by source
        // gives both, since partition ids are monotone in the vertex id
        // — a partition's chunk starts at its first vertex's run.
        let tracked = program.frontier_mode() == FrontierMode::Tracked;
        let mut placement = CountingPlacement::with_capacity(num_edges);
        let (input, pool_ref, cache) = (graph.edges(), pool.as_ref(), config.cache_size);
        if tracked {
            let src = |e: &Edge| e.src as usize;
            placement.place_slice(input, num_vertices, pool_ref, cache, src);
        } else {
            let src = |e: &Edge| partitioner.partition_of(e.src);
            placement.place_slice(input, k, pool_ref, cache, src);
        }
        let (data, runs) = placement.into_parts();
        let (edges, run_index) = if tracked {
            let mut offsets: Vec<usize> = partitioner
                .iter()
                .map(|p| runs[partitioner.range(p).start])
                .collect();
            offsets.push(data.len());
            let mut run_index = Vec::with_capacity(num_vertices + k);
            for p in partitioner.iter() {
                let range = partitioner.range(p);
                let base = runs[range.start];
                run_index.extend(runs[range.start..=range.end].iter().map(|&o| {
                    u32::try_from(o - base)
                        .unwrap_or_else(|_| panic!("partition {p} holds over u32::MAX edges"))
                }));
            }
            (StreamBuffer::from_grouped(data, offsets), run_index)
        } else {
            (StreamBuffer::from_grouped(data, runs), Vec::new())
        };
        let updates = UpdateLayout::new(
            plan,
            tasks,
            region_counts(&edges, partitioner, plan, tasks, pool.as_ref()),
            threads,
        );

        let states = (0..num_vertices as VertexId)
            .map(|v| program.init(v))
            .collect();
        // Sized for the larger phase, so no superstep grows a queue.
        let mut queues = WorkQueues::new(std::iter::empty(), threads, config.work_stealing);
        queues.refill(0..k);
        Self {
            config,
            partitioner,
            plan,
            states,
            edges,
            num_edges,
            pool,
            updates,
            queues,
            tracked,
            frontier: FrontierPair::new(),
            frontier_valid: false,
            run_index,
        }
    }

    /// The partitioner in use (exposed for experiments).
    pub fn partitioner(&self) -> &Partitioner {
        &self.partitioner
    }

    /// The multi-stage shuffle plan in use (exposed for experiments).
    pub fn plan(&self) -> &MultiStagePlan {
        &self.plan
    }

    /// Runs `job(tid)` for every worker id: on the pool when
    /// multi-threaded, inline when single-threaded (avoiding even the
    /// dispatch handshake in the paper's single-thread baselines).
    #[inline]
    fn dispatch(pool: Option<&WorkerPool>, job: &(dyn Fn(usize) + Sync)) {
        match pool {
            None => job(0),
            Some(pool) => pool.run(job),
        }
    }

    /// Data-movement accounting. The shuffle makes `stages - 1`
    /// whole-stream copy passes over the updates: the first stage
    /// rides along with the scatter writes.
    fn fill_derived_stats(&self, stats: &mut IterationStats) {
        let update_copy_passes = u64::from(self.plan.stages.saturating_sub(1));
        let esz = size_of::<Edge>() as u64;
        let usz = size_of::<TargetedUpdate<P::Update>>() as u64;
        let upd_bytes = stats.updates_generated * usz;
        stats.bytes_read = stats.edges_streamed * esz
            + upd_bytes * update_copy_passes
            + stats.updates_applied * usz;
        stats.bytes_written = upd_bytes + upd_bytes * update_copy_passes;
        stats.mem_refs = stats.estimated_mem_refs();
        // Sequential-stream traffic time: edge streaming (scatter) plus
        // the update copy passes (shuffle).
        stats.streaming_ns = stats.scatter_ns + stats.shuffle_ns;
    }
}

impl<P: EdgeProgram> Engine<P> for InMemoryEngine<P> {
    fn num_vertices(&self) -> usize {
        self.states.len()
    }

    fn num_edges(&self) -> usize {
        self.num_edges
    }

    fn scatter_gather(&mut self, program: &P) -> IterationStats {
        let alloc_before = alloc_stats::snapshot();
        let mut stats = IterationStats::default();
        let k = self.partitioner.num_partitions();
        let tasks = self.updates.tasks();
        let totals = Mutex::new(WorkerCounters::default());
        self.queues.refill(0..tasks);

        // Frontier upkeep (Ligra-hybrid scatter). Gather maintains the
        // next generation incrementally; only after a `vertex_map` (or
        // on the first superstep) is the active set rebuilt from a
        // `needs_scatter` scan over the states. Allocates only the
        // first time; rebuilds are a memset plus the scan.
        let use_frontier = self.tracked && self.config.frontier_skip;
        if use_frontier && !self.frontier_valid {
            self.frontier.ensure(&self.partitioner);
            for p in self.partitioner.iter() {
                let range = self.partitioner.range(p);
                self.frontier
                    .current
                    .mark_active(p, range.start, &self.states[range], |s| {
                        program.needs_scatter(s)
                    });
            }
            self.frontier_valid = true;
        }
        stats.frontier_density = if use_frontier {
            self.frontier.current.density()
        } else {
            1.0
        };

        // ---- Scatter + fused first shuffle stage ----
        let t = Instant::now();
        {
            let states = &self.states;
            let edges = &self.edges;
            let queues = &self.queues;
            let partitioner = self.partitioner;
            let config = &self.config;
            let frontier = use_frontier.then_some(&self.frontier.current);
            let run_index = &self.run_index;
            let writer = self.updates.writer();
            let totals = &totals;
            let job = |tid: usize| {
                let mut ctr = WorkerCounters::default();
                while let Some(task) = queues.pop(tid) {
                    let mut out = writer.task(task);
                    // Scatter a run of edges; states are shared
                    // immutably in this phase, and each update goes to
                    // its first-stage digit's region — the fused first
                    // shuffle stage.
                    let mut scatter_run = |run: &[Edge], ctr: &mut WorkerCounters| {
                        ctr.edges_streamed += run.len() as u64;
                        ctr.updates_generated +=
                            scatter_edges(program, states, 0, run.iter().copied(), |u| {
                                out.push(u, partitioner.partition_of(u.target))
                            });
                    };
                    for p in task_partitions(task, k, tasks) {
                        let chunk = edges.chunk(p);
                        if let Some(fr) = frontier {
                            // Empty frontier: the whole partition is
                            // dead weight — skip its stream entirely.
                            if fr.active_in(p) == 0 {
                                ctr.partitions_skipped += 1;
                                continue;
                            }
                            let range = partitioner.range(p);
                            let offsets = &run_index[range.start + p..=range.end + p];
                            if config.sparse_scatter_pays(fr, range.clone(), offsets) {
                                // Sparse: stream only the active
                                // vertices' runs of the source-grouped
                                // chunk.
                                ctr.partitions_sparse += 1;
                                fr.for_each_active_in(range.clone(), |v| {
                                    let lv = v as usize - range.start;
                                    scatter_run(
                                        &chunk[offsets[lv] as usize..offsets[lv + 1] as usize],
                                        &mut ctr,
                                    );
                                    true
                                });
                                continue;
                            }
                        }
                        scatter_run(chunk, &mut ctr);
                    }
                }
                totals.lock().add(&ctr);
            };
            Self::dispatch(self.pool.as_ref(), &job);
        }
        stats.scatter_ns = t.elapsed().as_nanos() as u64;

        // ---- Shuffle: the remaining stages of a multi-stage plan ----
        let t = Instant::now();
        let partitioner = self.partitioner;
        self.updates
            .finish(self.pool.as_ref(), &|u| partitioner.partition_of(u.target));
        stats.shuffle_ns = t.elapsed().as_nanos() as u64;

        // ---- Gather: each partition's runs in source order ----
        self.queues.refill(0..k);
        let t = Instant::now();
        {
            let states_ptr = StatesPtr(self.states.as_mut_ptr());
            let states_ptr = &states_ptr;
            let updates = &self.updates;
            let queues = &self.queues;
            let partitioner = &self.partitioner;
            let next_frontier = use_frontier.then_some(&self.frontier.next);
            let totals = &totals;
            let job = |tid: usize| {
                let mut ctr = WorkerCounters::default();
                while let Some(p) = queues.pop(tid) {
                    let range = partitioner.range(p);
                    let base = range.start;
                    // SAFETY: work queues hand each partition index to
                    // exactly one worker and partition ranges are
                    // disjoint, so this `&mut` slice aliases nothing.
                    let part_states = unsafe { states_ptr.partition_slice_mut(range) };
                    for run in updates.runs(p) {
                        let run = run.iter().copied();
                        let (applied, changed) =
                            gather_updates(program, part_states, base, p, run, next_frontier);
                        ctr.updates_applied += applied;
                        ctr.vertices_changed += changed;
                    }
                }
                totals.lock().add(&ctr);
            };
            Self::dispatch(self.pool.as_ref(), &job);
        }
        stats.gather_ns = t.elapsed().as_nanos() as u64;
        if use_frontier {
            self.frontier.advance();
        }

        let c = totals.into_inner();
        stats.edges_streamed = c.edges_streamed;
        stats.updates_generated = c.updates_generated;
        stats.updates_applied = c.updates_applied;
        stats.vertices_changed = c.vertices_changed;
        stats.partitions_skipped = c.partitions_skipped;
        stats.partitions_sparse = c.partitions_sparse;
        // The layout is static: its region slots are the whole budget.
        stats.shuffle_budget = self.updates.region_slots() as u64;
        stats.shuffle_capacity = self.updates.capacity() as u64;
        // Every generated update was written to the layout.
        stats.shuffle_high_water = c.updates_generated;

        self.fill_derived_stats(&mut stats);
        let alloc = alloc_before.delta(&alloc_stats::snapshot());
        stats.alloc_count = alloc.count;
        stats.alloc_bytes = alloc.bytes;
        stats
    }

    fn vertex_map(&mut self, f: &mut dyn FnMut(VertexId, &mut P::State)) {
        for (v, s) in self.states.iter_mut().enumerate() {
            f(v as VertexId, s);
        }
        // Arbitrary state mutation can activate or deactivate any
        // vertex; the next superstep rebuilds the frontier from a
        // `needs_scatter` scan.
        self.frontier_valid = false;
    }

    fn vertex_fold(
        &mut self,
        init: f64,
        f: &mut dyn FnMut(f64, VertexId, &P::State) -> f64,
    ) -> f64 {
        let mut acc = init;
        for (v, s) in self.states.iter().enumerate() {
            acc = f(acc, v as VertexId, s);
        }
        acc
    }

    fn states(&mut self) -> Vec<P::State> {
        self.states.clone()
    }

    fn seed_frontier(&mut self, sources: &[VertexId]) {
        if self.tracked && self.config.frontier_skip {
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

    /// Min-label propagation: connected components on undirected input.
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
    fn min_label_converges_on_path() {
        let g = generators::path(50).to_undirected();
        let mut e = InMemoryEngine::from_graph(&g, &MinLabel, engine_cfg(2, 4));
        let stats = e.run(&MinLabel, Termination::Converged);
        assert!(stats.num_iterations() >= 25, "path needs ~n/2 iterations");
        assert!(e.states().iter().all(|&l| l == 0));
    }

    #[test]
    fn results_invariant_to_partitions_and_threads() {
        let g = generators::erdos_renyi(500, 4000, 11).to_undirected();
        let mut reference: Option<Vec<u32>> = None;
        for threads in [1usize, 2, 4] {
            for parts in [1usize, 4, 64] {
                let mut e = InMemoryEngine::from_graph(&g, &MinLabel, engine_cfg(threads, parts));
                e.run(&MinLabel, Termination::Converged);
                let states = e.states();
                match &reference {
                    None => reference = Some(states),
                    Some(r) => assert_eq!(r, &states, "threads={threads} parts={parts}"),
                }
            }
        }
    }

    #[test]
    fn degree_count_matches_direct() {
        let g = generators::erdos_renyi(200, 3000, 3);
        let mut e = InMemoryEngine::from_graph(&g, &DegreeCount, engine_cfg(2, 8));
        let stats = e.scatter_gather(&DegreeCount);
        assert_eq!(stats.edges_streamed, 3000);
        assert_eq!(stats.updates_generated, 3000);
        assert_eq!(stats.updates_applied, 3000);
        let expect = g.in_degrees();
        assert_eq!(e.states(), expect);
    }

    #[test]
    fn pooled_and_reference_pipelines_agree() {
        // The pooled pipeline must match the sequential §2 oracle
        // superstep by superstep: every counter, and bitwise states
        // (on a sum program, a dropped or doubled update would show).
        let g = generators::preferential_attachment(400, 4, 9).to_undirected();
        for threads in [1usize, 3] {
            let mut pooled = InMemoryEngine::from_graph(&g, &DegreeCount, engine_cfg(threads, 16));
            let mut oracle =
                xstream_core::OracleEngine::new(g.num_vertices(), g.edges().to_vec(), &DegreeCount);
            for step in 0..3 {
                let a = pooled.scatter_gather(&DegreeCount);
                let b = oracle.scatter_gather(&DegreeCount);
                assert_eq!(a.edges_streamed, b.edges_streamed, "step {step}");
                assert_eq!(a.updates_generated, b.updates_generated, "step {step}");
                assert_eq!(a.updates_applied, b.updates_applied, "step {step}");
                assert_eq!(a.vertices_changed, b.vertices_changed, "step {step}");
                assert_eq!(pooled.states(), oracle.states(), "step {step}");
            }
        }
    }

    #[test]
    fn work_stealing_off_still_correct() {
        let g = generators::preferential_attachment(300, 5, 1).to_undirected();
        let cfg = engine_cfg(2, 16).with_work_stealing(false);
        let mut e = InMemoryEngine::from_graph(&g, &MinLabel, cfg);
        e.run(&MinLabel, Termination::Converged);
        assert!(e.states().iter().all(|&l| l == 0));
    }

    #[test]
    fn vertex_map_and_fold() {
        let g = generators::path(10);
        let mut e = InMemoryEngine::from_graph(&g, &MinLabel, engine_cfg(1, 2));
        e.vertex_map(&mut |v, s| *s = v * 2);
        let sum = e.vertex_fold(0.0, &mut |acc, _v, s| acc + *s as f64);
        assert_eq!(sum, (0..10).map(|v| v as f64 * 2.0).sum::<f64>());
    }

    #[test]
    fn wasted_edge_accounting() {
        // needs_scatter is default-true; a program whose scatter always
        // declines produces 100% wasted edges.
        struct Never;
        impl EdgeProgram for Never {
            type State = u32;
            type Update = u32;
            fn init(&self, _v: VertexId) -> u32 {
                0
            }
            fn scatter(&self, _s: &u32, _e: &Edge) -> Option<u32> {
                None
            }
            fn gather(&self, _d: &mut u32, _u: &u32) -> bool {
                false
            }
        }
        let g = generators::erdos_renyi(50, 500, 2);
        let mut e = InMemoryEngine::from_graph(&g, &Never, engine_cfg(2, 4));
        let it = e.scatter_gather(&Never);
        assert_eq!(it.edges_streamed, 500);
        assert_eq!(it.updates_generated, 0);
        assert_eq!(it.wasted_pct(), 100.0);
    }

    #[test]
    fn empty_graph_iterates_trivially() {
        let g = EdgeList::empty(10);
        let mut e = InMemoryEngine::from_graph(&g, &MinLabel, engine_cfg(2, 2));
        let it = e.scatter_gather(&MinLabel);
        assert_eq!(it.edges_streamed, 0);
        assert_eq!(it.vertices_changed, 0);
    }

    #[test]
    fn more_threads_than_partitions_is_safe() {
        // Work queues must tolerate workers that never receive a
        // partition of their own.
        let g = generators::erdos_renyi(100, 600, 5).to_undirected();
        let reference = {
            let mut e = InMemoryEngine::from_graph(&g, &MinLabel, engine_cfg(1, 1));
            e.run(&MinLabel, xstream_core::Termination::Converged);
            e.states()
        };
        let mut e = InMemoryEngine::from_graph(&g, &MinLabel, engine_cfg(8, 2));
        e.run(&MinLabel, xstream_core::Termination::Converged);
        assert_eq!(e.states(), reference);
    }

    #[test]
    fn single_partition_multi_threaded() {
        // K = 1: only one worker has scatter work, but every thread's
        // (possibly empty) scratch slice must still gather correctly.
        let g = generators::erdos_renyi(80, 400, 6).to_undirected();
        let mut a = InMemoryEngine::from_graph(&g, &MinLabel, engine_cfg(4, 1));
        a.run(&MinLabel, xstream_core::Termination::Converged);
        let mut b = InMemoryEngine::from_graph(&g, &MinLabel, engine_cfg(1, 4));
        b.run(&MinLabel, xstream_core::Termination::Converged);
        assert_eq!(a.states(), b.states());
    }

    #[test]
    fn needs_scatter_gating_saves_scatter_calls() {
        // MinLabel has no gating, so every edge scatters every round; a
        // gated variant must stream the same edges but emit fewer
        // updates after convergence of most vertices.
        struct Gated;

        impl EdgeProgram for Gated {
            type State = u32;
            type Update = u32;

            fn init(&self, v: VertexId) -> u32 {
                v
            }

            fn needs_scatter(&self, s: &u32) -> bool {
                // Only even labels propagate.
                s.is_multiple_of(2)
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

        let g = generators::path(64).to_undirected();
        let mut e = InMemoryEngine::from_graph(&g, &Gated, engine_cfg(2, 4));
        let it = e.scatter_gather(&Gated);
        // All edges are streamed (the X-Stream trade-off) ...
        assert_eq!(it.edges_streamed as usize, g.num_edges());
        // ... but odd-labelled sources were gated out before scatter.
        assert!(it.updates_generated < it.edges_streamed);
    }

    #[test]
    fn automatic_partition_count_scales_with_cache() {
        let g = generators::erdos_renyi(1 << 14, 1 << 16, 9);
        let small_cache = EngineConfig::default().with_cache_size(1 << 10);
        let big_cache = EngineConfig::default().with_cache_size(1 << 24);
        let e1 = InMemoryEngine::from_graph(&g, &MinLabel, small_cache);
        let e2 = InMemoryEngine::from_graph(&g, &MinLabel, big_cache);
        assert!(e1.partitioner().num_partitions() > e2.partitioner().num_partitions());
    }

    /// The build's outputs, bytes and bounds: the placed edges, each
    /// partition's chunk bounds and the run-offset index.
    fn build_layout<P: EdgeProgram>(
        g: &EdgeList,
        program: &P,
        cfg: EngineConfig,
    ) -> (Vec<u8>, Vec<usize>, Vec<u32>) {
        let e = InMemoryEngine::from_graph(g, program, cfg);
        let bytes = xstream_core::record::records_as_bytes(e.edges.as_slice()).to_vec();
        let chunk_lens = (0..e.edges.num_chunks())
            .map(|p| e.edges.chunk(p).len())
            .collect();
        (bytes, chunk_lens, e.run_index)
    }

    #[test]
    fn build_is_identical_at_any_thread_count() {
        // The placement runs in one input slice per worker; the edge
        // buffer and the run index must not depend on how many.
        let g = generators::preferential_attachment(3000, 6, 21).to_undirected();
        let dense = build_layout(&g, &MinLabel, engine_cfg(1, 16));
        let tracked = build_layout(&g, &TrackedBfs::new(), engine_cfg(1, 16));
        assert!(dense.2.is_empty());
        assert!(tracked.2.len() > g.num_vertices());
        for threads in [2usize, 4] {
            assert!(
                build_layout(&g, &MinLabel, engine_cfg(threads, 16)) == dense,
                "dense, {threads} threads"
            );
            assert!(
                build_layout(&g, &TrackedBfs::new(), engine_cfg(threads, 16)) == tracked,
                "tracked, {threads} threads"
            );
        }

        // A 16 KiB cache has 256 lines, fewer than the 3,000 source
        // keys, so the tracked placement takes two levels: groups of 32
        // keys (about 680 edges, half the cache), 94 of them. Its
        // layout must be the chunked one-level placement's at any
        // thread count.
        let src = |e: &Edge| e.src as usize;
        let mut chunked = CountingPlacement::default();
        chunked.begin(g.num_vertices());
        chunked.count(g.edges().iter().copied(), src);
        chunked.place(g.edges().iter().copied(), src);
        let (placed, offsets) = chunked.finish().unwrap();
        let partitioner = Partitioner::new(g.num_vertices(), 16);
        let chunk_lens: Vec<usize> = partitioner
            .iter()
            .map(|p| offsets[partitioner.range(p).end] - offsets[partitioner.range(p).start])
            .collect();
        let run_index: Vec<u32> = partitioner
            .iter()
            .flat_map(|p| {
                let range = partitioner.range(p);
                let base = offsets[range.start];
                offsets[range.start..=range.end]
                    .iter()
                    .map(move |&o| (o - base) as u32)
            })
            .collect();
        let reference = (
            xstream_core::record::records_as_bytes(placed).to_vec(),
            chunk_lens,
            run_index,
        );
        for threads in [1usize, 2, 4] {
            let cfg = engine_cfg(threads, 16).with_cache_size(16 << 10);
            assert!(
                build_layout(&g, &TrackedBfs::new(), cfg) == reference,
                "two-level tracked, {threads} threads"
            );
        }
    }

    /// A frontier-tracked BFS (level == round gating), local to this
    /// crate because the algorithms crate depends on this one.
    struct TrackedBfs {
        round: std::sync::atomic::AtomicU32,
    }

    impl TrackedBfs {
        fn new() -> Self {
            Self {
                round: std::sync::atomic::AtomicU32::new(0),
            }
        }
    }

    impl EdgeProgram for TrackedBfs {
        type State = u32;
        type Update = u32;

        fn init(&self, _v: VertexId) -> u32 {
            u32::MAX
        }

        fn needs_scatter(&self, s: &u32) -> bool {
            *s == self.round.load(std::sync::atomic::Ordering::Relaxed)
        }

        fn scatter(&self, s: &u32, _e: &Edge) -> Option<u32> {
            Some(*s + 1)
        }

        fn gather(&self, d: &mut u32, u: &u32) -> bool {
            if *u < *d {
                *d = *u;
                true
            } else {
                false
            }
        }

        fn frontier_mode(&self) -> FrontierMode {
            FrontierMode::Tracked
        }
    }

    fn tracked_bfs(g: &EdgeList, cfg: EngineConfig) -> (Vec<u32>, Vec<IterationStats>) {
        let program = TrackedBfs::new();
        let mut e = InMemoryEngine::from_graph(g, &program, cfg);
        e.vertex_map(&mut |v, s| *s = if v == 0 { 0 } else { u32::MAX });
        let mut iters = Vec::new();
        loop {
            let it = e.scatter_gather(&program);
            let done = it.vertices_changed == 0;
            iters.push(it);
            program
                .round
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            if done {
                break;
            }
        }
        (e.states(), iters)
    }

    #[test]
    fn frontier_modes_agree_and_skip_dead_partitions() {
        // A path graph keeps the frontier at a single vertex: the
        // sharpest possible sparse/skip workload.
        let g = generators::path(256).to_undirected();
        let dense_cfg = engine_cfg(2, 16).with_frontier_skip(false);
        let (want, dense_iters) = tracked_bfs(&g, dense_cfg);
        for threshold in [0usize, 20, usize::MAX] {
            let cfg = engine_cfg(2, 16).with_frontier_threshold(threshold);
            let (got, iters) = tracked_bfs(&g, cfg);
            assert_eq!(got, want, "threshold={threshold}");
            let skipped: u64 = iters.iter().map(|i| i.partitions_skipped).sum();
            let sparse: u64 = iters.iter().map(|i| i.partitions_sparse).sum();
            let streamed: u64 = iters.iter().map(|i| i.edges_streamed).sum();
            let dense_streamed: u64 = dense_iters.iter().map(|i| i.edges_streamed).sum();
            // A 1-vertex frontier leaves 15 of 16 partitions dead every
            // superstep.
            assert!(skipped > 0, "threshold={threshold}: nothing skipped");
            assert!(
                streamed < dense_streamed / 10,
                "threshold={threshold}: {streamed} vs dense {dense_streamed}"
            );
            if threshold == usize::MAX {
                assert_eq!(sparse, 0, "usize::MAX must never go sparse");
            } else {
                assert!(sparse > 0, "threshold={threshold}: never went sparse");
            }
            // Density is a gauge in [0, 1] and genuinely sparse here.
            assert!(iters.iter().all(|i| i.frontier_density <= 1.0));
            assert!(iters[1].frontier_density < 0.05);
        }
        // Dense mode reports density 1.0 and no skipping.
        assert!(dense_iters.iter().all(|i| i.frontier_density == 1.0));
        assert_eq!(
            dense_iters
                .iter()
                .map(|i| i.partitions_skipped)
                .sum::<u64>(),
            0
        );
    }

    #[test]
    fn tracked_steady_state_is_allocation_free() {
        // The frontier machinery (bitmaps, rebuild scans, sparse run
        // iteration) must preserve the zero-allocation steady state.
        let g = generators::erdos_renyi(2000, 20_000, 13).to_undirected();
        let program = TrackedBfs::new();
        let mut e = InMemoryEngine::from_graph(&g, &program, engine_cfg(2, 64));
        e.vertex_map(&mut |v, s| *s = if v == 0 { 0 } else { u32::MAX });
        let first = e.scatter_gather(&program);
        assert!(
            first.alloc_count > 0,
            "the first tracked superstep sizes the frontier bitmaps"
        );
        let clean_window = xstream_core::alloc_stats::any_allocation_free_window(20, || {
            // Re-seed and re-run one superstep per probe: exercises the
            // vertex_map-invalidated rebuild path too.
            program.round.store(0, std::sync::atomic::Ordering::Relaxed);
            e.vertex_map(&mut |v, s| *s = if v == 0 { 0 } else { u32::MAX });
            e.scatter_gather(&program);
        });
        assert!(
            clean_window,
            "tracked steady state allocated in every window"
        );
    }

    #[test]
    fn a_forced_multi_stage_plan_runs_its_passes() {
        // Fanout 2: scatter routes on the top bit of the partition id
        // and the layout runs the other bits as radix passes into its
        // stage buffer. An engine that fell back to a single-stage
        // layout would give the same degrees, so check the layout.
        let g = generators::erdos_renyi(600, 5000, 17).to_undirected();
        let cfg = engine_cfg(2, 64).with_shuffle_fanout(2);
        let mut e = InMemoryEngine::from_graph(&g, &DegreeCount, cfg);
        let stages = e.plan().stages;
        assert!(stages >= 3);
        assert_eq!(e.updates.passes(), stages - 1);
        let it = e.scatter_gather(&DegreeCount);
        let m = g.num_edges() as u64;
        assert_eq!((it.shuffle_budget, it.shuffle_capacity), (m, 2 * m));
        assert_eq!(it.shuffle_high_water, m);
        let mut seen = 0;
        for p in e.partitioner().iter() {
            assert_eq!(
                e.updates.runs(p).count(),
                1,
                "partition {p}: not one staged chunk"
            );
            for u in e.updates.runs(p).flatten() {
                assert_eq!(e.partitioner().partition_of(u.target), p);
                seen += 1;
            }
        }
        assert_eq!(seen, m);
        assert_eq!(e.states(), g.in_degrees());
    }

    #[test]
    fn multi_stage_plan_pipeline_still_correct() {
        // Force a tiny fanout so the pooled pipeline exercises several
        // in-place stages after the fused one.
        let g = generators::erdos_renyi(600, 5000, 17).to_undirected();
        let cfg = engine_cfg(2, 64).with_shuffle_fanout(2);
        let mut e = InMemoryEngine::from_graph(&g, &MinLabel, cfg);
        assert!(e.plan().stages >= 3);
        e.run(&MinLabel, Termination::Converged);
        let mut reference = InMemoryEngine::from_graph(&g, &MinLabel, engine_cfg(1, 1));
        reference.run(&MinLabel, Termination::Converged);
        assert_eq!(e.states(), reference.states());
    }
}
