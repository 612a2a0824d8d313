//! A GraphChi-like out-of-core engine using parallel sliding windows
//! (Kyrola & Blelloch, OSDI'12) — the paper's out-of-core comparison
//! system (Figs. 22/23).
//!
//! GraphChi is *vertex-centric*: data lives on edges, and an update
//! function sees all in- and out-edges of a vertex. To make that
//! possible out of core it pre-sorts the graph into *shards*: shard
//! `s` holds every edge whose destination falls in vertex interval
//! `s`, sorted by source. Processing interval `s` then needs
//!
//! 1. the whole *memory shard* `s` (the interval's in-edges), which is
//!    loaded and **re-sorted by destination** in memory — the paper's
//!    Fig. 22 "re-sort" column, and
//! 2. one *sliding window* per other shard: because every shard is
//!    sorted by source, the out-edges of interval `s` form a
//!    contiguous range inside each — `P-1` positioned reads (and
//!    writes, for mutated edge data) per interval, which is the
//!    fragmented I/O pattern Fig. 23 contrasts with X-Stream's long
//!    sequential bursts.
//!
//! The three costs the paper reports — pre-sort, runtime, re-sort —
//! are measured separately ([`GraphChiEngine::preprocessing`],
//! [`RunTimings`]).

use std::time::{Duration, Instant};

use xstream_core::record::{decode_records, records_as_bytes};
use xstream_core::{Edge, Partitioner, Record, Result, VertexId};
use xstream_storage::StreamStore;

/// A vertex-centric program over edge-attached data (GraphChi's model).
pub trait VertexProgram: Sync {
    /// Per-vertex data (kept in memory, as GraphChi does for small
    /// vertex values).
    type VertexData: Record;
    /// Per-edge data (lives in the shard files).
    type EdgeData: Record;

    /// Initial vertex value.
    fn init_vertex(&self, v: VertexId) -> Self::VertexData;

    /// Initial edge value.
    fn init_edge(&self, e: &Edge) -> Self::EdgeData;

    /// Vertex-centric update: reads the data on in-edges, recomputes
    /// the vertex value, writes the data on out-edges. Returns whether
    /// the vertex value changed (drives convergence).
    fn update(
        &self,
        v: VertexId,
        data: &mut Self::VertexData,
        in_edges: &[(VertexId, f32, Self::EdgeData)],
        out_edges: &mut [(VertexId, f32, Self::EdgeData)],
    ) -> bool;
}

/// One edge as stored inside a shard (kept `repr(C)`/pod so shards are
/// raw record streams like everything else on disk).
#[derive(Debug, Clone, Copy, PartialEq)]
#[repr(C)]
struct ShardEdge {
    src: VertexId,
    dst: VertexId,
    weight: f32,
}

// SAFETY: `repr(C)` (u32, u32, f32): no padding, no pointers, all bit
// patterns valid.
unsafe impl Record for ShardEdge {}

/// Timings of one `run` call, split the way the paper reports them.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunTimings {
    /// Total wall time of the iterations, *including* re-sort (the
    /// paper notes re-sorting is included in GraphChi's runtime).
    pub runtime: Duration,
    /// Time inside the in-memory re-sort by destination.
    pub resort: Duration,
}

/// The GraphChi-like engine over one program's shard files.
pub struct GraphChiEngine<P: VertexProgram> {
    store: StreamStore,
    partitioner: Partitioner,
    num_edges: usize,
    vertex_data: Vec<P::VertexData>,
    /// `window[t][s]` = byte range of shard `t` whose sources lie in
    /// interval `s` (edge records; the data file uses parallel
    /// indices).
    windows: Vec<Vec<(u64, u64)>>,
    /// Wall time of shard construction (the Fig. 22 "pre-sort"
    /// column).
    pub preprocessing: Duration,
}

fn shard_name(s: usize) -> String {
    format!("shard.{s}")
}

fn data_name(s: usize) -> String {
    format!("shard-data.{s}")
}

impl<P: VertexProgram> GraphChiEngine<P> {
    /// Builds shards for `graph` with `num_shards` intervals: the
    /// pre-sort the paper times. Each shard must fit in memory, as in
    /// GraphChi.
    pub fn build(
        store: StreamStore,
        graph: &xstream_graph::EdgeList,
        program: &P,
        num_shards: usize,
    ) -> Result<Self> {
        let t0 = Instant::now();
        let n = graph.num_vertices();
        let partitioner = Partitioner::new(n, num_shards.max(1));
        let kp = partitioner.num_partitions();

        // Partition edges by destination interval.
        let mut shards: Vec<Vec<ShardEdge>> = vec![Vec::new(); kp];
        for e in graph.edges() {
            shards[partitioner.partition_of(e.dst)].push(ShardEdge {
                src: e.src,
                dst: e.dst,
                weight: e.weight,
            });
        }
        // Sort each shard by source and write it plus its initial edge
        // data; record the per-interval window boundaries.
        let mut windows = vec![vec![(0u64, 0u64); kp]; kp];
        for (t, mut shard) in shards.into_iter().enumerate() {
            shard.sort_by_key(|e| (e.src, e.dst));
            let mut data: Vec<P::EdgeData> = Vec::with_capacity(shard.len());
            for e in &shard {
                data.push(program.init_edge(&Edge::weighted(e.src, e.dst, e.weight)));
            }
            // Window boundaries: contiguous source-interval ranges.
            let mut lo = 0usize;
            for (s, window) in windows[t].iter_mut().enumerate().take(kp) {
                let hi_vertex = partitioner.range(s).end;
                let mut hi = lo;
                while hi < shard.len() && (shard[hi].src as usize) < hi_vertex {
                    hi += 1;
                }
                *window = (lo as u64, hi as u64);
                lo = hi;
            }
            store.append(&shard_name(t), records_as_bytes(&shard))?;
            store.append(&data_name(t), records_as_bytes(&data))?;
        }
        let vertex_data = (0..n as VertexId).map(|v| program.init_vertex(v)).collect();
        Ok(Self {
            store,
            partitioner,
            num_edges: graph.num_edges(),
            vertex_data,
            windows,
            preprocessing: t0.elapsed(),
        })
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.partitioner.num_partitions()
    }

    /// Number of edges across shards.
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// The underlying store (I/O accounting access).
    pub fn store(&self) -> &StreamStore {
        &self.store
    }

    /// Current vertex values.
    pub fn vertex_data(&self) -> &[P::VertexData] {
        &self.vertex_data
    }

    /// Runs up to `max_iterations` full passes; stops early when an
    /// iteration changes no vertex. Returns the timing split and the
    /// iterations executed.
    pub fn run(&mut self, program: &P, max_iterations: usize) -> Result<(RunTimings, usize)> {
        let mut timings = RunTimings::default();
        let t_run = Instant::now();
        let mut iterations = 0usize;
        for _ in 0..max_iterations {
            iterations += 1;
            let changed = self.run_iteration(program, &mut timings)?;
            if changed == 0 {
                break;
            }
        }
        timings.runtime = t_run.elapsed();
        Ok((timings, iterations))
    }

    fn run_iteration(&mut self, program: &P, timings: &mut RunTimings) -> Result<u64> {
        let kp = self.partitioner.num_partitions();
        let esz = std::mem::size_of::<ShardEdge>();
        let dsz = std::mem::size_of::<P::EdgeData>();
        let mut changed = 0u64;
        // One byte buffer reused by every sliding-window load.
        let mut window_bytes = Vec::new();
        for s in 0..kp {
            // 1. Load the memory shard (in-edges of interval s).
            let shard_bytes = self.store.read_all(&shard_name(s))?;
            let shard: Vec<ShardEdge> = decode_records(&shard_bytes);
            let data_bytes = self.store.read_all(&data_name(s))?;
            let mut shard_data: Vec<P::EdgeData> = decode_records(&data_bytes);

            // 2. Re-sort by destination (timed separately; GraphChi
            // must do this because shards are sorted by source).
            let t_sort = Instant::now();
            let mut by_dst: Vec<u32> = (0..shard.len() as u32).collect();
            by_dst.sort_by_key(|&i| shard[i as usize].dst);
            timings.resort += t_sort.elapsed();

            // 3. Load the sliding windows (out-edges of interval s in
            // every shard): P positioned reads per interval.
            let mut window_edges: Vec<Vec<ShardEdge>> = Vec::with_capacity(kp);
            let mut window_data: Vec<Vec<P::EdgeData>> = Vec::with_capacity(kp);
            for t in 0..kp {
                let (lo, hi) = self.windows[t][s];
                let count = (hi - lo) as usize;
                if t == s {
                    // Reuse the memory shard.
                    window_edges.push(shard[lo as usize..hi as usize].to_vec());
                    window_data.push(shard_data[lo as usize..hi as usize].to_vec());
                } else if count == 0 {
                    window_edges.push(Vec::new());
                    window_data.push(Vec::new());
                } else {
                    window_bytes.clear();
                    self.store.read_range_into(
                        &shard_name(t),
                        lo * esz as u64,
                        count * esz,
                        &mut window_bytes,
                    )?;
                    window_edges.push(decode_records(&window_bytes));
                    window_bytes.clear();
                    self.store.read_range_into(
                        &data_name(t),
                        lo * dsz as u64,
                        count * dsz,
                        &mut window_bytes,
                    )?;
                    window_data.push(decode_records(&window_bytes));
                }
            }

            // Per-window cursors: window edges are sorted by src, so
            // each vertex's out-edges are contiguous.
            let mut cursors = vec![0usize; kp];
            // Memory-shard cursor over the dst-sorted order.
            let mut in_cursor = 0usize;

            // 4. Vertex-centric updates over the interval.
            for v in self.partitioner.range(s) {
                let v = v as VertexId;
                // Collect in-edges (from the re-sorted memory shard).
                let mut in_edges = Vec::new();
                while in_cursor < by_dst.len() && shard[by_dst[in_cursor] as usize].dst == v {
                    let i = by_dst[in_cursor] as usize;
                    in_edges.push((shard[i].src, shard[i].weight, shard_data[i]));
                    in_cursor += 1;
                }
                // Collect out-edges (from the windows).
                let mut out_edges = Vec::new();
                let mut origins = Vec::new();
                for t in 0..kp {
                    let edges = &window_edges[t];
                    while cursors[t] < edges.len() && edges[cursors[t]].src == v {
                        let i = cursors[t];
                        out_edges.push((edges[i].dst, edges[i].weight, window_data[t][i]));
                        origins.push((t, i));
                        cursors[t] += 1;
                    }
                }
                let mut vd = self.vertex_data[v as usize];
                if program.update(v, &mut vd, &in_edges, &mut out_edges) {
                    changed += 1;
                }
                self.vertex_data[v as usize] = vd;
                // Write mutated out-edge data back into the windows.
                for ((t, i), (_, _, d)) in origins.into_iter().zip(out_edges) {
                    window_data[t][i] = d;
                    if t == s {
                        let (lo, _) = self.windows[s][s];
                        shard_data[lo as usize + i] = d;
                    }
                }
            }

            // 5. Write the windows and the memory shard data back.
            for (t, window) in window_data.iter().enumerate().take(kp) {
                if t == s {
                    continue;
                }
                let (lo, hi) = self.windows[t][s];
                if hi > lo {
                    self.store.write_at(
                        &data_name(t),
                        lo * dsz as u64,
                        records_as_bytes(window),
                    )?;
                }
            }
            self.store
                .write_at(&data_name(s), 0, records_as_bytes(&shard_data))?;
        }
        Ok(changed)
    }
}

/// Vertex-centric applications for the Fig. 22 comparison.
pub mod apps {
    use super::*;

    /// PageRank: edges carry the source's latest contribution.
    pub struct PagerankVc {
        /// Damping factor.
        pub damping: f32,
        /// Vertex count (for the base rank term).
        pub n: f32,
    }

    impl VertexProgram for PagerankVc {
        type VertexData = f32;
        type EdgeData = f32;

        fn init_vertex(&self, _v: VertexId) -> f32 {
            1.0 / self.n
        }

        fn init_edge(&self, _e: &Edge) -> f32 {
            0.0
        }

        fn update(
            &self,
            _v: VertexId,
            data: &mut f32,
            in_edges: &[(VertexId, f32, f32)],
            out_edges: &mut [(VertexId, f32, f32)],
        ) -> bool {
            let sum: f32 = in_edges.iter().map(|&(_, _, c)| c).sum();
            let new_rank = (1.0 - self.damping) / self.n + self.damping * sum;
            let changed = (new_rank - *data).abs() > f32::EPSILON;
            *data = new_rank;
            let contrib = if out_edges.is_empty() {
                0.0
            } else {
                new_rank / out_edges.len() as f32
            };
            for oe in out_edges.iter_mut() {
                oe.2 = contrib;
            }
            changed
        }
    }

    /// WCC: edges carry the source's current component label.
    pub struct WccVc;

    impl VertexProgram for WccVc {
        type VertexData = u32;
        type EdgeData = u32;

        fn init_vertex(&self, v: VertexId) -> u32 {
            v
        }

        fn init_edge(&self, e: &Edge) -> u32 {
            e.src
        }

        fn update(
            &self,
            _v: VertexId,
            data: &mut u32,
            in_edges: &[(VertexId, f32, u32)],
            out_edges: &mut [(VertexId, f32, u32)],
        ) -> bool {
            let mut label = *data;
            for &(_, _, l) in in_edges {
                label = label.min(l);
            }
            let changed = label < *data;
            *data = label;
            for oe in out_edges.iter_mut() {
                oe.2 = label;
            }
            changed
        }
    }

    /// Belief propagation with binary states (see
    /// `xstream_algorithms::bp` for the model); edges carry messages.
    pub struct BpVc {
        /// Homophily potential.
        pub psi_agree: f32,
    }

    impl VertexProgram for BpVc {
        type VertexData = [f32; 2];
        type EdgeData = [f32; 2];

        fn init_vertex(&self, v: VertexId) -> [f32; 2] {
            // Deterministic mild priors so the computation is nontrivial.
            if v.is_multiple_of(17) {
                [0.9, 0.1]
            } else {
                [0.5, 0.5]
            }
        }

        fn init_edge(&self, _e: &Edge) -> [f32; 2] {
            [0.5, 0.5]
        }

        fn update(
            &self,
            v: VertexId,
            data: &mut [f32; 2],
            in_edges: &[(VertexId, f32, [f32; 2])],
            out_edges: &mut [(VertexId, f32, [f32; 2])],
        ) -> bool {
            let prior = if v.is_multiple_of(17) {
                [0.9f32, 0.1]
            } else {
                [0.5, 0.5]
            };
            let mut l0 = prior[0].max(1e-20).ln();
            let mut l1 = prior[1].max(1e-20).ln();
            for &(_, _, m) in in_edges {
                l0 += m[0].max(1e-20).ln();
                l1 += m[1].max(1e-20).ln();
            }
            let mx = l0.max(l1);
            let (e0, e1) = ((l0 - mx).exp(), (l1 - mx).exp());
            let belief = [e0 / (e0 + e1), e1 / (e0 + e1)];
            let changed = (belief[0] - data[0]).abs() > 1e-6;
            *data = belief;
            let m0 = self.psi_agree * belief[0] + (1.0 - self.psi_agree) * belief[1];
            let m1 = (1.0 - self.psi_agree) * belief[0] + self.psi_agree * belief[1];
            let z = m0 + m1;
            for oe in out_edges.iter_mut() {
                oe.2 = [m0 / z, m1 / z];
            }
            changed
        }
    }

    /// Latent-factor dimensionality of [`AlsVc`] (matches the
    /// edge-centric ALS in `xstream_algorithms::als`).
    pub const ALS_K: usize = 8;

    /// Alternating least squares on a bidirected rating graph: each
    /// edge carries the *source's* latent factor vector, so a vertex
    /// update can solve its regularized normal equations from in-edges
    /// alone (GraphChi's published ALS formulation stores neighbour
    /// factors on edges the same way).
    pub struct AlsVc {
        /// Vertices `0..num_users` are users; the rest are items.
        pub num_users: usize,
        /// Ridge regularization weight.
        pub lambda: f32,
    }

    impl AlsVc {
        /// Creates the program with the default regularization.
        pub fn new(num_users: usize) -> Self {
            Self {
                num_users,
                lambda: 0.05,
            }
        }

        /// Deterministic initial factor, matching the edge-centric ALS
        /// seeding so the two systems solve the same problem.
        fn seed_factor(v: VertexId) -> [f32; ALS_K] {
            let mut f = [0f32; ALS_K];
            for (i, slot) in f.iter_mut().enumerate() {
                let h = xstream_algorithms::util::splitmix64((v as u64) << 8 | i as u64);
                *slot = 0.1 + (h % 1000) as f32 / 2500.0;
            }
            f
        }
    }

    impl VertexProgram for AlsVc {
        type VertexData = [f32; ALS_K];
        type EdgeData = [f32; ALS_K];

        fn init_vertex(&self, v: VertexId) -> [f32; ALS_K] {
            Self::seed_factor(v)
        }

        fn init_edge(&self, e: &Edge) -> [f32; ALS_K] {
            Self::seed_factor(e.src)
        }

        fn update(
            &self,
            _v: VertexId,
            data: &mut [f32; ALS_K],
            in_edges: &[(VertexId, f32, [f32; ALS_K])],
            out_edges: &mut [(VertexId, f32, [f32; ALS_K])],
        ) -> bool {
            const K: usize = ALS_K;
            if !in_edges.is_empty() {
                // Solve (X^T X + lambda*n*I) f = X^T y where X stacks
                // the neighbour factors and y the observed ratings.
                let mut xtx = [0f32; K * K];
                let mut xty = [0f32; K];
                for (_, rating, nf) in in_edges {
                    for i in 0..K {
                        for j in 0..K {
                            xtx[i * K + j] += nf[i] * nf[j];
                        }
                        xty[i] += nf[i] * rating;
                    }
                }
                let reg = self.lambda * in_edges.len() as f32;
                for i in 0..K {
                    xtx[i * K + i] += reg;
                }
                if xstream_algorithms::util::cholesky_solve(&mut xtx, &mut xty, K).is_some() {
                    *data = xty;
                }
            }
            for oe in out_edges.iter_mut() {
                oe.2 = *data;
            }
            true
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apps::*;
    use xstream_graph::generators;

    fn temp_store(tag: &str) -> StreamStore {
        let root = std::env::temp_dir().join(format!("xstream_graphchi_{tag}"));
        let _ = std::fs::remove_dir_all(&root);
        StreamStore::new(&root, 4096).unwrap()
    }

    #[test]
    fn wcc_matches_xstream() {
        let g = generators::erdos_renyi(200, 1200, 33).to_undirected();
        let program = WccVc;
        let mut engine = GraphChiEngine::build(temp_store("wcc"), &g, &program, 4).unwrap();
        let (_t, iters) = engine.run(&program, 100).unwrap();
        assert!(iters > 1);
        let (xs_labels, _) = xstream_algorithms::wcc::wcc_in_memory(
            &g,
            xstream_core::EngineConfig::default().with_partitions(4),
        );
        assert_eq!(engine.vertex_data(), &xs_labels[..]);
    }

    #[test]
    fn pagerank_close_to_xstream() {
        let g = generators::erdos_renyi(100, 800, 44);
        let program = PagerankVc {
            damping: 0.85,
            n: 100.0,
        };
        let mut engine = GraphChiEngine::build(temp_store("pr"), &g, &program, 3).unwrap();
        // GraphChi's asynchronous-style schedule differs from the
        // synchronous engine, so compare after enough iterations for
        // both to be near the fixpoint.
        let (_t, _) = engine.run(&program, 30).unwrap();
        let (xs, _) = xstream_algorithms::pagerank::pagerank_in_memory(
            &g,
            30,
            xstream_core::EngineConfig::default().with_partitions(4),
        );
        for (v, &rank) in xs.iter().enumerate().take(100) {
            assert!(
                (engine.vertex_data()[v] - rank).abs() < 2e-3,
                "vertex {v}: {} vs {}",
                engine.vertex_data()[v],
                rank
            );
        }
    }

    #[test]
    fn bp_beliefs_normalized() {
        let g = generators::erdos_renyi(80, 500, 5).to_undirected();
        let program = BpVc { psi_agree: 0.9 };
        let mut engine = GraphChiEngine::build(temp_store("bp"), &g, &program, 3).unwrap();
        engine.run(&program, 5).unwrap();
        for b in engine.vertex_data() {
            assert!((b[0] + b[1] - 1.0).abs() < 1e-4);
        }
    }

    #[test]
    fn timings_are_populated() {
        let g = generators::erdos_renyi(100, 600, 6).to_undirected();
        let program = WccVc;
        let mut engine = GraphChiEngine::build(temp_store("timing"), &g, &program, 4).unwrap();
        assert!(engine.preprocessing.as_nanos() > 0);
        let (t, _) = engine.run(&program, 50).unwrap();
        assert!(t.runtime >= t.resort);
    }

    #[test]
    fn io_pattern_is_more_fragmented_than_xstream() {
        // GraphChi's windows imply positioned reads; count ops per byte.
        let g = generators::erdos_renyi(400, 6000, 7).to_undirected();
        let program = WccVc;
        let mut engine = GraphChiEngine::build(temp_store("frag"), &g, &program, 8).unwrap();
        engine.store().accounting().reset();
        engine.run(&program, 3).unwrap();
        let snap = engine.store().accounting().snapshot();
        assert!(snap.total_ops() > 8 * 3, "windows imply many ops");
    }
}
