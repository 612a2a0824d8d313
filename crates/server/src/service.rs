//! Engine-facing query execution: one [`GraphService`] owns the
//! graph, builds per-query-family engines lazily, and runs batched
//! multi-source traversals on behalf of the server's executor.
//!
//! Engines persist across queries — the graph is ingested once when a
//! family's first query arrives, and every later query of that family
//! re-initializes vertex state via `vertex_map` (O(V)) instead of
//! re-streaming the edge file. The disk backend namespaces each family
//! into its own sub-store under the serve store root (`bfs/`, `sssp/`,
//! `pagerank/`, `wcc/`) so their stream names never collide; each
//! sub-store carries its own PR 8 manifest, and
//! [`GraphService::generation_of`] re-reads a family's manifest from
//! disk on every call so an out-of-band re-ingest or `scrub --repair`
//! invalidates that family's cached answers immediately — without
//! touching the other families' cache entries.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use xstream_algorithms::engines::{self, AnyEngine, Orientation, Source};
use xstream_algorithms::multi::{run_multi_bfs, run_multi_sssp, MultiBfs, MultiSssp, UNREACHED};
use xstream_algorithms::{pagerank, wcc};
use xstream_core::{EdgeProgram, EngineConfig, RunStats};
use xstream_graph::fileio::EdgeFileReader;
use xstream_graph::EdgeList;
use xstream_storage::manifest::{Manifest, MANIFEST_NAME};

/// Traversal lanes per batched pass: up to this many distinct roots
/// share one multi-source frontier run.
pub const LANES: usize = 4;

/// Per-family sub-store directory names under the serve store root.
pub const FAMILY_DIRS: [&str; 4] = ["bfs", "sssp", "pagerank", "wcc"];

/// Where the family engines get their edges.
enum Graph {
    /// A loaded graph served by in-memory engines.
    Loaded(EdgeList),
    /// An edge file ingested by out-of-core engines into per-family
    /// sub-stores under `root`.
    File { input: PathBuf, root: PathBuf },
}

/// The query-execution half of `xstream serve`.
pub struct GraphService {
    graph: Graph,
    cfg: EngineConfig,
    num_vertices: usize,
    num_edges: usize,
    /// Default PageRank iteration count (`--iterations`).
    pub iterations: usize,
    bfs: Option<AnyEngine<MultiBfs<LANES>>>,
    sssp: Option<AnyEngine<MultiSssp<LANES>>>,
    pagerank: Option<(AnyEngine<pagerank::Pagerank>, Vec<u32>)>,
    /// WCC labels, computed once per generation and shared.
    wcc: Option<(u64, Arc<Vec<u32>>)>,
}

impl GraphService {
    fn new(
        graph: Graph,
        num_vertices: usize,
        num_edges: usize,
        cfg: EngineConfig,
        iterations: usize,
    ) -> Self {
        Self {
            graph,
            cfg,
            num_vertices,
            num_edges,
            iterations,
            bfs: None,
            sssp: None,
            pagerank: None,
            wcc: None,
        }
    }

    /// Serves an already-loaded in-memory graph. Its generation is
    /// fixed at 0 (no manifest exists to bump).
    pub fn open_memory(graph: EdgeList, cfg: EngineConfig, iterations: usize) -> Self {
        let (n, m) = (graph.num_vertices(), graph.num_edges());
        Self::new(Graph::Loaded(graph), n, m, cfg, iterations)
    }

    /// Serves an edge file out-of-core: family engines ingest into
    /// sub-stores under `store_root` on first use.
    pub fn open_disk(
        input: &Path,
        store_root: &Path,
        cfg: EngineConfig,
        iterations: usize,
    ) -> Result<Self, String> {
        let reader =
            EdgeFileReader::open(input).map_err(|e| format!("{}: {e}", input.display()))?;
        let graph = Graph::File {
            input: input.to_path_buf(),
            root: store_root.to_path_buf(),
        };
        let (n, m) = (reader.num_vertices(), reader.num_edges());
        Ok(Self::new(graph, n, m, cfg, iterations))
    }

    /// Vertex count of the served graph.
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Edge count of the served graph (as ingested; undirected
    /// families stream the doubled expansion).
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Current generation of one family's sub-store (a [`FAMILY_DIRS`]
    /// name), re-read from its manifest on every call so external
    /// repairs are seen immediately. Generations are per family — a
    /// family's first-query ingest seals only its own sub-store, which
    /// must not invalidate every other family's cached answers. A
    /// loaded graph has no manifests and stays at generation 0.
    pub fn generation_of(&self, family: &str) -> u64 {
        match &self.graph {
            Graph::Loaded(_) => 0,
            Graph::File { root, .. } => read_generation(&root.join(family)),
        }
    }

    /// Rejects out-of-range roots before they reach a batch (the
    /// multi-source drivers assert on them).
    pub fn validate_vertex(&self, v: u32) -> Result<(), String> {
        if (v as usize) < self.num_vertices {
            Ok(())
        } else {
            Err(format!(
                "vertex {v} out of range (graph has {} vertices)",
                self.num_vertices
            ))
        }
    }

    /// Builds `family`'s engine: in memory over a loaded graph, or by
    /// ingesting the file into the family's own sub-store.
    fn build<P: EdgeProgram>(
        &self,
        family: &str,
        orientation: Orientation,
        program: &P,
        out_degrees: bool,
    ) -> Result<(AnyEngine<P>, Vec<u32>), String> {
        let (source, store) = match &self.graph {
            Graph::Loaded(graph) => (Source::Graph(graph), None),
            Graph::File { input, root } => {
                let store = engines::open_store(&root.join(family), &self.cfg)
                    .map_err(|e| format!("opening {family} store: {e}"))?;
                (Source::File(input), Some(store))
            }
        };
        engines::build(
            source,
            orientation,
            store,
            program,
            self.cfg.clone(),
            out_degrees,
        )
        .map_err(|e| format!("{family} ingest: {e}"))
    }

    /// Runs one batched BFS pass over up to [`LANES`] distinct roots;
    /// returns lane-major level vectors (one per root, in order) and
    /// the pass statistics.
    pub fn run_bfs_batch(&mut self, roots: &[u32]) -> Result<(Vec<Vec<u32>>, RunStats), String> {
        let lanes = self.lanes(roots)?;
        let program = MultiBfs::<LANES>::new();
        if self.bfs.is_none() {
            self.bfs = Some(self.build("bfs", Orientation::Directed, &program, false)?.0);
        }
        let engine = self.bfs.as_mut().expect("just built");
        let (states, stats) = run_multi_bfs(engine, &program, &lanes);
        let levels = (0..roots.len())
            .map(|lane| states.iter().map(|s| s[lane]).collect())
            .collect();
        Ok((levels, stats))
    }

    /// Runs one batched SSSP pass over up to [`LANES`] distinct roots;
    /// returns lane-major distance vectors and the pass statistics.
    pub fn run_sssp_batch(&mut self, roots: &[u32]) -> Result<(Vec<Vec<f32>>, RunStats), String> {
        let lanes = self.lanes(roots)?;
        let program = MultiSssp::<LANES>::new();
        if self.sssp.is_none() {
            self.sssp = Some(
                self.build("sssp", Orientation::Directed, &program, false)?
                    .0,
            );
        }
        let engine = self.sssp.as_mut().expect("just built");
        let (dists, stats) = run_multi_sssp(engine, &program, &lanes);
        let out = (0..roots.len())
            .map(|lane| dists.iter().map(|s| s[lane]).collect())
            .collect();
        Ok((out, stats))
    }

    /// Validates up to [`LANES`] roots and pads the unused lanes with
    /// the first root: they recompute lane 0 for free (no extra active
    /// partitions) and are discarded.
    fn lanes(&self, roots: &[u32]) -> Result<[u32; LANES], String> {
        assert!(!roots.is_empty() && roots.len() <= LANES);
        for &r in roots {
            self.validate_vertex(r)?;
        }
        let mut lanes = [roots[0]; LANES];
        lanes[..roots.len()].copy_from_slice(roots);
        Ok(lanes)
    }

    /// Runs PageRank for `iterations` supersteps (0 = server default);
    /// returns per-vertex ranks and run statistics.
    pub fn run_pagerank(&mut self, iterations: usize) -> Result<(Vec<f32>, RunStats), String> {
        let iterations = if iterations == 0 {
            self.iterations
        } else {
            iterations
        };
        let program = pagerank::Pagerank;
        if self.pagerank.is_none() {
            self.pagerank = Some(self.build("pagerank", Orientation::Directed, &program, true)?);
        }
        let (engine, degrees) = self.pagerank.as_mut().expect("just built");
        Ok(pagerank::run(engine, &program, degrees, iterations))
    }

    /// Weakly-connected-component labels, computed once per graph
    /// generation (over the undirected expansion) and shared. Returns
    /// the labels and the run statistics when this call computed them.
    pub fn wcc_labels(&mut self) -> Result<(Arc<Vec<u32>>, Option<RunStats>), String> {
        let generation = self.generation_of("wcc");
        if let Some((cached_gen, labels)) = &self.wcc {
            if *cached_gen == generation {
                return Ok((Arc::clone(labels), None));
            }
        }
        // Transient engine: labels are immutable per generation, so the
        // doubled edge copy (or the wcc sub-store's engine) is dropped
        // right after the run.
        let program = wcc::Wcc::new();
        let (mut engine, _) = self.build("wcc", Orientation::Undirected, &program, false)?;
        let (labels, stats) = wcc::run(&mut engine, &program);
        let labels = Arc::new(labels);
        // Stamp the cached labels with the generation observed *after*
        // the run: on the disk backend every WCC run ingests the wcc
        // sub-store afresh and seals its manifest at a higher
        // generation, so the pre-run value would mark these labels
        // stale forever.
        self.wcc = Some((self.generation_of("wcc"), Arc::clone(&labels)));
        Ok((labels, Some(stats)))
    }
}

fn read_generation(dir: &Path) -> u64 {
    let Ok(bytes) = std::fs::read(dir.join(MANIFEST_NAME)) else {
        return 0;
    };
    Manifest::decode(&bytes).map(|m| m.generation).unwrap_or(0)
}

/// Level sentinel re-exported for response building.
pub const BFS_UNREACHED: u32 = UNREACHED;

#[cfg(test)]
mod tests {
    use super::*;
    use xstream_algorithms::bfs;
    use xstream_core::DeviceMap;
    use xstream_graph::generators;

    fn cfg() -> EngineConfig {
        EngineConfig::default().with_threads(2).with_partitions(4)
    }

    #[test]
    fn memory_service_matches_single_runs_and_reuses_engines() {
        let g = generators::erdos_renyi(200, 1200, 3);
        let mut svc = GraphService::open_memory(g.clone(), cfg(), 5);
        let (levels, _) = svc.run_bfs_batch(&[0, 5, 9]).unwrap();
        assert_eq!(levels.len(), 3);
        for (i, &root) in [0u32, 5, 9].iter().enumerate() {
            let (single, _) = bfs::bfs_in_memory(&g, root, cfg());
            assert_eq!(levels[i], single, "root {root}");
        }
        // Second batch reuses the engine (no rebuild): still correct.
        let (levels2, _) = svc.run_bfs_batch(&[7]).unwrap();
        let (single7, _) = bfs::bfs_in_memory(&g, 7, cfg());
        assert_eq!(levels2[0], single7);
    }

    #[test]
    fn wcc_labels_cached_per_generation() {
        let g = generators::erdos_renyi(100, 300, 11);
        let mut svc = GraphService::open_memory(g, cfg(), 5);
        let (l1, stats1) = svc.wcc_labels().unwrap();
        assert!(stats1.is_some(), "first call computes");
        let (l2, stats2) = svc.wcc_labels().unwrap();
        assert!(stats2.is_none(), "second call is served from cache");
        assert!(Arc::ptr_eq(&l1, &l2));
    }

    #[test]
    fn memory_and_disk_services_agree_in_every_family() {
        let base = generators::erdos_renyi(300, 1800, 23);
        let edges = (base.edges().iter().enumerate())
            .map(|(i, e)| xstream_core::Edge::weighted(e.src, e.dst, 0.25 + (i % 7) as f32 * 0.5))
            .collect();
        let g = EdgeList::from_parts_unchecked(base.num_vertices(), edges);
        let dir =
            std::env::temp_dir().join(format!("xstream_service_agree_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let input = dir.join("graph.xse");
        xstream_graph::fileio::write_edge_file(&input, &g).unwrap();
        let disk_cfg = cfg().with_io_unit(1 << 13).with_memory_budget(1 << 20);
        let mut mem = GraphService::open_memory(g, cfg(), 5);
        let mut disk = GraphService::open_disk(&input, &dir.join("store"), disk_cfg, 5).unwrap();

        let roots = [0, 17, 150, 299];
        assert_eq!(
            mem.run_bfs_batch(&roots).unwrap().0,
            disk.run_bfs_batch(&roots).unwrap().0
        );
        let bits = |lanes: Vec<Vec<f32>>| -> Vec<Vec<u32>> {
            lanes
                .iter()
                .map(|l| l.iter().map(|d| d.to_bits()).collect())
                .collect()
        };
        assert_eq!(
            bits(mem.run_sssp_batch(&roots).unwrap().0),
            bits(disk.run_sssp_batch(&roots).unwrap().0)
        );
        assert_eq!(mem.wcc_labels().unwrap().0, disk.wcc_labels().unwrap().0);
        // The disk ranks read degrees counted during ingest, the memory
        // ranks degrees counted over the loaded list.
        let (mem_ranks, _) = mem.run_pagerank(0).unwrap();
        let (disk_ranks, _) = disk.run_pagerank(0).unwrap();
        assert_eq!(mem_ranks.len(), disk_ranks.len());
        for (v, (a, b)) in mem_ranks.iter().zip(&disk_ranks).enumerate() {
            assert!((a - b).abs() <= 1e-6, "vertex {v}: {a} vs {b}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_family_stores_honour_the_device_map() {
        let g = generators::erdos_renyi(400, 3000, 29);
        let dir =
            std::env::temp_dir().join(format!("xstream_service_devmap_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let input = dir.join("graph.xse");
        xstream_graph::fileio::write_edge_file(&input, &g).unwrap();
        // Forced spill: every update stream goes through the device the
        // map names for it.
        let spill_cfg = EngineConfig {
            in_memory_updates: false,
            ..cfg()
                .with_io_unit(1 << 13)
                .with_memory_budget(1 << 20)
                .with_device_map(DeviceMap::new(0, 1))
        };
        let mut svc = GraphService::open_disk(&input, &dir.join("store"), spill_cfg, 5).unwrap();
        let (levels, _) = svc.run_bfs_batch(&[0, 3]).unwrap();
        assert_eq!(levels[0], bfs::bfs_in_memory(&g, 0, cfg()).0);
        let Some(AnyEngine::Disk(engine)) = &svc.bfs else {
            panic!("a disk service builds disk engines");
        };
        assert_eq!(engine.store().num_devices(), 2);
        let io = engine.store().accounting().snapshot();
        assert!(io.per_device[1].bytes_written > 0, "{io:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn out_of_range_roots_are_rejected_not_panicked() {
        let g = generators::path(10);
        let mut svc = GraphService::open_memory(g, cfg(), 5);
        assert!(svc.run_bfs_batch(&[10]).is_err());
        assert!(svc.run_sssp_batch(&[99]).is_err());
    }
}
