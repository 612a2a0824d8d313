//! Engine configuration.
//!
//! X-Stream picks the number of streaming partitions automatically from
//! the size of *fast storage* (CPU cache for the in-memory engine, main
//! memory for the out-of-core engine) and the per-vertex footprint
//! (paper §2.4, §3.4, §4). The defaults follow the paper.

/// Highest device id a [`DeviceMap`] accepts, matching the storage
/// layer's per-device accounting capacity (`iostats::MAX_DEVICES`
/// counters — the storage crate depends on this one, so the bound is
/// declared here and asserted equal over there by the device-striping
/// integration tests).
pub const MAX_MAPPED_DEVICES: u8 = 4;

/// Placement of the out-of-core stream families onto storage devices
/// (paper Fig. 15: separate edge and update devices). Device ids are
/// small integers (below [`MAX_MAPPED_DEVICES`]) interpreted by the
/// storage layer's accounting; the number of distinct ids determines
/// how many I/O threads the engine stripes reads and writes across.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeviceMap {
    /// Device holding the per-partition edge streams.
    pub edges: u8,
    /// Device holding the per-partition update streams.
    pub updates: u8,
    /// Device holding the per-partition vertex streams (when vertex
    /// state is on disk); defaults to the edge device.
    pub vertices: u8,
}

impl DeviceMap {
    /// Edges on `edges`, updates on `updates`, vertices alongside the
    /// edges.
    pub fn new(edges: u8, updates: u8) -> Self {
        Self {
            edges,
            updates,
            vertices: edges,
        }
    }

    /// Number of devices the map spans (`max id + 1`).
    pub fn num_devices(&self) -> usize {
        self.edges.max(self.updates).max(self.vertices) as usize + 1
    }

    /// Routes a stream name (`edges.3`, `updates.0`, `vertices.1`) to
    /// its device; unknown families land with the edges.
    pub fn device_of(&self, stream_name: &str) -> u8 {
        if stream_name.starts_with("updates") {
            self.updates
        } else if stream_name.starts_with("vertices") {
            self.vertices
        } else {
            self.edges
        }
    }
}

impl std::str::FromStr for DeviceMap {
    type Err = String;

    /// Parses the CLI form `edges=0,updates=1[,vertices=0]`. Rejects
    /// device ids at or above [`MAX_MAPPED_DEVICES`] — the storage
    /// layer tracks that many devices, and a larger id would silently
    /// alias onto device `id % MAX`, losing the separation the map
    /// asked for.
    fn from_str(s: &str) -> Result<Self, String> {
        let bad = || {
            format!(
                "expected edges=N,updates=M[,vertices=P] with ids below \
                 {MAX_MAPPED_DEVICES}, got `{s}`"
            )
        };
        let mut map = DeviceMap::new(0, 0);
        let mut saw_vertices = false;
        for part in s.split(',') {
            let (key, value) = part.split_once('=').ok_or_else(bad)?;
            let id: u8 = value.trim().parse().map_err(|_| bad())?;
            if id >= MAX_MAPPED_DEVICES {
                return Err(bad());
            }
            match key.trim() {
                "edges" => map.edges = id,
                "updates" => map.updates = id,
                "vertices" => {
                    map.vertices = id;
                    saw_vertices = true;
                }
                _ => return Err(bad()),
            }
        }
        if !saw_vertices {
            map.vertices = map.edges;
        }
        Ok(map)
    }
}

/// Retry budget for transient I/O faults in the out-of-core engine:
/// a failed superstep is rolled back (`recover()` + vertex-state
/// restore) and re-run up to `max_attempts` times total, sleeping
/// `backoff * 2^(attempt-1)` (capped at one second) between attempts.
/// Permanent faults (`ENOSPC`, permission errors, bad configuration)
/// are never retried.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total superstep attempts, including the first (1 = no retry).
    pub max_attempts: u32,
    /// Base backoff slept before the first retry; doubles per retry.
    pub backoff: std::time::Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 3,
            backoff: std::time::Duration::from_millis(10),
        }
    }
}

impl RetryPolicy {
    /// No retries: every fault, transient or not, fails the superstep.
    pub fn none() -> Self {
        Self {
            max_attempts: 1,
            ..Self::default()
        }
    }
}

/// Configuration shared by the in-memory and out-of-core engines.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Worker threads for parallel scatter/gather/shuffle.
    pub threads: usize,
    /// Placement of the out-of-core stream families onto storage
    /// devices (Fig. 15). `None` keeps every stream on device 0. Read
    /// where a stream store is opened (`engines::open_store` in the
    /// algorithms crate); the engine stripes one reader and one writer
    /// thread per device either way, following the store's mapping.
    pub device_map: Option<DeviceMap>,
    /// Fast-storage capacity per core for the in-memory engine: the CPU
    /// cache available to one worker (paper uses a 2 MB shared L2 per
    /// core pair on their Opteron testbed).
    pub cache_size: usize,
    /// Fast-storage capacity for the out-of-core engine: main memory
    /// available for vertex state and stream buffers.
    pub memory_budget: usize,
    /// Preferred I/O unit `S` in bytes; the paper measures 16 MB as the
    /// size at which its RAID-0 pairs saturate (§3.4, Fig. 9).
    pub io_unit: usize,
    /// Force an exact number of streaming partitions instead of the
    /// automatic choice (Fig. 24 sweeps this).
    pub num_partitions: Option<usize>,
    /// Force the multi-stage shuffler fanout (power of two). `None`
    /// derives it from `cache_size` over a 64-byte cache line (Fig. 25
    /// sweeps this).
    pub shuffle_fanout: Option<usize>,
    /// Enable work stealing of streaming partitions between threads
    /// (§4.1); disabling it is an ablation.
    pub work_stealing: bool,
    /// §3.2 optimization 1: keep the whole vertex array in memory when
    /// it fits, avoiding the per-partition vertex file write-back.
    pub keep_vertices_in_memory: bool,
    /// §3.2 optimization 2: when all updates of a scatter phase fit in
    /// one stream buffer, gather directly from memory instead of
    /// writing update files.
    pub in_memory_updates: bool,
    /// Transient-fault retry budget for out-of-core supersteps (see
    /// [`RetryPolicy`]).
    pub retry: RetryPolicy,
    /// Write a checksummed vertex-state checkpoint to the stream store
    /// every N completed supersteps (0 = never). Resuming from the
    /// latest valid checkpoint is the out-of-core engine's
    /// `resume_from_checkpoint`; the in-memory engine ignores this.
    pub checkpoint_every: usize,
    /// Frontier-aware scatter (Ligra hybrid): for programs that opt
    /// into [`crate::frontier::FrontierMode::Tracked`], skip streaming
    /// partitions with no active source vertices and consider the
    /// sparse index scatter below [`Self::frontier_threshold`].
    /// Disabling this (`--no-frontier-skip`) restores the paper's
    /// stream-everything behaviour for every program.
    pub frontier_skip: bool,
    /// Verify per-chunk CRC32 sidecars on every durable-stream read
    /// (out-of-core engine only). On by default; `--no-verify-reads`
    /// turns the store into trust mode for benchmarking the overhead.
    /// Write-side checksum tracking stays on either way so the store
    /// remains sealable and scrubbable.
    pub verify_reads: bool,
    /// Declared intent to resume from this store's checkpoints
    /// (`--resume`). The out-of-core engine then validates the
    /// layout-deciding flags against the store's previous manifest
    /// *before* rebuilding the store — a mismatch is rejected naming
    /// the offending flag while the original layout record is still
    /// intact, instead of after the rebuild has re-sealed the manifest
    /// under the rejected flags. The in-memory engine ignores this.
    pub resume: bool,
    /// Dense/sparse switch divisor `D` for the hybrid scatter: a
    /// partition is scattered through its vertex→edge-run index when
    /// `active_edges * D < |E_p|` (Ligra's rule with D = 20, i.e.
    /// sparse below |E_p|/20 active edges). `0` forces sparse for
    /// every non-empty indexed partition; `usize::MAX` never goes
    /// sparse (skipping of empty partitions still applies).
    pub frontier_threshold: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            device_map: None,
            cache_size: 2 << 20,
            memory_budget: 1 << 30,
            io_unit: 16 << 20,
            num_partitions: None,
            shuffle_fanout: None,
            work_stealing: true,
            keep_vertices_in_memory: true,
            in_memory_updates: true,
            retry: RetryPolicy::default(),
            checkpoint_every: 0,
            frontier_skip: true,
            verify_reads: true,
            resume: false,
            frontier_threshold: 20,
        }
    }
}

impl EngineConfig {
    /// A configuration with a single worker thread.
    pub fn single_threaded() -> Self {
        Self {
            threads: 1,
            ..Self::default()
        }
    }

    /// Sets the number of worker threads.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Sets the stream → device placement (see [`Self::device_map`]).
    pub fn with_device_map(mut self, map: DeviceMap) -> Self {
        self.device_map = Some(map);
        self
    }

    /// Forces the number of streaming partitions.
    pub fn with_partitions(mut self, k: usize) -> Self {
        self.num_partitions = Some(k.max(1));
        self
    }

    /// Sets the fast-storage (cache) size used for automatic partition
    /// sizing in the in-memory engine.
    pub fn with_cache_size(mut self, bytes: usize) -> Self {
        self.cache_size = bytes.max(1);
        self
    }

    /// Sets the main-memory budget used by the out-of-core engine.
    pub fn with_memory_budget(mut self, bytes: usize) -> Self {
        self.memory_budget = bytes.max(1);
        self
    }

    /// Sets the preferred I/O unit.
    pub fn with_io_unit(mut self, bytes: usize) -> Self {
        self.io_unit = bytes.max(4096);
        self
    }

    /// Forces the multi-stage shuffler fanout.
    pub fn with_shuffle_fanout(mut self, fanout: usize) -> Self {
        self.shuffle_fanout = Some(fanout.next_power_of_two().max(2));
        self
    }

    /// Enables or disables work stealing.
    pub fn with_work_stealing(mut self, enabled: bool) -> Self {
        self.work_stealing = enabled;
        self
    }

    /// Sets the transient-fault retry budget (see [`RetryPolicy`]).
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = RetryPolicy {
            max_attempts: retry.max_attempts.max(1),
            ..retry
        };
        self
    }

    /// Checkpoints vertex state every `n` completed supersteps (0 =
    /// never; see [`Self::checkpoint_every`]).
    pub fn with_checkpoint_every(mut self, n: usize) -> Self {
        self.checkpoint_every = n;
        self
    }

    /// Enables or disables frontier-aware partition skipping (see
    /// [`Self::frontier_skip`]).
    pub fn with_frontier_skip(mut self, enabled: bool) -> Self {
        self.frontier_skip = enabled;
        self
    }

    /// Enables or disables checksum verification of durable-stream
    /// reads (see [`Self::verify_reads`]).
    pub fn with_verify_reads(mut self, enabled: bool) -> Self {
        self.verify_reads = enabled;
        self
    }

    /// Declares the intent to resume from the store's checkpoints (see
    /// [`Self::resume`]).
    pub fn with_resume(mut self, resume: bool) -> Self {
        self.resume = resume;
        self
    }

    /// Sets the dense/sparse hybrid-switch divisor (see
    /// [`Self::frontier_threshold`]).
    pub fn with_frontier_threshold(mut self, divisor: usize) -> Self {
        self.frontier_threshold = divisor;
        self
    }

    /// Whether partition `p` should use the sparse index scatter given
    /// `active_edges` (sum of active sources' out-degrees) against its
    /// `total_edges`: the Ligra-style rule `active_edges * D <
    /// total_edges` with saturating multiplication, so `D = 0` is
    /// always-sparse and `D = usize::MAX` never-sparse.
    #[inline]
    pub fn wants_sparse_scatter(&self, active_edges: usize, total_edges: usize) -> bool {
        self.frontier_skip && active_edges.saturating_mul(self.frontier_threshold) < total_edges
    }

    /// The hybrid switch for one partition, shared by both engines:
    /// sums the out-degrees of `frontier`'s active vertices in `range`
    /// and applies [`Self::wants_sparse_scatter`] against the
    /// partition's total edges. `offsets` is the partition's run-offset
    /// index: `range.len() + 1` record offsets into its source-grouped
    /// edges, so local vertex `lv`'s edges are
    /// `offsets[lv]..offsets[lv + 1]` and the last entry is the total.
    /// Stops summing as soon as the partition is proven dense: the
    /// predicate is monotone in the active edge count.
    pub fn sparse_scatter_pays(
        &self,
        frontier: &crate::frontier::Frontier,
        range: core::ops::Range<usize>,
        offsets: &[u32],
    ) -> bool {
        let base = range.start;
        let total_edges = offsets[range.len()] as usize;
        let mut active_edges = 0usize;
        let mut sparse = self.wants_sparse_scatter(0, total_edges);
        frontier.for_each_active_in(range, |v| {
            let lv = v as usize - base;
            active_edges += (offsets[lv + 1] - offsets[lv]) as usize;
            sparse = self.wants_sparse_scatter(active_edges, total_edges);
            sparse
        });
        sparse
    }

    /// Computes the automatic in-memory partition count for a graph
    /// whose per-vertex streaming footprint is `vertex_footprint` bytes
    /// (paper §4: vertex data size + edge size + update size), rounded
    /// up to a power of two.
    pub fn in_memory_partitions(&self, num_vertices: usize, vertex_footprint: usize) -> usize {
        if let Some(k) = self.num_partitions {
            return k;
        }
        let total = num_vertices.saturating_mul(vertex_footprint).max(1);
        // One partition's footprint must fit the cache of the core
        // processing it.
        let k = total.div_ceil(self.cache_size);
        k.next_power_of_two().clamp(1, num_vertices.max(1))
    }

    /// Computes the automatic out-of-core partition count: the smallest
    /// `K` satisfying `N/K + 5*S*K <= M` (paper §3.4) where `N` is the
    /// total vertex-state size, `S` the I/O unit and `M` the memory
    /// budget.
    ///
    /// Returns `None` when no `K` satisfies the inequality (the memory
    /// budget is below the `2*sqrt(5*N*S)` minimum).
    pub fn out_of_core_partitions(&self, vertex_state_bytes: usize) -> Option<usize> {
        if let Some(k) = self.num_partitions {
            return Some(k);
        }
        let n = vertex_state_bytes as f64;
        let s = self.io_unit as f64;
        let m = self.memory_budget as f64;
        // Minimum of N/K + 5SK at K = sqrt(N / (5S)); feasible iff the
        // minimum value 2*sqrt(5NS) <= M.
        if 2.0 * (5.0 * n * s).sqrt() > m {
            return None;
        }
        let mut k = (n / (5.0 * s)).sqrt().ceil().max(1.0) as usize;
        // Round to the smallest feasible K >= 1 (prefer few partitions
        // to maximize sequential run length, §2.4).
        while k > 1 {
            let cand = k - 1;
            let need = n / cand as f64 + 5.0 * s * cand as f64;
            if need <= m {
                k = cand;
            } else {
                break;
            }
        }
        Some(k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_sizing_example() {
        // §3.4 (decimal units, as the paper): N = 1 TB of vertex data,
        // S = 16 MB => the minimum memory 2*sqrt(5NS) is ~17.9 GB and
        // under 120 streaming partitions suffice.
        let n: usize = 1_000_000_000_000;
        let s: usize = 16_000_000;
        let m: usize = 18_000_000_000;
        let cfg = EngineConfig::default()
            .with_memory_budget(m)
            .with_io_unit(s);
        let k = cfg.out_of_core_partitions(n).expect("feasible");
        assert!(k <= 120, "paper predicts under 120 partitions, got {k}");
        // The chosen K satisfies the inequality.
        let need = n as f64 / k as f64 + 5.0 * s as f64 * k as f64;
        assert!(need <= m as f64);
        // A 17 GB budget is just below the theoretical minimum.
        let tight = EngineConfig::default()
            .with_memory_budget(17_000_000_000)
            .with_io_unit(s);
        assert_eq!(tight.out_of_core_partitions(n), None);
    }

    #[test]
    fn infeasible_budget_detected() {
        let cfg = EngineConfig::default()
            .with_memory_budget(1 << 20)
            .with_io_unit(16 << 20);
        assert_eq!(cfg.out_of_core_partitions(1 << 40), None);
    }

    #[test]
    fn in_memory_partitions_grow_with_footprint() {
        let cfg = EngineConfig::default().with_cache_size(1 << 20);
        let small = cfg.in_memory_partitions(1 << 20, 8);
        let large = cfg.in_memory_partitions(1 << 20, 64);
        assert!(large >= small);
        assert!(small.is_power_of_two());
    }

    #[test]
    fn device_map_parses_and_routes() {
        let m = "edges=0,updates=1".parse::<DeviceMap>().unwrap();
        assert_eq!(m, DeviceMap::new(0, 1));
        assert_eq!(m.num_devices(), 2);
        assert_eq!(m.device_of("edges.3"), 0);
        assert_eq!(m.device_of("updates.0"), 1);
        assert_eq!(m.device_of("vertices.7"), 0);
        let m = "edges=1,updates=0,vertices=2".parse::<DeviceMap>().unwrap();
        assert_eq!(m.device_of("vertices.0"), 2);
        assert_eq!(m.num_devices(), 3);
        assert!("edges=x".parse::<DeviceMap>().is_err());
        assert!("disks=1".parse::<DeviceMap>().is_err());
        assert!("edges".parse::<DeviceMap>().is_err());
        // Ids past the storage accounting cap would silently alias.
        assert!("edges=0,updates=4".parse::<DeviceMap>().is_err());
    }

    #[test]
    fn hybrid_switch_rule() {
        let cfg = EngineConfig::default();
        assert!(cfg.frontier_skip);
        assert_eq!(cfg.frontier_threshold, 20);
        // Default D = 20: sparse below |E_p|/20 active edges.
        assert!(cfg.wants_sparse_scatter(4, 100));
        assert!(!cfg.wants_sparse_scatter(5, 100));
        // D = 0 is always sparse (any non-empty partition), even with
        // every edge active.
        let always = EngineConfig::default().with_frontier_threshold(0);
        assert!(always.wants_sparse_scatter(100, 100));
        assert!(!always.wants_sparse_scatter(0, 0));
        // D = usize::MAX never goes sparse (saturating multiply).
        let never = EngineConfig::default().with_frontier_threshold(usize::MAX);
        assert!(!never.wants_sparse_scatter(1, usize::MAX));
        // Skipping off disables the sparse path too.
        let off = EngineConfig::default().with_frontier_skip(false);
        assert!(!off.wants_sparse_scatter(0, 100));
    }

    #[test]
    fn forced_partitions_win() {
        let cfg = EngineConfig::default().with_partitions(37);
        assert_eq!(cfg.in_memory_partitions(1000, 8), 37);
        assert_eq!(cfg.out_of_core_partitions(1 << 30), Some(37));
    }
}
