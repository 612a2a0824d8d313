//! Execution statistics.
//!
//! The paper reports, besides runtimes, the number of scatter-gather
//! iterations, the ratio of total execution time to streaming time, and
//! the percentage of *wasted* edges — edges streamed without producing
//! an update (Fig. 12b) — as well as byte-level I/O (Fig. 23) and memory
//! reference counts (Fig. 21). Engines fill one [`IterationStats`] per
//! scatter-gather superstep and aggregate them into a [`RunStats`].

use std::time::Duration;

/// Counters for one scatter-gather iteration.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct IterationStats {
    /// Edges streamed through scatter.
    pub edges_streamed: u64,
    /// Updates appended by scatter.
    pub updates_generated: u64,
    /// Updates applied by gather.
    pub updates_applied: u64,
    /// Gather calls that reported a state change.
    pub vertices_changed: u64,
    /// Wall time of the scatter phase in nanoseconds.
    pub scatter_ns: u64,
    /// Wall time of the shuffle phase in nanoseconds.
    pub shuffle_ns: u64,
    /// Wall time of the gather phase in nanoseconds.
    pub gather_ns: u64,
    /// Time attributable to sequential stream traffic, a subset of the
    /// phase times above (Fig. 12b's denominator).
    ///
    /// Engines with dedicated I/O threads (the out-of-core engine)
    /// count only the time the superstep thread was *blocked* on a
    /// stream — waiting for a prefetched chunk, for writer
    /// backpressure, or for the pre-gather drain barrier — so a value
    /// near zero means compute fully overlapped the I/O (§3.3). The
    /// in-memory engine, whose streams are memory-bandwidth bound and
    /// synchronous, counts its scatter + shuffle phases (the fused
    /// stage moved edge streaming into scatter).
    pub streaming_ns: u64,
    /// Bytes read from slow storage.
    pub bytes_read: u64,
    /// Bytes written to slow storage.
    pub bytes_written: u64,
    /// Memory references into vertex/edge/update arrays (Fig. 21 proxy).
    pub mem_refs: u64,
    /// Heap allocations (including reallocations) performed during the
    /// iteration, from [`crate::alloc_stats`]. The in-memory engine
    /// keeps it at zero from the first iteration on, the out-of-core
    /// engine once its pooled buffers are warm.
    pub alloc_count: u64,
    /// Bytes requested by those allocations.
    pub alloc_bytes: u64,
    /// Shuffle budget (records): out of core, the spill threshold, the
    /// updates buffered before a spill; in memory, the static update
    /// layout's region slots. Fixed at build. A *gauge*, not a
    /// counter: [`merge`](Self::merge) takes the max.
    pub shuffle_budget: u64,
    /// Total shuffle buffer capacity (records), sized at build:
    /// the records of the out-of-core engine's two output buffers, or
    /// the slots of the in-memory engine's update layout (regions plus
    /// any stage buffer). Gauge (merged by max).
    pub shuffle_capacity: u64,
    /// Peak records resident in the shuffle buffers during the
    /// iteration: out of core, the most one output buffer held at a
    /// spill or at the resident tail; in memory, the updates buffered.
    /// Gauge (merged by max).
    pub shuffle_high_water: u64,
    /// Superstep re-runs forced by transient I/O faults (attempts
    /// beyond the first that were needed to complete the iteration;
    /// see `RetryPolicy`). Zero on a healthy run.
    pub io_retries: u64,
    /// Checkpoints written during the iteration (0 or 1 per superstep,
    /// driven by `EngineConfig::checkpoint_every`).
    pub checkpoints: u64,
    /// Checksum chunks verified on durable-stream reads during the
    /// iteration (0 when reads run in `--no-verify-reads` trust mode).
    pub chunks_verified: u64,
    /// Checksum mismatches detected on durable-stream reads during the
    /// iteration. Nonzero only when a detected corruption was survived
    /// via a documented degradation (e.g. an index dropped to dense
    /// scatter); unsurvivable corruption aborts the run instead.
    pub corruptions_detected: u64,
    /// Streaming partitions whose edge stream was skipped entirely
    /// because their frontier was empty (Ligra-hybrid scatter, only
    /// nonzero for frontier-tracked programs with skipping enabled).
    pub partitions_skipped: u64,
    /// Streaming partitions scattered through the sparse index path
    /// (pooled ranged reads of active vertices' edge runs) instead of
    /// a full sequential stream.
    pub partitions_sparse: u64,
    /// Fraction of the vertex set active at the start of the scatter
    /// phase, in `[0, 1]`; `1.0` for dense-mode programs. Gauge
    /// (merged by max).
    pub frontier_density: f64,
}

impl IterationStats {
    /// Edges streamed without producing an update.
    #[inline]
    pub fn wasted_edges(&self) -> u64 {
        self.edges_streamed.saturating_sub(self.updates_generated)
    }

    /// Percentage of streamed edges that produced no update.
    #[inline]
    pub fn wasted_pct(&self) -> f64 {
        if self.edges_streamed == 0 {
            0.0
        } else {
            100.0 * self.wasted_edges() as f64 / self.edges_streamed as f64
        }
    }

    /// The Fig. 21 memory-reference proxy both engines report in
    /// [`Self::mem_refs`]: edge read + source-state read per streamed
    /// edge, one write per generated update, and update read + state
    /// read-modify-write per applied update.
    #[inline]
    pub fn estimated_mem_refs(&self) -> u64 {
        self.edges_streamed * 2 + self.updates_generated + self.updates_applied * 2
    }

    /// Total wall time of the iteration.
    #[inline]
    pub fn total_ns(&self) -> u64 {
        self.scatter_ns + self.shuffle_ns + self.gather_ns
    }

    /// Fraction of the held shuffle capacity that was actually resident
    /// at the iteration's peak, as a percentage: out of core, the
    /// fullest spill window over both output buffers (at most about
    /// 50%, since one buffer drains while the other fills); in memory,
    /// the share of the layout's slots the busiest superstep filled.
    #[inline]
    pub fn buffer_residency_pct(&self) -> f64 {
        if self.shuffle_capacity == 0 {
            0.0
        } else {
            100.0 * self.shuffle_high_water as f64 / self.shuffle_capacity as f64
        }
    }

    /// Accumulates `other` into `self`. Counters add; the shuffle
    /// capacity/budget/high-water *gauges* take the maximum (summing a
    /// capacity over iterations would be meaningless).
    pub fn merge(&mut self, other: &IterationStats) {
        self.edges_streamed += other.edges_streamed;
        self.updates_generated += other.updates_generated;
        self.updates_applied += other.updates_applied;
        self.vertices_changed += other.vertices_changed;
        self.scatter_ns += other.scatter_ns;
        self.shuffle_ns += other.shuffle_ns;
        self.gather_ns += other.gather_ns;
        self.streaming_ns += other.streaming_ns;
        self.bytes_read += other.bytes_read;
        self.bytes_written += other.bytes_written;
        self.mem_refs += other.mem_refs;
        self.alloc_count += other.alloc_count;
        self.alloc_bytes += other.alloc_bytes;
        self.io_retries += other.io_retries;
        self.checkpoints += other.checkpoints;
        self.chunks_verified += other.chunks_verified;
        self.corruptions_detected += other.corruptions_detected;
        self.partitions_skipped += other.partitions_skipped;
        self.partitions_sparse += other.partitions_sparse;
        self.shuffle_budget = self.shuffle_budget.max(other.shuffle_budget);
        self.shuffle_capacity = self.shuffle_capacity.max(other.shuffle_capacity);
        self.shuffle_high_water = self.shuffle_high_water.max(other.shuffle_high_water);
        self.frontier_density = self.frontier_density.max(other.frontier_density);
    }
}

/// Aggregated statistics for a complete run.
#[derive(Debug, Default, Clone)]
pub struct RunStats {
    /// Per-iteration counters, in execution order.
    pub iterations: Vec<IterationStats>,
    /// Total wall time of the run (including per-run setup the
    /// iterations do not account for).
    pub total_ns: u64,
}

impl RunStats {
    /// Number of scatter-gather iterations executed.
    #[inline]
    pub fn num_iterations(&self) -> usize {
        self.iterations.len()
    }

    /// Sum of all per-iteration counters.
    pub fn totals(&self) -> IterationStats {
        let mut acc = IterationStats::default();
        for it in &self.iterations {
            acc.merge(it);
        }
        acc
    }

    /// Total wall time as a [`Duration`].
    #[inline]
    pub fn elapsed(&self) -> Duration {
        Duration::from_nanos(self.total_ns)
    }

    /// Ratio of total execution time to streaming time (paper Fig. 12b;
    /// ~1 for I/O-bound out-of-core runs, 2–3 for in-memory runs).
    pub fn runtime_to_streaming_ratio(&self) -> f64 {
        let t = self.totals();
        if t.streaming_ns == 0 {
            f64::INFINITY
        } else {
            self.total_ns as f64 / t.streaming_ns as f64
        }
    }

    /// Percentage of wasted edges across the whole run.
    pub fn wasted_pct(&self) -> f64 {
        self.totals().wasted_pct()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iter_with(edges: u64, updates: u64) -> IterationStats {
        IterationStats {
            edges_streamed: edges,
            updates_generated: updates,
            ..Default::default()
        }
    }

    #[test]
    fn wasted_edges_math() {
        let it = iter_with(100, 35);
        assert_eq!(it.wasted_edges(), 65);
        assert!((it.wasted_pct() - 65.0).abs() < 1e-9);
    }

    #[test]
    fn empty_iteration_is_not_nan() {
        let it = IterationStats::default();
        assert_eq!(it.wasted_pct(), 0.0);
    }

    #[test]
    fn run_totals_accumulate() {
        let mut run = RunStats::default();
        run.iterations.push(iter_with(10, 4));
        run.iterations.push(iter_with(20, 6));
        let t = run.totals();
        assert_eq!(t.edges_streamed, 30);
        assert_eq!(t.updates_generated, 10);
        assert_eq!(run.num_iterations(), 2);
    }

    #[test]
    fn capacity_gauges_merge_by_max_and_residency_is_bounded() {
        let mut a = IterationStats {
            shuffle_budget: 100,
            shuffle_capacity: 400,
            shuffle_high_water: 300,
            ..Default::default()
        };
        let b = IterationStats {
            shuffle_budget: 50,
            shuffle_capacity: 600,
            shuffle_high_water: 150,
            ..Default::default()
        };
        assert!((a.buffer_residency_pct() - 75.0).abs() < 1e-9);
        a.merge(&b);
        assert_eq!(a.shuffle_budget, 100);
        assert_eq!(a.shuffle_capacity, 600);
        assert_eq!(a.shuffle_high_water, 300);
        // A zero-capacity iteration reports 0%, not NaN.
        assert_eq!(IterationStats::default().buffer_residency_pct(), 0.0);
    }
}
