//! Streaming-partition arithmetic (paper §2.2, §2.4).
//!
//! The vertex set is split into equal-size, mutually disjoint ranges;
//! the edge list of a partition holds all edges whose *source* lies in
//! its range, the update list all updates whose *destination* lies in
//! it. Partition sizes are powers of two so that the partition of a
//! vertex is a shift of its id, and so that the multi-stage shuffler
//! (§4.2) can route on the most significant bits of the partition id.

use crate::types::{Edge, VertexId};

/// Maps vertices to streaming partitions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Partitioner {
    num_vertices: usize,
    num_partitions: usize,
    /// log2 of the (power-of-two) partition size.
    shift: u32,
}

impl Partitioner {
    /// Creates a partitioner over `num_vertices` vertices aiming for
    /// `target_partitions` partitions.
    ///
    /// The actual partition count is `ceil(num_vertices / s)` where `s`
    /// is the smallest power of two with `ceil(num_vertices /
    /// target_partitions) <= s`; it never exceeds `target_partitions`
    /// (rounded up to a power of two) and is at least 1.
    pub fn new(num_vertices: usize, target_partitions: usize) -> Self {
        let n = num_vertices.max(1);
        let k = target_partitions.clamp(1, n);
        let size = n.div_ceil(k).next_power_of_two();
        let shift = size.trailing_zeros();
        let num_partitions = n.div_ceil(size);
        Self {
            num_vertices,
            num_partitions,
            shift,
        }
    }

    /// Creates a partitioner with exactly one partition (all vertices).
    pub fn single(num_vertices: usize) -> Self {
        Self::new(num_vertices, 1)
    }

    /// Number of vertices governed by this partitioner.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Number of streaming partitions.
    #[inline]
    pub fn num_partitions(&self) -> usize {
        self.num_partitions
    }

    /// Partition size in vertices (a power of two; the final partition
    /// may be smaller).
    #[inline]
    pub fn partition_size(&self) -> usize {
        1usize << self.shift
    }

    /// The partition containing vertex `v`.
    #[inline]
    pub fn partition_of(&self, v: VertexId) -> usize {
        (v as usize) >> self.shift
    }

    /// The contiguous vertex-id range of partition `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p >= num_partitions()`.
    #[inline]
    pub fn range(&self, p: usize) -> core::ops::Range<usize> {
        assert!(p < self.num_partitions, "partition index out of range");
        let lo = p << self.shift;
        let hi = ((p + 1) << self.shift).min(self.num_vertices);
        lo..hi
    }

    /// Iterates over all partition indices.
    #[inline]
    pub fn iter(&self) -> core::ops::Range<usize> {
        0..self.num_partitions
    }
}

/// Why [`run_offsets`] refused an edge sequence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunIndexError {
    /// The edge at `position` has a smaller source than the edge before
    /// it: the edges are not grouped by source.
    Ungrouped {
        /// Zero-based position of the offending edge.
        position: usize,
    },
    /// The edge at `position` has a source outside the partition's
    /// vertex range.
    SourceOutOfRange {
        /// Zero-based position of the offending edge.
        position: usize,
        /// Its source vertex.
        src: VertexId,
    },
    /// The partition has more edges than a `u32` offset can address.
    TooManyEdges,
}

impl std::fmt::Display for RunIndexError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Ungrouped { position } => {
                write!(f, "edge {position} breaks the grouping by source")
            }
            Self::SourceOutOfRange { position, src } => {
                write!(f, "edge {position} has source {src} outside the partition")
            }
            Self::TooManyEdges => write!(f, "more edges than u32 offsets can address"),
        }
    }
}

impl std::error::Error for RunIndexError {}

/// Builds the sparse-scatter run-offset index of one streaming
/// partition: appends `range.len() + 1` offsets to `out`, so the edges
/// of local vertex `lv` (vertex `range.start + lv`) are records
/// `out[lv]..out[lv + 1]` of `edges`. Both engines and the store's
/// index repair build the index here; the out-of-core engine persists
/// it as the `index.p` stream in native-endian `u32`s.
///
/// `edges` must be grouped by source (non-decreasing `src`) with every
/// source inside `range`. On error, the offsets already appended to
/// `out` are meaningless.
pub fn run_offsets(
    edges: impl IntoIterator<Item = Edge>,
    range: core::ops::Range<usize>,
    out: &mut Vec<u32>,
) -> Result<(), RunIndexError> {
    let start = out.len();
    out.reserve(range.len() + 1);
    // One walk over the runs: when vertex `src`'s run begins, the
    // offsets of every vertex up to and including `src` are the number
    // of edges before it. `next` is the first vertex whose offset is
    // not yet written.
    let (mut count, mut prev, mut next) = (0u32, range.start, range.start);
    for e in edges {
        let src = e.src as usize;
        if src < prev || src >= range.end {
            let position = count as usize;
            return Err(if range.contains(&src) {
                RunIndexError::Ungrouped { position }
            } else {
                RunIndexError::SourceOutOfRange {
                    position,
                    src: e.src,
                }
            });
        }
        prev = src;
        if src >= next {
            out.resize(start + src - range.start + 1, count);
            next = src + 1;
        }
        count = count.checked_add(1).ok_or(RunIndexError::TooManyEdges)?;
    }
    out.resize(start + range.len() + 1, count);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covers_all_vertices_disjointly() {
        let p = Partitioner::new(1000, 7);
        let mut seen = vec![false; 1000];
        for part in p.iter() {
            for v in p.range(part) {
                assert!(!seen[v], "vertex {v} in two partitions");
                seen[v] = true;
                assert_eq!(p.partition_of(v as VertexId), part);
            }
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn single_partition() {
        let p = Partitioner::single(42);
        assert_eq!(p.num_partitions(), 1);
        assert_eq!(p.range(0), 0..42);
    }

    #[test]
    fn power_of_two_sizes() {
        for n in [1usize, 5, 64, 1000, 4096, 1_000_000] {
            for k in [1usize, 2, 3, 16, 100] {
                let p = Partitioner::new(n, k);
                assert!(p.partition_size().is_power_of_two());
                assert!(p.num_partitions() >= 1);
                // Never more partitions than requested (after pow2 rounding).
                assert!(p.num_partitions() <= k.next_power_of_two().max(1));
            }
        }
    }

    #[test]
    fn more_partitions_than_vertices_is_clamped() {
        let p = Partitioner::new(3, 100);
        assert!(p.num_partitions() <= 3);
    }

    #[test]
    fn run_offsets_match_a_counting_pass_over_sorted_edges() {
        // The in-memory engine's former index: one counting pass over
        // the whole src-sorted list, prefix-summed into global run
        // starts. Each partition's offsets are its slice of that,
        // rebased to the partition's first edge.
        let n = 300usize;
        let mut edges: Vec<Edge> = (0..2000u32)
            .map(|i| Edge::new(i.wrapping_mul(2654435761) % 251, i % 300))
            .collect();
        edges.sort_unstable_by_key(|e| e.src);
        let mut run_starts = vec![0u32; n + 1];
        for e in &edges {
            run_starts[e.src as usize + 1] += 1;
        }
        for v in 0..n {
            run_starts[v + 1] += run_starts[v];
        }
        let part = Partitioner::new(n, 5);
        let mut all = Vec::new();
        for p in part.iter() {
            let range = part.range(p);
            let (lo, hi) = (run_starts[range.start], run_starts[range.end]);
            let chunk = edges[lo as usize..hi as usize].iter().copied();
            let at = all.len();
            run_offsets(chunk, range.clone(), &mut all).unwrap();
            let want: Vec<u32> = run_starts[range]
                .iter()
                .map(|s| s - lo)
                .chain([hi - lo])
                .collect();
            assert_eq!(all[at..], want[..], "partition {p}");
        }
        assert_eq!(all.len(), n + part.num_partitions());
    }

    #[test]
    fn run_offsets_reject_ungrouped_and_out_of_range_edges() {
        let mut out = Vec::new();
        let ungrouped = [Edge::new(3, 0), Edge::new(1, 0)];
        assert_eq!(
            run_offsets(ungrouped, 0..8, &mut out),
            Err(RunIndexError::Ungrouped { position: 1 })
        );
        for (src, range) in [(9u32, 0..8), (2, 4..8)] {
            assert_eq!(
                run_offsets([Edge::new(src, 0)], range, &mut out),
                Err(RunIndexError::SourceOutOfRange { position: 0, src })
            );
        }
        // Empty input is every vertex with an empty run.
        out.clear();
        run_offsets([], 4..8, &mut out).unwrap();
        assert_eq!(out, [0; 5]);
    }
}
