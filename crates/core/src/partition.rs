//! Streaming-partition arithmetic (paper §2.2, §2.4).
//!
//! The vertex set is split into equal-size, mutually disjoint ranges;
//! the edge list of a partition holds all edges whose *source* lies in
//! its range, the update list all updates whose *destination* lies in
//! it. Partition sizes are powers of two so that the partition of a
//! vertex is a shift of its id, and so that the multi-stage shuffler
//! (§4.2) can route on the most significant bits of the partition id.

use crate::types::VertexId;

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
}
