//! Active-vertex frontiers for scatter skipping (Ligra-hybrid, cf.
//! paper §6.3).
//!
//! X-Stream's acknowledged weakness is that scatter streams *every*
//! edge every superstep even when only a handful of vertices are
//! active. A [`Frontier`] is a pooled bitset over the vertex set with
//! per-streaming-partition population counts: the gather phase marks
//! every vertex whose state changed, and the next scatter consults the
//! bitmap to skip partitions with no active sources entirely (zero
//! I/O) or — below a density threshold — to switch to an index-based
//! sparse scatter over just the active vertices' edge runs.
//!
//! The bitmap words and counts are atomic so parallel gather lanes can
//! mark vertices concurrently without aliasing concerns: streaming
//! partitions need not be 64-vertex aligned, so neighbouring
//! partitions may share a bitmap word. All storage is reused across
//! supersteps — after the first superstep marking and clearing
//! allocate nothing, preserving the engines' zero-steady-state-
//! allocation invariant.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::partition::Partitioner;
use crate::types::VertexId;

/// Whether an [`crate::EdgeProgram`] opts into frontier tracking.
///
/// See [`crate::EdgeProgram::frontier_mode`] for the contract a
/// `Tracked` program must uphold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrontierMode {
    /// Every vertex is potentially active every superstep; engines
    /// never build a frontier and always stream every partition
    /// (PageRank, SpMV, and other fixed-work programs).
    Dense,
    /// Only vertices whose state changed in the previous gather need
    /// to scatter; engines track them in a [`Frontier`] and may skip
    /// partitions or switch to sparse scatter (BFS, SSSP, WCC,
    /// PageRank-delta).
    Tracked,
}

/// A bitset over the vertex set with per-partition active counts.
///
/// Marking is concurrent (atomic fetch-or); clearing and querying the
/// counts are meant for the single-threaded superstep driver.
#[derive(Debug, Default)]
pub struct Frontier {
    /// One bit per vertex, little-endian within each word.
    words: Vec<AtomicU64>,
    /// Number of set bits per streaming partition.
    counts: Vec<AtomicU64>,
    num_vertices: usize,
}

impl Frontier {
    /// Creates an empty, zero-capacity frontier; call [`Self::ensure`]
    /// before use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sizes the frontier for `partitioner`'s vertex set and clears
    /// it. Allocates only when the graph grew; re-arming for the same
    /// graph is a pure memset.
    pub fn ensure(&mut self, partitioner: &Partitioner) {
        let nw = partitioner.num_vertices().div_ceil(64);
        if self.words.len() < nw {
            self.words.resize_with(nw, || AtomicU64::new(0));
        }
        let np = partitioner.num_partitions();
        if self.counts.len() < np {
            self.counts.resize_with(np, || AtomicU64::new(0));
        }
        self.num_vertices = partitioner.num_vertices();
        self.clear();
    }

    /// Clears every bit and count.
    pub fn clear(&mut self) {
        for w in &mut self.words {
            *w.get_mut() = 0;
        }
        for c in &mut self.counts {
            *c.get_mut() = 0;
        }
    }

    /// Marks vertex `v` (in partition `p`) active. Idempotent and safe
    /// to call from parallel gather lanes.
    #[inline]
    pub fn mark(&self, v: VertexId, p: usize) {
        let (word, bit) = (v as usize / 64, 1u64 << (v as usize % 64));
        let prev = self.words[word].fetch_or(bit, Ordering::Relaxed);
        if prev & bit == 0 {
            self.counts[p].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Marks every vertex of partition `p` whose state satisfies
    /// `active`, where `states[i]` is the state of vertex `base + i`:
    /// the state scan that rebuilds a frontier after initialization or
    /// a `vertex_map`.
    pub fn mark_active<S>(&self, p: usize, base: usize, states: &[S], active: impl Fn(&S) -> bool) {
        for (i, s) in states.iter().enumerate() {
            if active(s) {
                self.mark((base + i) as VertexId, p);
            }
        }
    }

    /// Whether vertex `v` is marked active.
    #[inline]
    pub fn contains(&self, v: VertexId) -> bool {
        let (word, bit) = (v as usize / 64, 1u64 << (v as usize % 64));
        self.words[word].load(Ordering::Relaxed) & bit != 0
    }

    /// Number of active vertices in partition `p`.
    #[inline]
    pub fn active_in(&self, p: usize) -> u64 {
        self.counts[p].load(Ordering::Relaxed)
    }

    /// Total number of active vertices.
    pub fn total_active(&self) -> u64 {
        self.counts.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    /// Fraction of the vertex set that is active, in `[0, 1]`.
    pub fn density(&self) -> f64 {
        if self.num_vertices == 0 {
            0.0
        } else {
            self.total_active() as f64 / self.num_vertices as f64
        }
    }

    /// Calls `f` for every active vertex in `range`, in ascending
    /// order, skipping over fully-inactive words.
    pub fn for_each_active_in(
        &self,
        range: core::ops::Range<usize>,
        mut f: impl FnMut(VertexId) -> bool,
    ) {
        let mut v = range.start;
        while v < range.end {
            let word = v / 64;
            // Mask off bits below the range start and (in the last
            // word) at or above the range end.
            let mut bits = self.words[word].load(Ordering::Relaxed) >> (v % 64);
            if bits == 0 {
                v = (word + 1) * 64;
                continue;
            }
            while bits != 0 && v < range.end {
                let skip = bits.trailing_zeros() as usize;
                v += skip;
                if v >= range.end {
                    return;
                }
                if !f(v as VertexId) {
                    return;
                }
                bits >>= skip;
                bits >>= 1;
                v += 1;
            }
            v = v.max((word + 1) * 64);
        }
    }

    /// Serializes the bitmap words (little-endian) for checkpointing.
    /// Off the hot path; allocates.
    pub fn to_bytes(&self) -> Vec<u8> {
        let nw = self.num_vertices.div_ceil(64);
        let mut out = Vec::with_capacity(nw * 8);
        for w in &self.words[..nw] {
            out.extend_from_slice(&w.load(Ordering::Relaxed).to_le_bytes());
        }
        out
    }

    /// Restores the bitmap from [`Self::to_bytes`] output and rebuilds
    /// the per-partition counts. Returns `false` (leaving the frontier
    /// cleared) when `bytes` does not match `partitioner`'s vertex set.
    pub fn load_bytes(&mut self, bytes: &[u8], partitioner: &Partitioner) -> bool {
        self.ensure(partitioner);
        let nw = partitioner.num_vertices().div_ceil(64);
        if bytes.len() != nw * 8 {
            return false;
        }
        for (w, chunk) in self.words[..nw].iter_mut().zip(bytes.chunks_exact(8)) {
            *w.get_mut() = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
        }
        // Bits beyond the vertex set must be clear; reject frames that
        // would silently activate phantom vertices.
        let tail_bits = partitioner.num_vertices() % 64;
        if nw > 0 && tail_bits != 0 {
            let last = *self.words[nw - 1].get_mut();
            if last >> tail_bits != 0 {
                self.clear();
                return false;
            }
        }
        for p in partitioner.iter() {
            let mut n = 0u64;
            self.for_each_active_in(partitioner.range(p), |_| {
                n += 1;
                true
            });
            *self.counts[p].get_mut() = n;
        }
        true
    }
}

/// Double-buffered frontier: `current` gates this superstep's scatter
/// while gather marks into `next`; [`FrontierPair::advance`] flips
/// them between supersteps.
#[derive(Debug, Default)]
pub struct FrontierPair {
    /// The active set consulted by the current scatter phase.
    pub current: Frontier,
    /// The active set being built by the current gather phase.
    pub next: Frontier,
}

impl FrontierPair {
    /// Creates an empty pair; call [`Self::ensure`] before use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sizes and clears both generations for `partitioner`.
    pub fn ensure(&mut self, partitioner: &Partitioner) {
        self.current.ensure(partitioner);
        self.next.ensure(partitioner);
    }

    /// Sizes and clears both generations, then marks the in-range
    /// vertices of `sources` active in `current`: the frontier of a
    /// traversal seeded at `sources`.
    pub fn seed(&mut self, partitioner: &Partitioner, sources: &[VertexId]) {
        self.ensure(partitioner);
        for &v in sources {
            if (v as usize) < partitioner.num_vertices() {
                self.current.mark(v, partitioner.partition_of(v));
            }
        }
    }

    /// Promotes `next` to `current` and clears the new `next`.
    pub fn advance(&mut self) {
        std::mem::swap(&mut self.current, &mut self.next);
        self.next.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mark_contains_counts() {
        let part = Partitioner::new(200, 4);
        let mut f = Frontier::new();
        f.ensure(&part);
        assert_eq!(f.total_active(), 0);
        for v in [0u32, 63, 64, 120, 199] {
            f.mark(v, part.partition_of(v));
            f.mark(v, part.partition_of(v)); // idempotent
        }
        assert_eq!(f.total_active(), 5);
        assert!(f.contains(63));
        assert!(!f.contains(62));
        let by_partition: u64 = part.iter().map(|p| f.active_in(p)).sum();
        assert_eq!(by_partition, 5);
        f.clear();
        assert_eq!(f.total_active(), 0);
        assert!(!f.contains(63));
    }

    #[test]
    fn iteration_matches_membership_on_unaligned_ranges() {
        // Partition size 32 < 64: partitions share bitmap words.
        let part = Partitioner::new(100, 4);
        assert!(part.partition_size() < 64);
        let mut f = Frontier::new();
        f.ensure(&part);
        let marked: Vec<u32> = vec![1, 31, 32, 33, 63, 64, 95, 96, 99];
        for &v in &marked {
            f.mark(v, part.partition_of(v));
        }
        let mut seen = Vec::new();
        for p in part.iter() {
            f.for_each_active_in(part.range(p), |v| {
                seen.push(v);
                true
            });
        }
        assert_eq!(seen, marked);
        // Early exit stops iteration.
        let mut first = None;
        f.for_each_active_in(0..100, |v| {
            first = Some(v);
            false
        });
        assert_eq!(first, Some(1));
    }

    #[test]
    fn density_and_roundtrip() {
        let part = Partitioner::new(130, 2);
        let mut f = Frontier::new();
        f.ensure(&part);
        for v in 0..13u32 {
            f.mark(v * 10, part.partition_of(v * 10));
        }
        assert!((f.density() - 0.1).abs() < 1e-9);
        let bytes = f.to_bytes();
        let mut g = Frontier::new();
        assert!(g.load_bytes(&bytes, &part));
        assert_eq!(g.total_active(), f.total_active());
        for v in 0..130u32 {
            assert_eq!(g.contains(v), f.contains(v), "vertex {v}");
        }
        // A wrong-length blob is rejected.
        assert!(!g.load_bytes(&bytes[..bytes.len() - 8], &part));
        // Phantom bits beyond the vertex set are rejected.
        let mut bad = bytes.clone();
        let last = bad.len() - 8;
        bad[last..].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(!g.load_bytes(&bad, &part));
        assert_eq!(g.total_active(), 0);
    }

    #[test]
    fn pair_advances_generations() {
        let part = Partitioner::new(64, 2);
        let mut pair = FrontierPair::new();
        pair.ensure(&part);
        pair.next.mark(7, part.partition_of(7));
        pair.advance();
        assert!(pair.current.contains(7));
        assert_eq!(pair.next.total_active(), 0);
    }
}
