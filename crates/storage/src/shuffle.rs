//! The in-memory shuffle (paper §3.1) and the multi-stage shuffler
//! (§4.2).
//!
//! A shuffle routes every record of an input stream to the chunk of the
//! streaming partition that owns it — one counting pass to fill the
//! index array, then one copy pass. [`CountingPlacement`] is that
//! two-phase routine, and both engines build their edge layouts with
//! it: keyed by partition it groups an edge list into streaming
//! partitions; keyed by source vertex it groups a partition's edges
//! into per-vertex runs, and its offsets are the sparse-scatter
//! run-offset index. Neither build needs a comparison sort (Fig. 18).
//!
//! With many partitions (the in-memory engine can need thousands) a
//! single pass over the per-iteration update stream loses cache
//! locality and prefetcher coverage, so the multi-stage shuffler groups
//! partitions into a tree of fanout `F` and shuffles one tree level at
//! a time, touching at most `F` output chunks per pass: `ceil(log_F K)`
//! passes total.
//!
//! The multi-stage machinery itself lives in
//! [`crate::scratch::ShuffleScratch`] and operates *in
//! place* over pooled double buffers: producers append records directly
//! into the buckets of the first radix digit (fusing the first stage
//! into the producer — the engines' scatter phase pays no separate
//! counting + copy pass for it), and the remaining stages ping-pong
//! between two iteration-persistent stage buffers. The
//! [`multistage_shuffle`] function here is the owned-`Vec` convenience
//! wrapper over that core, kept for ablations and tests.
//!
//! Parallelism follows Fig. 7: each thread owns a disjoint *slice* of
//! the stream buffer with its own index array and shuffles it
//! independently — zero synchronization until the final barrier.

use crate::buffer::StreamBuffer;
use crate::scratch::ShuffleScratch;
use xstream_core::{Error, Record, Result};

/// Single-stage shuffle: routes `input` into `num_chunks` chunks keyed
/// by `key` — a one-shot [`CountingPlacement`].
///
/// Records with equal keys keep their relative order (stable).
///
/// # Examples
///
/// ```
/// use xstream_storage::shuffle::shuffle;
///
/// let buf = shuffle(&[10u32, 21, 32, 13], 4, |r| (*r % 4) as usize);
/// assert_eq!(buf.chunk(0), &[32]);
/// assert_eq!(buf.chunk(1), &[21, 13]);
/// assert_eq!(buf.chunk(2), &[10]);
/// ```
pub fn shuffle<T: Record>(
    input: &[T],
    num_chunks: usize,
    key: impl FnMut(&T) -> usize,
) -> StreamBuffer<T> {
    let mut placement = CountingPlacement::with_capacity(input.len());
    placement.place_slice(input, num_chunks.max(1), key);
    let (data, offsets) = placement.into_parts();
    StreamBuffer::from_grouped(data, offsets)
}

/// Where a [`CountingPlacement`] is between [`begin`] and [`finish`].
///
/// [`begin`]: CountingPlacement::begin
/// [`finish`]: CountingPlacement::finish
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Counting,
    Placing,
    Placed,
}

/// A stable two-phase counting placement: count every record's key,
/// prefix-sum the counts into per-key run offsets, then place every
/// record at its run's next free slot. No comparison sort, and records
/// with equal keys keep their input order.
///
/// Both phases accept the input in chunks, so a caller that cannot
/// hold its input twice (the out-of-core engine re-reads a partition
/// file) streams it once to [`count`](Self::count) and once more to
/// [`place`](Self::place). The output buffer is owned here — placement
/// writes into its uninitialized capacity — and keeps its capacity
/// across [`begin`](Self::begin)s, so one placement can be reused.
///
/// After [`finish`](Self::finish), `offsets[key]..offsets[key + 1]` is
/// key's run in the placed records: with keys = partitions these are
/// the stream buffer's chunk bounds (§3.1); with keys = the source
/// vertices of a partition, its sparse-scatter run-offset index.
#[derive(Debug)]
pub struct CountingPlacement<T> {
    /// While counting, `offsets[key + 1]` is key's count; from the
    /// first `place` on, key's first slot. `offsets[num_keys]` is the
    /// total record count.
    offsets: Vec<usize>,
    /// Next free slot of each key's run while placing.
    cursor: Vec<usize>,
    /// Placed records: length 0 until `finish` has checked that every
    /// slot below the total was written exactly once.
    out: Vec<T>,
    phase: Phase,
}

impl<T: Record> Default for CountingPlacement<T> {
    fn default() -> Self {
        Self::with_capacity(0)
    }
}

impl<T: Record> CountingPlacement<T> {
    /// A placement whose output buffer is reserved for `records`
    /// records up front.
    pub fn with_capacity(records: usize) -> Self {
        Self {
            offsets: Vec::new(),
            cursor: Vec::new(),
            out: Vec::with_capacity(records),
            phase: Phase::Placed,
        }
    }

    /// Starts a placement over keys `0..num_keys`, discarding the
    /// previous one (buffers keep their capacity).
    pub fn begin(&mut self, num_keys: usize) {
        self.offsets.clear();
        self.offsets.resize(num_keys + 1, 0);
        self.out.clear();
        self.phase = Phase::Counting;
    }

    /// Counting phase: counts one chunk of the input.
    ///
    /// # Panics
    ///
    /// Panics after the first [`place`](Self::place), or if `key`
    /// returns a key outside `0..num_keys`.
    pub fn count(&mut self, chunk: impl IntoIterator<Item = T>, mut key: impl FnMut(&T) -> usize) {
        assert_eq!(self.phase, Phase::Counting, "count after place");
        let counts = &mut self.offsets[1..];
        for r in chunk {
            counts[key(&r)] += 1;
        }
    }

    /// Placement phase: places one chunk of the input, which must
    /// arrive in the order and with the keys it was counted with. The
    /// first call ends counting.
    ///
    /// # Panics
    ///
    /// Panics after [`finish`](Self::finish), or if `key` returns a key
    /// outside `0..num_keys`.
    pub fn place(&mut self, chunk: impl IntoIterator<Item = T>, mut key: impl FnMut(&T) -> usize) {
        if self.phase == Phase::Counting {
            self.end_counting();
        }
        assert_eq!(self.phase, Phase::Placing, "place after finish");
        let total = self.offsets[self.offsets.len() - 1];
        let slots = &mut self.out.spare_capacity_mut()[..total];
        for r in chunk {
            let cursor = &mut self.cursor[key(&r)];
            slots[*cursor].write(r);
            *cursor += 1;
        }
    }

    /// Prefix-sums the counts into run offsets and arms the cursors.
    fn end_counting(&mut self) {
        for i in 1..self.offsets.len() {
            self.offsets[i] += self.offsets[i - 1];
        }
        let keys = self.offsets.len() - 1;
        self.cursor.clear();
        self.cursor.extend_from_slice(&self.offsets[..keys]);
        self.out.reserve(self.offsets[keys]);
        self.phase = Phase::Placing;
    }

    /// Ends the placement and returns the placed records with their
    /// run offsets (`num_keys + 1` entries).
    ///
    /// # Errors
    ///
    /// [`Error::InvalidInput`] if the placed keys differ from the
    /// counted ones — some run is not exactly full. The placement then
    /// holds no records until the next [`begin`](Self::begin).
    pub fn finish(&mut self) -> Result<(&[T], &[usize])> {
        if self.phase == Phase::Counting {
            self.end_counting();
        }
        if self.phase == Phase::Placing {
            if self.cursor[..] != self.offsets[1..] {
                return Err(Error::InvalidInput(
                    "counting placement: placed keys differ from the counted ones".into(),
                ));
            }
            // SAFETY: every `place` write went to the slot its key's
            // cursor named and then advanced that cursor. Cursor `k`
            // started at `offsets[k]` and now equals `offsets[k + 1]`,
            // so run `k` was written slot by slot from start to end;
            // the runs tile `0..total`, so every slot below the new
            // length was initialized (a double write would have left
            // some cursor past its run's end, failing the check). `out`
            // never reallocated in between: only `end_counting`
            // reserves, and it ran before the first write.
            unsafe { self.out.set_len(self.offsets[self.offsets.len() - 1]) };
            self.phase = Phase::Placed;
        }
        Ok((&self.out, &self.offsets))
    }

    /// Places a whole slice in one call — [`begin`](Self::begin),
    /// [`count`](Self::count), [`place`](Self::place) and
    /// [`finish`](Self::finish) — and returns the placed records with
    /// their run offsets.
    ///
    /// # Panics
    ///
    /// Panics if `key` returns a key outside `0..num_keys`, or a
    /// different key for the same record on the second pass.
    pub fn place_slice(
        &mut self,
        input: &[T],
        num_keys: usize,
        mut key: impl FnMut(&T) -> usize,
    ) -> (&[T], &[usize]) {
        self.begin(num_keys);
        self.count(input.iter().copied(), &mut key);
        self.place(input.iter().copied(), &mut key);
        self.finish()
            .expect("key must map a record to the same key on both passes")
    }

    /// Consumes a finished placement, returning the placed records and
    /// their run offsets.
    ///
    /// # Panics
    ///
    /// Panics before a successful [`finish`](Self::finish).
    pub fn into_parts(self) -> (Vec<T>, Vec<usize>) {
        assert_eq!(self.phase, Phase::Placed, "into_parts before finish");
        (self.out, self.offsets)
    }
}

/// Plan for a multi-stage shuffle of `num_partitions` targets with a
/// power-of-two fanout per stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MultiStagePlan {
    /// Number of target partitions, padded to a power of two.
    pub padded_partitions: usize,
    /// log2 of `padded_partitions`.
    pub total_bits: u32,
    /// log2 of the per-stage fanout.
    pub fanout_bits: u32,
    /// Number of stages (`ceil(total_bits / fanout_bits)`).
    pub stages: u32,
}

impl MultiStagePlan {
    /// Builds a plan for `num_partitions` targets and `fanout` children
    /// per tree node (both rounded up to powers of two).
    pub fn new(num_partitions: usize, fanout: usize) -> Self {
        let padded = num_partitions.next_power_of_two().max(1);
        let total_bits = padded.trailing_zeros();
        let fanout_bits = fanout.next_power_of_two().max(2).trailing_zeros();
        let stages = if total_bits == 0 {
            0
        } else {
            total_bits.div_ceil(fanout_bits)
        };
        Self {
            padded_partitions: padded,
            total_bits,
            fanout_bits,
            stages,
        }
    }

    /// A plan forcing exactly `stages` passes for `num_partitions`
    /// targets (used by the Fig. 25 stage-count ablation). The fanout is
    /// derived as `ceil(total_bits / stages)` bits.
    pub fn with_stages(num_partitions: usize, stages: u32) -> Self {
        let padded = num_partitions.next_power_of_two().max(1);
        let total_bits = padded.trailing_zeros();
        let stages = stages.clamp(1, total_bits.max(1));
        let fanout_bits = total_bits.div_ceil(stages).max(1);
        Self {
            padded_partitions: padded,
            total_bits,
            fanout_bits,
            stages: if total_bits == 0 {
                0
            } else {
                total_bits.div_ceil(fanout_bits)
            },
        }
    }
}

/// Multi-stage shuffle of one slice (paper §4.2): MSB-first radix
/// passes of `fanout_bits` bits over the partition id.
///
/// Owned-`Vec` convenience wrapper over the in-place
/// [`crate::scratch::ShuffleScratch`] core: it routes
/// `input` through a throwaway scratch (first stage fused into the
/// append loop, remaining stages ping-ponging between the scratch's
/// double buffers) and copies the result out. Hot paths that shuffle
/// every iteration should hold a `ShuffleScratch` instead and skip
/// both the setup allocations and the final copy.
///
/// `key` must return a partition id below `plan.padded_partitions`.
pub fn multistage_shuffle<T: Record>(
    input: Vec<T>,
    plan: MultiStagePlan,
    mut key: impl FnMut(&T) -> usize,
) -> StreamBuffer<T> {
    if plan.total_bits == 0 {
        return StreamBuffer::single_chunk(input);
    }
    let mut scratch = ShuffleScratch::new();
    scratch.begin(plan);
    for r in input {
        let p = key(&r);
        scratch.push(r, p);
    }
    scratch.finish(key);
    scratch.into_stream_buffer()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_partitioned(buf: &StreamBuffer<u32>, k: usize, key: impl Fn(&u32) -> usize) {
        assert!(buf.num_chunks() >= k);
        for (p, chunk) in buf.iter_chunks() {
            for r in chunk {
                assert_eq!(key(r), p, "record {r} in wrong chunk {p}");
            }
        }
    }

    #[test]
    fn single_stage_routes_and_is_stable() {
        let input: Vec<u32> = vec![5, 1, 9, 13, 2, 6, 10, 3];
        let buf = shuffle(&input, 4, |r| (*r % 4) as usize);
        check_partitioned(&buf, 4, |r| (*r % 4) as usize);
        // Stability within a chunk.
        assert_eq!(buf.chunk(1), &[5, 1, 9, 13]);
        assert_eq!(buf.chunk(2), &[2, 6, 10]);
        assert_eq!(buf.chunk(3), &[3]);
    }

    #[test]
    fn multistage_equals_single_stage() {
        let input: Vec<u32> = (0..10_000u32)
            .map(|i| i.wrapping_mul(2_654_435_761))
            .collect();
        let k = 64usize;
        let key = |r: &u32| (*r as usize) % k;
        let single = shuffle(&input, k, key);
        for fanout in [2usize, 4, 8, 64] {
            let plan = MultiStagePlan::new(k, fanout);
            let multi = multistage_shuffle(input.clone(), plan, key);
            for p in 0..k {
                assert_eq!(
                    single.chunk(p),
                    multi.chunk(p),
                    "fanout {fanout}, chunk {p}"
                );
            }
        }
    }

    #[test]
    fn plan_stage_math() {
        let p = MultiStagePlan::new(1 << 20, 1 << 10);
        assert_eq!(p.stages, 2);
        let p = MultiStagePlan::new(1024, 4);
        assert_eq!(p.stages, 5);
        let p = MultiStagePlan::new(1, 16);
        assert_eq!(p.stages, 0);
        let p = MultiStagePlan::with_stages(1 << 20, 4);
        assert_eq!(p.stages, 4);
        let p = MultiStagePlan::with_stages(1 << 20, 1);
        assert_eq!(p.stages, 1);
        assert_eq!(p.fanout_bits, 20);
    }

    #[test]
    fn placement_rejects_keys_that_differ_from_the_count() {
        let mut placement = CountingPlacement::<u32>::default();
        placement.begin(2);
        placement.count([0u32, 1], |r| *r as usize);
        placement.place([0u32, 0], |r| *r as usize);
        assert!(placement.finish().is_err());
        // Reusable after a fresh begin.
        placement.begin(2);
        placement.count([1u32, 0], |r| *r as usize);
        placement.place([1u32, 0], |r| *r as usize);
        let (placed, offsets) = placement.finish().unwrap();
        assert_eq!((placed, offsets), (&[0u32, 1][..], &[0usize, 1, 2][..]));
    }

    #[test]
    fn placement_reuse_is_stable_and_allocation_free() {
        let input: Vec<u32> = (0..4_000u32).map(|i| i.wrapping_mul(48_271)).collect();
        let k = 16usize;
        let key = |r: &u32| (*r % 16) as usize;
        let mut placement = CountingPlacement::default();
        placement.place_slice(&input, k, key);
        let clean_window = xstream_core::alloc_stats::any_allocation_free_window(50, || {
            placement.place_slice(&input, k, key);
        });
        assert!(clean_window, "placement reuse allocated in every window");
        let (placed, offsets) = placement.finish().unwrap();
        for p in 0..k {
            let in_order: Vec<u32> = input.iter().copied().filter(|r| key(r) == p).collect();
            assert_eq!(
                &placed[offsets[p]..offsets[p + 1]],
                &in_order[..],
                "chunk {p}"
            );
        }
    }

    #[test]
    fn empty_input() {
        let buf = shuffle::<u32>(&[], 8, |_| 0);
        assert_eq!(buf.len(), 0);
        assert_eq!(buf.num_chunks(), 8);
        let plan = MultiStagePlan::new(8, 2);
        let buf = multistage_shuffle(Vec::<u32>::new(), plan, |r| *r as usize);
        assert_eq!(buf.len(), 0);
    }
}
