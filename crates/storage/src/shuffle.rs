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
//! The multi-stage passes live in [`crate::scratch::UpdateLayout`]:
//! producers write records straight into exact regions of the first
//! radix digit (fusing the first stage into the producer — the
//! in-memory engine's scatter pays no separate counting + copy pass
//! for it), and the remaining stages run per digit group, ping-ponging
//! between the region buffer and one stage buffer. The
//! [`multistage_shuffle`] function here is the owned-`Vec` convenience
//! wrapper over that core, kept for ablations and tests.
//!
//! The build placement obeys the same rule. Keyed by source vertex it
//! has |V| keys, far more than the cache has lines, so
//! [`CountingPlacement::place_slice`] splits such a key space into two
//! cache-bounded levels: a placement by the key's high bits into
//! contiguous groups of about half a cache of records each, then each
//! group copied to a scratch window and placed back by its low bits
//! (§4.2 with two stages, the second run per group while the group
//! sits in cache).
//!
//! Parallelism follows Fig. 7: each thread owns a disjoint *slice* of
//! the stream buffer with its own index array and shuffles it
//! independently — zero synchronization until the final barrier. The
//! in-memory engine's scatter tasks own disjoint regions of its update
//! layout, each worker of the out-of-core engine writes its own chains
//! of an [`OutputBuffer`](crate::scratch::OutputBuffer), and the
//! in-memory engine's build runs [`CountingPlacement::place_slice`]
//! in per-worker slices on a [`WorkerPool`], its second level one group
//! per worker at a time.

use std::mem::{size_of, MaybeUninit};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use crate::buffer::StreamBuffer;
use crate::pool::{StatesPtr, WorkerPool};
use crate::scratch::UpdateLayout;
use xstream_core::{Error, Record, Result};

/// Cache line size in bytes. A shuffle or placement pass keeps one
/// output line open per target, so its fan-out fits the cache while the
/// targets number at most `cache_size / CACHE_LINE`: §4.2's rule, which
/// sizes the in-memory engine's shuffle fan-out and splits large
/// placements into two levels.
pub const CACHE_LINE: usize = 64;

/// Single-stage shuffle: routes `input` into `num_chunks` chunks keyed
/// by `key` — a one-shot serial one-level [`CountingPlacement`].
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
    key: impl Fn(&T) -> usize + Sync,
) -> StreamBuffer<T> {
    let mut placement = CountingPlacement::with_capacity(input.len());
    placement.begin(num_chunks.max(1));
    placement.count(input.iter().copied(), &key);
    placement.place(input.iter().copied(), &key);
    placement
        .finish()
        .expect("key must map a record to the same key on both passes");
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
    /// A two-level placement's second level is placing its groups by
    /// the keys' low bits; stays here if some group's keys differ from
    /// their count.
    Regrouping,
    Placed,
}

/// One key's run inside one input slice's share of the output.
#[derive(Debug, Clone, Copy, Default)]
struct Run {
    /// While counting, the slice's count of the key; while placing,
    /// the run's next free slot.
    next: usize,
    /// One past the run's last slot (set when counting ends).
    end: usize,
}

/// A stable two-phase counting placement: count every record's key,
/// prefix-sum the counts into per-key run offsets, then place every
/// record at its run's next free slot. No comparison sort, and records
/// with equal keys keep their input order.
///
/// [`place_slice`](Self::place_slice) places a borrowed slice in one
/// call, on a [`WorkerPool`] one input slice per worker (the paper's
/// Fig. 7 slicing), in two cache-bounded levels when the keys
/// outnumber the cache's lines. The serial chunked phases, always one
/// level, accept the input in pieces, so a caller that cannot hold its
/// input twice (the out-of-core engine re-reads a partition file)
/// streams it once to [`count`](Self::count) and once more to
/// [`place`](Self::place). The output buffer is owned here — placement
/// writes into its uninitialized capacity — and keeps its capacity
/// across [`begin`](Self::begin)s, as do the second level's scratch
/// and tables, so one placement can be reused.
///
/// Every write is checked against its own run's end first, so a key
/// function that answers differently on the two passes can never write
/// outside its run (nor, sliced, into another worker's); it leaves some
/// run not exactly full, which [`finish`](Self::finish) reports.
///
/// After [`finish`](Self::finish), `offsets[key]..offsets[key + 1]` is
/// key's run in the placed records: with keys = partitions these are
/// the stream buffer's chunk bounds (§3.1); with keys = the source
/// vertices of a partition, its sparse-scatter run-offset index.
#[derive(Debug)]
pub struct CountingPlacement<T> {
    /// From the end of counting on, `offsets[key]` is key's first slot;
    /// `offsets[num_keys]` is the total record count.
    offsets: Vec<usize>,
    /// Slice-major: `runs[slice * num_keys + key]` is key's run within
    /// `slice`'s share of the output.
    runs: Vec<Run>,
    /// Number of input slices; the chunked phases use one.
    slices: usize,
    /// Placed records: length 0 until `finish` has checked that every
    /// slot below the total was written exactly once.
    out: Vec<T>,
    /// Two levels: the first level's group bounds in `out`.
    groups: Vec<usize>,
    /// Two levels: each second-level lane's runs over one group's keys.
    group_runs: Vec<Run>,
    /// Two levels: each second-level lane's copy of the group it
    /// places, in its uninitialized capacity.
    scratch: Vec<T>,
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
            runs: Vec::new(),
            slices: 1,
            out: Vec::with_capacity(records),
            groups: Vec::new(),
            group_runs: Vec::new(),
            scratch: Vec::new(),
            phase: Phase::Placed,
        }
    }

    /// Starts a chunked placement over keys `0..num_keys`, discarding
    /// the previous one (buffers keep their capacity).
    pub fn begin(&mut self, num_keys: usize) {
        self.begin_sliced(num_keys, 1);
    }

    fn begin_sliced(&mut self, num_keys: usize, slices: usize) {
        self.offsets.clear();
        self.offsets.resize(num_keys + 1, 0);
        self.runs.clear();
        self.runs.resize(num_keys * slices, Run::default());
        self.slices = slices;
        self.out.clear();
        self.phase = Phase::Counting;
    }

    /// Counting phase: counts one chunk of the input.
    ///
    /// # Panics
    ///
    /// Panics after the first [`place`](Self::place), or if `key`
    /// returns a key outside `0..num_keys`.
    pub fn count(&mut self, chunk: impl IntoIterator<Item = T>, key: impl FnMut(&T) -> usize) {
        assert_eq!(self.phase, Phase::Counting, "count after place");
        count_runs(&mut self.runs, chunk, key);
    }

    /// Placement phase: places one chunk of the input, which must
    /// arrive in the order and with the keys it was counted with. The
    /// first call ends counting.
    ///
    /// # Panics
    ///
    /// Panics after [`finish`](Self::finish), or if `key` returns a key
    /// outside `0..num_keys`.
    pub fn place(&mut self, chunk: impl IntoIterator<Item = T>, key: impl FnMut(&T) -> usize) {
        if self.phase == Phase::Counting {
            self.end_counting();
        }
        assert_eq!(self.phase, Phase::Placing, "place after finish");
        let slots = StatesPtr(self.out.spare_capacity_mut().as_mut_ptr());
        // SAFETY: `end_counting` reserved the total, and every run
        // ends at or below it; nothing else writes the slots.
        unsafe { place_runs(&mut self.runs, &slots, chunk, key) };
    }

    /// Prefix-sums the counts over (key, slice) into runs: key `k`'s
    /// run is its slices' runs back to back, in slice order, so a
    /// sliced placement lays records out exactly as a serial one.
    fn end_counting(&mut self) {
        let keys = self.offsets.len() - 1;
        let mut total = 0;
        for k in 0..keys {
            self.offsets[k] = total;
            for s in 0..self.slices {
                let run = &mut self.runs[s * keys + k];
                let count = run.next;
                run.next = total;
                total += count;
                run.end = total;
            }
        }
        self.offsets[keys] = total;
        self.out.reserve(total);
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
        let overfull = match self.phase {
            Phase::Placing => self.runs.iter().any(|run| run.next != run.end),
            Phase::Regrouping => true,
            Phase::Counting | Phase::Placed => false,
        };
        if overfull {
            return Err(Error::InvalidInput(
                "counting placement: placed keys differ from the counted ones".into(),
            ));
        }
        if self.phase == Phase::Placing {
            // SAFETY: `place_runs` wrote a record to a run's `next`
            // slot only while `next < end`, and advanced `next` for
            // every record, written or not. Every run's `next` started
            // at its first slot and now equals its end, so no record
            // was dropped and each run was written slot by slot from
            // start to end; the runs of all slices tile `0..total`, so
            // every slot below the new length was initialized. `out`
            // never reallocated in between: only `end_counting`
            // reserves, and it ran before the first write.
            unsafe { self.out.set_len(self.offsets[self.offsets.len() - 1]) };
            self.phase = Phase::Placed;
        }
        Ok((&self.out, &self.offsets))
    }

    /// Places a whole slice in one call and returns the placed records
    /// with their run offsets.
    ///
    /// With a `pool` the input is cut into `pool.workers() + 1`
    /// contiguous slices — fewer when a slice would hold fewer records
    /// than the pass has keys, so no slice's histogram outgrows its
    /// input. Each worker counts its slice into its own histogram; one
    /// prefix sum over (key, slice) gives every slice a disjoint
    /// sub-run inside each key's run; each worker places its slice
    /// there. No synchronization between the two barriers.
    ///
    /// Keys that outnumber the lines of a `cache_size`-byte cache (the
    /// in-memory engine's source-vertex keys) make one such pass lose
    /// its locality: every record lands in a random one of `num_keys`
    /// open runs. They are placed in two levels instead (§4.2's rule,
    /// two stages). Level 1 is the pass above keyed by `key >> low`:
    /// contiguous groups of `2^low` keys, at most the cache's lines of
    /// them, sized so an average group's records fill half the cache.
    /// In level 2 the workers claim groups; each copies its group into
    /// its own scratch window and places it back by the low bits, every
    /// write inside the group, and writes the group's offsets. Both
    /// levels are stable, so either way the output is the serial
    /// one-level placement's, bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if `key` returns a key outside `0..num_keys`, or keys on
    /// a later pass whose counts differ from the first pass's.
    pub fn place_slice(
        &mut self,
        input: &[T],
        num_keys: usize,
        pool: Option<&WorkerPool>,
        cache_size: usize,
        key: impl Fn(&T) -> usize + Sync,
    ) -> (&[T], &[usize]) {
        match group_bits(input.len(), num_keys, size_of::<T>(), cache_size) {
            None => self.place_sliced(input, num_keys, pool, &key),
            Some(low) => {
                let group_of = |r: &T| key(r) >> low;
                self.place_sliced(input, num_keys.div_ceil(1 << low), pool, &group_of);
                self.finish()
                    .expect("key must map a record to the same key on both passes");
                self.regroup(num_keys, low, pool, &key);
            }
        }
        self.finish()
            .expect("key must map a record to the same key on both passes")
    }

    /// One sliced count/place pass over `num_keys` keys, up to the
    /// check in `finish`.
    fn place_sliced<K: Fn(&T) -> usize + Sync>(
        &mut self,
        input: &[T],
        num_keys: usize,
        pool: Option<&WorkerPool>,
        key: &K,
    ) {
        let lanes = pool.map_or(1, |p| p.workers() + 1);
        let slices = lanes.min(input.len() / num_keys.max(1)).max(1);
        self.begin_sliced(num_keys, slices);
        let slice = |s: usize| &input[s * input.len() / slices..(s + 1) * input.len() / slices];
        let per_slice = |job: &(dyn Fn(usize) + Sync)| match pool {
            Some(pool) if slices > 1 => pool.run(job),
            _ => job(0),
        };
        // In both phases worker `s < slices` touches only its own
        // slice's runs, `s * num_keys..(s + 1) * num_keys`.
        let own = |s: usize| s * num_keys..(s + 1) * num_keys;
        let runs = StatesPtr(self.runs.as_mut_ptr());
        per_slice(&|s| {
            if s < slices {
                // SAFETY: a dispatch hands every id to exactly one
                // worker, and the ids pick disjoint ranges of `runs`.
                let runs = unsafe { runs.partition_slice_mut(own(s)) };
                count_runs(runs, slice(s).iter().copied(), key);
            }
        });
        self.end_counting();
        let runs = StatesPtr(self.runs.as_mut_ptr());
        let slots = StatesPtr(self.out.spare_capacity_mut().as_mut_ptr());
        per_slice(&|s| {
            if s < slices {
                // SAFETY: as above for the runs. `end_counting`
                // reserved the total, every run ends at or below it,
                // and the slices' runs are disjoint, so no two workers
                // write one slot.
                unsafe {
                    let runs = runs.partition_slice_mut(own(s));
                    place_runs(runs, &slots, slice(s).iter().copied(), key);
                }
            }
        });
    }

    /// The second level of a two-level placement, after the first has
    /// placed `out` by `key >> low` and left the group bounds in
    /// `offsets`: the workers claim groups, place each back by its low
    /// key bits and write its keys' offsets.
    fn regroup<K: Fn(&T) -> usize + Sync>(
        &mut self,
        num_keys: usize,
        low: u32,
        pool: Option<&WorkerPool>,
        key: &K,
    ) {
        let total = self.out.len();
        let width = 1usize << low;
        self.groups.clear();
        self.groups.extend_from_slice(&self.offsets);
        self.offsets.clear();
        self.offsets.resize(num_keys + 1, total);
        let num_groups = self.groups.len() - 1;
        let biggest = self.groups.windows(2).map(|g| g[1] - g[0]).max();
        let biggest = biggest.unwrap_or(0).max(1);
        // A lane per worker, each with a window for the biggest group,
        // but never more scratch than the input: a hot group is placed
        // by fewer lanes rather than copied once per worker.
        let lanes = pool.map_or(1, |p| p.workers() + 1);
        let lanes = lanes.min(num_groups).min(total / biggest).max(1);
        self.scratch.clear();
        self.scratch.reserve(lanes * biggest);
        self.group_runs.clear();
        self.group_runs.resize(lanes * width, Run::default());
        // SAFETY: the first level initialized all `total` slots, which
        // stay initialized: the second level only rewrites them. The
        // length comes back once every group is exactly full.
        unsafe { self.out.set_len(0) };
        self.phase = Phase::Regrouping;

        let next = AtomicUsize::new(0);
        let overfull = AtomicBool::new(false);
        let groups = &self.groups;
        let slots = StatesPtr(self.out.spare_capacity_mut().as_mut_ptr());
        let windows = StatesPtr(self.scratch.spare_capacity_mut().as_mut_ptr());
        let runs = StatesPtr(self.group_runs.as_mut_ptr());
        let offsets = StatesPtr(self.offsets.as_mut_ptr());
        let job = |lane: usize| {
            if lane >= lanes {
                return;
            }
            // SAFETY: a dispatch hands every id to exactly one worker,
            // and the lanes' runs and windows are disjoint ranges
            // inside `group_runs` and the scratch's capacity.
            let (runs, window) = unsafe {
                (
                    runs.partition_slice_mut(lane * width..(lane + 1) * width),
                    windows.partition_slice_mut(lane * biggest..(lane + 1) * biggest),
                )
            };
            loop {
                let g = next.fetch_add(1, Ordering::Relaxed);
                if g >= num_groups {
                    break;
                }
                let span = groups[g]..groups[g + 1];
                let keys = g * width..num_keys.min((g + 1) * width);
                // SAFETY: `fetch_add` hands each group to one worker, so
                // no other worker touches its slots or its keys'
                // offsets. The slots are initialized and lie below
                // `total`, inside `out`; the offsets lie inside
                // `offsets`; the window holds `biggest` slots.
                let full = unsafe {
                    let offsets = offsets.partition_slice_mut(keys.clone());
                    place_group(&slots, span, window, runs, keys, offsets, key)
                };
                if !full {
                    overfull.store(true, Ordering::Relaxed);
                }
            }
        };
        match pool {
            Some(pool) if lanes > 1 => pool.run(&job),
            _ => job(0),
        }
        if !overfull.into_inner() {
            // SAFETY: every group's runs ended exactly full, so each
            // group's slots were rewritten with its own records; all
            // `total` slots were initialized throughout, and `out` did
            // not reallocate.
            unsafe { self.out.set_len(total) };
            self.phase = Phase::Placed;
        }
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

/// log2 of the second-level group width for placing `records` records
/// of `size` bytes over `num_keys` keys with a `cache_size`-byte cache,
/// or `None` for one level: the keys fit the cache's lines, or groups
/// of two keys or more would not fit its scratch half. The width is
/// capped by the cache's lines, level 2's fan-out.
fn group_bits(records: usize, num_keys: usize, size: usize, cache_size: usize) -> Option<u32> {
    let lines = cache_size / CACHE_LINE;
    if num_keys <= lines || records == 0 {
        return None;
    }
    let per_group = cache_size / 2 / size.max(1);
    let width = (per_group.saturating_mul(num_keys) / records).min(lines);
    width.checked_ilog2().filter(|&bits| bits > 0)
}

/// Places one first-level group back by its keys: copies the group's
/// slots into `window`, counts the keys into `runs` and writes their
/// offsets, then places the copy into the group's slots. Returns
/// whether every run ended exactly full; a key outside `keys` panics.
///
/// # Safety
///
/// `span` must lie inside the allocation behind `slots` and hold
/// initialized records, `window` must hold at least `span.len()` slots,
/// `runs` at least `keys.len()` runs, and no other thread may access
/// the span's slots during the call.
unsafe fn place_group<T: Record>(
    slots: &StatesPtr<MaybeUninit<T>>,
    span: std::ops::Range<usize>,
    window: &mut [MaybeUninit<T>],
    runs: &mut [Run],
    keys: std::ops::Range<usize>,
    offsets: &mut [usize],
    key: impl Fn(&T) -> usize,
) -> bool {
    let window = &mut window[..span.len()];
    // SAFETY: the span's slots are inside the allocation and this
    // call's alone, per the contract; the borrow ends with the copy.
    window.copy_from_slice(unsafe { slots.partition_slice_mut(span.clone()) });
    // SAFETY: the window now holds copies of initialized records.
    let records = unsafe { &*(window as *const [MaybeUninit<T>] as *const [T]) };
    let runs = &mut runs[..keys.len()];
    runs.fill(Run::default());
    let local = |r: &T| key(r).wrapping_sub(keys.start);
    count_runs(runs, records.iter().copied(), local);
    let mut at = span.start;
    for (run, offset) in runs.iter_mut().zip(offsets) {
        *offset = at;
        let count = run.next;
        run.next = at;
        at += count;
        run.end = at;
    }
    // SAFETY: the runs tile `span` (their counts sum to its length), so
    // every write lands in the span, which is this call's alone; the
    // records are read from the window, not from the span.
    unsafe { place_runs(runs, slots, records.iter().copied(), local) };
    runs.iter().all(|run| run.next == run.end)
}

/// Counts each record's key into one slice's runs (`runs[key].next`).
/// Panics on a key outside the slice's runs.
#[inline]
fn count_runs<T>(
    runs: &mut [Run],
    input: impl IntoIterator<Item = T>,
    mut key: impl FnMut(&T) -> usize,
) {
    for r in input {
        runs[key(&r)].next += 1;
    }
}

/// Places each record at its key's next slot in one slice's runs,
/// provided that slot is still inside the run. A record past its run's
/// end is dropped but still advances the run, so
/// [`CountingPlacement::finish`] sees the run overfull. Panics on a key
/// outside the slice's runs.
///
/// # Safety
///
/// Every run's slots must lie inside the allocation behind `slots`,
/// and no other thread may access them during the call.
#[inline]
unsafe fn place_runs<T>(
    runs: &mut [Run],
    slots: &StatesPtr<MaybeUninit<T>>,
    input: impl IntoIterator<Item = T>,
    mut key: impl FnMut(&T) -> usize,
) {
    for r in input {
        let run = &mut runs[key(&r)];
        if run.next < run.end {
            let slot = run.next..run.next + 1;
            // SAFETY: `next < end`, so the slot is inside the
            // allocation and this call's alone, per the contract.
            unsafe { slots.partition_slice_mut(slot)[0].write(r) };
        }
        run.next += 1;
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

    /// Number of first-stage digit groups: the fan-out of the stage
    /// fused into scatter.
    #[inline]
    pub fn fan0(&self) -> usize {
        self.padded_partitions >> self.shift0()
    }

    /// First-stage digit of `partition`.
    #[inline]
    pub fn digit0(&self, partition: usize) -> usize {
        partition >> self.shift0()
    }

    /// Right shift from a partition id to its first-stage digit.
    #[inline]
    pub(crate) fn shift0(&self) -> u32 {
        self.total_bits.saturating_sub(self.fanout_bits)
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
/// Owned-`Vec` convenience wrapper over the [`UpdateLayout`] core: it
/// counts `input` into exact regions, lays it out as one task's
/// regions (the first stage fused into the write loop), frees it, runs
/// the remaining stages and moves the final buffer out. Hot paths that
/// shuffle every iteration should hold an `UpdateLayout` instead and
/// skip the setup allocations.
///
/// `key` must return a partition id below `plan.padded_partitions`.
pub fn multistage_shuffle<T: Record>(
    input: Vec<T>,
    plan: MultiStagePlan,
    key: impl Fn(&T) -> usize + Sync,
) -> StreamBuffer<T> {
    if plan.total_bits == 0 {
        return StreamBuffer::single_chunk(input);
    }
    UpdateLayout::of_records(input, plan, key).into_stream_buffer()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::AssertUnwindSafe;

    /// A cache that keeps the tests' few keys in one level.
    const CACHE: usize = 2 << 20;

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
        if !xstream_core::alloc_stats::run_alone(
            module_path!(),
            "placement_reuse_is_stable_and_allocation_free",
        ) {
            return;
        }
        // 16 keys take one level; 4096 keys over a 16 KiB cache (256
        // lines) take two, with 16 groups of 256 keys.
        let input: Vec<u32> = (0..4_000u32).map(|i| i.wrapping_mul(48_271)).collect();
        for (k, cache, groups) in [(16usize, CACHE, 0usize), (4096, 16 << 10, 17)] {
            let key = |r: &u32| *r as usize % k;
            let mut placement = CountingPlacement::default();
            placement.place_slice(&input, k, None, cache, key);
            assert_eq!(placement.groups.len(), groups, "{k} keys");
            let clean_window = xstream_core::alloc_stats::any_allocation_free_window(50, || {
                placement.place_slice(&input, k, None, cache, key);
            });
            assert!(clean_window, "placement reuse allocated in every window");
            let (placed, offsets) = placement.finish().unwrap();
            for p in 0..k {
                let in_order: Vec<u32> = input.iter().copied().filter(|r| key(r) == p).collect();
                assert_eq!(
                    &placed[offsets[p]..offsets[p + 1]],
                    &in_order[..],
                    "{k} keys, chunk {p}"
                );
            }
        }
    }

    #[test]
    fn a_key_that_changes_between_passes_never_writes_outside_its_run() {
        // The key function answers `r % 8` while counting and 0 while
        // placing, so every slice pushes all its records at key 0's
        // run. Serial or sliced, each write must stay inside its own
        // run and the placement must fail: the slots outside key 0's
        // run keep the sentinel an earlier placement left there.
        let n = 10_000usize;
        let input: Vec<u32> = (0..n as u32).collect();
        let pool = WorkerPool::new(3);
        for pool in [None, Some(&pool)] {
            let mut placement = CountingPlacement::default();
            placement.place_slice(&vec![u32::MAX; n], 1, None, CACHE, |_| 0);
            let calls = AtomicUsize::new(0);
            let key = |r: &u32| {
                if calls.fetch_add(1, Ordering::Relaxed) < n {
                    *r as usize % 8
                } else {
                    0
                }
            };
            let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
                placement.place_slice(&input, 8, pool, CACHE, key);
            }));
            assert!(outcome.is_err(), "a lying key must fail the placement");
            assert_eq!(calls.load(Ordering::Relaxed), 2 * n);
            assert!(
                placement.out.is_empty(),
                "a failed placement exposes no records"
            );
            assert!(placement.out.capacity() >= n);
            // SAFETY: the first placement initialized all `n` slots,
            // and `out` has not reallocated since.
            let slots = unsafe { std::slice::from_raw_parts(placement.out.as_ptr(), n) };
            let key0_end = placement.offsets[1];
            assert!(slots[..key0_end].iter().all(|&r| r != u32::MAX));
            assert!(
                slots[key0_end..].iter().all(|&r| r == u32::MAX),
                "a record was written outside key 0's run"
            );
        }

        // Two levels: 4096 keys over a 16 KiB cache make 16 groups of
        // 256 keys, and the key passes are level 1's count and place,
        // then level 2's count and place. A key that turns to 0 on
        // level 1's place fails level 1 with every write inside group
        // 0's run. One that turns to its group's first key for level
        // 2's count or for its place fails level 2 with every write
        // inside its own group: each group's slots hold only that
        // group's records.
        let (k, cache, low) = (4096usize, 16 << 10, 8);
        let group_of = |r: u32| (r as usize % k) >> low;
        for lie_from in [n, 2 * n, 3 * n] {
            for pool in [None, Some(&pool)] {
                let mut placement = CountingPlacement::default();
                placement.place_slice(&vec![u32::MAX; n], 1, None, cache, |_| 0);
                let calls = AtomicUsize::new(0);
                let key = |r: &u32| {
                    let truth = *r as usize % k;
                    match calls.fetch_add(1, Ordering::Relaxed) {
                        c if !(lie_from..lie_from + n).contains(&c) => truth,
                        _ if lie_from == n => 0,
                        _ => truth >> low << low,
                    }
                };
                let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
                    placement.place_slice(&input, k, pool, cache, key);
                }));
                assert!(outcome.is_err(), "lying from call {lie_from}: not failed");
                assert!(
                    placement.out.is_empty(),
                    "a failed placement exposes no records"
                );
                assert!(
                    placement.finish().is_err(),
                    "a failed placement stays failed"
                );
                // SAFETY: the first placement initialized all `n` slots,
                // and `out` has not reallocated since.
                let slots = unsafe { std::slice::from_raw_parts(placement.out.as_ptr(), n) };
                if lie_from == n {
                    assert_eq!(placement.offsets.len(), 17, "level 1 keys the groups");
                    let group0_end = placement.offsets[1];
                    assert!(slots[..group0_end].iter().all(|&r| r != u32::MAX));
                    assert!(
                        slots[group0_end..].iter().all(|&r| r == u32::MAX),
                        "a record was written outside group 0's run"
                    );
                } else {
                    assert_eq!(placement.groups.len(), 17);
                    for g in 0..16 {
                        let span = placement.groups[g]..placement.groups[g + 1];
                        assert!(
                            slots[span].iter().all(|&r| group_of(r) == g),
                            "lying from call {lie_from}: a record left group {g}"
                        );
                    }
                }
            }
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
