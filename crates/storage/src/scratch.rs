//! Iteration-persistent update buffers: the memory behind the
//! zero-allocation scatter → shuffle → gather pipeline (paper §4.2,
//! Fig. 7).
//!
//! Each engine owns its update buffers and reuses them across
//! iterations, so allocation and page-fault traffic do not compete
//! with the memory bandwidth the streaming shuffle is designed to use.
//! The two engines need different disciplines:
//!
//! * [`UpdateLayout`] — the in-memory engine's **static update
//!   layout**. Each superstep an edge emits at most one update, to its
//!   destination's partition, so the shuffle's counts are bounded by
//!   the edge list and can be laid out once, at build. The K source
//!   partitions are cut into T contiguous scatter *tasks*; the count
//!   of task `t`'s edges whose destination partition has first radix
//!   digit `d` becomes region `(t, d)` of one buffer of `|E|` slots,
//!   with the regions in digit-major order. Scatter writes every update
//!   at its region's cursor — the first shuffle stage fused into
//!   scatter — and gather reads partition `q`'s regions `(0, q)` …
//!   `(T-1, q)` in order. A multi-stage plan runs its remaining radix
//!   passes per digit group over the filled region prefixes,
//!   ping-ponging between the region buffer and one stage buffer of the
//!   same size. Nothing grows and nothing is mirrored, every superstep
//!   is allocation-free from the first, and each chunk holds its
//!   updates in (source partition, edge position) order whatever the
//!   thread count, steal schedule or plan.
//! * [`ShuffleScratch`]/[`ShufflePool`] — the out-of-core engine's
//!   per-worker fan-out buckets, one per partition. That engine spills
//!   whenever its buffers reach the memory budget, so the buckets grow
//!   on demand, and an adaptive [`CapacityPolicy`] mirrors high-water
//!   marks across worker slices between supersteps; a steady-state
//!   superstep then performs no heap allocation either (observable
//!   through [`xstream_core::alloc_stats`]).

use std::iter;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use crate::pool::{PerWorkerPtr, StatesPtr, WorkerPool};
use crate::shuffle::MultiStagePlan;
use crate::StreamBuffer;
use parking_lot::Mutex;
use xstream_core::record::zeroed_records;
use xstream_core::Record;

/// Pre-faults the spare capacity of `v` by writing zero bytes over it,
/// so the backing pages are first touched — and on a NUMA system,
/// placed — by the calling thread rather than by whichever thread
/// happened to trigger the allocation. Sound because the spare region
/// is allocated-but-uninitialized memory that `Vec` never reads.
fn prefault_spare<T>(v: &mut Vec<T>) {
    let len = v.len();
    let spare = v.capacity() - len;
    if spare == 0 {
        return;
    }
    // SAFETY: `len..capacity` lies inside the vector's allocation and
    // holds no initialized `T`s that anyone may read; writing raw
    // zero bytes there cannot invalidate the vector's state.
    unsafe {
        std::ptr::write_bytes(
            v.as_mut_ptr().add(len).cast::<u8>(),
            0,
            spare * std::mem::size_of::<T>(),
        );
    }
}

/// Stable counting sort of one digit group over one radix digit: routes
/// the records of `pieces`, read back to back, into `fan` sub-chunks of
/// `out[base..]`, appending the `fan` new chunk boundaries to `bounds`.
///
/// This is the kernel of every multi-stage shuffle pass (`fan` must be
/// a power of two — the digit is a shift+mask of `key`). A `key` that
/// answers differently on its two passes misplaces records but never
/// writes outside `out`.
#[allow(clippy::too_many_arguments)]
fn radix_place_group<'a, T: Record>(
    pieces: impl Iterator<Item = &'a [T]> + Clone,
    base: usize,
    fan: usize,
    shift: u32,
    counts: &mut [usize],
    bounds: &mut Vec<usize>,
    out: &mut [T],
    key: &impl Fn(&T) -> usize,
) {
    let counts = &mut counts[..fan + 1];
    counts.fill(0);
    for rec in pieces.clone().flatten() {
        counts[((key(rec) >> shift) & (fan - 1)) + 1] += 1;
    }
    for i in 0..fan {
        counts[i + 1] += counts[i];
    }
    bounds.extend(counts[1..=fan].iter().map(|&c| base + c));
    let cursor = counts;
    for rec in pieces.flatten() {
        let digit = (key(rec) >> shift) & (fan - 1);
        out[base + cursor[digit]] = *rec;
        cursor[digit] += 1;
    }
}

/// One region's write cursor.
#[derive(Debug, Clone, Copy, Default)]
struct Cursor {
    /// The next free slot.
    next: usize,
    /// One past the region's last slot.
    end: usize,
}

/// Cursors of gap before each task's row of cursors and after the last
/// one: a cache line, so two workers' rows never share a line, nor does
/// a row share one with a neighbouring allocation (false sharing on the
/// scatter hot path).
const GAP: usize = 64 / std::mem::size_of::<Cursor>();

/// First cursor of task `t`'s row.
fn cursor(t: usize, fan0: usize) -> usize {
    GAP + t * (fan0 + GAP)
}

/// One worker's count and boundary arrays for the multi-stage passes,
/// sized at build.
#[derive(Debug, Default)]
struct PassScratch {
    counts: Vec<usize>,
    cur: Vec<usize>,
    next: Vec<usize>,
}

/// The static update layout of the in-memory engine (see the module
/// docs): exact per-(task, digit) regions in one buffer, plus the
/// multi-stage passes over them.
#[derive(Debug)]
pub struct UpdateLayout<T> {
    plan: MultiStagePlan,
    tasks: usize,
    fan0: usize,
    /// First slot of region `(t, d)` at `t * fan0 + d`.
    starts: Vec<usize>,
    /// Write cursor of region `(t, d)` at `cursor(t, fan0) + d`; slots
    /// `start..next` hold the updates of the last superstep. A task's
    /// row is rewound by the worker that claims it.
    cursors: Vec<Cursor>,
    /// Whether task `t` was handed out since the last
    /// [`writer`](Self::writer); [`finish`](Self::finish) empties the
    /// regions of the tasks that were not.
    claimed: Vec<AtomicBool>,
    /// Digit group `d` owns slots `groups[d]..groups[d + 1]` of both
    /// buffers: its regions, and its multi-stage pass outputs.
    groups: Vec<usize>,
    /// The update slots, zeroed at build and first touched by scatter.
    regions: Vec<T>,
    /// The second stage buffer of a multi-stage plan (empty otherwise).
    stage: Vec<T>,
    /// Multi-stage final chunk bounds: group `d`'s `sub + 1` boundaries
    /// start at `d * (sub + 1)`, `sub` partitions per group.
    bounds: Vec<usize>,
    /// Radix passes after the fused one; the last lands in `stage` when
    /// odd, in `regions` when even.
    passes: u32,
    /// Whether [`finish`](Self::finish) ran since the last writer.
    finished: bool,
    /// One pass scratch per worker lane.
    lanes: Vec<Mutex<PassScratch>>,
}

impl<T: Record> UpdateLayout<T> {
    /// Lays out the regions of `tasks` scatter tasks under `plan` for
    /// `counts[t * plan.fan0() + d]` updates of task `t` with
    /// first-stage digit `d`, with pass scratch for `lanes` workers.
    /// The counts become the region starts in place; the update
    /// buffers are allocated here but not written.
    ///
    /// # Panics
    ///
    /// Panics if `counts` does not hold `tasks * plan.fan0()` entries.
    pub fn new(plan: MultiStagePlan, tasks: usize, counts: Vec<usize>, lanes: usize) -> Self {
        let tasks = tasks.max(1);
        let fan0 = plan.fan0();
        assert_eq!(counts.len(), tasks * fan0, "one count per (task, digit)");
        let mut starts = counts;
        let mut cursors = vec![Cursor::default(); cursor(tasks, fan0)];
        let mut groups = Vec::with_capacity(fan0 + 1);
        let mut total = 0;
        for d in 0..fan0 {
            groups.push(total);
            for t in 0..tasks {
                let start = total;
                total += std::mem::replace(&mut starts[t * fan0 + d], start);
                cursors[cursor(t, fan0) + d] = Cursor {
                    next: start,
                    end: total,
                };
            }
        }
        groups.push(total);
        let passes = plan.stages.saturating_sub(1);
        let multi = passes > 0;
        let sub = plan.padded_partitions / fan0;
        let fan = 1usize << plan.fanout_bits;
        let lanes = (0..if multi { lanes.max(1) } else { 0 })
            .map(|_| {
                Mutex::new(PassScratch {
                    counts: vec![0; fan + 1],
                    cur: Vec::with_capacity(sub + 1),
                    next: Vec::with_capacity(sub + 1),
                })
            })
            .collect();
        Self {
            plan,
            tasks,
            fan0,
            starts,
            cursors,
            claimed: (0..tasks).map(|_| AtomicBool::new(false)).collect(),
            groups,
            regions: zeroed_records(total),
            stage: if multi {
                zeroed_records(total)
            } else {
                Vec::new()
            },
            bounds: if multi {
                vec![0; fan0 * (sub + 1)]
            } else {
                Vec::new()
            },
            passes,
            finished: true,
            lanes,
        }
    }

    /// A one-task layout holding `input`, routed by `key` (a partition
    /// below `plan.padded_partitions`) and finished: the owned-input
    /// path of [`multistage_shuffle`](crate::shuffle::multistage_shuffle)
    /// and of tests. Counts the input once to size the regions, and
    /// frees it before the remaining passes run.
    pub fn of_records(
        input: Vec<T>,
        plan: MultiStagePlan,
        key: impl Fn(&T) -> usize + Sync,
    ) -> Self {
        let mut counts = vec![0; plan.fan0()];
        for r in &input {
            counts[plan.digit0(key(r))] += 1;
        }
        let mut layout = Self::new(plan, 1, counts, 1);
        layout.write(&input, &key);
        drop(input);
        layout.finish(None, &key);
        layout
    }

    /// Rewrites the layout with `input` as task 0's updates, then runs
    /// the remaining passes.
    ///
    /// # Panics
    ///
    /// Panics if the layout has more than one task or `input` overfills
    /// a region.
    pub fn fill(&mut self, input: &[T], key: &(impl Fn(&T) -> usize + Sync)) {
        self.write(input, key);
        self.finish(None, key);
    }

    /// Rewrites the layout with `input` as task 0's updates.
    fn write(&mut self, input: &[T], key: &impl Fn(&T) -> usize) {
        assert_eq!(self.tasks, 1, "fill writes task 0 only");
        let writer = self.writer();
        let mut task = writer.task(0);
        for r in input {
            task.push(*r, key(r));
        }
    }

    /// Number of scatter tasks.
    #[inline]
    pub fn tasks(&self) -> usize {
        self.tasks
    }

    /// Radix passes that run after the fused first stage.
    #[inline]
    pub fn passes(&self) -> u32 {
        self.passes
    }

    /// Update slots: the sum of the counts.
    #[inline]
    pub fn region_slots(&self) -> usize {
        self.regions.len()
    }

    /// Slots of both buffers.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.regions.len() + self.stage.len()
    }

    /// Updates written since the last [`writer`](Self::writer): a scan
    /// over every region (the engine counts its updates as it writes
    /// them instead).
    pub fn len(&self) -> usize {
        (0..self.tasks)
            .flat_map(|t| (0..self.fan0).map(move |d| (t, d)))
            .map(|(t, d)| {
                self.cursors[cursor(t, self.fan0) + d].next - self.starts[t * self.fan0 + d]
            })
            .sum()
    }

    /// Whether no update was written since the last
    /// [`writer`](Self::writer).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns the superstep's writer. Each task's regions are emptied
    /// when the writer hands the task out, or else by
    /// [`finish`](Self::finish).
    pub fn writer(&mut self) -> LayoutWriter<'_, T> {
        for claimed in &mut self.claimed {
            *claimed.get_mut() = false;
        }
        self.finished = false;
        LayoutWriter {
            slots: StatesPtr(self.regions.as_mut_ptr()),
            cursors: StatesPtr(self.cursors.as_mut_ptr()),
            starts: &self.starts,
            claimed: &self.claimed,
            shift: self.plan.shift0(),
            fan0: self.fan0,
        }
    }

    /// Runs the remaining radix passes of a multi-stage plan, one digit
    /// group at a time on the pool's workers (a group's passes stay
    /// inside its own slots, so groups need no barrier). `key` maps an
    /// update to the partition it was written for. After this,
    /// [`runs`](Self::runs) serves the chunks.
    pub fn finish(&mut self, pool: Option<&WorkerPool>, key: &(impl Fn(&T) -> usize + Sync)) {
        self.finished = true;
        for t in 0..self.tasks {
            if !*self.claimed[t].get_mut() {
                let row = cursor(t, self.fan0);
                let starts = &self.starts[t * self.fan0..(t + 1) * self.fan0];
                rewind(&mut self.cursors[row..row + self.fan0], starts);
            }
        }
        if self.passes == 0 {
            return;
        }
        let Self {
            plan,
            tasks,
            fan0,
            starts,
            cursors,
            groups,
            regions,
            stage,
            bounds,
            lanes,
            ..
        } = self;
        let (plan, tasks, fan0) = (*plan, *tasks, *fan0);
        let sub = plan.padded_partitions / fan0;
        let next_group = AtomicUsize::new(0);
        let regions_ptr = StatesPtr(regions.as_mut_ptr());
        let stage_ptr = StatesPtr(stage.as_mut_ptr());
        let bounds_ptr = StatesPtr(bounds.as_mut_ptr());
        let job = |lane: usize| {
            let mut scratch = lanes[lane].lock();
            loop {
                let d = next_group.fetch_add(1, Ordering::Relaxed);
                if d >= fan0 {
                    break;
                }
                let slots = groups[d]..groups[d + 1];
                let base = slots.start;
                // SAFETY: `fetch_add` hands each group to one worker,
                // and the groups' slot ranges and bounds rows are
                // disjoint and inside their buffers.
                let (regions, stage, out) = unsafe {
                    (
                        regions_ptr.partition_slice_mut(slots.clone()),
                        stage_ptr.partition_slice_mut(slots),
                        bounds_ptr.partition_slice_mut(d * (sub + 1)..(d + 1) * (sub + 1)),
                    )
                };
                let filled = (0..tasks)
                    .map(|t| starts[t * fan0 + d] - base..cursors[cursor(t, fan0) + d].next - base);
                shuffle_group(plan, filled, regions, stage, &mut scratch, key);
                for (o, &c) in out.iter_mut().zip(&scratch.cur) {
                    *o = base + c;
                }
            }
        };
        match pool {
            Some(pool) => pool.run(&job),
            None => job(0),
        }
    }

    /// The updates of partition `p` in (source partition, edge
    /// position) order, as runs of slots.
    ///
    /// # Panics
    ///
    /// Panics before [`finish`](Self::finish), or if `p` is not below
    /// the plan's padded partition count.
    pub fn runs(&self, p: usize) -> impl Iterator<Item = &[T]> + '_ {
        assert!(self.finished, "update runs read before finish");
        let (staged, tasks) = if self.passes > 0 {
            let sub = self.plan.padded_partitions / self.fan0;
            let row = p / sub * (sub + 1) + p % sub;
            let buf = if self.passes % 2 == 1 {
                &self.stage
            } else {
                &self.regions
            };
            (Some(&buf[self.bounds[row]..self.bounds[row + 1]]), 0)
        } else {
            (None, self.tasks)
        };
        staged.into_iter().chain((0..tasks).map(move |t| {
            &self.regions
                [self.starts[t * self.fan0 + p]..self.cursors[cursor(t, self.fan0) + p].next]
        }))
    }

    /// Moves the chunks out into an owned [`StreamBuffer`] of
    /// `padded_partitions` chunks, without copying: a layout whose
    /// regions are all full holds each chunk contiguously in its final
    /// buffer.
    ///
    /// # Panics
    ///
    /// Panics before [`finish`](Self::finish) or if some region is not
    /// full.
    pub fn into_stream_buffer(self) -> StreamBuffer<T> {
        assert!(self.finished, "update runs read before finish");
        assert_eq!(self.len(), self.regions.len(), "every region must be full");
        if self.passes == 0 {
            return StreamBuffer::from_grouped(self.regions, self.groups);
        }
        let sub = self.plan.padded_partitions / self.fan0;
        let mut offsets: Vec<usize> = self
            .bounds
            .chunks(sub + 1)
            .flat_map(|group| &group[..sub])
            .copied()
            .collect();
        offsets.push(self.regions.len());
        let data = if self.passes % 2 == 1 {
            self.stage
        } else {
            self.regions
        };
        StreamBuffer::from_grouped(data, offsets)
    }
}

/// Rewinds a task's cursor row to its region starts.
fn rewind(row: &mut [Cursor], starts: &[usize]) {
    for (c, &start) in row.iter_mut().zip(starts) {
        c.next = start;
    }
}

/// The remaining radix passes of one digit group: pass 1 reads the
/// `filled` region prefixes of `regions` into `stage`, and later passes
/// alternate `stage` → `regions` → `stage` …, each over the previous
/// pass's sub-chunks. Leaves the group's `sub + 1` chunk bounds,
/// relative to its first slot, in `scratch.cur`.
fn shuffle_group<T: Record>(
    plan: MultiStagePlan,
    filled: impl Iterator<Item = Range<usize>> + Clone,
    regions: &mut [T],
    stage: &mut [T],
    scratch: &mut PassScratch,
    key: &impl Fn(&T) -> usize,
) {
    let PassScratch { counts, cur, next } = scratch;
    let mut bits = plan.fanout_bits.min(plan.total_bits);
    let mut pass = 0u32;
    while bits < plan.total_bits {
        let step = plan.fanout_bits.min(plan.total_bits - bits);
        let shift = plan.total_bits - bits - step;
        let fan = 1usize << step;
        next.clear();
        next.push(0);
        if pass == 0 {
            let pieces = filled.clone().map(|r| &regions[r]);
            radix_place_group(pieces, 0, fan, shift, counts, next, stage, key);
        } else {
            let (src, dst) = if pass % 2 == 1 {
                (&*stage, &mut *regions)
            } else {
                (&*regions, &mut *stage)
            };
            for w in cur.windows(2) {
                let piece = iter::once(&src[w[0]..w[1]]);
                radix_place_group(piece, w[0], fan, shift, counts, next, dst, key);
            }
        }
        std::mem::swap(cur, next);
        bits += step;
        pass += 1;
    }
}

/// One superstep's scatter handle on an [`UpdateLayout`]: hands each
/// task's regions to one worker.
pub struct LayoutWriter<'a, T> {
    slots: StatesPtr<T>,
    cursors: StatesPtr<Cursor>,
    starts: &'a [usize],
    claimed: &'a [AtomicBool],
    shift: u32,
    fan0: usize,
}

impl<T: Record> LayoutWriter<'_, T> {
    /// The writer of task `t`'s regions, emptied.
    ///
    /// # Panics
    ///
    /// Panics if `t` is out of range or was already handed out by this
    /// writer.
    pub fn task(&self, t: usize) -> TaskWriter<'_, T> {
        assert!(
            !self.claimed[t].swap(true, Ordering::Relaxed),
            "task {t} handed out twice in one superstep"
        );
        // SAFETY: the claim above hands row `t` out once per writer,
        // and the rows are disjoint and inside `cursors`.
        let row = unsafe {
            let row = cursor(t, self.fan0);
            self.cursors.partition_slice_mut(row..row + self.fan0)
        };
        rewind(row, &self.starts[t * self.fan0..(t + 1) * self.fan0]);
        TaskWriter {
            row,
            slots: self.slots.0,
            shift: self.shift,
        }
    }
}

/// One task's scatter output: a write cursor per first-stage digit.
pub struct TaskWriter<'a, T> {
    row: &'a mut [Cursor],
    /// The region buffer.
    slots: *mut T,
    /// Right shift from a partition id to its first-stage digit.
    shift: u32,
}

impl<T: Record> TaskWriter<'_, T> {
    /// Writes `record`, addressed to `partition`, at the cursor of its
    /// first-stage digit's region.
    ///
    /// # Panics
    ///
    /// Panics, before writing, if the region is full (the layout's
    /// counts undercount this task's updates) or `partition` is not
    /// below the plan's padded partition count.
    #[inline]
    pub fn push(&mut self, record: T, partition: usize) {
        let c = &mut self.row[partition >> self.shift];
        let next = c.next;
        if next >= c.end {
            region_full(partition);
        }
        // SAFETY: `next < end`, the region lies inside the buffer, and
        // the regions of a task are its writer's alone: regions are
        // disjoint and `LayoutWriter::task` hands each task out once.
        unsafe { self.slots.add(next).write(record) };
        c.next = next + 1;
    }
}

#[cold]
#[inline(never)]
fn region_full(partition: usize) -> ! {
    panic!("update region for partition {partition} is full: the layout undercounts its updates")
}

/// Pooled, reusable fan-out buckets of one worker of the out-of-core
/// engine: one append bucket per partition.
#[derive(Debug)]
pub struct ShuffleScratch<T> {
    /// One append bucket per partition; capacity persists across
    /// iterations.
    buckets: Vec<Vec<T>>,
    /// Buckets in use since the last `begin`.
    chunks: usize,
    /// Total records pushed since the last `begin`.
    len: usize,
    /// Max records resident at any `begin` since the last
    /// [`take_high_water`](Self::take_high_water) (plus the current
    /// `len`): the fill-level observation the adaptive capacity policy
    /// is driven by. Maintained off the hot path — `push` never
    /// touches it.
    high_water: usize,
    /// Set by [`take_high_water`](Self::take_high_water), cleared by
    /// [`begin`](Self::begin): the current `len` has already been
    /// reported, so the next superstep's first rearm must not fold it
    /// in again (it would double-count one superstep's demand and
    /// delay the adaptive budget's decay by a superstep).
    harvested: bool,
}

impl<T: Record> ShuffleScratch<T> {
    /// An empty scratch; buckets are grown on first use and then
    /// retained.
    pub fn new() -> Self {
        Self {
            buckets: Vec::new(),
            chunks: 0,
            len: 0,
            high_water: 0,
            harvested: false,
        }
    }

    /// Rearms the scratch for `chunks` partitions: clears the buckets
    /// (keeping their capacity). Allocates only when `chunks` grew past
    /// anything seen before.
    pub fn begin(&mut self, chunks: usize) {
        if self.buckets.len() < chunks {
            self.buckets.resize_with(chunks, Vec::new);
        }
        self.chunks = chunks;
        for b in &mut self.buckets[..chunks] {
            b.clear();
        }
        // A rearm discards the previous fill; fold it into the
        // high-water mark first (spilling engines rearm mid-superstep,
        // and those fills are exactly the capacity demand the adaptive
        // policy must see) — unless that fill was already harvested at
        // the end of the previous superstep.
        if !self.harvested {
            self.high_water = self.high_water.max(self.len);
        }
        self.harvested = false;
        self.len = 0;
    }

    /// Max records this slice held at any point since the last call
    /// (including the current fill), resetting the mark. The current
    /// fill is marked as reported so the next
    /// [`begin`](Self::begin) does not fold it in a second time.
    pub fn take_high_water(&mut self) -> usize {
        let hw = self.high_water.max(self.len);
        self.high_water = 0;
        self.harvested = true;
        hw
    }

    /// Appends one record addressed at `partition`.
    ///
    /// # Panics
    ///
    /// Panics if `partition` is not below the number of buckets ever
    /// rearmed.
    #[inline]
    pub fn push(&mut self, record: T, partition: usize) {
        debug_assert!(
            partition < self.chunks,
            "partition {partition} out of {}",
            self.chunks
        );
        self.buckets[partition].push(record);
        self.len += 1;
    }

    /// Records pushed since the last [`begin`](Self::begin).
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no records were pushed since the last
    /// [`begin`](Self::begin).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of partition buckets in use.
    #[inline]
    pub fn num_chunks(&self) -> usize {
        self.chunks
    }

    /// The records pushed for partition `p` since the last
    /// [`begin`](Self::begin).
    ///
    /// # Panics
    ///
    /// Panics if `p >= num_chunks()`.
    #[inline]
    pub fn chunk(&self, p: usize) -> &[T] {
        &self.buckets[..self.chunks][p]
    }

    /// Capacity of bucket `g` (for cross-slice capacity equalization).
    #[inline]
    pub fn bucket_capacity(&self, g: usize) -> usize {
        self.buckets.get(g).map_or(0, Vec::capacity)
    }

    /// Grows *and shrinks* this slice toward the equalized capacity
    /// targets: each bucket `g` is reserved up to `targets[g]`
    /// (first-touch pre-faulting any new pages when `first_touch`, so
    /// a pinned owning worker places them on its node), and a bucket
    /// holding more than [`SHRINK_HYSTERESIS`]× its target is shrunk
    /// back to it — the ratchet-down half of the adaptive policy,
    /// releasing skew-era pages once the decaying budget has moved on.
    /// Shrinking never drops below the current fill.
    pub fn apply_capacity_targets(&mut self, targets: &[usize], first_touch: bool) {
        for (b, &cap) in self.buckets.iter_mut().zip(targets) {
            if b.capacity() < cap {
                b.reserve(cap - b.len());
                if first_touch {
                    prefault_spare(b);
                }
            } else if b.capacity() > cap.saturating_mul(SHRINK_HYSTERESIS) {
                b.shrink_to(cap.max(b.len()));
            }
        }
    }

    /// Total records of capacity currently held by this slice — the
    /// residency denominator.
    pub fn capacity_records(&self) -> usize {
        self.buckets.iter().map(Vec::capacity).sum()
    }
}

impl<T: Record> Default for ShuffleScratch<T> {
    fn default() -> Self {
        Self::new()
    }
}

/// A bucket is shrunk only when its capacity exceeds
/// this multiple of its target — hysteresis that keeps ordinary
/// superstep-to-superstep load variance (work stealing moves partitions
/// between slices every iteration) from turning into a
/// shrink/re-reserve oscillation, which would break the allocation-free
/// steady state.
pub const SHRINK_HYSTERESIS: usize = 2;

/// Adaptive per-slice capacity budget (ROADMAP's "capacity-equalization
/// policy" item): replaces the static 2×-fair-share budget with
/// envelopes of the *observed* demand.
///
/// Two fast-attack / slow-decay envelopes are maintained over recent
/// supersteps: the total records buffered per superstep (`demand`) and
/// the max records any one slice buffered (`peak` — the direct measure
/// of steal imbalance: under uniform stealing it sits near the fair
/// share, under skew it approaches the total). The per-slice budget is
/// the peak envelope plus headroom:
///
/// * **skewed** supersteps raise `peak` instantly (fast attack), so
///   every slice may mirror up to the observed peak at once — the
///   heavy partition can migrate to any slice next superstep, and
///   capping below the peak is what caused the old policy's repeated
///   re-allocation ("ratcheting") on whichever slice inherited it;
/// * **uniform** supersteps leave `peak ≈ demand / slices`, so the
///   budget sits near 1.25× fair share — tighter than the old 2×,
///   avoiding the over-mirror;
/// * when skew **subsides**, both envelopes decay by
///   [`CAPACITY_DECAY`] per superstep and the budget ratchets back
///   down within a few supersteps; the equalization pass then
///   *shrinks* buckets holding more than [`SHRINK_HYSTERESIS`]× their
///   target, actually releasing the skew-era memory.
///
/// With a steady workload both envelopes converge to the per-superstep
/// sample, the budget and targets become constants, and the
/// equalization pass performs no allocation — preserving the pooled
/// pipeline's zero-allocation steady state (asserted by the alloc
/// steady-state tests at 1/2/4 threads, pinning on and off).
#[derive(Debug, Clone)]
pub struct CapacityPolicy {
    /// Envelope of total records buffered per superstep.
    demand: f64,
    /// Envelope of the max records buffered by any one slice.
    peak: f64,
    /// Multiplier over the peak envelope (room for next superstep to
    /// run slightly hotter than anything in the window).
    headroom: f64,
    /// Budget floor in records, so tiny runs never thrash.
    floor: usize,
}

/// Per-superstep decay of the demand/peak envelopes: an envelope
/// halves in ~2 supersteps once the load that set it disappears, so a
/// transient skew stops holding memory almost immediately while still
/// bridging the gap between consecutive skewed supersteps.
pub const CAPACITY_DECAY: f64 = 0.7;

impl CapacityPolicy {
    /// A fresh policy with the default headroom (1.25×) and floor
    /// (64 Ki records — the old static policy's floor, kept so small
    /// runs never thrash).
    pub fn new() -> Self {
        Self {
            demand: 0.0,
            peak: 0.0,
            headroom: 1.25,
            floor: 64 * 1024,
        }
    }

    /// Feeds one superstep's observation: `total` records buffered
    /// across all slices and `peak` records buffered by the fullest
    /// slice. Fast attack (a new maximum registers immediately), slow
    /// decay (an old maximum fades by [`CAPACITY_DECAY`] per call).
    pub fn observe(&mut self, total: usize, peak: usize) {
        self.demand = (total as f64).max(self.demand * CAPACITY_DECAY);
        self.peak = (peak as f64).max(self.peak * CAPACITY_DECAY);
    }

    /// The current per-slice capacity budget in records: the peak
    /// envelope plus headroom, floored for tiny runs. (No demand cap
    /// is needed: `observe` is fed `peak <= total` and both envelopes
    /// decay by the same factor, so `peak <= demand` holds by
    /// induction — a slice is never budgeted more than everything
    /// that was in flight.)
    pub fn budget(&self) -> usize {
        debug_assert!(self.peak <= self.demand + f64::EPSILON);
        ((self.peak * self.headroom).ceil() as usize).max(self.floor)
    }

    /// Observed steal imbalance: the peak envelope over the fair share
    /// implied by the demand envelope (1.0 = perfectly uniform,
    /// `num_slices` = one slice buffered everything).
    pub fn observed_imbalance(&self, num_slices: usize) -> f64 {
        let fair = self.demand / num_slices.max(1) as f64;
        if fair <= f64::EPSILON {
            1.0
        } else {
            self.peak / fair
        }
    }
}

impl Default for CapacityPolicy {
    fn default() -> Self {
        Self::new()
    }
}

/// What one adaptive equalization pass decided and measured; engines
/// copy this into the iteration's statistics gauges.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CapacityReport {
    /// Per-slice budget (records) the targets were capped under.
    pub budget: usize,
    /// Total capacity (records) held across all slices' fan-out
    /// buckets afterwards.
    pub total_capacity: usize,
    /// Sum of the slices' high-water marks this superstep (the
    /// residency numerator; an upper bound on the simultaneous peak).
    pub high_water: usize,
}

/// The engine-held pool: one [`ShuffleScratch`] per worker thread,
/// rented out each superstep and retained across iterations.
#[derive(Debug)]
pub struct ShufflePool<T> {
    slices: Vec<ShuffleScratch<T>>,
    /// Pooled per-bucket capacity targets for the parallel
    /// equalization pass (grown once, reused every iteration).
    targets: Vec<usize>,
    /// The adaptive budget driving
    /// [`equalize_capacity_adaptive`](Self::equalize_capacity_adaptive).
    policy: CapacityPolicy,
}

impl<T: Record> ShufflePool<T> {
    /// A pool with one scratch per worker.
    pub fn new(workers: usize) -> Self {
        let mut slices = Vec::with_capacity(workers.max(1));
        slices.resize_with(workers.max(1), ShuffleScratch::new);
        Self {
            slices,
            targets: Vec::new(),
            policy: CapacityPolicy::new(),
        }
    }

    /// Number of per-worker slices.
    #[inline]
    pub fn num_slices(&self) -> usize {
        self.slices.len()
    }

    /// Rearms every slice for a superstep over `chunks` partitions.
    pub fn begin(&mut self, chunks: usize) {
        for s in &mut self.slices {
            s.begin(chunks);
        }
    }

    /// Rearms every slice for a superstep over `chunks` partitions,
    /// running each slice's [`begin`](ShuffleScratch::begin) **on the
    /// worker thread that owns the slice** (worker `i` rearms slice
    /// `i`; `None` or a too-small pool falls back to the calling
    /// thread). Any bucket
    /// spine the rearm grows is thereby allocated and first touched by
    /// its owning worker — the cheap half of NUMA-aware slice
    /// placement: all later capacity growth happens on the owning
    /// worker's `push` path anyway.
    pub fn begin_first_touch(&mut self, chunks: usize, pool: Option<&WorkerPool>) {
        for_each_slice_on_owner(&mut self.slices, pool, |_, slice, _| slice.begin(chunks));
    }

    /// The scratch of worker `i`.
    #[inline]
    pub fn slice(&self, i: usize) -> &ShuffleScratch<T> {
        &self.slices[i]
    }

    /// Mutable access to the scratch of worker `i`.
    #[inline]
    pub fn slice_mut(&mut self, i: usize) -> &mut ShuffleScratch<T> {
        &mut self.slices[i]
    }

    /// Raw pointer to the slice array, for an engine that hands
    /// disjoint `&mut` slices to its pool's workers (see
    /// `xstream_disk::engine`).
    pub fn slices_ptr(&mut self) -> *mut ShuffleScratch<T> {
        self.slices.as_mut_ptr()
    }

    /// Total records pushed across all slices this superstep.
    pub fn total_len(&self) -> usize {
        self.slices.iter().map(|s| s.len()).sum()
    }

    /// The cross-slice capacity equalization pass: one call per
    /// superstep, after gather.
    ///
    /// Under work stealing the partition → thread assignment changes
    /// between iterations, so without equalization each slice would
    /// independently rediscover (and re-allocate toward) the same
    /// high-water marks whenever a bucket-heavy partition migrates to
    /// it; this pass makes a capacity reached by *any* slice available
    /// to *every* slice, bounded by the adaptive budget (this replaced
    /// an earlier static 2×-fair-share budget).
    ///
    /// Harvests every slice's high-water mark (resetting it), feeds the
    /// total and the per-slice peak into the pool's [`CapacityPolicy`],
    /// and applies the resulting budget's targets on each slice's
    /// owning worker (first-touch, NUMA-local when the pool's workers
    /// are pinned) — growing buckets toward the mirrored high-water
    /// marks *and shrinking* any bucket more than
    /// [`SHRINK_HYSTERESIS`]× over its target, so capacity ratchets
    /// down once skew subsides. Allocation-free at a steady workload
    /// (the envelopes, budget and targets all converge to constants).
    ///
    /// Returns the [`CapacityReport`] the engines expose through
    /// [`IterationStats`](xstream_core::IterationStats)' shuffle
    /// gauges.
    pub fn equalize_capacity_adaptive(&mut self, pool: Option<&WorkerPool>) -> CapacityReport {
        let mut total_hw = 0usize;
        let mut peak_hw = 0usize;
        for s in &mut self.slices {
            let hw = s.take_high_water();
            total_hw += hw;
            peak_hw = peak_hw.max(hw);
        }
        self.policy.observe(total_hw, peak_hw);
        let budget = self.policy.budget();
        let chunks = self.compute_equalized_targets(budget);
        let targets = &self.targets[..chunks];
        for_each_slice_on_owner(&mut self.slices, pool, |_, slice, on_owner| {
            slice.apply_capacity_targets(targets, on_owner);
        });
        let total_capacity = self
            .slices
            .iter()
            .map(ShuffleScratch::capacity_records)
            .sum();
        CapacityReport {
            budget,
            total_capacity,
            high_water: total_hw,
        }
    }

    /// The equalization policy: fills `self.targets[..chunks]` with
    /// each bucket's mirrored capacity target (cross-slice high-water
    /// mark, scaled down proportionally when the total demand exceeds
    /// `slice_budget`) and returns `chunks`, the bucket count.
    fn compute_equalized_targets(&mut self, slice_budget: usize) -> usize {
        let chunks = self
            .slices
            .iter()
            .map(|s| s.num_chunks())
            .max()
            .unwrap_or(0);
        if self.targets.len() < chunks {
            self.targets.resize(chunks, 0);
        }
        let mut demand = 0usize;
        for g in 0..chunks {
            let cap = self
                .slices
                .iter()
                .map(|s| s.bucket_capacity(g))
                .max()
                .unwrap_or(0);
            self.targets[g] = cap;
            demand += cap;
        }
        if demand > slice_budget {
            for t in &mut self.targets[..chunks] {
                *t = (*t as u128 * slice_budget as u128 / demand.max(1) as u128) as usize;
            }
        }
        chunks
    }
}

/// Runs `f(index, slice, on_owner)` for every slice, **on the worker
/// thread that owns the slice** when `pool` can cover them all
/// (worker `i` handles slice `i`, so any pages `f` touches are
/// first-touched — and on a pinned pool, NUMA-placed — by the thread
/// that fills the slice during scatter). Falls back to the calling
/// thread with `on_owner = false` when there is no pool or it is too
/// small. The single home of the owning-worker dispatch's unsafe
/// reasoning — every per-slice-on-owner operation goes through here.
fn for_each_slice_on_owner<T: Record>(
    slices: &mut [ShuffleScratch<T>],
    pool: Option<&WorkerPool>,
    f: impl Fn(usize, &mut ShuffleScratch<T>, bool) + Sync,
) {
    let n = slices.len();
    match pool.filter(|p| p.workers() + 1 >= n) {
        Some(pool) => {
            let slices = PerWorkerPtr(slices.as_mut_ptr());
            let job = |tid: usize| {
                if tid < n {
                    // SAFETY: each dispatch runs every tid exactly
                    // once and tid < n, so these `&mut` borrows are
                    // disjoint across workers.
                    f(tid, unsafe { slices.get_mut(tid) }, true);
                }
            };
            pool.run(&job);
        }
        None => {
            for (i, s) in slices.iter_mut().enumerate() {
                f(i, s, false);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shuffle::shuffle;
    use std::panic::AssertUnwindSafe;

    /// The chunks of a finished layout, one `Vec` per padded partition.
    fn chunks(layout: &UpdateLayout<u32>, padded: usize) -> Vec<Vec<u32>> {
        (0..padded)
            .map(|p| layout.runs(p).flatten().copied().collect())
            .collect()
    }

    #[test]
    fn matches_single_stage_shuffle_across_fanouts() {
        let input: Vec<u32> = (0..10_000u32)
            .map(|i| i.wrapping_mul(2_654_435_761))
            .collect();
        let k = 64usize;
        let key = |r: &u32| (*r as usize) % k;
        let reference = shuffle(&input, k, key);
        for fanout in [2usize, 4, 8, 64] {
            let plan = MultiStagePlan::new(k, fanout);
            let layout = UpdateLayout::of_records(input.clone(), plan, key);
            assert_eq!(layout.len(), input.len());
            assert_eq!(layout.passes(), plan.stages - 1, "fanout {fanout}");
            for (p, chunk) in chunks(&layout, k).iter().enumerate() {
                assert_eq!(reference.chunk(p), chunk, "fanout {fanout} chunk {p}");
            }
        }
    }

    #[test]
    fn reuse_is_allocation_free_and_correct() {
        if !xstream_core::alloc_stats::run_alone(
            module_path!(),
            "reuse_is_allocation_free_and_correct",
        ) {
            return;
        }
        let k = 256usize;
        let plan = MultiStagePlan::new(k, 4);
        let key = |r: &u32| (*r as usize) % k;
        let input: Vec<u32> = (0..5_000u32).map(|i| i.wrapping_mul(40_503)).collect();
        let mut layout = UpdateLayout::of_records(input.clone(), plan, key);
        let reference = shuffle(&input, k, key);
        // Every superstep is allocation-free, the first included.
        let clean_window = xstream_core::alloc_stats::any_allocation_free_window(50, || {
            layout.fill(&input, &key);
        });
        for (p, chunk) in chunks(&layout, k).iter().enumerate() {
            assert_eq!(reference.chunk(p), chunk, "chunk {p}");
        }
        assert!(clean_window, "layout reuse allocated in every window");
    }

    #[test]
    fn single_stage_plan_serves_from_buckets() {
        // The out-of-core engine's buckets, one per partition.
        let k = 16usize;
        let input: Vec<u32> = (0..1000).collect();
        let mut scratch = ShuffleScratch::new();
        scratch.begin(k);
        for &r in &input {
            scratch.push(r, r as usize % k);
        }
        let reference = shuffle(&input, k, |r| *r as usize % k);
        assert_eq!(scratch.num_chunks(), k);
        for p in 0..k {
            assert_eq!(reference.chunk(p), scratch.chunk(p), "chunk {p}");
        }
    }

    #[test]
    fn trivial_and_empty_plans() {
        let layout = UpdateLayout::of_records(vec![7u32], MultiStagePlan::new(1, 8), |_| 0);
        assert_eq!(chunks(&layout, 1), [vec![7]]);

        let plan = MultiStagePlan::new(64, 4);
        let layout = UpdateLayout::of_records(Vec::new(), plan, |r: &u32| *r as usize);
        assert!(layout.is_empty());
        assert_eq!(layout.capacity(), 0);
        assert!(chunks(&layout, 64).iter().all(Vec::is_empty));
    }

    #[test]
    fn to_stream_buffer_round_trips() {
        // One, two and three stages: the final chunks sit in the region
        // buffer, the stage buffer and the region buffer again.
        let k = 32usize;
        for fanout in [32usize, 8, 4] {
            let plan = MultiStagePlan::new(k, fanout);
            let input: Vec<u32> = (0..2000u32).map(|i| i.wrapping_mul(977)).collect();
            let layout = UpdateLayout::of_records(input.clone(), plan, |r| *r as usize % k);
            let want = chunks(&layout, k);
            let buf = layout.into_stream_buffer();
            assert_eq!(buf.len(), input.len());
            assert_eq!(buf.num_chunks(), k);
            for (p, chunk) in want.iter().enumerate() {
                assert_eq!(buf.chunk(p), chunk, "fanout {fanout} chunk {p}");
            }
        }
    }

    #[test]
    fn a_task_not_handed_out_leaves_its_regions_empty() {
        // Tasks rewind their cursors when claimed; `finish` rewinds the
        // rest, so a superstep that skips task 1 serves none of the
        // updates it wrote the superstep before.
        let plan = MultiStagePlan::new(4, 4);
        let mut layout = UpdateLayout::<u32>::new(plan, 2, vec![2; 8], 1);
        for claim in [&[0usize, 1][..], &[0]] {
            {
                let writer = layout.writer();
                for &t in claim {
                    let mut task = writer.task(t);
                    (0..8u32).for_each(|r| task.push(10 * t as u32 + r, r as usize % 4));
                }
            }
            layout.finish(None, &|r: &u32| *r as usize % 4);
            assert_eq!(layout.len(), 8 * claim.len());
            assert_eq!(
                chunks(&layout, 4)[1],
                [[1, 5], [11, 15]][..claim.len()].concat()
            );
        }
    }

    #[test]
    fn tasks_written_in_parallel_read_back_in_task_order() {
        // Four tasks over 8 partitions, filled on a pool in whatever
        // order the workers claim them: each chunk still holds task 0's
        // updates, then task 1's, …, under either plan.
        let k = 8usize;
        let tasks = 4usize;
        let pool = WorkerPool::new(2);
        let records = |t: usize| (0..500u32).map(move |i| (t as u32) << 16 | i);
        let key = |r: &u32| (*r as usize * 7) % k;
        for plan in [MultiStagePlan::new(k, k), MultiStagePlan::new(k, 2)] {
            let mut counts = vec![0; tasks * plan.fan0()];
            for t in 0..tasks {
                for r in records(t) {
                    counts[t * plan.fan0() + plan.digit0(key(&r))] += 1;
                }
            }
            let mut layout = UpdateLayout::new(plan, tasks, counts, 3);
            for _ in 0..2 {
                {
                    let writer = layout.writer();
                    pool.run(&|lane| {
                        for t in (lane..tasks).step_by(3) {
                            let mut task = writer.task(t);
                            records(t).for_each(|r| task.push(r, key(&r)));
                        }
                    });
                }
                layout.finish(Some(&pool), &key);
                assert_eq!(layout.len(), 4 * 500);
                for (p, chunk) in chunks(&layout, k).iter().enumerate() {
                    let want: Vec<u32> = (0..tasks)
                        .flat_map(records)
                        .filter(|r| key(r) == p)
                        .collect();
                    assert_eq!(chunk, &want, "{} stages, chunk {p}", plan.stages);
                }
            }
        }
    }

    #[test]
    fn a_forged_count_panics_before_writing_outside_its_region() {
        // Task t's record i is `(t << 16) | (i + 1)`, keyed to partition
        // i % 4; region (1, 2) is counted one slot short. Writing it must
        // panic, serially and with the two tasks on two workers, and
        // every slot must hold zero (never written) or a record of its
        // own region: the extra record lands nowhere.
        let (k, tasks, n) = (4usize, 2usize, 400u32);
        let record = |t: usize, i: u32| (t as u32) << 16 | (i + 1);
        let key = |r: &u32| ((r & 0xffff) - 1) as usize % k;
        let plan = MultiStagePlan::new(k, k);
        let mut counts = vec![n as usize / k; tasks * k];
        counts[k + 2] -= 1;
        let pool = WorkerPool::new(1);
        for pool in [None, Some(&pool)] {
            let mut layout = UpdateLayout::<u32>::new(plan, tasks, counts.clone(), 2);
            let outcome = {
                let writer = layout.writer();
                let scatter = |lane: usize| {
                    let lanes = if pool.is_some() { 2 } else { 1 };
                    for t in (lane..tasks).step_by(lanes) {
                        let mut task = writer.task(t);
                        (0..n).for_each(|i| task.push(record(t, i), key(&record(t, i))));
                    }
                };
                std::panic::catch_unwind(AssertUnwindSafe(|| match pool {
                    Some(pool) => pool.run(&scatter),
                    None => scatter(0),
                }))
            };
            assert!(outcome.is_err(), "an undercounted region must panic");
            for t in 0..tasks {
                for d in 0..k {
                    let region = layout.starts[t * k + d]..layout.cursors[cursor(t, k) + d].end;
                    assert_eq!(region.len(), counts[t * k + d]);
                    for &r in &layout.regions[region] {
                        assert!(
                            r == 0 || (r >> 16 == t as u32 && key(&r) == d),
                            "slot of region ({t}, {d}) holds {r:#x}"
                        );
                    }
                }
            }
            let forged = layout.starts[k + 2]..layout.cursors[cursor(1, k) + 2].end;
            assert!(
                layout.regions[forged].iter().all(|&r| r != 0),
                "the forged region was not filled before the panic"
            );
        }
    }

    #[test]
    fn pool_hands_out_independent_slices() {
        let mut pool: ShufflePool<u32> = ShufflePool::new(3);
        pool.begin(8);
        for i in 0..3 {
            let s = pool.slice_mut(i);
            for v in 0..10u32 {
                s.push(v + i as u32 * 100, ((v + i as u32) % 8) as usize);
            }
        }
        assert_eq!(pool.total_len(), 30);
        assert_eq!(pool.slice(1).chunk(1), &[100, 108]);
    }

    #[test]
    fn capacity_policy_attacks_fast_and_decays_slow() {
        let mut p = CapacityPolicy::new();
        // A skewed superstep registers immediately.
        p.observe(400_000, 400_000);
        let skewed = p.budget();
        assert!(skewed >= 400_000, "budget {skewed} below observed peak");
        assert!((p.observed_imbalance(4) - 4.0).abs() < 1e-9);
        // Uniform supersteps decay the envelopes back down.
        for _ in 0..12 {
            p.observe(400_000, 100_000);
        }
        let uniform = p.budget();
        assert!(
            uniform < skewed / 2,
            "budget failed to ratchet down: {uniform} vs {skewed}"
        );
        assert!(uniform >= 100_000, "budget fell below live demand");
        assert!(p.observed_imbalance(4) < 1.5);
        // The floor holds for tiny runs.
        let mut tiny = CapacityPolicy::new();
        tiny.observe(10, 10);
        assert_eq!(tiny.budget(), 64 * 1024);
    }

    #[test]
    fn adaptive_equalization_ratchets_capacity_down_after_skew() {
        if !xstream_core::alloc_stats::run_alone(
            module_path!(),
            "adaptive_equalization_ratchets_capacity_down_after_skew",
        ) {
            return;
        }
        let k = 8usize;
        let mut pool: ShufflePool<u32> = ShufflePool::new(4);
        // Skewed superstep: slice 0 buffers everything (extreme steal
        // imbalance), the others idle.
        pool.begin(k);
        for v in 0..300_000u32 {
            pool.slice_mut(0).push(v, (v % k as u32) as usize);
        }
        let skew_report = pool.equalize_capacity_adaptive(None);
        assert_eq!(skew_report.high_water, 300_000);
        assert!(skew_report.budget >= 300_000);
        // The peak was mirrored: every slice can now hold it.
        assert!(skew_report.total_capacity >= 4 * 300_000);

        // Uniform supersteps: modest, evenly spread load. The budget
        // decays and capacity is actually released (shrunk), not just
        // capped.
        let uniform = |pool: &mut ShufflePool<u32>| {
            pool.begin(k);
            for i in 0..4 {
                for v in 0..10_000u32 {
                    pool.slice_mut(i).push(v, (v % k as u32) as usize);
                }
            }
            pool.equalize_capacity_adaptive(None)
        };
        let mut last = skew_report;
        for _ in 0..12 {
            last = uniform(&mut pool);
        }
        assert!(
            last.total_capacity < skew_report.total_capacity / 2,
            "capacity failed to ratchet down: {} vs skew-era {}",
            last.total_capacity,
            skew_report.total_capacity
        );
        assert_eq!(last.high_water, 40_000);

        // Steady state: one more uniform superstep changes nothing and
        // allocates nothing.
        let clean_window = xstream_core::alloc_stats::any_allocation_free_window(20, || {
            let r = uniform(&mut pool);
            assert_eq!(r.total_capacity, last.total_capacity);
        });
        assert!(clean_window, "steady-state adaptive pass kept allocating");
    }

    #[test]
    fn high_water_survives_mid_superstep_rearms() {
        // Spilling engines call begin() between spills; the mark must
        // accumulate across them until taken.
        let mut s: ShuffleScratch<u32> = ShuffleScratch::new();
        s.begin(4);
        for v in 0..100u32 {
            s.push(v, (v % 4) as usize);
        }
        s.begin(4); // spill rearm
        for v in 0..40u32 {
            s.push(v, (v % 4) as usize);
        }
        assert_eq!(s.take_high_water(), 100);
        // Taking resets to the live fill.
        assert_eq!(s.take_high_water(), 40);
        // But a harvested fill is not folded in again by the next
        // superstep's rearm — no cross-superstep double count.
        s.begin(4);
        assert_eq!(s.take_high_water(), 0);
    }
}
