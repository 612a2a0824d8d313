//! Iteration-persistent update buffers: the memory behind the
//! zero-allocation scatter → shuffle → gather pipeline (paper §4.2,
//! Fig. 7).
//!
//! Each engine sizes its update buffers once, at build, allocates them
//! once and reuses them across iterations, so allocation and
//! page-fault traffic do not compete with the memory bandwidth the
//! streaming shuffle is designed to use. Nothing grows, shrinks or is
//! mirrored. The engines bound their output differently:
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
//!   same size. Every superstep is allocation-free from the first, and
//!   each chunk holds its updates in (source partition, edge position)
//!   order whatever the thread count, steal schedule or plan.
//! * [`OutputBuffer`] — the out-of-core engine's **stream buffer**
//!   (§3.3). That engine spills whenever its output reaches a threshold
//!   set by the memory budget (§3.4), so the buffer is sized by that
//!   threshold plus one scatter step's output rather than by the edge
//!   list. Its first write allocates it, untouched, so the engine's
//!   build allocates less than its edge file. It is a pool of equal
//!   blocks. Each (worker, partition) bucket is a chain of blocks: a
//!   worker writes at its row of cursors, as in the layout, and extends
//!   a chain by claiming the pool's next free block, one atomic claim
//!   per block. Partition `p`'s updates read back as worker 0's chain,
//!   then worker 1's, and so on.

use std::iter;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use crate::pool::{StatesPtr, WorkerPool};
use crate::shuffle::MultiStagePlan;
use crate::StreamBuffer;
use parking_lot::Mutex;
use xstream_core::record::zeroed_records;
use xstream_core::Record;

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

/// The partly filled blocks — at most one per (worker, partition) — are
/// at most this fraction of an [`OutputBuffer`]'s records.
const PARTIAL_SHARE: usize = 8;

/// The out-of-core engine's stream buffer (see the module docs): a
/// fixed pool of equal blocks, in which each (worker, partition) bucket
/// is a chain of blocks.
#[derive(Debug)]
pub struct OutputBuffer<T> {
    workers: usize,
    parts: usize,
    /// Records per block.
    block: usize,
    /// Blocks in the pool; claiming one more panics.
    blocks: usize,
    /// Blocks claimed since the last [`rearm`](Self::rearm).
    claimed: AtomicUsize,
    /// Write cursor of chain `(w, p)` at `cursor(w, parts) + p`, inside
    /// the chain's last block; `end == 0` while the chain is empty.
    cursors: Vec<Cursor>,
    /// First block of chain `(w, p)` at `w * parts + p`.
    heads: Vec<usize>,
    /// The block after block `b` of its chain (set when `b` is full).
    links: Vec<usize>,
    /// Whether worker `w`'s row was handed out by the current writer.
    handed: Vec<AtomicBool>,
    /// The blocks, allocated zeroed by the first [`writer`](Self::writer)
    /// (a buffer never written holds none): a block is first touched
    /// by the worker that claims it.
    slots: Vec<T>,
}

impl<T: Record> OutputBuffer<T> {
    /// A buffer that holds any `records` updates from `workers` workers
    /// over `parts` partitions, however they spread. Blocks are cut so
    /// that the partly filled ones take at most an eighth of `records`:
    /// the pool holds `records` plus one block per (worker, partition).
    pub fn for_records(workers: usize, parts: usize, records: usize) -> Self {
        let chains = workers.max(1) * parts.max(1);
        let block = (records / (PARTIAL_SHARE * chains)).max(1);
        Self::new(workers, parts, block, records / block + chains.min(records))
    }

    /// A buffer of `blocks` blocks of `block` records.
    pub fn new(workers: usize, parts: usize, block: usize, blocks: usize) -> Self {
        let (workers, parts, block) = (workers.max(1), parts.max(1), block.max(1));
        Self {
            workers,
            parts,
            block,
            blocks,
            claimed: AtomicUsize::new(0),
            cursors: vec![Cursor::default(); cursor(workers, parts)],
            heads: vec![0; workers * parts],
            links: vec![0; blocks],
            handed: (0..workers).map(|_| AtomicBool::new(false)).collect(),
            slots: Vec::new(),
        }
    }

    /// Number of worker rows.
    #[inline]
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Records per block.
    #[inline]
    pub fn block(&self) -> usize {
        self.block
    }

    /// Records the pool holds: every block.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.blocks * self.block
    }

    /// Records pushed since the last [`rearm`](Self::rearm): every
    /// claimed block but the unwritten rest of each chain's last one.
    /// Counted from the cursors, so a push updates no counter.
    pub fn len(&self) -> usize {
        let claimed = self.claimed.load(Ordering::Relaxed).min(self.blocks);
        let unwritten: usize = (0..self.workers)
            .flat_map(|w| &self.cursors[cursor(w, self.parts)..][..self.parts])
            .map(|c| c.end - c.next)
            .sum();
        claimed * self.block - unwritten
    }

    /// Whether no record was pushed since the last rearm.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Empties every chain; the next claims take the pool's blocks
    /// from the first again.
    pub fn rearm(&mut self) {
        *self.claimed.get_mut() = 0;
        self.cursors.fill(Cursor::default());
    }

    /// Returns one dispatch's writer; it hands each worker its row.
    /// The first call allocates the blocks, untouched.
    pub fn writer(&mut self) -> BufferWriter<'_, T> {
        if self.slots.is_empty() {
            self.slots = zeroed_records(self.capacity());
        }
        for handed in &mut self.handed {
            *handed.get_mut() = false;
        }
        BufferWriter {
            slots: StatesPtr(self.slots.as_mut_ptr()),
            cursors: StatesPtr(self.cursors.as_mut_ptr()),
            heads: StatesPtr(self.heads.as_mut_ptr()),
            links: StatesPtr(self.links.as_mut_ptr()),
            handed: &self.handed,
            claimed: &self.claimed,
            parts: self.parts,
            block: self.block,
            blocks: self.blocks,
        }
    }

    /// The records pushed for partition `p` since the last rearm, as
    /// runs of contiguous slots: worker 0's chain, then worker 1's, and
    /// so on, each in push order.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not below the partition count.
    pub fn runs(&self, p: usize) -> impl Iterator<Item = &[T]> + '_ {
        assert!(p < self.parts, "partition {p} out of {}", self.parts);
        (0..self.workers).flat_map(move |w| self.chain(w, p))
    }

    /// Chain `(w, p)` as runs: consecutive blocks of the chain that sit
    /// next to each other in the pool form one run.
    fn chain(&self, w: usize, p: usize) -> impl Iterator<Item = &[T]> + '_ {
        let c = self.cursors[cursor(w, self.parts) + p];
        let last = (c.end / self.block).checked_sub(1);
        let mut at = last.map(|_| self.heads[w * self.parts + p]);
        iter::from_fn(move || {
            let first = at?;
            let mut b = first;
            while Some(b) != last && self.links[b] == b + 1 {
                b += 1;
            }
            let (end, next) = if Some(b) == last {
                (c.next, None)
            } else {
                ((b + 1) * self.block, Some(self.links[b]))
            };
            at = next;
            Some(&self.slots[first * self.block..end])
        })
    }
}

/// One dispatch's handle on an [`OutputBuffer`]: hands each worker its
/// row of chains.
pub struct BufferWriter<'a, T> {
    slots: StatesPtr<T>,
    cursors: StatesPtr<Cursor>,
    heads: StatesPtr<usize>,
    links: StatesPtr<usize>,
    handed: &'a [AtomicBool],
    claimed: &'a AtomicUsize,
    parts: usize,
    block: usize,
    blocks: usize,
}

impl<T: Record> BufferWriter<'_, T> {
    /// The writer of worker `w`'s chains, which continue where the
    /// last dispatch left them.
    ///
    /// # Panics
    ///
    /// Panics if `w` is out of range or was already handed out by this
    /// writer.
    pub fn worker(&self, w: usize) -> WorkerWriter<'_, T> {
        assert!(
            !self.handed[w].swap(true, Ordering::Relaxed),
            "worker {w} handed out twice in one dispatch"
        );
        let parts = self.parts;
        // SAFETY: the claim above hands row `w` out once per writer,
        // and the rows of both arrays are disjoint and inside them.
        let (row, heads) = unsafe {
            let row = cursor(w, parts);
            (
                self.cursors.partition_slice_mut(row..row + parts),
                self.heads.partition_slice_mut(w * parts..(w + 1) * parts),
            )
        };
        WorkerWriter {
            row,
            heads,
            slots: self.slots.0,
            buffer: self,
        }
    }
}

/// One worker's scatter output: a write cursor per partition.
pub struct WorkerWriter<'a, T> {
    row: &'a mut [Cursor],
    heads: &'a mut [usize],
    /// The blocks.
    slots: *mut T,
    buffer: &'a BufferWriter<'a, T>,
}

impl<T: Record> WorkerWriter<'_, T> {
    /// Appends `record` to this worker's chain for `partition`.
    ///
    /// # Panics
    ///
    /// Panics, before writing, if the pool has no free block left or
    /// `partition` is not below the partition count.
    #[inline]
    pub fn push(&mut self, record: T, partition: usize) {
        let c = &mut self.row[partition];
        if c.next == c.end {
            claim(c, &mut self.heads[partition], self.buffer, partition);
        }
        // SAFETY: `next < end`, inside a block this worker claimed: the
        // pool's claim counter hands out each block once per rearm.
        unsafe { self.slots.add(c.next).write(record) };
        c.next += 1;
    }
}

/// Extends the chain of cursor `c` and first block `head` by the
/// pool's next free block. Takes the chain's parts rather than the
/// writer, so a push loop keeps the writer in registers.
#[cold]
#[inline(never)]
fn claim<T>(c: &mut Cursor, head: &mut usize, buffer: &BufferWriter<'_, T>, partition: usize) {
    let (block, blocks) = (buffer.block, buffer.blocks);
    let b = buffer.claimed.fetch_add(1, Ordering::Relaxed);
    if b >= blocks {
        pool_full(partition, blocks);
    }
    match (c.end / block).checked_sub(1) {
        // SAFETY: block `prev` is this chain's last, claimed by this
        // worker alone, and below `blocks`.
        Some(prev) => unsafe { buffer.links.0.add(prev).write(b) },
        None => *head = b,
    }
    *c = Cursor {
        next: b * block,
        end: (b + 1) * block,
    };
}

#[cold]
#[inline(never)]
fn pool_full(partition: usize, blocks: usize) -> ! {
    panic!(
        "output buffer full: no block left of {blocks} for partition {partition}; \
         the buffer is sized below one scatter step"
    )
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

    /// Partition `p`'s records in an output buffer, all chains.
    fn read(buffer: &OutputBuffer<u32>, p: usize) -> Vec<u32> {
        buffer.runs(p).flatten().copied().collect()
    }

    /// Chain `(w, p)` of an output buffer.
    fn read_chain(buffer: &OutputBuffer<u32>, w: usize, p: usize) -> Vec<u32> {
        buffer.chain(w, p).flatten().copied().collect()
    }

    #[test]
    fn single_stage_plan_serves_from_buckets() {
        // The out-of-core engine's chains, one per partition.
        let k = 16usize;
        let input: Vec<u32> = (0..1000).collect();
        let mut buffer = OutputBuffer::for_records(1, k, input.len());
        {
            let writer = buffer.writer();
            let mut worker = writer.worker(0);
            for &r in &input {
                worker.push(r, r as usize % k);
            }
        }
        let reference = shuffle(&input, k, |r| *r as usize % k);
        assert_eq!(buffer.len(), input.len());
        for p in 0..k {
            assert_eq!(reference.chunk(p), read(&buffer, p), "chunk {p}");
        }
    }

    #[test]
    fn pool_hands_out_independent_slices() {
        let mut buffer: OutputBuffer<u32> = OutputBuffer::for_records(3, 8, 30);
        {
            let writer = buffer.writer();
            for i in 0..3 {
                let mut worker = writer.worker(i);
                for v in 0..10u32 {
                    worker.push(v + i as u32 * 100, ((v + i as u32) % 8) as usize);
                }
            }
        }
        assert_eq!(buffer.len(), 30);
        assert_eq!(read_chain(&buffer, 1, 1), [100, 108]);
    }

    #[test]
    fn chains_read_back_in_push_order() {
        // Two workers push over three dispatches, first all to one
        // partition, then fanned out uniformly. Each chain holds its
        // worker's records for its partition in push order, and a
        // partition reads worker 0's chain, then worker 1's.
        let (k, n) = (8usize, 6000u32);
        let pool = WorkerPool::new(1);
        let record = |w: usize, i: u32| (w as u32) << 16 | i;
        let keys: [fn(u32) -> usize; 2] = [|_| 3, |r| (r as usize * 5) % 8];
        for key in keys {
            let mut buffer = OutputBuffer::for_records(2, k, 2 * n as usize);
            assert!(buffer.capacity() <= 2 * n as usize * 9 / 8 + 2 * k);
            for dispatch in 0..3u32 {
                let writer = buffer.writer();
                let lo = dispatch * n / 3;
                pool.run(&|w| {
                    let mut worker = writer.worker(w);
                    for i in lo..lo + n / 3 {
                        worker.push(record(w, i), key(record(w, i)));
                    }
                });
            }
            assert_eq!(buffer.len(), 2 * n as usize);
            for p in 0..k {
                let want = |w| (0..n).map(move |i| record(w, i)).filter(|&r| key(r) == p);
                for w in 0..2 {
                    assert_eq!(read_chain(&buffer, w, p), want(w).collect::<Vec<_>>());
                }
                assert_eq!(read(&buffer, p), want(0).chain(want(1)).collect::<Vec<_>>());
            }
        }
        // One worker and one partition claim consecutive blocks, which
        // read back as a single run.
        let mut buffer = OutputBuffer::new(1, 2, 4, 10);
        {
            let writer = buffer.writer();
            let mut worker = writer.worker(0);
            (0..37u32).for_each(|r| worker.push(r, 1));
        }
        assert_eq!(buffer.runs(1).count(), 1);
        assert_eq!(read(&buffer, 1), (0..37).collect::<Vec<_>>());
    }

    #[test]
    fn a_pool_one_block_short_panics_before_writing_outside_itself() {
        // Worker w's record i is `(w << 16) | (i + 1)`, keyed to
        // partition i % 4: each of the 8 chains needs 7 blocks of 16,
        // and the pool is forged to hold 55 of the 56. Filling it must
        // panic, serially and with the two workers on two threads;
        // every slot of the last block must still hold zero, and every
        // record of the others must sit in its own chain.
        let (k, workers, n, block) = (4usize, 2usize, 400u32, 16usize);
        let record = |w: usize, i: u32| (w as u32) << 16 | (i + 1);
        let key = |r: u32| ((r & 0xffff) - 1) as usize % k;
        let pool = WorkerPool::new(1);
        for pool in [None, Some(&pool)] {
            // The first writer allocates all 56 blocks; the pool then
            // claims only 55 of them.
            let mut buffer = OutputBuffer::<u32>::new(workers, k, block, 56);
            let _ = buffer.writer();
            buffer.blocks = 55;
            let outcome = {
                let writer = buffer.writer();
                let scatter = |w: usize| {
                    let mut worker = writer.worker(w);
                    (0..n).for_each(|i| worker.push(record(w, i), key(record(w, i))));
                };
                std::panic::catch_unwind(AssertUnwindSafe(|| match pool {
                    Some(pool) => pool.run(&scatter),
                    None => (0..workers).for_each(&scatter),
                }))
            };
            assert!(outcome.is_err(), "a pool one block short must panic");
            assert!(
                buffer.slots[55 * block..].iter().all(|&r| r == 0),
                "a record landed outside the pool"
            );
            assert!(
                (0..55).all(|b| buffer.slots[b * block] != 0),
                "the pool was not filled before the panic"
            );
            let mut held = 0;
            for w in 0..workers {
                for p in 0..k {
                    for r in read_chain(&buffer, w, p) {
                        assert!(
                            r >> 16 == w as u32 && key(r) == p,
                            "chain ({w}, {p}) holds {r:#x}"
                        );
                        held += 1;
                    }
                }
            }
            assert_eq!(held, buffer.len());
        }
    }

    #[test]
    fn a_rearm_reuses_blocks_and_allocates_nothing() {
        if !xstream_core::alloc_stats::run_alone(
            module_path!(),
            "a_rearm_reuses_blocks_and_allocates_nothing",
        ) {
            return;
        }
        let k = 16usize;
        let input: Vec<u32> = (0..20_000u32).map(|i| i.wrapping_mul(40_503)).collect();
        let mut buffer = OutputBuffer::for_records(1, k, input.len());
        let fill = |buffer: &mut OutputBuffer<u32>| {
            buffer.rearm();
            let writer = buffer.writer();
            let mut worker = writer.worker(0);
            input.iter().for_each(|&r| worker.push(r, r as usize % k));
        };
        fill(&mut buffer);
        let clean_window =
            xstream_core::alloc_stats::any_allocation_free_window(50, || fill(&mut buffer));
        assert!(clean_window, "a rearm and refill allocated in every window");
        assert_eq!(buffer.len(), input.len());
        // The first record's chain starts at the pool's first block again.
        let first = input[0] as usize % k;
        assert_eq!(
            buffer.runs(first).next().unwrap().as_ptr(),
            buffer.slots.as_ptr()
        );
        let reference = shuffle(&input, k, |r| *r as usize % k);
        for p in 0..k {
            assert_eq!(reference.chunk(p), read(&buffer, p), "chunk {p}");
        }
    }
}
