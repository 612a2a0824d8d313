//! Iteration-persistent shuffle scratch: the buffer pool behind the
//! zero-allocation scatter → shuffle → gather pipeline.
//!
//! The in-memory engine used to allocate every stream buffer, radix
//! count array and per-thread update vector from scratch on every
//! superstep, so allocation and page-fault traffic competed with the
//! memory bandwidth the streaming shuffle is designed to exploit
//! (paper §4.2, Fig. 7). A [`ShuffleScratch`] instead *owns* all of
//! that memory and is reused across iterations:
//!
//! * **fan-out buckets** — scatter appends each update directly into
//!   the bucket of its first radix digit (the top `fanout_bits` of the
//!   partition id). This *fuses the first shuffle stage into scatter*:
//!   the counting pass and copy pass the first stage used to spend on
//!   the whole update stream disappear. With the common single-stage
//!   plan the entire shuffle collapses into scatter.
//! * **double stage buffers** — the remaining stages ping-pong between
//!   two pooled buffers in place (`&mut`, no consume/return `Vec`s),
//!   arranged so the final pass always lands in the same buffer.
//! * **count/offset arrays** — the per-group radix counters and chunk
//!   index arrays persist too.
//!
//! After the first iteration warms the pool, a steady-state superstep
//! performs no heap allocation (observable through
//! [`xstream_core::alloc_stats`]).
//!
//! One `ShuffleScratch` serves one worker thread (the Fig. 7 slicing:
//! each thread shuffles its private slice with zero synchronization);
//! a [`ShufflePool`] is the per-engine collection of them.

use crate::pool::{PerWorkerPtr, WorkerPool};
use crate::shuffle::MultiStagePlan;
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

/// Stable counting sort of one already-grouped run of records over
/// one radix digit: routes `group` into `fan` sub-chunks of the
/// output range `base..base + group.len()`, appending the `fan` new
/// chunk boundaries to `offsets_out`.
///
/// This is the placement kernel shared by every multi-stage shuffle
/// pass (`fan` must be a power of two — the digit is a shift+mask of
/// `key`; the arbitrary-`k` single-stage
/// [`CountingPlacement`](crate::shuffle::CountingPlacement) keeps its
/// own modulo-free full-key loop). Each record of
/// `group` is written to a distinct slot of `spare` inside the
/// group's sub-range; the caller performs the final `set_len` once
/// all groups of a pass are placed.
#[allow(clippy::too_many_arguments)]
fn radix_place_group<T: Record>(
    group: &[T],
    base: usize,
    fan: usize,
    shift: u32,
    counts: &mut [usize],
    offsets_out: &mut Vec<usize>,
    spare: &mut [std::mem::MaybeUninit<T>],
    key: &mut impl FnMut(&T) -> usize,
) {
    let counts = &mut counts[..fan + 1];
    counts.fill(0);
    for rec in group {
        let digit = (key(rec) >> shift) & (fan - 1);
        counts[digit + 1] += 1;
    }
    for i in 0..fan {
        counts[i + 1] += counts[i];
    }
    for &c in counts[1..=fan].iter() {
        offsets_out.push(base + c);
    }
    let cursor = counts;
    for rec in group {
        let digit = (key(rec) >> shift) & (fan - 1);
        let slot = base + cursor[digit];
        cursor[digit] += 1;
        spare[slot].write(*rec);
    }
}

/// Pooled, reusable state for the fused scatter + multi-stage shuffle
/// of one thread slice.
#[derive(Debug)]
pub struct ShuffleScratch<T> {
    plan: MultiStagePlan,
    /// `total_bits - step0`: right-shift that maps a partition id to
    /// its first-stage radix digit.
    shift0: u32,
    /// One append bucket per first-stage digit; capacity persists
    /// across iterations.
    buckets: Vec<Vec<T>>,
    /// Primary stage buffer: the final shuffle pass always writes here.
    front: Vec<T>,
    /// Secondary stage buffer for odd/even pass parity.
    back: Vec<T>,
    /// Final chunk boundaries over `front` (`padded_partitions + 1`
    /// entries) when at least one post-scatter pass ran.
    offsets: Vec<usize>,
    /// Working chunk boundaries between passes.
    cur_offsets: Vec<usize>,
    /// Radix count array reused by every group of every pass.
    counts: Vec<usize>,
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
    /// Whether the final records live in `front` (staged) or still in
    /// `buckets` (the single-stage fast path).
    staged: bool,
}

impl<T: Record> ShuffleScratch<T> {
    /// An empty scratch; buffers are grown on first use and then
    /// retained.
    pub fn new() -> Self {
        Self {
            plan: MultiStagePlan::new(1, 2),
            shift0: 0,
            buckets: Vec::new(),
            front: Vec::new(),
            back: Vec::new(),
            offsets: Vec::new(),
            cur_offsets: Vec::new(),
            counts: Vec::new(),
            len: 0,
            high_water: 0,
            harvested: false,
            staged: false,
        }
    }

    /// Rearms the scratch for one superstep under `plan`: clears the
    /// buckets (keeping their capacity) and records the first-stage
    /// digit geometry. Allocates only when `plan` grew past anything
    /// seen before.
    pub fn begin(&mut self, plan: MultiStagePlan) {
        let step0 = plan.fanout_bits.min(plan.total_bits);
        self.plan = plan;
        self.shift0 = plan.total_bits - step0;
        let fan0 = 1usize << step0;
        if self.buckets.len() < fan0 {
            self.buckets.resize_with(fan0, Vec::new);
        }
        for b in &mut self.buckets[..fan0] {
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
        self.staged = false;
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

    /// Number of first-stage buckets under the current plan.
    #[inline]
    pub fn fan0(&self) -> usize {
        1usize << self.plan.fanout_bits.min(self.plan.total_bits)
    }

    /// Appends one record addressed at `partition` — the fused first
    /// shuffle stage. `partition` must be below
    /// `plan.padded_partitions`.
    #[inline]
    pub fn push(&mut self, record: T, partition: usize) {
        debug_assert!(
            partition < self.plan.padded_partitions,
            "partition {partition} out of {}",
            self.plan.padded_partitions
        );
        // Checked index on purpose: this is a safe `pub` entry point,
        // and an out-of-range partition must panic, not corrupt memory
        // (A/B-measured: the single predictable bounds check is in the
        // noise next to the push itself).
        self.buckets[partition >> self.shift0].push(record);
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

    /// Number of addressable output chunks (`padded_partitions`).
    #[inline]
    pub fn num_chunks(&self) -> usize {
        self.plan.padded_partitions
    }

    /// Runs the remaining shuffle stages in place over the pooled
    /// double buffers. After this, [`chunk`](Self::chunk) serves the
    /// per-partition chunks.
    ///
    /// `key` must map each record to its partition id, consistently
    /// with the ids passed to [`push`](Self::push).
    pub fn finish(&mut self, mut key: impl FnMut(&T) -> usize) {
        let plan = self.plan;
        let step0 = plan.fanout_bits.min(plan.total_bits);
        let mut bits_done = step0;
        if bits_done >= plan.total_bits {
            // Single-stage (or trivial) plan: the buckets already are
            // the partition chunks; gather reads them in place.
            self.staged = false;
            return;
        }
        // Remaining passes ping-pong between the stage buffers; choose
        // the first target so the last pass lands in `front`.
        let remaining_bits = plan.total_bits - bits_done;
        let r = remaining_bits.div_ceil(plan.fanout_bits);
        let fan0 = 1usize << step0;

        // Both offset arrays eventually hold `padded_partitions + 1`
        // boundaries and are *swapped* between passes, so pre-size both
        // to the final length: otherwise the swap parity leaves the
        // short one to be regrown every single iteration.
        let offsets_cap = plan.padded_partitions + 1;
        self.cur_offsets.clear();
        self.offsets.clear();
        self.cur_offsets.reserve(offsets_cap);
        self.offsets.reserve(offsets_cap);

        // Pass 1 reads the scatter buckets directly.
        {
            let step = plan.fanout_bits.min(plan.total_bits - bits_done);
            let shift = plan.total_bits - bits_done - step;
            let fan = 1usize << step;
            let target = if r % 2 == 1 {
                &mut self.front
            } else {
                &mut self.back
            };
            target.clear();
            target.reserve(self.len);
            let spare = target.spare_capacity_mut();
            if self.counts.len() < fan + 1 {
                self.counts.resize(fan + 1, 0);
            }
            self.cur_offsets.push(0);
            let mut base = 0usize;
            for bucket in &self.buckets[..fan0] {
                radix_place_group(
                    bucket,
                    base,
                    fan,
                    shift,
                    &mut self.counts,
                    &mut self.cur_offsets,
                    &mut *spare,
                    &mut key,
                );
                base += bucket.len();
            }
            // SAFETY: `radix_place_group` assigns each record of each
            // bucket a distinct slot within the bucket's `base..`
            // sub-range, and the buckets tile `0..len`, so every
            // element below the new length was initialized above.
            unsafe {
                target.set_len(self.len);
            }
            bits_done += step;
        }

        // Passes 2..=r alternate between the two buffers, group-wise.
        let mut pass_index = 1u32;
        while bits_done < plan.total_bits {
            let step = plan.fanout_bits.min(plan.total_bits - bits_done);
            let shift = plan.total_bits - bits_done - step;
            let fan = 1usize << step;
            // Buffer parity: pass 1 wrote front iff r is odd, so pass
            // `i` (0-based `pass_index`) writes front iff r - i is odd.
            let (src, dst) = if (r - pass_index) % 2 == 1 {
                (&mut self.back, &mut self.front)
            } else {
                (&mut self.front, &mut self.back)
            };
            dst.clear();
            dst.reserve(self.len);
            let spare = dst.spare_capacity_mut();
            if self.counts.len() < fan + 1 {
                self.counts.resize(fan + 1, 0);
            }
            let groups = self.cur_offsets.len() - 1;
            self.offsets.clear();
            self.offsets.push(0);
            for g in 0..groups {
                let lo = self.cur_offsets[g];
                let hi = self.cur_offsets[g + 1];
                radix_place_group(
                    &src[lo..hi],
                    lo,
                    fan,
                    shift,
                    &mut self.counts,
                    &mut self.offsets,
                    &mut *spare,
                    &mut key,
                );
            }
            // SAFETY: as above — groups tile `0..len` and
            // `radix_place_group` covers each group's sub-range
            // exactly once.
            unsafe {
                dst.set_len(self.len);
            }
            // The freshly built boundaries become the next pass's input
            // boundaries (swap, not copy, to stay allocation-free).
            std::mem::swap(&mut self.cur_offsets, &mut self.offsets);
            bits_done += step;
            pass_index += 1;
        }
        // `cur_offsets` now delimits `padded_partitions` chunks of the
        // final buffer, which by parity construction is `front`.
        debug_assert_eq!(self.cur_offsets.len() - 1, plan.padded_partitions);
        debug_assert_eq!(pass_index, r);
        self.staged = true;
    }

    /// The chunk of partition `p` after [`finish`](Self::finish).
    ///
    /// # Panics
    ///
    /// Panics if `p >= num_chunks()`.
    #[inline]
    pub fn chunk(&self, p: usize) -> &[T] {
        if self.staged {
            &self.front[self.cur_offsets[p]..self.cur_offsets[p + 1]]
        } else {
            // Single-stage plan: bucket == partition.
            &self.buckets[p]
        }
    }

    /// Iterates `(partition, chunk)` pairs over non-empty chunks.
    pub fn iter_chunks(&self) -> impl Iterator<Item = (usize, &[T])> {
        (0..self.num_chunks())
            .map(move |p| (p, self.chunk(p)))
            .filter(|(_, c)| !c.is_empty())
    }

    /// Capacity of bucket `g` (for cross-slice capacity equalization).
    #[inline]
    pub fn bucket_capacity(&self, g: usize) -> usize {
        self.buckets.get(g).map_or(0, Vec::capacity)
    }

    /// Capacities of the two stage buffers.
    #[inline]
    pub fn stage_capacities(&self) -> (usize, usize) {
        (self.front.capacity(), self.back.capacity())
    }

    /// Grows *and shrinks* this slice toward the equalized capacity
    /// targets: each bucket `g` is reserved up to `targets[g]`
    /// (first-touch pre-faulting any new pages when `first_touch`, so
    /// a pinned owning worker places them on its node), and a bucket
    /// holding more than [`SHRINK_HYSTERESIS`]× its target is shrunk
    /// back to it — the ratchet-down half of the adaptive policy,
    /// releasing skew-era pages once the decaying budget has moved on.
    /// The stage buffers get the same treatment against
    /// `front`/`back`. Shrinking never drops below the current fill.
    pub fn apply_capacity_targets(
        &mut self,
        targets: &[usize],
        front: usize,
        back: usize,
        first_touch: bool,
    ) {
        for (g, &cap) in targets.iter().enumerate() {
            if g >= self.buckets.len() {
                break;
            }
            let b = &mut self.buckets[g];
            if b.capacity() < cap {
                b.reserve(cap - b.len());
                if first_touch {
                    prefault_spare(b);
                }
            } else if b.capacity() > cap.saturating_mul(SHRINK_HYSTERESIS) {
                b.shrink_to(cap.max(b.len()));
            }
        }
        for (buf, cap) in [(&mut self.front, front), (&mut self.back, back)] {
            if buf.capacity() < cap {
                let len = buf.len();
                buf.reserve(cap - len);
                if first_touch {
                    prefault_spare(buf);
                }
            } else if buf.capacity() > cap.saturating_mul(SHRINK_HYSTERESIS) {
                buf.shrink_to(cap.max(buf.len()));
            }
        }
    }

    /// Total records of capacity currently held by this slice (fan-out
    /// buckets plus both stage buffers) — the residency denominator.
    pub fn capacity_records(&self) -> usize {
        self.buckets.iter().map(Vec::capacity).sum::<usize>()
            + self.front.capacity()
            + self.back.capacity()
    }

    /// Copies the shuffled records out into an owned
    /// [`StreamBuffer`](crate::StreamBuffer) (for tests and callers
    /// that keep the scratch alive; the engines read chunks in place
    /// instead, and one-shot callers should prefer the non-cloning
    /// [`into_stream_buffer`](Self::into_stream_buffer)).
    pub fn to_stream_buffer(&self) -> crate::StreamBuffer<T> {
        if self.staged {
            crate::StreamBuffer::from_grouped(self.front.clone(), self.cur_offsets.clone())
        } else {
            self.collect_buckets()
        }
    }

    /// Consumes the scratch into an owned
    /// [`StreamBuffer`](crate::StreamBuffer), moving the final stage
    /// buffer out instead of cloning it (the single-stage path still
    /// concatenates the buckets — they are separate allocations).
    pub fn into_stream_buffer(mut self) -> crate::StreamBuffer<T> {
        if self.staged {
            crate::StreamBuffer::from_grouped(
                std::mem::take(&mut self.front),
                std::mem::take(&mut self.cur_offsets),
            )
        } else {
            self.collect_buckets()
        }
    }

    fn collect_buckets(&self) -> crate::StreamBuffer<T> {
        let mut data = Vec::with_capacity(self.len);
        let mut offsets = Vec::with_capacity(self.num_chunks() + 1);
        offsets.push(0);
        for p in 0..self.num_chunks() {
            data.extend_from_slice(self.chunk(p));
            offsets.push(data.len());
        }
        crate::StreamBuffer::from_grouped(data, offsets)
    }
}

impl<T: Record> Default for ShuffleScratch<T> {
    fn default() -> Self {
        Self::new()
    }
}

/// A bucket (or stage buffer) is shrunk only when its capacity exceeds
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
    /// Total capacity (records) held across all slices afterwards —
    /// fan-out buckets plus stage buffers.
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

    /// Read access to the adaptive capacity policy (for tests and
    /// experiment harnesses inspecting the envelopes).
    pub fn policy(&self) -> &CapacityPolicy {
        &self.policy
    }

    /// Number of per-worker slices.
    #[inline]
    pub fn num_slices(&self) -> usize {
        self.slices.len()
    }

    /// Rearms every slice for a superstep under `plan`.
    pub fn begin(&mut self, plan: MultiStagePlan) {
        for s in &mut self.slices {
            s.begin(plan);
        }
    }

    /// Rearms every slice for a superstep under `plan`, running each
    /// slice's [`begin`](ShuffleScratch::begin) **on the worker thread
    /// that owns the slice** (worker `i` rearms slice `i`; `None` or a
    /// too-small pool falls back to the calling thread). Any bucket
    /// spine the plan grows is thereby allocated and first touched by
    /// its owning worker — the cheap half of NUMA-aware slice
    /// placement: all later capacity growth happens on the owning
    /// worker's `push` path anyway.
    pub fn begin_first_touch(&mut self, plan: MultiStagePlan, pool: Option<&WorkerPool>) {
        for_each_slice_on_owner(&mut self.slices, pool, |_, slice, _| slice.begin(plan));
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

    /// Raw pointer to the slice array, for engines that hand disjoint
    /// `&mut` slices to scoped worker threads (see
    /// `xstream_memory::engine`).
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
        let (fan0, front, back) = self.compute_equalized_targets(budget);
        let targets = &self.targets[..fan0];
        for_each_slice_on_owner(&mut self.slices, pool, |_, slice, on_owner| {
            slice.apply_capacity_targets(targets, front, back, on_owner);
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

    /// The shared equalization policy: fills `self.targets[..fan0]`
    /// with each bucket's mirrored capacity target (cross-slice
    /// high-water mark, scaled down proportionally when the total
    /// demand exceeds `slice_budget`) and returns
    /// `(fan0, front, back)` — the bucket count and the budget-clamped
    /// stage-buffer targets. Both equalization variants apply exactly
    /// these numbers; only *where* the reservations run differs.
    fn compute_equalized_targets(&mut self, slice_budget: usize) -> (usize, usize, usize) {
        let fan0 = self.slices.iter().map(|s| s.fan0()).max().unwrap_or(0);
        if self.targets.len() < fan0 {
            self.targets.resize(fan0, 0);
        }
        let mut demand = 0usize;
        for g in 0..fan0 {
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
            for t in &mut self.targets[..fan0] {
                *t = (*t as u128 * slice_budget as u128 / demand.max(1) as u128) as usize;
            }
        }
        let (front, back) = self
            .slices
            .iter()
            .map(|s| s.stage_capacities())
            .fold((0, 0), |(f, b), (sf, sb)| (f.max(sf), b.max(sb)));
        (fan0, front.min(slice_budget), back.min(slice_budget))
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

    fn route(scratch: &mut ShuffleScratch<u32>, input: &[u32], k: usize, plan: MultiStagePlan) {
        scratch.begin(plan);
        for &r in input {
            scratch.push(r, (r as usize) % k);
        }
        scratch.finish(|r| (*r as usize) % k);
    }

    #[test]
    fn matches_single_stage_shuffle_across_fanouts() {
        let input: Vec<u32> = (0..10_000u32)
            .map(|i| i.wrapping_mul(2_654_435_761))
            .collect();
        let k = 64usize;
        let reference = shuffle(&input, k, |r| (*r as usize) % k);
        for fanout in [2usize, 4, 8, 64] {
            let plan = MultiStagePlan::new(k, fanout);
            let mut scratch = ShuffleScratch::new();
            route(&mut scratch, &input, k, plan);
            assert_eq!(scratch.len(), input.len());
            for p in 0..k {
                assert_eq!(
                    reference.chunk(p),
                    scratch.chunk(p),
                    "fanout {fanout} chunk {p}"
                );
            }
        }
    }

    #[test]
    fn reuse_is_allocation_free_and_correct() {
        let k = 256usize;
        let plan = MultiStagePlan::new(k, 4);
        let mut scratch = ShuffleScratch::new();
        let input: Vec<u32> = (0..5_000u32).map(|i| i.wrapping_mul(40_503)).collect();
        // Warm the pool.
        route(&mut scratch, &input, k, plan);
        let reference = shuffle(&input, k, |r| (*r as usize) % k);
        let clean_window = xstream_core::alloc_stats::any_allocation_free_window(50, || {
            route(&mut scratch, &input, k, plan);
        });
        for p in 0..k {
            assert_eq!(reference.chunk(p), scratch.chunk(p), "chunk {p}");
        }
        assert!(clean_window, "steady-state reuse allocated in every window");
    }

    #[test]
    fn single_stage_plan_serves_from_buckets() {
        let k = 16usize;
        let plan = MultiStagePlan::new(k, 16);
        assert_eq!(plan.stages, 1);
        let input: Vec<u32> = (0..1000).collect();
        let mut scratch = ShuffleScratch::new();
        route(&mut scratch, &input, k, plan);
        let reference = shuffle(&input, k, |r| (*r as usize) % k);
        for p in 0..k {
            assert_eq!(reference.chunk(p), scratch.chunk(p), "chunk {p}");
        }
    }

    #[test]
    fn trivial_and_empty_plans() {
        let plan = MultiStagePlan::new(1, 8);
        let mut scratch = ShuffleScratch::new();
        scratch.begin(plan);
        scratch.push(7u32, 0);
        scratch.finish(|_| 0);
        assert_eq!(scratch.chunk(0), &[7]);

        let plan = MultiStagePlan::new(64, 4);
        scratch.begin(plan);
        scratch.finish(|r: &u32| *r as usize);
        assert_eq!(scratch.len(), 0);
        for p in 0..scratch.num_chunks() {
            assert!(scratch.chunk(p).is_empty());
        }
    }

    #[test]
    fn to_stream_buffer_round_trips() {
        let k = 32usize;
        for fanout in [4usize, 32] {
            let plan = MultiStagePlan::new(k, fanout);
            let input: Vec<u32> = (0..2000u32).map(|i| i.wrapping_mul(977)).collect();
            let mut scratch = ShuffleScratch::new();
            route(&mut scratch, &input, k, plan);
            let buf = scratch.to_stream_buffer();
            assert_eq!(buf.len(), input.len());
            for p in 0..k {
                assert_eq!(buf.chunk(p), scratch.chunk(p));
            }
        }
    }

    #[test]
    fn pool_hands_out_independent_slices() {
        let plan = MultiStagePlan::new(8, 2);
        let mut pool: ShufflePool<u32> = ShufflePool::new(3);
        pool.begin(plan);
        for i in 0..3 {
            let s = pool.slice_mut(i);
            for v in 0..10u32 {
                s.push(v + i as u32 * 100, ((v + i as u32) % 8) as usize);
            }
        }
        for i in 0..3 {
            pool.slice_mut(i).finish(|r| ((*r % 100) % 8) as usize);
        }
        assert_eq!(pool.total_len(), 30);
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
        let k = 8usize;
        let plan = MultiStagePlan::new(k, k);
        let mut pool: ShufflePool<u32> = ShufflePool::new(4);
        // Skewed superstep: slice 0 buffers everything (extreme steal
        // imbalance), the others idle.
        pool.begin(plan);
        for v in 0..300_000u32 {
            pool.slice_mut(0).push(v, (v % k as u32) as usize);
        }
        for i in 0..4 {
            pool.slice_mut(i).finish(|r| (*r % k as u32) as usize);
        }
        let skew_report = pool.equalize_capacity_adaptive(None);
        assert_eq!(skew_report.high_water, 300_000);
        assert!(skew_report.budget >= 300_000);
        // The peak was mirrored: every slice can now hold it.
        assert!(skew_report.total_capacity >= 4 * 300_000);

        // Uniform supersteps: modest, evenly spread load. The budget
        // decays and capacity is actually released (shrunk), not just
        // capped.
        let mut last = skew_report;
        for _ in 0..12 {
            pool.begin(plan);
            for i in 0..4 {
                for v in 0..10_000u32 {
                    pool.slice_mut(i).push(v, (v % k as u32) as usize);
                }
            }
            for i in 0..4 {
                pool.slice_mut(i).finish(|r| (*r % k as u32) as usize);
            }
            last = pool.equalize_capacity_adaptive(None);
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
            pool.begin(plan);
            for i in 0..4 {
                for v in 0..10_000u32 {
                    pool.slice_mut(i).push(v, (v % k as u32) as usize);
                }
            }
            for i in 0..4 {
                pool.slice_mut(i).finish(|r| (*r % k as u32) as usize);
            }
            let r = pool.equalize_capacity_adaptive(None);
            assert_eq!(r.total_capacity, last.total_capacity);
        });
        assert!(clean_window, "steady-state adaptive pass kept allocating");
    }

    #[test]
    fn high_water_survives_mid_superstep_rearms() {
        // Spilling engines call begin() between spills; the mark must
        // accumulate across them until taken.
        let plan = MultiStagePlan::new(4, 4);
        let mut s: ShuffleScratch<u32> = ShuffleScratch::new();
        s.begin(plan);
        for v in 0..100u32 {
            s.push(v, (v % 4) as usize);
        }
        s.begin(plan); // spill rearm
        for v in 0..40u32 {
            s.push(v, (v % 4) as usize);
        }
        assert_eq!(s.take_high_water(), 100);
        // Taking resets to the live fill.
        assert_eq!(s.take_high_water(), 40);
        // But a harvested fill is not folded in again by the next
        // superstep's rearm — no cross-superstep double count.
        s.begin(plan);
        assert_eq!(s.take_high_water(), 0);
    }
}
