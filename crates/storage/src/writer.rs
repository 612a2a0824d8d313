//! Background stream writers (paper §3.3, Fig. 15).
//!
//! "The writes to disk of the chunks in one output buffer are
//! overlapped with computing the updates of the scatter phase into
//! another output buffer." The [`AsyncWriter`] owns **one dedicated
//! I/O thread per storage device** of its [`StreamStore`] (the store's
//! `device_fn` maps stream names to devices): a submitted append is
//! routed to the queue of the device its stream lives on, so the
//! Fig. 15 layout — edges on one device, updates on another — is
//! serviced by independent writer threads and a slow or failing device
//! never stalls appends bound for the other. Each device queue is a
//! pre-allocated [`BoundedQueue`] with depth-1 backpressure: the
//! caller can fill the next buffer while the previous one drains, and
//! submitting a third blocks until *that device* catches up — the
//! paper's double-buffered output, per device.
//!
//! The writer is *engine-persistent* rather than per-superstep:
//!
//! * byte buffers **recycle**: [`acquire`](AsyncWriter::acquire) hands
//!   out a pooled buffer, [`submit`](AsyncWriter::submit) sends it to
//!   the owning device's thread, and the thread returns it to the
//!   shared pool after the append — steady-state submissions never
//!   touch the allocator;
//! * **borrowed runs** skip the copy entirely:
//!   [`submit_borrowed`](AsyncWriter::submit_borrowed) ships a raw
//!   `(ptr, len)` view of caller-owned memory (e.g. a shuffle-scratch
//!   bucket) to the device thread, which appends straight from it.
//!   The caller keeps the memory alive and unmutated until
//!   [`wait_until`](AsyncWriter::wait_until) /
//!   [`flush`](AsyncWriter::flush) covers the submission — the
//!   engine's ping-pong output pools provide exactly that window;
//! * stream names travel as `Arc<str>` clones, so engines that
//!   pre-intern their per-partition names submit without allocating;
//! * [`flush`](AsyncWriter::flush) is a reusable drain barrier (wait
//!   until every submitted append on every device landed) and
//!   [`wait_until`](AsyncWriter::wait_until) the partial barrier
//!   behind the zero-copy protocol; errors are tracked per device so
//!   one failed device drops only its own stream's work.

use parking_lot::{Condvar, Mutex};
use std::cell::Cell;
use std::sync::Arc;
use std::thread::JoinHandle;

use crate::channel::BoundedQueue;
use crate::filestream::StreamStore;
use crate::iostats::MAX_DEVICES;
use xstream_core::{Error, Result};

/// A caller-owned byte run shipped to a writer thread without copying.
///
/// Carries a raw view into memory the submitter promises to keep alive
/// and unmutated until the covering barrier returns (see
/// [`AsyncWriter::submit_borrowed`]).
struct BorrowedRun {
    ptr: *const u8,
    len: usize,
}

// SAFETY: the pointer is only dereferenced on the writer thread while
// the submitting engine is bound by the `submit_borrowed` contract to
// keep the pointee alive and unmutated; the bytes themselves are plain
// data.
unsafe impl Send for BorrowedRun {}

/// A write job: append the bytes to the named stream.
enum Job {
    /// Owned buffer; returned to the recycle pool after the append.
    Owned(Arc<str>, Vec<u8>),
    /// Borrowed caller memory (zero-copy spill path).
    Borrowed(Arc<str>, BorrowedRun),
}

/// Barrier token: the per-device submission counts at the moment it
/// was taken ([`AsyncWriter::submitted`]). Jobs complete in submission
/// order only *within* one device, so a sound barrier must compare
/// per-device — a single global count would let a fast device's
/// completions stand in for a slow device's still-in-flight borrowed
/// run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteMark([u64; MAX_DEVICES]);

struct WriterShared {
    /// Jobs fully processed per device thread (error or not).
    completed: Mutex<[u64; MAX_DEVICES]>,
    /// Signalled after every completed job; barriers wait on it.
    drained: Condvar,
    /// First unreported append error of each device since the last
    /// `flush` observed it. Per-device so a failing device drops only
    /// its own work while the others keep writing.
    errors: Vec<Mutex<Option<Error>>>,
}

/// Persistent per-device writer threads over a [`StreamStore`].
pub struct AsyncWriter {
    /// One job queue per device; `submit` routes by the store's
    /// `device_fn`.
    jobs: Vec<BoundedQueue<Job>>,
    recycled: BoundedQueue<Vec<u8>>,
    store: Arc<StreamStore>,
    /// Per-device jobs submitted from this handle (the writer is
    /// single-producer: one engine thread owns it).
    submitted: Cell<[u64; MAX_DEVICES]>,
    shared: Arc<WriterShared>,
    threads: Vec<JoinHandle<()>>,
}

impl AsyncWriter {
    /// Spawns one writer thread per device of `store`; `depth` buffers
    /// may be in flight *per device* before [`submit`](Self::submit)
    /// blocks (the paper uses one).
    pub fn new(store: Arc<StreamStore>, depth: usize) -> Result<Self> {
        Self::new_pinned(store, depth, None)
    }

    /// [`new`](Self::new) with optional topology-aware placement: with
    /// a [`PinPlan`](crate::topology::PinPlan), device `d`'s writer
    /// thread pins itself to `plan.io_cpus(d)` — a whole NUMA node,
    /// round-robined across nodes by device id, so its recycled byte
    /// buffers stay node-local without ever sharing a single core with
    /// a compute worker. Best-effort: a refused mask leaves the thread
    /// floating.
    pub fn new_pinned(
        store: Arc<StreamStore>,
        depth: usize,
        plan: Option<&crate::topology::PinPlan>,
    ) -> Result<Self> {
        let depth = depth.max(1);
        let devices = store.num_devices().max(1);
        let jobs: Vec<BoundedQueue<Job>> = (0..devices).map(|_| BoundedQueue::new(depth)).collect();
        // In-flight jobs plus one buffer being filled by the caller
        // can all return to the pool before the next acquire.
        let recycled: BoundedQueue<Vec<u8>> = BoundedQueue::new(devices * depth + 2);
        let shared = Arc::new(WriterShared {
            completed: Mutex::new([0; MAX_DEVICES]),
            drained: Condvar::new(),
            errors: (0..devices).map(|_| Mutex::new(None)).collect(),
        });
        let threads = (0..devices)
            .map(|d| {
                let jobs = jobs[d].clone();
                let recycled = recycled.clone();
                let shared = Arc::clone(&shared);
                let store = Arc::clone(&store);
                let cpus: Vec<usize> = plan.map(|p| p.io_cpus(d).to_vec()).unwrap_or_default();
                std::thread::Builder::new()
                    .name(format!("xstream-io-write-{d}"))
                    .spawn(move || {
                        if !cpus.is_empty() {
                            crate::topology::pin_current_thread(&cpus);
                        }
                        while let Some(job) = jobs.pop() {
                            // After a failed append this device's
                            // streams are suspect; drop its further
                            // work until flush reports it. Other
                            // devices are unaffected.
                            let poisoned = shared.errors[d].lock().is_some();
                            match job {
                                Job::Owned(name, mut buf) => {
                                    if !poisoned {
                                        if let Err(e) = store.append(&name, &buf) {
                                            *shared.errors[d].lock() = Some(e);
                                        }
                                    }
                                    buf.clear();
                                    let _ = recycled.try_push(buf);
                                }
                                Job::Borrowed(name, run) => {
                                    if !poisoned {
                                        // SAFETY: the `submit_borrowed`
                                        // contract keeps the pointee
                                        // alive and unmutated until the
                                        // covering barrier, which the
                                        // completion count below gates.
                                        let bytes =
                                            unsafe { std::slice::from_raw_parts(run.ptr, run.len) };
                                        if let Err(e) = store.append(&name, bytes) {
                                            *shared.errors[d].lock() = Some(e);
                                        }
                                    }
                                }
                            }
                            shared.completed.lock()[d] += 1;
                            shared.drained.notify_all();
                        }
                    })
                    .map_err(Error::Io)
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(Self {
            jobs,
            recycled,
            store,
            submitted: Cell::new([0; MAX_DEVICES]),
            shared,
            threads,
        })
    }

    /// Takes a pooled byte buffer (empty, capacity retained from prior
    /// submissions), or a fresh one while the pool is still warming up.
    pub fn acquire(&self) -> Vec<u8> {
        self.recycled.try_pop().unwrap_or_default()
    }

    /// Returns an unsubmitted buffer to the pool.
    pub fn recycle(&self, mut buf: Vec<u8>) {
        buf.clear();
        let _ = self.recycled.try_push(buf);
    }

    /// Barrier token covering everything submitted so far, for
    /// [`wait_until`](Self::wait_until).
    pub fn submitted(&self) -> WriteMark {
        WriteMark(self.submitted.get())
    }

    fn route(&self, name: &str) -> usize {
        self.store.device_of(name) as usize % self.jobs.len()
    }

    fn push(&self, device: usize, job: Job) -> Result<()> {
        let mut counts = self.submitted.get();
        counts[device] += 1;
        self.submitted.set(counts);
        self.jobs[device]
            .push(job)
            .map_err(|_| Error::Io(std::io::Error::other("async writer thread terminated")))
    }

    /// Queues an append on the stream's device thread; blocks while
    /// `depth` writes are in flight on that device. The buffer returns
    /// to the [`acquire`](Self::acquire) pool once written. Append
    /// errors surface on [`flush`](Self::flush) / [`finish`](Self::finish).
    pub fn submit(&self, name: impl Into<Arc<str>>, bytes: Vec<u8>) -> Result<()> {
        let name = name.into();
        self.push(self.route(&name), Job::Owned(name, bytes))
    }

    /// Queues a **zero-copy** append of `len` bytes at `ptr` on the
    /// stream's device thread.
    ///
    /// # Safety
    ///
    /// The memory `ptr..ptr + len` must stay allocated, initialized
    /// and unmutated until a barrier covering this submission returns:
    /// either [`flush`](Self::flush), or
    /// [`wait_until`](Self::wait_until) with a [`WriteMark`] taken at
    /// or after this call ([`submitted`](Self::submitted)). The mark
    /// carries per-device counts, so it covers this run even when
    /// later submissions land on other, faster devices.
    pub unsafe fn submit_borrowed(&self, name: Arc<str>, ptr: *const u8, len: usize) -> Result<()> {
        if len == 0 {
            return Ok(());
        }
        self.push(
            self.route(&name),
            Job::Borrowed(name, BorrowedRun { ptr, len }),
        )
    }

    /// Partial drain barrier: blocks until every job submitted before
    /// `mark` was taken has been applied (or failed) on its device.
    /// Use with a [`WriteMark`] from [`submitted`](Self::submitted) to
    /// wait for the borrowed runs of one spill batch without draining
    /// later work. Does not take errors — they stay pending for the
    /// next `flush`.
    pub fn wait_until(&self, mark: WriteMark) {
        let mut completed = self.shared.completed.lock();
        while completed.iter().zip(mark.0.iter()).any(|(c, m)| c < m) {
            self.shared.drained.wait(&mut completed);
        }
    }

    /// Drain barrier: blocks until every submitted append on every
    /// device has been applied (or failed), then reports the first
    /// error since the last flush. The writer stays usable afterwards.
    pub fn flush(&self) -> Result<()> {
        self.wait_until(self.submitted());
        // Fault-injection checkpoint for the barrier itself (device
        // threads' appends go through `StreamStore::append`, which has
        // its own checks); consulted after the drain so the injected
        // error wins only when the real writes succeeded.
        if let Some(plan) = self.store.faults() {
            if let crate::faults::FaultOutcome::Error(e) =
                plan.check("", crate::faults::FaultOp::Flush)
            {
                return Err(Error::Io(e));
            }
        }
        for slot in &self.shared.errors {
            if let Some(e) = slot.lock().take() {
                return Err(e);
            }
        }
        Ok(())
    }

    /// Drains outstanding writes, stops the threads and returns the
    /// first unreported write error, if any.
    pub fn finish(mut self) -> Result<()> {
        let drained = self.flush();
        self.shutdown();
        drained
    }

    fn shutdown(&mut self) {
        for q in &self.jobs {
            q.close();
        }
        self.recycled.close();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for AsyncWriter {
    fn drop(&mut self) {
        // Best effort drain; errors are surfaced only through `flush`
        // or `finish`. Draining before joining also upholds the
        // `submit_borrowed` contract for owners that drop the writer
        // before the borrowed memory.
        let _ = self.flush();
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_store(tag: &str) -> Arc<StreamStore> {
        let root = std::env::temp_dir().join(format!("xstream_writer_{tag}"));
        let _ = std::fs::remove_dir_all(&root);
        Arc::new(StreamStore::new(&root, 4096).unwrap())
    }

    #[test]
    fn writes_arrive_in_submission_order() {
        let store = temp_store("order");
        let w = AsyncWriter::new(Arc::clone(&store), 1).unwrap();
        for i in 0..50u8 {
            w.submit("s", vec![i; 100]).unwrap();
        }
        w.finish().unwrap();
        let bytes = store.read_all("s").unwrap();
        assert_eq!(bytes.len(), 5000);
        for (i, chunk) in bytes.chunks(100).enumerate() {
            assert!(chunk.iter().all(|&b| b == i as u8));
        }
    }

    #[test]
    fn interleaves_multiple_streams() {
        let store = temp_store("multi");
        let w = AsyncWriter::new(Arc::clone(&store), 2).unwrap();
        for i in 0..10u32 {
            w.submit(format!("updates.{}", i % 3), i.to_le_bytes().to_vec())
                .unwrap();
        }
        w.finish().unwrap();
        assert_eq!(store.len("updates.0"), 16);
        assert_eq!(store.len("updates.1"), 12);
        assert_eq!(store.len("updates.2"), 12);
    }

    #[test]
    fn drop_without_finish_still_drains() {
        let store = temp_store("drop");
        {
            let w = AsyncWriter::new(Arc::clone(&store), 1).unwrap();
            w.submit("s", vec![1; 10]).unwrap();
        }
        assert_eq!(store.len("s"), 10);
    }

    #[test]
    fn flush_is_a_reusable_barrier() {
        let store = temp_store("flush");
        let w = AsyncWriter::new(Arc::clone(&store), 1).unwrap();
        for superstep in 0..3u8 {
            for _ in 0..4 {
                w.submit("s", vec![superstep; 8]).unwrap();
            }
            w.flush().unwrap();
            // Every append of this superstep is on disk at the barrier.
            assert_eq!(store.len("s"), u64::from(superstep + 1) * 32);
        }
        w.finish().unwrap();
    }

    #[test]
    fn buffers_recycle_through_the_pool() {
        if !xstream_core::alloc_stats::run_alone(module_path!(), "buffers_recycle_through_the_pool")
        {
            return;
        }
        let store = temp_store("recycle");
        let w = AsyncWriter::new(Arc::clone(&store), 1).unwrap();
        let name: Arc<str> = Arc::from("s");
        // Warm the pool.
        for _ in 0..4 {
            let mut buf = w.acquire();
            buf.extend_from_slice(&[7u8; 1 << 12]);
            w.submit(Arc::clone(&name), buf).unwrap();
        }
        w.flush().unwrap();
        let clean = xstream_core::alloc_stats::any_allocation_free_window(50, || {
            for _ in 0..4 {
                let mut buf = w.acquire();
                buf.extend_from_slice(&[7u8; 1 << 12]);
                w.submit(Arc::clone(&name), buf).unwrap();
            }
            w.flush().unwrap();
        });
        assert!(clean, "warm submit/flush cycle allocated in every window");
        w.finish().unwrap();
    }

    #[test]
    fn acquired_buffers_come_back_empty() {
        let store = temp_store("empty");
        let w = AsyncWriter::new(Arc::clone(&store), 1).unwrap();
        let mut buf = w.acquire();
        buf.extend_from_slice(b"abc");
        w.submit("s", buf).unwrap();
        w.flush().unwrap();
        let recycled = w.acquire();
        assert!(recycled.is_empty());
        w.recycle(recycled);
        w.finish().unwrap();
    }

    #[test]
    fn borrowed_runs_append_without_copying() {
        if !xstream_core::alloc_stats::run_alone(
            module_path!(),
            "borrowed_runs_append_without_copying",
        ) {
            return;
        }
        let store = temp_store("borrowed");
        let w = AsyncWriter::new(Arc::clone(&store), 1).unwrap();
        let name: Arc<str> = Arc::from("s");
        let payload = vec![42u8; 10_000];
        // SAFETY: `payload` outlives the `flush` barrier below.
        unsafe {
            w.submit_borrowed(Arc::clone(&name), payload.as_ptr(), payload.len())
                .unwrap();
            w.submit_borrowed(Arc::clone(&name), payload.as_ptr(), 5)
                .unwrap();
        }
        w.flush().unwrap();
        drop(payload);
        assert_eq!(store.len("s"), 10_005);
        // Steady-state borrowed submissions stay off the allocator.
        let payload = vec![7u8; 4096];
        let clean = xstream_core::alloc_stats::any_allocation_free_window(50, || {
            // SAFETY: `payload` lives across the wait below.
            unsafe {
                w.submit_borrowed(Arc::clone(&name), payload.as_ptr(), payload.len())
                    .unwrap();
            }
            w.wait_until(w.submitted());
        });
        assert!(
            clean,
            "borrowed submit/wait cycle allocated in every window"
        );
        w.finish().unwrap();
    }

    #[test]
    fn wait_until_is_a_partial_barrier() {
        let store = temp_store("waituntil");
        let w = AsyncWriter::new(Arc::clone(&store), 2).unwrap();
        w.submit("s", vec![1u8; 100]).unwrap();
        let mark = w.submitted();
        w.wait_until(mark);
        // The first batch is durable at the partial barrier.
        assert_eq!(store.len("s"), 100);
        w.submit("s", vec![2u8; 50]).unwrap();
        w.finish().unwrap();
        assert_eq!(store.len("s"), 150);
    }

    #[test]
    fn per_device_threads_serve_a_two_device_store() {
        let root = std::env::temp_dir().join("xstream_writer_twodev");
        let _ = std::fs::remove_dir_all(&root);
        let store = Arc::new(
            StreamStore::new(&root, 4096)
                .unwrap()
                .with_device_fn(2, |name| u8::from(name.starts_with("updates"))),
        );
        let w = AsyncWriter::new(Arc::clone(&store), 1).unwrap();
        for i in 0..8u8 {
            w.submit("edges.0", vec![i; 64]).unwrap();
            w.submit("updates.0", vec![i; 32]).unwrap();
        }
        // A mark taken here covers the traffic of *both* devices: the
        // barrier compares per-device counts, not a global total.
        w.wait_until(w.submitted());
        assert_eq!(store.len("edges.0"), 512);
        assert_eq!(store.len("updates.0"), 256);
        w.finish().unwrap();
        assert_eq!(store.len("edges.0"), 512);
        assert_eq!(store.len("updates.0"), 256);
        let snap = store.accounting().snapshot();
        assert_eq!(snap.per_device[0].bytes_written, 512);
        assert_eq!(snap.per_device[1].bytes_written, 256);
    }
}
