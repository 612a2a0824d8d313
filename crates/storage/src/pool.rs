//! A persistent worker pool with allocation-free dispatch.
//!
//! The engines used to `std::thread::scope`-spawn fresh OS threads for
//! every phase of every superstep — several spawns per iteration, each
//! costing a kernel round trip plus heap allocations for stacks,
//! handles and closures. That both wastes time on the hot path and
//! breaks the zero-steady-state-allocation property the pooled
//! pipeline aims for (see [`crate::scratch`]). The pool lives here in
//! the storage crate so both the in-memory engine and the out-of-core
//! engine (which fans loaded disk chunks out to the same workers,
//! paper §4.3) share one implementation.
//!
//! [`WorkerPool`] spawns its threads once and parks them on a condvar.
//! [`WorkerPool::run`] publishes a borrowed job closure through a
//! generation counter, wakes the workers, runs slice 0 on the calling
//! thread, and blocks until every worker has finished — so the borrow
//! of the closure (and everything it captures) never escapes the call.
//! Dispatch performs no heap allocation: the job is passed as a raw
//! wide pointer and the synchronization is a futex-backed mutex +
//! condvar pair.

use parking_lot::{Condvar, Mutex};
use std::panic::AssertUnwindSafe;
use std::sync::Arc;

/// Type-erased pointer to the borrowed job closure.
///
/// The `'static` in the pointee type is a lie told to the type system:
/// [`WorkerPool::run`] guarantees the pointee outlives every use by
/// not returning until all workers are done with it.
type RawJob = *const (dyn Fn(usize) + Sync + 'static);

struct PoolState {
    /// Wide pointer to the current job, when one is published.
    job: Option<RawJob>,
    /// Incremented once per published job; workers use it to tell a
    /// fresh job from a spurious wakeup.
    generation: u64,
    /// Workers that have not yet finished the current job.
    remaining: usize,
    /// First panic payload captured from a worker running the current
    /// job, kept so the leader can rethrow the *original* panic
    /// (message, location and all) instead of a generic one.
    panic_payload: Option<Box<dyn std::any::Any + Send>>,
    /// Set once on drop to release the workers for good.
    shutdown: bool,
}

// SAFETY: the raw job pointer is only dereferenced while the
// publishing `run` call is blocked waiting for completion, so sending
// it between threads cannot outlive the closure it points to. The
// closure itself is `Sync`, making concurrent shared calls sound.
unsafe impl Send for PoolState {}

struct Shared {
    state: Mutex<PoolState>,
    /// Signals workers that a new generation (or shutdown) is ready.
    work_ready: Condvar,
    /// Signals the leader that `remaining` reached zero.
    work_done: Condvar,
}

/// A fixed set of parked worker threads executing borrowed jobs.
pub struct WorkerPool {
    shared: Arc<Shared>,
    handles: Vec<std::thread::JoinHandle<()>>,
    /// Worker ids handed to jobs are `1..=workers`; id 0 is the caller.
    workers: usize,
}

impl WorkerPool {
    /// Spawns `workers` parked threads. Jobs run with ids
    /// `1..=workers` on the pool plus id `0` on the thread calling
    /// [`run`](Self::run).
    pub fn new(workers: usize) -> Self {
        let shared = Arc::new(Shared {
            state: Mutex::new(PoolState {
                job: None,
                generation: 0,
                remaining: 0,
                panic_payload: None,
                shutdown: false,
            }),
            work_ready: Condvar::new(),
            work_done: Condvar::new(),
        });
        let handles = (1..=workers)
            .map(|tid| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("xstream-worker-{tid}"))
                    .spawn(move || worker_loop(&shared, tid))
                    .expect("failed to spawn pool worker")
            })
            .collect();
        Self {
            shared,
            handles,
            workers,
        }
    }

    /// Number of pool threads (excluding the calling thread).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs `job(tid)` for every `tid` in `0..=workers()`: id 0 inline
    /// on the calling thread, the rest on the pool. Returns once every
    /// invocation has finished.
    ///
    /// # Panics
    ///
    /// Rethrows the first panic raised by any `job` invocation (after
    /// all invocations have settled, so the pool stays usable).
    pub fn run(&self, job: &(dyn Fn(usize) + Sync)) {
        if self.workers == 0 {
            job(0);
            return;
        }
        // Erase the borrow lifetime for storage in the shared slot; the
        // wait-for-completion below keeps the pointee alive for every
        // dereference.
        let raw: RawJob = unsafe {
            std::mem::transmute::<*const (dyn Fn(usize) + Sync), RawJob>(
                job as *const (dyn Fn(usize) + Sync),
            )
        };
        {
            let mut state = self.shared.state.lock();
            debug_assert!(state.job.is_none(), "re-entrant WorkerPool::run");
            state.job = Some(raw);
            state.generation = state.generation.wrapping_add(1);
            state.remaining = self.workers;
            state.panic_payload = None;
            self.shared.work_ready.notify_all();
        }
        // The caller is worker 0. A panic here must still unblock the
        // pool workers' current generation — they operate on their own
        // copy of the pointer and decrement `remaining` independently —
        // so only completion bookkeeping below needs care.
        let leader_result = std::panic::catch_unwind(AssertUnwindSafe(|| job(0)));
        let worker_panic = {
            let mut state = self.shared.state.lock();
            while state.remaining > 0 {
                self.shared.work_done.wait(&mut state);
            }
            state.job = None;
            state.panic_payload.take()
        };
        if let Err(panic) = leader_result {
            std::panic::resume_unwind(panic);
        }
        if let Some(panic) = worker_panic {
            std::panic::resume_unwind(panic);
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut state = self.shared.state.lock();
            state.shutdown = true;
            self.shared.work_ready.notify_all();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// Raw pointer wrapper granting each worker `tid` exclusive access to
/// element `tid` of a per-worker array (shuffle scratch slices,
/// statistics counters). Shared by the engines' dispatch closures: a
/// [`WorkerPool::run`] invocation hands every `tid` to exactly one
/// worker, so the `&mut` elements produced through this wrapper are
/// disjoint across threads.
pub struct PerWorkerPtr<T>(pub *mut T);

impl<T> Clone for PerWorkerPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for PerWorkerPtr<T> {}

// SAFETY: the pointer is only dereferenced through `get_mut(tid)`
// where each dispatch runs every tid exactly once, so the produced
// `&mut` elements are disjoint across threads. `T: Send` is required
// because each `&mut T` hands the element itself to another thread.
unsafe impl<T: Send> Send for PerWorkerPtr<T> {}
// SAFETY: as above — sharing the wrapper hands out disjoint `&mut T`
// across threads, which is a transfer of `T`, hence `T: Send`.
unsafe impl<T: Send> Sync for PerWorkerPtr<T> {}

impl<T> PerWorkerPtr<T> {
    /// Produces the mutable element of worker `tid`.
    ///
    /// # Safety
    ///
    /// `tid` must be in bounds of the underlying array and no other
    /// live reference to element `tid` may exist (guaranteed when each
    /// worker of one dispatch uses only its own `tid`).
    #[inline]
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn get_mut(&self, tid: usize) -> &mut T {
        // SAFETY: forwarded to the caller per the method contract.
        unsafe { &mut *self.0.add(tid) }
    }
}

/// Raw pointer wrapper granting pool workers access to disjoint
/// sub-slices of one array: both engines' parallel gathers hand each
/// streaming partition to exactly one worker, which then applies
/// updates to that partition's states with no locks, and a sliced
/// counting placement hands each worker its own slice's runs and the
/// output slots inside them.
pub struct StatesPtr<S>(pub *mut S);

// SAFETY: the pointer is only dereferenced through
// `partition_slice_mut`, whose callers guarantee each partition index
// is claimed by exactly one worker (work queues pop every index once;
// a static stride assigns it once), so the produced `&mut` sub-slices
// are disjoint. `S: Send` is required because those `&mut` sub-slices
// hand the states themselves to other threads.
unsafe impl<S: Send> Send for StatesPtr<S> {}
// SAFETY: as above — sharing the wrapper across threads hands out
// disjoint `&mut [S]`, which is a transfer of `S`, hence `S: Send`.
unsafe impl<S: Send> Sync for StatesPtr<S> {}

impl<S> StatesPtr<S> {
    /// Produces the mutable state slice of one partition.
    ///
    /// # Safety
    ///
    /// `range` must lie inside the allocation and no other live
    /// reference (shared or unique) may overlap it.
    #[inline]
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn partition_slice_mut(&self, range: core::ops::Range<usize>) -> &mut [S] {
        // SAFETY: forwarded to the caller per the method contract.
        unsafe { std::slice::from_raw_parts_mut(self.0.add(range.start), range.len()) }
    }
}

fn worker_loop(shared: &Shared, tid: usize) {
    let mut seen_generation = 0u64;
    loop {
        let job = {
            let mut state = shared.state.lock();
            loop {
                if state.shutdown {
                    return;
                }
                if state.generation != seen_generation {
                    if let Some(job) = state.job {
                        seen_generation = state.generation;
                        break job;
                    }
                }
                shared.work_ready.wait(&mut state);
            }
        };
        // SAFETY: `run` blocks until `remaining` hits zero, so the
        // closure behind `job` outlives this call; the closure is
        // `Sync`, so calling it concurrently from several workers is
        // sound.
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| unsafe { (*job)(tid) }));
        let mut state = shared.state.lock();
        if let Err(payload) = result {
            // Keep the first payload; the leader rethrows it.
            state.panic_payload.get_or_insert(payload);
        }
        state.remaining -= 1;
        if state.remaining == 0 {
            shared.work_done.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

    #[test]
    fn every_id_runs_exactly_once() {
        let pool = WorkerPool::new(3);
        let hits: Vec<AtomicUsize> = (0..4).map(|_| AtomicUsize::new(0)).collect();
        for _ in 0..100 {
            pool.run(&|tid| {
                hits[tid].fetch_add(1, Ordering::Relaxed);
            });
        }
        for (tid, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::Relaxed), 100, "worker {tid}");
        }
    }

    #[test]
    fn zero_workers_runs_inline() {
        let pool = WorkerPool::new(0);
        let count = AtomicUsize::new(0);
        pool.run(&|tid| {
            assert_eq!(tid, 0);
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn steady_state_dispatch_is_allocation_free() {
        if !xstream_core::alloc_stats::run_alone(
            module_path!(),
            "steady_state_dispatch_is_allocation_free",
        ) {
            return;
        }
        let pool = WorkerPool::new(2);
        let sink = AtomicU64::new(0);
        // Warm up.
        pool.run(&|tid| {
            sink.fetch_add(tid as u64, Ordering::Relaxed);
        });
        let clean_window = xstream_core::alloc_stats::any_allocation_free_window(50, || {
            for _ in 0..10 {
                pool.run(&|tid| {
                    sink.fetch_add(tid as u64, Ordering::Relaxed);
                });
            }
        });
        assert!(clean_window, "pool dispatch allocated in every window");
    }

    #[test]
    fn worker_panic_is_propagated_and_pool_survives() {
        let pool = WorkerPool::new(2);
        let attempt = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run(&|tid| {
                if tid == 1 {
                    panic!("deliberate test panic");
                }
            });
        }));
        let payload = attempt.expect_err("worker panic was swallowed");
        // The original payload (not a generic wrapper) must surface.
        assert_eq!(
            payload.downcast_ref::<&str>(),
            Some(&"deliberate test panic")
        );
        // The pool must remain usable afterwards.
        let count = AtomicUsize::new(0);
        pool.run(&|_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 3);
    }
}
