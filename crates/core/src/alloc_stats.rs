//! Process-wide heap-allocation accounting.
//!
//! The X-Stream hot path is supposed to be *allocation-free* in steady
//! state: stream buffers, radix count arrays and scatter buckets are
//! pooled across supersteps, so from the second iteration onward the
//! scatter → shuffle → gather pipeline should touch the allocator not
//! at all (see `xstream_memory::engine`). This module makes that claim
//! measurable: a counting [`GlobalAlloc`] wrapper around the system
//! allocator tracks every allocation and reallocation, and engines
//! snapshot the counters around each superstep to fill the
//! `alloc_count`/`alloc_bytes` fields of
//! [`IterationStats`](crate::stats::IterationStats).
//!
//! The wrapper costs two relaxed atomic increments per allocation —
//! noise next to the allocator's own bookkeeping — and is therefore
//! always on for every binary linking `xstream-core`.
//!
//! It also asks the kernel for transparent huge pages under every
//! block of at least [`HUGE_PAGE_THRESHOLD`] bytes: edge vectors,
//! placement outputs and update layouts are first touched in 2 MiB
//! faults instead of 4 KiB ones. Where huge pages are off, or on
//! another OS, the advice is a no-op.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOC_COUNT: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

/// Blocks at least this large are advised onto transparent huge pages.
///
/// Eight 2 MiB huge pages. The partial huge page at either end of a
/// block stays on 4 KiB pages, so at most a quarter of an advised block
/// does. A smaller threshold also advised the out-of-core engine's
/// partly filled stream buffers, whose resident size then grows in
/// 2 MiB steps: a prototype at 2 MiB raised serve-disk peak RSS by up
/// to 15 MB.
pub const HUGE_PAGE_THRESHOLD: usize = 16 << 20;

/// The x86-64 and AArch64 (4 KiB base page) transparent huge page.
const HUGE_PAGE: usize = 2 << 20;

/// Advises the whole huge pages inside `[ptr, ptr + size)` onto
/// transparent huge pages when the block is at least
/// [`HUGE_PAGE_THRESHOLD`] bytes. Allocates nothing, ignores errors.
#[inline]
fn advise_huge_pages(ptr: *mut u8, size: usize) {
    #[cfg(target_os = "linux")]
    if size >= HUGE_PAGE_THRESHOLD && !ptr.is_null() {
        let start = (ptr as usize).saturating_add(HUGE_PAGE - 1) & !(HUGE_PAGE - 1);
        let end = (ptr as usize).saturating_add(size) & !(HUGE_PAGE - 1);
        if start < end {
            // SAFETY: the range lies inside a block the allocator just
            // handed out and is page-aligned; MADV_HUGEPAGE changes no
            // contents and no mapping, only how later faults fill it.
            unsafe { sys::madvise(start as *mut u8, end - start, sys::MADV_HUGEPAGE) };
        }
    }
    #[cfg(not(target_os = "linux"))]
    let _ = (ptr, size);
}

#[cfg(target_os = "linux")]
mod sys {
    /// `MADV_HUGEPAGE` from `<sys/mman.h>`.
    pub const MADV_HUGEPAGE: i32 = 14;
    extern "C" {
        pub fn madvise(addr: *mut u8, len: usize, advice: i32) -> i32;
    }
}

/// A [`System`]-backed allocator counting allocations and bytes.
///
/// Installed as the global allocator by this crate; query it through
/// [`snapshot`].
pub struct CountingAllocator;

// SAFETY: defers every operation to `System`, which upholds the
// `GlobalAlloc` contract; the counters and the huge-page advice are
// side effects only.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: forwarded verbatim to the system allocator.
        let ptr = unsafe { System.alloc(layout) };
        advise_huge_pages(ptr, layout.size());
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: forwarded verbatim to the system allocator.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        advise_huge_pages(ptr, layout.size());
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded verbatim to the system allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A realloc is a (possible) new allocation from the pipeline's
        // point of view: growing a pooled buffer counts against the
        // zero-steady-state-allocation claim exactly like a fresh one.
        ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        // SAFETY: forwarded verbatim to the system allocator.
        let ptr = unsafe { System.realloc(ptr, layout, new_size) };
        advise_huge_pages(ptr, new_size);
        ptr
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Cumulative allocator counters at one point in time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AllocSnapshot {
    /// Allocations (plus reallocations) since process start.
    pub count: u64,
    /// Bytes requested by those allocations.
    pub bytes: u64,
}

impl AllocSnapshot {
    /// Counter deltas between `self` (earlier) and `later`.
    #[inline]
    pub fn delta(&self, later: &AllocSnapshot) -> AllocSnapshot {
        AllocSnapshot {
            count: later.count.saturating_sub(self.count),
            bytes: later.bytes.saturating_sub(self.bytes),
        }
    }
}

/// Reads the current cumulative counters.
///
/// Counters are process-wide: concurrent threads' allocations are
/// included, so callers measuring a specific region should ensure no
/// unrelated work runs in parallel (the engines' own worker threads are
/// part of the measured region by design).
#[inline]
pub fn snapshot() -> AllocSnapshot {
    AllocSnapshot {
        count: ALLOC_COUNT.load(Ordering::Relaxed),
        bytes: ALLOC_BYTES.load(Ordering::Relaxed),
    }
}

/// Runs `f` up to `attempts` times, returning whether any single run
/// completed without the counters observing an allocation.
///
/// The counters are process-wide, so a test asserting "this pooled
/// path is allocation-free" in a binary with concurrently running
/// sibling tests must accept the first interference-free window
/// rather than demand one specific quiet measurement. Single-test
/// binaries (where nothing else allocates) can assert exact zeros
/// directly instead.
pub fn any_allocation_free_window(attempts: usize, mut f: impl FnMut()) -> bool {
    (0..attempts).any(|_| {
        let before = snapshot();
        f();
        before.delta(&snapshot()).count == 0
    })
}

/// Set in the child process [`run_alone`] starts, to the test it runs.
const RUN_ALONE_VAR: &str = "XSTREAM_RUN_ALONE";

/// Runs one unit test of the current test binary alone, in a child
/// process, so sibling tests cannot allocate inside its measured
/// windows.
///
/// `module` is the test's `module_path!()` and `test` its function
/// name. Returns `true` in the child: the caller goes on with its body.
/// In the parent it re-executes the binary with `--exact` and one test
/// thread, asserts that the child ran exactly that test and that it
/// passed, and returns `false`: the caller returns at once.
///
/// The counters stay process-wide, so threads the code under test
/// spawns (I/O threads, worker pools) are still measured in the child.
pub fn run_alone(module: &str, test: &str) -> bool {
    // The harness names tests by their path below the crate root.
    let path = match module.split_once("::") {
        Some((_, inner)) => format!("{inner}::{test}"),
        None => test.to_owned(),
    };
    if std::env::var_os(RUN_ALONE_VAR).is_some_and(|v| v == path.as_str()) {
        return true;
    }
    let exe = std::env::current_exe().expect("test binary path");
    let out = std::process::Command::new(exe)
        .args([path.as_str(), "--exact", "--test-threads=1"])
        .env(RUN_ALONE_VAR, &path)
        .output()
        .expect("re-run the test binary");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success() && stdout.contains("test result: ok. 1 passed"),
        "{path} failed when run alone:\n{stdout}{}",
        String::from_utf8_lossy(&out.stderr)
    );
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_an_allocation() {
        let before = snapshot();
        let v: Vec<u64> = Vec::with_capacity(1024);
        let after = snapshot();
        drop(v);
        let d = before.delta(&after);
        assert!(d.count >= 1, "allocation not observed");
        assert!(d.bytes >= 8 * 1024, "allocated bytes not observed");
    }

    #[test]
    fn reuse_without_growth_is_free() {
        let mut v: Vec<u64> = Vec::with_capacity(256);
        let clean_window = any_allocation_free_window(50, || {
            for round in 0..10 {
                v.clear();
                for i in 0..256 {
                    v.push(i + round);
                }
            }
        });
        assert!(clean_window, "pooled reuse allocated in every window");
    }

    #[test]
    fn delta_saturates() {
        let a = AllocSnapshot { count: 5, bytes: 9 };
        let b = AllocSnapshot { count: 3, bytes: 4 };
        assert_eq!(a.delta(&b), AllocSnapshot::default());
        assert_eq!(b.delta(&a), AllocSnapshot { count: 2, bytes: 5 });
    }
}
