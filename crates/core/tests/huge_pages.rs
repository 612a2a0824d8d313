//! The global allocator advises blocks of at least
//! `HUGE_PAGE_THRESHOLD` bytes onto transparent huge pages.
//!
//! Reads `/sys/kernel/mm/transparent_hugepage/enabled` and
//! `/proc/self/smaps` only. When huge pages are `never`, the sysfs file
//! is missing or the OS is not Linux, the test prints why and skips.
//! It is the only test in this binary, so the process-wide allocation
//! counters see the test's allocations alone.

use xstream_core::alloc_stats::{snapshot, AllocSnapshot, HUGE_PAGE_THRESHOLD};

const HUGE_PAGE: usize = 2 << 20;

#[test]
fn large_blocks_are_advised_onto_huge_pages() {
    let Some(mode) = thp_mode() else {
        return;
    };
    println!("transparent huge pages: {mode}");
    let size = 2 * HUGE_PAGE_THRESHOLD;
    let one_block = AllocSnapshot {
        count: 1,
        bytes: size as u64,
    };

    // A fresh block above the threshold (`alloc`): one allocation, its
    // bytes.
    let before = snapshot();
    let mut fresh: Vec<u8> = Vec::with_capacity(size);
    assert_eq!(before.delta(&snapshot()), one_block);
    fresh.resize(size, 1);
    assert_advised("fresh", &fresh);

    // A zeroed one (`alloc_zeroed`), as `zeroed_records` and
    // `read_edge_file` take.
    let before = snapshot();
    let zeroed = vec![0u8; size];
    assert_eq!(before.delta(&snapshot()), one_block);
    assert_advised("zeroed", &zeroed);

    // A block grown past the threshold by `reserve`, i.e. `realloc`.
    let mut grown: Vec<u8> = Vec::with_capacity(1 << 20);
    grown.push(7);
    let before = snapshot();
    grown.reserve_exact(size - grown.len());
    assert_eq!(before.delta(&snapshot()), one_block);
    grown.resize(size, 1);
    assert_advised("grown", &grown);
    assert_eq!(grown[0], 7);
}

/// Asserts that the mapping holding `block`'s second huge page, which
/// lies inside its advised interior, carries the `hg` flag.
fn assert_advised(what: &str, block: &[u8]) {
    let (flags, huge_kb) = vma_of(block.as_ptr() as usize + HUGE_PAGE);
    println!("{what} block: VmFlags {flags}; AnonHugePages {huge_kb} kB");
    assert!(has_flag(&flags, "hg"), "{what} block not advised: {flags}");
}

/// The selected THP mode, or `None` (with the reason printed) when the
/// advice cannot take effect here.
fn thp_mode() -> Option<String> {
    if !cfg!(target_os = "linux") {
        println!("skipped: transparent huge pages are Linux-only");
        return None;
    }
    let path = "/sys/kernel/mm/transparent_hugepage/enabled";
    let Ok(text) = std::fs::read_to_string(path) else {
        println!("skipped: {path} is missing");
        return None;
    };
    let mode = text
        .split_whitespace()
        .find(|w| w.starts_with('['))
        .map(|w| w.trim_matches(|c| c == '[' || c == ']').to_string())
        .unwrap_or_default();
    if mode == "never" || mode.is_empty() {
        println!("skipped: transparent huge pages are {text:?}");
        return None;
    }
    Some(mode)
}

/// The `VmFlags` and `AnonHugePages` (kB) of the mapping holding `addr`.
fn vma_of(addr: usize) -> (String, u64) {
    let smaps = std::fs::read_to_string("/proc/self/smaps").expect("read /proc/self/smaps");
    let mut inside = false;
    let mut huge_kb = 0;
    for line in smaps.lines() {
        if let Some((lo, hi)) = vma_range(line) {
            inside = (lo..hi).contains(&addr);
        } else if inside {
            if let Some(kb) = line.strip_prefix("AnonHugePages:") {
                huge_kb = kb.trim().trim_end_matches("kB").trim().parse().unwrap_or(0);
            } else if let Some(flags) = line.strip_prefix("VmFlags:") {
                return (flags.trim().to_string(), huge_kb);
            }
        }
    }
    panic!("no mapping holds {addr:#x}");
}

/// The address range of an smaps header line (`lo-hi perms ...`).
fn vma_range(line: &str) -> Option<(usize, usize)> {
    let (lo, rest) = line.split_once('-')?;
    let hi = rest.split_whitespace().next()?;
    Some((
        usize::from_str_radix(lo, 16).ok()?,
        usize::from_str_radix(hi, 16).ok()?,
    ))
}

fn has_flag(flags: &str, flag: &str) -> bool {
    flags.split_whitespace().any(|f| f == flag)
}
