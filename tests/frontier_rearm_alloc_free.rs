//! Re-arming a sized frontier pair must stay off the allocator.
//!
//! Own binary on purpose: `alloc_stats` counters are process-wide, so a
//! sibling test allocating during a measurement window fails it (same
//! discipline as `frontier_alloc_steady_state.rs`, whose supersteps
//! would pollute these windows and vice versa).

use xstream::core::{alloc_stats, FrontierPair, Partitioner};

#[test]
fn ensure_is_allocation_free_once_sized() {
    let part = Partitioner::new(4096, 8);
    let mut pair = FrontierPair::new();
    pair.ensure(&part);
    let clean = alloc_stats::any_allocation_free_window(5, || {
        pair.ensure(&part);
        for v in (0..4096u32).step_by(97) {
            pair.next.mark(v, part.partition_of(v));
        }
        pair.advance();
    });
    assert!(clean, "frontier re-arm allocated in every window");
}
