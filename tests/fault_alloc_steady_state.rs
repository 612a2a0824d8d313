//! After injected I/O faults stop, the out-of-core superstep loop must
//! return to its zero-allocation steady state.
//!
//! Own binary on purpose: `alloc_stats` counters are process-wide, and
//! the fault-matrix tests in `failure_injection.rs` build engines and
//! stores concurrently, which would pollute every measurement window
//! (same discipline as `disk_alloc_steady_state.rs`).

use std::sync::Arc;
use std::time::Duration;

use xstream::algorithms::wcc;
use xstream::core::{alloc_stats, EngineConfig, RetryPolicy};
use xstream::disk::DiskEngine;
use xstream::graph::generators;
use xstream::storage::{FaultKind, FaultOp, FaultPlan, FaultSpec, StreamStore};

#[test]
fn steady_state_is_allocation_free_again_after_faults_stop() {
    let g = generators::erdos_renyi(400, 2600, 77).to_undirected();
    let plan = Arc::new(FaultPlan::new(vec![FaultSpec {
        stream_prefix: "edges.".to_string(),
        op: FaultOp::Read,
        nth: 2,
        kind: FaultKind::Transient,
    }]));
    let dir = std::env::temp_dir().join("xstream_fault_alloc_steady");
    let _ = std::fs::remove_dir_all(&dir);
    let store = StreamStore::new(&dir, 8192)
        .expect("store")
        .with_faults(Arc::clone(&plan));
    let p = wcc::Wcc::new();
    // Forced spill, so every superstep exercises the spill-write and
    // gather-read paths.
    let cfg = EngineConfig {
        in_memory_updates: false,
        ..EngineConfig::default()
            .with_threads(2)
            .with_io_unit(8192)
            .with_memory_budget(1 << 20)
    }
    .with_retry(RetryPolicy {
        max_attempts: 3,
        backoff: Duration::ZERO,
    });
    let mut e = DiskEngine::from_graph(store, &g, &p, cfg).expect("engine");
    plan.arm();
    // Ride through the fault (one superstep is retried)...
    for _ in 0..3 {
        e.try_scatter_gather(&p).expect("retried superstep");
    }
    assert_eq!(plan.fired_count(), 1, "fault never fired");
    plan.disarm();
    // ...then the superstep loop must return to the zero-allocation
    // steady state: the disabled fault check is a single branch and the
    // pre-superstep vertex snapshot reuses its pooled buffer.
    assert!(
        alloc_stats::any_allocation_free_window(50, || {
            e.try_scatter_gather(&p).expect("steady superstep");
        }),
        "no allocation-free superstep within 50 after faults stopped"
    );
    drop(e);
    let _ = std::fs::remove_dir_all(&dir);
}
