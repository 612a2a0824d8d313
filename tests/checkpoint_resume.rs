//! Crash/resume tests for the checksummed checkpoint protocol.
//!
//! A "crash" here is a superstep killed by an injected permanent fault
//! that unwinds out of the driving loop — the process state an actual
//! SIGKILL leaves behind is the same: a store directory holding edge
//! streams, maybe a partial update file, and the checkpoint frames of
//! every completed superstep. Resume must restore the newest valid
//! frame, replay the skipped supersteps as instant no-ops (so driver
//! protocols like WCC's round counter stay in sync), and produce a
//! result bitwise identical to a run that was never interrupted. Torn
//! frames must fall back to the previous slot; foreign frames (another
//! graph or program) must be rejected outright.

use std::panic::AssertUnwindSafe;
use std::sync::Arc;

use xstream::algorithms::wcc;
use xstream::core::EngineConfig;
use xstream::disk::DiskEngine;
use xstream::graph::{generators, EdgeList};
use xstream::storage::{FaultKind, FaultOp, FaultPlan, FaultSpec, StreamStore};

fn tmp(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("xstream_checkpoint_tests");
    std::fs::create_dir_all(&dir).expect("dir");
    dir.join(name)
}

fn graph() -> EdgeList {
    generators::erdos_renyi(400, 2600, 99).to_undirected()
}

/// Forced-spill, checkpoint-every-superstep configuration.
fn ckpt_config() -> EngineConfig {
    EngineConfig {
        in_memory_updates: false,
        ..EngineConfig::default()
            .with_threads(2)
            .with_io_unit(8192)
            .with_memory_budget(1 << 20)
            .with_checkpoint_every(1)
    }
}

fn fresh_store(tag: &str) -> (std::path::PathBuf, StreamStore) {
    let dir = tmp(tag);
    let _ = std::fs::remove_dir_all(&dir);
    let store = StreamStore::new(&dir, 8192).expect("store");
    (dir, store)
}

/// Uninterrupted baseline labels for [`graph`] under [`ckpt_config`].
fn baseline() -> Vec<u32> {
    let (_, store) = fresh_store("baseline");
    let p = wcc::Wcc::new();
    let mut e = DiskEngine::from_graph(store, &graph(), &p, ckpt_config()).expect("engine");
    let (labels, _) = wcc::run(&mut e, &p);
    labels
}

#[test]
fn killed_run_resumes_bitwise_identical_to_uninterrupted() {
    let g = graph();
    let expected = baseline();

    // --- The "crashed" run: superstep 4 is killed by a permanent
    // fault on its pre-gather flush barrier (flush happens exactly
    // once per superstep, so nth counts supersteps). The panic unwinds
    // out of wcc::run exactly like a process kill would abandon it;
    // checkpoints for supersteps 1..=3 are already on disk.
    let dir = tmp("crash");
    let _ = std::fs::remove_dir_all(&dir);
    let plan = Arc::new(FaultPlan::new(vec![FaultSpec {
        stream_prefix: String::new(),
        op: FaultOp::Flush,
        nth: 3,
        kind: FaultKind::Permanent,
    }]));
    {
        let store = StreamStore::new(&dir, 8192)
            .expect("store")
            .with_faults(Arc::clone(&plan));
        let p = wcc::Wcc::new();
        let mut a = DiskEngine::from_graph(store, &g, &p, ckpt_config()).expect("engine");
        plan.arm();
        let crash = std::panic::catch_unwind(AssertUnwindSafe(|| wcc::run(&mut a, &p)));
        assert!(crash.is_err(), "superstep 4 should have died");
    }
    assert!(
        dir.join("checkpoint.0").is_file() || dir.join("checkpoint.1").is_file(),
        "crashed run left no checkpoint frame"
    );

    // --- The resumed run: a brand-new engine over the same store
    // (re-ingest rebuilds the edge streams; the checkpoint frames are
    // untouched) restores superstep 3 and finishes the run.
    let store = StreamStore::new(&dir, 8192).expect("store");
    let p = wcc::Wcc::new();
    let mut b = DiskEngine::from_graph(store, &g, &p, ckpt_config()).expect("engine");
    let resumed_at = b.resume_from_checkpoint().expect("resume");
    assert_eq!(resumed_at, Some(3), "newest valid frame is superstep 3");
    let (labels, stats) = wcc::run(&mut b, &p);
    assert_eq!(
        labels, expected,
        "resumed labels diverge from uninterrupted run"
    );
    // The replayed supersteps are instant no-ops: no edges streamed,
    // no I/O, but still reported so driver round counters advance.
    for (i, it) in stats.iterations.iter().take(3).enumerate() {
        assert_eq!(it.edges_streamed, 0, "replayed superstep {i} did real work");
        assert_eq!(
            it.vertices_changed, 1,
            "replayed superstep {i} must keep loops going"
        );
    }
    assert!(
        stats.iterations[3..].iter().any(|it| it.edges_streamed > 0),
        "no real superstep ran after the replay"
    );
    // Real supersteps kept checkpointing (checkpoint_every = 1).
    assert!(stats.totals().checkpoints > 0);
}

#[test]
fn killed_bfs_resumes_mid_traversal_with_its_frontier_restored() {
    // Frontier-tracked traversal: the checkpoint frame's aux section
    // carries the active-vertex bitmap, so a resume mid-BFS restores
    // the exact wavefront instead of replaying from the root. The
    // resumed run must agree bitwise with an uninterrupted one AND
    // keep the frontier economy — its first real superstep streams
    // only the wavefront's edges, not the whole list.
    use xstream::algorithms::bfs;
    let g = generators::grid2d(32, 32); // long diameter: many rounds
    let expected = {
        let (_, store) = fresh_store("bfs_baseline");
        let p = bfs::Bfs::new();
        let mut e = DiskEngine::from_graph(store, &g, &p, ckpt_config()).expect("engine");
        bfs::run(&mut e, &p, 0).0
    };

    // Crash superstep 9 (checkpoints for 1..=8 are on disk).
    let dir = tmp("bfs_crash");
    let _ = std::fs::remove_dir_all(&dir);
    let plan = Arc::new(FaultPlan::new(vec![FaultSpec {
        stream_prefix: String::new(),
        op: FaultOp::Flush,
        nth: 8,
        kind: FaultKind::Permanent,
    }]));
    {
        let store = StreamStore::new(&dir, 8192)
            .expect("store")
            .with_faults(Arc::clone(&plan));
        let p = bfs::Bfs::new();
        let mut a = DiskEngine::from_graph(store, &g, &p, ckpt_config()).expect("engine");
        plan.arm();
        let crash = std::panic::catch_unwind(AssertUnwindSafe(|| bfs::run(&mut a, &p, 0)));
        assert!(crash.is_err(), "superstep 9 should have died");
    }
    // The newest frame really carries a frontier bitmap: its declared
    // aux length (little-endian u64 at byte 32 of the v2 header) is
    // nonzero.
    let aux_len = |slot: &std::path::Path| -> u64 {
        let bytes = std::fs::read(slot).expect("frame");
        u64::from_le_bytes(bytes[32..40].try_into().unwrap())
    };
    assert!(
        [0, 1]
            .iter()
            .map(|s| dir.join(format!("checkpoint.{s}")))
            .filter(|p| p.is_file())
            .any(|p| aux_len(&p) > 0),
        "no checkpoint frame carries a frontier bitmap"
    );

    // Resume and finish: bitwise-equal levels, and the first real
    // superstep after the replay streams a wavefront, not the graph.
    let store = StreamStore::new(&dir, 8192).expect("store");
    let p = bfs::Bfs::new();
    let mut b = DiskEngine::from_graph(store, &g, &p, ckpt_config()).expect("engine");
    assert_eq!(b.resume_from_checkpoint().expect("resume"), Some(8));
    let (levels, stats) = bfs::run(&mut b, &p, 0);
    assert_eq!(levels, expected, "resumed BFS diverged");
    let first_real = stats
        .iterations
        .iter()
        .find(|it| it.edges_streamed > 0)
        .expect("no real superstep after the replay");
    assert!(
        first_real.edges_streamed < g.num_edges() as u64 / 4,
        "restored frontier was not used: first real superstep streamed \
         {} of {} edges",
        first_real.edges_streamed,
        g.num_edges()
    );
}

#[test]
fn torn_newest_slot_falls_back_to_previous_checkpoint() {
    let g = graph();
    let dir = tmp("torn");
    let _ = std::fs::remove_dir_all(&dir);
    let final_step;
    {
        let store = StreamStore::new(&dir, 8192).expect("store");
        let p = wcc::Wcc::new();
        let mut a = DiskEngine::from_graph(store, &g, &p, ckpt_config()).expect("engine");
        let _ = wcc::run(&mut a, &p);
        final_step = a.completed_supersteps();
        assert!(
            final_step >= 2,
            "need at least two checkpoints for this test"
        );
    }
    // Tear the newest frame (slot = step % 2) mid-payload.
    let newest = dir.join(format!("checkpoint.{}", final_step % 2));
    let mut bytes = std::fs::read(&newest).expect("newest frame");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&newest, &bytes).expect("corrupt newest frame");

    // Resume rejects the torn frame by CRC and restores the previous
    // superstep from the other slot.
    let store = StreamStore::new(&dir, 8192).expect("store");
    let p = wcc::Wcc::new();
    let mut b = DiskEngine::from_graph(store, &g, &p, ckpt_config()).expect("engine");
    assert_eq!(
        b.resume_from_checkpoint().expect("resume"),
        Some(final_step - 1),
        "torn newest slot must fall back to the previous checkpoint"
    );

    // With both slots torn there is nothing to restore: fresh run.
    let other = dir.join(format!("checkpoint.{}", (final_step + 1) % 2));
    let mut bytes = std::fs::read(&other).expect("other frame");
    bytes[8] ^= 0x01;
    std::fs::write(&other, &bytes).expect("corrupt other frame");
    let store = StreamStore::new(&dir, 8192).expect("store");
    let mut c = DiskEngine::from_graph(store, &g, &p, ckpt_config()).expect("engine");
    assert_eq!(c.resume_from_checkpoint().expect("resume"), None);
}

#[test]
fn checkpoints_from_a_different_graph_are_rejected() {
    let dir = tmp("foreign");
    let _ = std::fs::remove_dir_all(&dir);
    {
        let store = StreamStore::new(&dir, 8192).expect("store");
        let p = wcc::Wcc::new();
        let mut a = DiskEngine::from_graph(store, &graph(), &p, ckpt_config()).expect("engine");
        let _ = wcc::run(&mut a, &p);
        assert!(a.completed_supersteps() > 0);
    }
    // Same store directory, different graph shape: the fingerprint
    // (and vertex count) no longer match, so resume must start fresh
    // rather than restore a foreign vertex array.
    let other = generators::erdos_renyi(401, 2600, 99).to_undirected();
    let store = StreamStore::new(&dir, 8192).expect("store");
    let p = wcc::Wcc::new();
    let mut b = DiskEngine::from_graph(store, &other, &p, ckpt_config()).expect("engine");
    assert_eq!(b.resume_from_checkpoint().expect("resume"), None);
}

#[test]
fn resume_restores_on_disk_vertex_state_too() {
    let g = graph();
    let dir = tmp("ondisk");
    let _ = std::fs::remove_dir_all(&dir);
    // On-disk vertex state: the restore path rewrites each partition's
    // vertex file through `update_partition`.
    let cfg = EngineConfig {
        keep_vertices_in_memory: false,
        ..ckpt_config()
    };
    let final_labels: Vec<u32>;
    let final_step;
    {
        let store = StreamStore::new(&dir, 8192).expect("store");
        let p = wcc::Wcc::new();
        let mut a = DiskEngine::from_graph(store, &g, &p, cfg.clone()).expect("engine");
        let (labels, _) = wcc::run(&mut a, &p);
        final_labels = labels;
        final_step = a.completed_supersteps();
    }
    let store = StreamStore::new(&dir, 8192).expect("store");
    let p = wcc::Wcc::new();
    let mut b = DiskEngine::from_graph(store, &g, &p, cfg).expect("engine");
    assert_eq!(
        b.resume_from_checkpoint().expect("resume"),
        Some(final_step)
    );
    use xstream::core::Engine;
    let restored: Vec<u32> = b.states().iter().map(|s| s.label).collect();
    assert_eq!(restored, final_labels, "store_back restore diverged");
}
