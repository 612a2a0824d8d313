//! Failure-injection tests, in two tiers:
//!
//! * **Static failures** — corrupt inputs, truncated files, infeasible
//!   configurations and bad store paths must surface as `Err` values,
//!   never as panics or silent wrong answers.
//! * **Dynamic fault matrix** — deterministic I/O faults
//!   ([`FaultPlan`]) injected at each stage of a *running* out-of-core
//!   superstep (scatter read, spill write, gather read). Transient
//!   faults must be retried to the differentially-equal result of an
//!   uninterrupted run; permanent faults (`ENOSPC`) must fail fast
//!   with the engine left consistent. (That the superstep loop returns
//!   to its zero-allocation steady state once faults stop is checked
//!   in its own binary, `fault_alloc_steady_state.rs`.)

use std::io::Write;
use std::sync::Arc;
use std::time::Duration;

use xstream::algorithms::wcc;
use xstream::core::{EngineConfig, Error, OracleEngine, RetryPolicy};
use xstream::disk::DiskEngine;
use xstream::graph::fileio::{read_edge_file, write_edge_file, MAGIC};
use xstream::graph::{generators, EdgeList};
use xstream::storage::{FaultKind, FaultOp, FaultPlan, FaultSpec, StreamStore};

fn tmp(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("xstream_failure_tests");
    std::fs::create_dir_all(&dir).expect("dir");
    dir.join(name)
}

#[test]
fn corrupt_magic_is_rejected() {
    let path = tmp("bad_magic.edges");
    let mut f = std::fs::File::create(&path).unwrap();
    f.write_all(b"NOTMAGIC").unwrap();
    f.write_all(&[0u8; 64]).unwrap();
    drop(f);
    match read_edge_file(&path) {
        Err(Error::InvalidInput(msg)) => assert!(msg.contains("magic"), "{msg}"),
        other => panic!("expected InvalidInput, got {other:?}"),
    }
}

#[test]
fn short_file_is_rejected() {
    let path = tmp("short.edges");
    std::fs::write(&path, MAGIC).unwrap();
    match read_edge_file(&path) {
        Err(Error::InvalidInput(msg)) => assert!(msg.contains("short"), "{msg}"),
        other => panic!("expected InvalidInput, got {other:?}"),
    }
}

#[test]
fn truncated_payload_is_detected() {
    let g = generators::erdos_renyi(100, 500, 1);
    let path = tmp("trunc.edges");
    write_edge_file(&path, &g).unwrap();
    // Chop off the last 100 bytes of edge records.
    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..bytes.len() - 100]).unwrap();
    match read_edge_file(&path) {
        Err(Error::InvalidInput(msg)) => {
            assert!(msg.contains("truncated"), "{msg}")
        }
        other => panic!("expected truncation error, got {other:?}"),
    }
}

#[test]
fn missing_edge_file_is_an_io_error() {
    let path = tmp("does_not_exist.edges");
    let _ = std::fs::remove_file(&path);
    assert!(matches!(read_edge_file(&path), Err(Error::Io(_))));
}

#[test]
fn infeasible_memory_budget_is_a_config_error() {
    let g = generators::erdos_renyi(10_000, 40_000, 2).to_undirected();
    let store_dir = tmp("infeasible_store");
    let _ = std::fs::remove_dir_all(&store_dir);
    let store = StreamStore::new(&store_dir, 1 << 20).unwrap();
    // 64 KB of memory cannot satisfy N/K + 5SK <= M with a 1 MB I/O
    // unit: the constructor must refuse rather than thrash.
    let cfg = EngineConfig::default()
        .with_memory_budget(64 << 10)
        .with_io_unit(1 << 20);
    let p = wcc::Wcc::new();
    match DiskEngine::from_graph(store, &g, &p, cfg) {
        Err(Error::Config(msg)) => assert!(msg.contains("memory budget"), "{msg}"),
        other => panic!("expected Config error, got {:?}", other.map(|_| ())),
    }
    let _ = std::fs::remove_dir_all(&store_dir);
}

#[test]
fn store_rooted_at_a_file_fails() {
    let file_path = tmp("iam_a_file");
    std::fs::write(&file_path, b"occupied").unwrap();
    assert!(StreamStore::new(&file_path, 4096).is_err());
}

#[test]
fn missing_streams_spring_into_existence_empty() {
    // Streams are append-only and lazily created: reading one that was
    // never written is not an error, it is the empty stream — the
    // semantics the disk engine relies on for partitions that received
    // no updates in an iteration.
    let dir = tmp("missing_stream_store");
    let _ = std::fs::remove_dir_all(&dir);
    let store = StreamStore::new(&dir, 4096).unwrap();
    assert!(!store.exists("never_written"));
    assert_eq!(store.len("never_written"), 0);
    assert!(store.read_all("never_written").unwrap().is_empty());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn edge_list_validation_catches_out_of_range_endpoints() {
    use xstream::core::Edge;
    use xstream::graph::EdgeList;
    let bad = EdgeList::from_parts_unchecked(4, vec![Edge::new(0, 9)]);
    assert!(bad.validate().is_err());
    let good = EdgeList::from_parts_unchecked(10, vec![Edge::new(0, 9)]);
    assert!(good.validate().is_ok());
}

#[test]
fn zero_vertex_graph_is_handled() {
    use xstream::graph::EdgeList;
    let empty = EdgeList::empty(0);
    let labels = xstream::streams::semi::connected_components(&empty).unwrap();
    assert!(labels.is_empty());
}

#[test]
fn single_vertex_self_loop_graph_converges() {
    use xstream::core::Edge;
    let g = EdgeList::from_parts_unchecked(1, vec![Edge::new(0, 0)]);
    let (labels, stats) = wcc::wcc_in_memory(&g, EngineConfig::default());
    assert_eq!(labels, vec![0]);
    assert!(stats.num_iterations() <= 2);
}

// ------------------------------------------------- dynamic fault matrix

/// Test graph for the dynamic matrix. WCC (min-label over an
/// undirected graph) on purpose: integer state, order-independent,
/// and its fixed point is idempotent — so differential equality is
/// bitwise, regardless of how many times a superstep was re-run.
fn fault_graph() -> EdgeList {
    generators::erdos_renyi(400, 2600, 77).to_undirected()
}

/// Forced-spill configuration: small I/O unit and no resident-update
/// shortcut, so every superstep exercises the spill-write and
/// gather-read paths the matrix injects faults into.
fn spill_config() -> EngineConfig {
    EngineConfig {
        in_memory_updates: false,
        ..EngineConfig::default()
            .with_threads(2)
            .with_io_unit(8192)
            .with_memory_budget(1 << 20)
    }
}

fn fault_store(tag: &str, plan: &Arc<FaultPlan>) -> StreamStore {
    let dir = tmp(&format!("faults_{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    StreamStore::new(&dir, 8192)
        .expect("store")
        .with_faults(Arc::clone(plan))
}

fn transient(prefix: &str, op: FaultOp, nth: u64) -> FaultSpec {
    FaultSpec {
        stream_prefix: prefix.to_string(),
        op,
        nth,
        kind: FaultKind::Transient,
    }
}

/// WCC labels from the sequential §2 oracle — the differential
/// baseline every injected run must reproduce exactly. No store is
/// involved, so tests running in parallel share no files here.
fn baseline_labels(g: &EdgeList) -> Vec<u32> {
    let p = wcc::Wcc::new();
    let mut e = OracleEngine::new(g.num_vertices(), g.edges().to_vec(), &p);
    let (labels, _) = wcc::run(&mut e, &p);
    labels
}

#[test]
fn transient_faults_at_every_stage_are_retried_to_the_same_result() {
    let g = fault_graph();
    let expected = baseline_labels(&g);
    // One matrix row per superstep stage: the edge-file read feeding
    // scatter, the update-file append behind the spill, and the
    // update-file read feeding gather. A short read rides along to
    // prove partial reads never tear records.
    let rows: &[(&str, Vec<FaultSpec>)] = &[
        ("scatter_read", vec![transient("edges.", FaultOp::Read, 3)]),
        (
            "spill_write",
            vec![transient("updates.", FaultOp::Write, 1)],
        ),
        ("gather_read", vec![transient("updates.", FaultOp::Read, 0)]),
        (
            "short_read",
            vec![FaultSpec {
                stream_prefix: "edges.".to_string(),
                op: FaultOp::Read,
                nth: 2,
                kind: FaultKind::ShortRead,
            }],
        ),
    ];
    for (tag, specs) in rows {
        let plan = Arc::new(FaultPlan::new(specs.clone()));
        let store = fault_store(tag, &plan);
        let p = wcc::Wcc::new();
        let cfg = spill_config().with_retry(RetryPolicy {
            max_attempts: 4,
            backoff: Duration::ZERO,
        });
        let mut e = DiskEngine::from_graph(store, &g, &p, cfg).expect("engine");
        // Arm only now: construction and ingest ran fault-free, so the
        // faults land in steady-state supersteps.
        plan.arm();
        let (labels, stats) = wcc::run(&mut e, &p);
        assert_eq!(
            plan.fired_count(),
            specs.len() as u64,
            "{tag}: fault never fired"
        );
        assert_eq!(labels, expected, "{tag}: differential mismatch after retry");
        // Short reads are absorbed by the storage fill loops — no
        // error, no retry; real errors must have forced at least one.
        let retries: u64 = stats.totals().io_retries;
        if *tag == "short_read" {
            assert_eq!(retries, 0, "{tag}: short read should not cost a retry");
        } else {
            assert!(
                retries >= 1,
                "{tag}: expected a recorded retry, got {retries}"
            );
        }
    }
}

#[test]
fn transient_fault_on_a_sparse_ranged_read_is_retried() {
    // Frontier-tracked BFS with the hybrid divisor forced to 0: every
    // non-empty partition scatters through pooled ranged reads of the
    // sparse index path, so an "edges." read fault lands inside
    // `read_range_into` rather than the sequential read-ahead. The
    // superstep must be retried to the same levels an uninterrupted
    // run produces (min-gather: bitwise).
    use xstream::algorithms::bfs;
    let g = fault_graph();
    let sparse_cfg = || spill_config().with_frontier_threshold(0);
    let expected = {
        let dir = tmp("faults_sparse_baseline");
        let _ = std::fs::remove_dir_all(&dir);
        let store = StreamStore::new(&dir, 8192).expect("store");
        let p = bfs::Bfs::new();
        let mut e = DiskEngine::from_graph(store, &g, &p, sparse_cfg()).expect("engine");
        bfs::run(&mut e, &p, 0).0
    };
    for (tag, kind) in [
        ("transient", FaultKind::Transient),
        ("short", FaultKind::ShortRead),
    ] {
        let plan = Arc::new(FaultPlan::new(vec![FaultSpec {
            stream_prefix: "edges.".to_string(),
            op: FaultOp::Read,
            nth: 1,
            kind,
        }]));
        let store = fault_store(&format!("sparse_{tag}"), &plan);
        let p = bfs::Bfs::new();
        let cfg = sparse_cfg().with_retry(RetryPolicy {
            max_attempts: 4,
            backoff: Duration::ZERO,
        });
        let mut e = DiskEngine::from_graph(store, &g, &p, cfg).expect("engine");
        plan.arm();
        let (levels, stats) = bfs::run(&mut e, &p, 0);
        assert_eq!(plan.fired_count(), 1, "sparse {tag}: fault never fired");
        assert_eq!(levels, expected, "sparse {tag}: differential mismatch");
        assert!(
            stats.totals().partitions_sparse > 0,
            "sparse {tag}: the sparse path was never taken"
        );
        let retries = stats.totals().io_retries;
        if tag == "short" {
            // The ranged-read fill loop absorbs short reads in place.
            assert_eq!(retries, 0, "short read should not cost a retry");
        } else {
            assert!(retries >= 1, "sparse {tag}: no retry recorded");
        }
    }
}

#[test]
fn enospc_fails_fast_and_leaves_the_engine_consistent() {
    let g = fault_graph();
    let expected = baseline_labels(&g);
    let plan = Arc::new(FaultPlan::new(vec![FaultSpec {
        stream_prefix: "updates.".to_string(),
        op: FaultOp::Write,
        nth: 0,
        kind: FaultKind::Enospc,
    }]));
    let store = fault_store("enospc", &plan);
    let p = wcc::Wcc::new();
    let cfg = spill_config().with_retry(RetryPolicy {
        max_attempts: 4,
        backoff: Duration::ZERO,
    });
    let mut e = DiskEngine::from_graph(store, &g, &p, cfg).expect("engine");
    plan.arm();
    // Device-full is permanent: no retry budget is spent on it.
    let err = e.try_scatter_gather(&p).expect_err("ENOSPC must surface");
    assert!(!err.is_transient(), "{err}");
    match &err {
        Error::Io(io) => assert_eq!(io.raw_os_error(), Some(28), "{err}"),
        other => panic!("expected Io(ENOSPC), got {other}"),
    }
    // Once the device recovers (the one-shot spec is spent), the same
    // engine finishes the run and agrees with the uninterrupted one:
    // recovery truncated the partial update files and min-label WCC
    // re-converges from whatever state the failed superstep left.
    // (`wcc::run`, not the generic loop: WCC's round-based scatter
    // activity needs its own driver.)
    plan.disarm();
    let (labels, _) = wcc::run(&mut e, &p);
    assert_eq!(labels, expected);
}

#[test]
fn persistent_transient_faults_exhaust_the_retry_budget() {
    let g = fault_graph();
    // One streaming partition: after the fault kills the single edge
    // stream there is no other read to burn the second spec early, so
    // both attempts deterministically fail.
    let plan = Arc::new(FaultPlan::new(vec![
        transient("edges.", FaultOp::Read, 0),
        transient("edges.", FaultOp::Read, 0),
    ]));
    let store = fault_store("exhaust", &plan);
    let p = wcc::Wcc::new();
    let cfg = spill_config().with_partitions(1).with_retry(RetryPolicy {
        max_attempts: 2,
        backoff: Duration::ZERO,
    });
    let mut e = DiskEngine::from_graph(store, &g, &p, cfg).expect("engine");
    plan.arm();
    match e.try_scatter_gather(&p) {
        Err(Error::Exhausted { attempts, source }) => {
            assert_eq!(attempts, 2);
            assert!(source.is_transient(), "{source}");
        }
        other => panic!("expected Exhausted, got {:?}", other.map(|_| ())),
    }
    // The budget error itself is permanent — a driving loop must not
    // retry it again.
    assert_eq!(plan.fired_count(), 2);
}

#[test]
fn seeded_chaos_run_matches_the_uninterrupted_run() {
    let g = fault_graph();
    let expected = baseline_labels(&g);
    // A pseudo-random barrage of transient faults across ops and
    // stream families, deterministic for the seed. Every spec fires at
    // most once, so a budget of n+1 attempts can never be exhausted.
    let plan = Arc::new(FaultPlan::seeded(0x5eed_cafe, 6));
    let store = fault_store("chaos", &plan);
    let p = wcc::Wcc::new();
    let cfg = spill_config().with_retry(RetryPolicy {
        max_attempts: 8,
        backoff: Duration::ZERO,
    });
    let mut e = DiskEngine::from_graph(store, &g, &p, cfg).expect("engine");
    plan.arm();
    let (labels, _) = wcc::run(&mut e, &p);
    assert_eq!(labels, expected, "chaos run diverged from baseline");
}

// ------------------------------------------------------ bit-flip matrix

/// One flipped byte per read boundary. Silent corruption carries no
/// errno, so only the read-path checksum verification can catch it —
/// every row must end **detected** (`Error::Corrupt` naming the
/// stream), never in a silently wrong answer.
#[test]
fn bitflips_are_detected_at_every_read_boundary() {
    let g = fault_graph();
    // (tag, stream family, config) — vertices streams only exist (and
    // are re-read every superstep) when vertex state lives on disk.
    let rows: &[(&str, &str, EngineConfig)] = &[
        ("edges_read", "edges.", spill_config()),
        ("updates_read", "updates.", spill_config()),
        (
            "vertices_read",
            "vertices.",
            EngineConfig {
                keep_vertices_in_memory: false,
                ..spill_config()
            },
        ),
    ];
    for (tag, family, cfg) in rows {
        let plan = Arc::new(FaultPlan::new(vec![FaultSpec {
            stream_prefix: family.to_string(),
            op: FaultOp::Read,
            nth: 0,
            kind: FaultKind::BitFlip,
        }]));
        let store = fault_store(&format!("flip_{tag}"), &plan);
        let p = wcc::Wcc::new();
        // A generous transient budget on purpose: corruption must not
        // be retried like a timeout — rereading rotted bytes yields
        // rotted bytes.
        let cfg = cfg.clone().with_retry(RetryPolicy {
            max_attempts: 4,
            backoff: Duration::ZERO,
        });
        let mut e = DiskEngine::from_graph(store, &g, &p, cfg).expect("engine");
        plan.arm();
        let err = loop {
            match e.try_scatter_gather(&p) {
                Ok(stats) => {
                    // The flip may land after this superstep's reads of
                    // that family; keep going until it fires.
                    assert_eq!(
                        stats.corruptions_detected, 0,
                        "{tag}: corruption counted on a superstep that succeeded"
                    );
                }
                Err(e) => break e,
            }
            assert_eq!(plan.fired_count(), 0, "{tag}: flip fired without an error");
        };
        assert_eq!(plan.fired_count(), 1, "{tag}: flip never fired");
        match &err {
            Error::Corrupt { stream, .. } => {
                assert!(
                    stream.starts_with(family),
                    "{tag}: corruption blamed on `{stream}`, expected {family}*"
                );
            }
            other => panic!("{tag}: expected Error::Corrupt, got {other}"),
        }
        assert!(!err.is_transient(), "{tag}: rot must not be retried: {err}");
    }
}

#[test]
fn checkpoint_bitflip_falls_back_like_a_torn_frame() {
    let g = fault_graph();
    let expected = baseline_labels(&g);
    let cfg = || spill_config().with_checkpoint_every(1);
    let dir = tmp("faults_flip_ckpt");
    let _ = std::fs::remove_dir_all(&dir);
    let p = wcc::Wcc::new();
    {
        let store = StreamStore::new(&dir, 8192).expect("store");
        let mut e = DiskEngine::from_graph(store, &g, &p, cfg()).expect("engine");
        let (labels, _) = wcc::run(&mut e, &p);
        assert_eq!(labels, expected);
    }
    // "Reboot" onto the surviving store with a flip armed at the very
    // first checkpoint read: the resume must treat the rotted slot
    // like a torn frame — fall back to the other slot (or a fresh
    // start), never crash, never restore flipped state.
    let plan = Arc::new(FaultPlan::new(vec![FaultSpec {
        stream_prefix: "checkpoint.".to_string(),
        op: FaultOp::Read,
        nth: 0,
        kind: FaultKind::BitFlip,
    }]));
    let store = StreamStore::new(&dir, 8192)
        .expect("store")
        .with_faults(Arc::clone(&plan));
    let mut e = DiskEngine::from_graph(store, &g, &p, cfg().with_resume(true)).expect("engine");
    plan.arm();
    let restored = e.resume_from_checkpoint().expect("fallback, not failure");
    assert_eq!(plan.fired_count(), 1, "checkpoint flip never fired");
    plan.disarm();
    // Whichever slot (or fresh start) the resume picked, finishing the
    // run reproduces the uninterrupted result.
    let (labels, _) = wcc::run(&mut e, &p);
    assert_eq!(
        labels, expected,
        "resumed after flip (restored {restored:?})"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Seeded chaos soak: transient faults and bit flips land mid-run, a
/// permanent fault "crashes" the process analog, the survivor store is
/// resumed, and `scrub --repair` afterwards leaves a manifest-valid
/// store — with the final labels bitwise those of a run that saw none
/// of it.
#[test]
fn seeded_chaos_with_bitflips_crash_resume_and_scrub_repair() {
    let g = fault_graph();
    let expected = baseline_labels(&g);
    let ckpt_cfg = || EngineConfig {
        in_memory_updates: false,
        ..EngineConfig::default()
            .with_threads(2)
            .with_io_unit(8192)
            .with_memory_budget(1 << 20)
            .with_checkpoint_every(1)
            .with_retry(RetryPolicy {
                max_attempts: 8,
                backoff: Duration::ZERO,
            })
    };
    for seed in [0x00DD_BA11_u64, 0xB005_EED5_u64, 0x5EED_50AC_u64] {
        // Deterministic xorshift64* spec barrage (same generator as
        // FaultPlan::seeded, plus bit flips the retry machinery cannot
        // see), then one permanent fault as the crash.
        let mut x = seed.max(1);
        let mut next = move || {
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            x.wrapping_mul(0x2545_F491_4F6C_DD1D)
        };
        let mut specs: Vec<FaultSpec> = (0..5)
            .map(|_| {
                let op = match next() % 3 {
                    0 => FaultOp::Read,
                    1 => FaultOp::Write,
                    _ => FaultOp::Flush,
                };
                let prefix = match next() % 3 {
                    0 => "edges.",
                    1 => "updates.",
                    _ => "",
                };
                FaultSpec {
                    stream_prefix: prefix.to_string(),
                    op,
                    nth: next() % 48,
                    kind: FaultKind::Transient,
                }
            })
            .collect();
        specs.push(FaultSpec {
            stream_prefix: "updates.".to_string(),
            op: FaultOp::Read,
            nth: next() % 16,
            kind: FaultKind::BitFlip,
        });
        specs.push(FaultSpec {
            stream_prefix: "edges.".to_string(),
            op: FaultOp::Read,
            nth: 48 + next() % 32,
            kind: FaultKind::Permanent,
        });
        let plan = Arc::new(FaultPlan::new(specs));
        let dir = tmp(&format!("chaos_soak_{seed:x}"));
        let _ = std::fs::remove_dir_all(&dir);
        {
            // Fresh program per phase: Wcc carries the driver's round
            // counter, and a rebooted process starts its own at zero.
            let p = wcc::Wcc::new();
            let store = StreamStore::new(&dir, 8192)
                .expect("store")
                .with_faults(Arc::clone(&plan));
            let mut e = DiskEngine::from_graph(store, &g, &p, ckpt_cfg()).expect("engine");
            plan.arm();
            // Drive until convergence or the "crash" (a corruption or
            // the permanent fault unwinding the loop). Either way the
            // store directory is the survivor a reboot would see.
            let crashed =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| wcc::run(&mut e, &p)));
            if let Ok((labels, _)) = crashed {
                // The permanent spec may land after convergence.
                assert_eq!(labels, expected, "seed {seed:#x}: pre-crash divergence");
            }
        }
        // Reboot: fault-free store over the same directory, resume from
        // the newest valid checkpoint, finish the run.
        let p = wcc::Wcc::new();
        let store = StreamStore::new(&dir, 8192).expect("store");
        let mut e =
            DiskEngine::from_graph(store, &g, &p, ckpt_cfg().with_resume(true)).expect("engine");
        e.resume_from_checkpoint().expect("resume");
        let (labels, _) = wcc::run(&mut e, &p);
        assert_eq!(labels, expected, "seed {seed:#x}: post-resume divergence");
        drop(e);
        // The surviving store scrubs to manifest-valid after repair
        // (stale per-run streams and flagged checkpoint slots
        // quarantined).
        xstream::disk::scrub(&dir, true).expect("scrub --repair");
        let report = xstream::disk::scrub(&dir, false).expect("re-scrub");
        assert!(
            !report.has_unresolved_damage(),
            "seed {seed:#x}: store still damaged after repair: {report:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
