//! Differential tests for the pooled zero-allocation pipeline: the
//! fused scatter + in-place shuffle + merge-free gather must match the
//! sequential §2 [`OracleEngine`] superstep by superstep — counters and
//! bitwise vertex states — across thread, partition and shuffle-plan
//! configurations.

use xstream::core::{Edge, EdgeProgram, Engine, EngineConfig, OracleEngine, VertexId};
use xstream::graph::{generators, EdgeList};
use xstream::memory::InMemoryEngine;

/// Min-label propagation (WCC building block): gather is idempotent
/// and commutative, so any routing bug shows as a wrong final label.
struct MinLabel;

impl EdgeProgram for MinLabel {
    type State = u32;
    type Update = u32;

    fn init(&self, v: VertexId) -> u32 {
        v
    }

    fn scatter(&self, s: &u32, _e: &Edge) -> Option<u32> {
        Some(*s)
    }

    fn gather(&self, d: &mut u32, u: &u32) -> bool {
        if u < d {
            *d = *u;
            true
        } else {
            false
        }
    }
}

/// Weighted-degree accumulation: gather is order-insensitive only up
/// to floating-point association, and every update is applied exactly
/// once — a dropped or duplicated update changes the sum. Uses `u64`
/// addition, so duplicates cannot cancel.
struct DegreeSum;

impl EdgeProgram for DegreeSum {
    type State = u64;
    type Update = u32;

    fn init(&self, _v: VertexId) -> u64 {
        0
    }

    fn scatter(&self, _s: &u64, e: &Edge) -> Option<u32> {
        Some(e.src + 1)
    }

    fn gather(&self, d: &mut u64, u: &u32) -> bool {
        *d += u64::from(*u);
        true
    }
}

fn cfg(threads: usize, partitions: usize) -> EngineConfig {
    EngineConfig::default()
        .with_threads(threads)
        .with_partitions(partitions)
}

fn oracle<P: EdgeProgram>(g: &EdgeList, program: &P) -> OracleEngine<P> {
    OracleEngine::new(g.num_vertices(), g.edges().to_vec(), program)
}

/// Runs `steps` supersteps on both engines, asserting after each that
/// the per-step counters agree and the vertex states are identical.
/// `exact_changes` demands equal `vertices_changed`; programs whose
/// change count depends on update order (min-label) compare it only
/// as zero vs nonzero.
fn assert_lockstep<P: EdgeProgram>(
    pooled: &mut InMemoryEngine<P>,
    oracle: &mut OracleEngine<P>,
    program: &P,
    steps: usize,
    exact_changes: bool,
    ctx: &str,
) where
    P::State: PartialEq + std::fmt::Debug,
{
    for step in 0..steps {
        let a = pooled.scatter_gather(program);
        let b = oracle.scatter_gather(program);
        assert_eq!(a.edges_streamed, b.edges_streamed, "{ctx} step={step}");
        assert_eq!(
            a.updates_generated, b.updates_generated,
            "{ctx} step={step}"
        );
        assert_eq!(a.updates_applied, b.updates_applied, "{ctx} step={step}");
        if exact_changes {
            assert_eq!(a.vertices_changed, b.vertices_changed, "{ctx} step={step}");
        } else {
            assert_eq!(
                a.vertices_changed == 0,
                b.vertices_changed == 0,
                "{ctx} step={step}"
            );
        }
        assert_eq!(pooled.states(), oracle.states(), "{ctx} step={step}");
    }
}

#[test]
fn pooled_pipeline_matches_reference_across_supersteps() {
    let g = generators::erdos_renyi(800, 8000, 42).to_undirected();
    for threads in [1usize, 2, 4] {
        for partitions in [1usize, 8, 64] {
            let mut pooled = InMemoryEngine::from_graph(&g, &MinLabel, cfg(threads, partitions));
            let mut oracle = oracle(&g, &MinLabel);
            let ctx = format!("threads={threads} partitions={partitions}");
            assert_lockstep(&mut pooled, &mut oracle, &MinLabel, 4, false, &ctx);
        }
    }
}

#[test]
fn pooled_pipeline_applies_every_update_exactly_once() {
    // DegreeSum accumulates across supersteps, so a single dropped or
    // doubled update in any iteration poisons every later state.
    let g = generators::preferential_attachment(600, 6, 3).to_undirected();
    let mut pooled = InMemoryEngine::from_graph(&g, &DegreeSum, cfg(3, 32));
    let mut oracle = oracle(&g, &DegreeSum);
    assert_lockstep(&mut pooled, &mut oracle, &DegreeSum, 3, true, "degree-sum");
}

#[test]
fn pooled_pipeline_matches_reference_with_multi_stage_plans() {
    // Tiny fanout forces several in-place stages after the fused one.
    let g = generators::erdos_renyi(500, 5000, 7).to_undirected();
    let mut pooled = InMemoryEngine::from_graph(&g, &MinLabel, cfg(2, 64).with_shuffle_fanout(2));
    assert!(
        pooled.plan().stages >= 3,
        "fanout 2 over 64 partitions must be multi-stage"
    );
    let mut oracle = oracle(&g, &MinLabel);
    assert_lockstep(&mut pooled, &mut oracle, &MinLabel, 4, false, "multi-stage");
}
