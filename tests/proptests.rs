//! Property-based tests over the whole stack: engines against
//! reference implementations on arbitrary graphs, storage-layer
//! multiset invariants, and record-codec round trips.

use proptest::collection::vec;
use proptest::prelude::*;

use xstream::algorithms::{bfs, mcst, mis, sssp, wcc};
use xstream::core::record::{decode_records, records_as_bytes};
use xstream::core::{Edge, EdgeProgram, Engine, EngineConfig, OracleEngine, Partitioner, VertexId};
use xstream::graph::{edgelist::from_pairs, EdgeList};
use xstream::memory::InMemoryEngine;
use xstream::storage::shuffle::{multistage_shuffle, shuffle, CountingPlacement, MultiStagePlan};
use xstream::storage::{UpdateLayout, WorkerPool};

/// Strategy: a directed graph as (vertex count, edge pairs).
fn arb_graph(max_v: usize, max_e: usize) -> impl Strategy<Value = (usize, Vec<(u32, u32)>)> {
    (2usize..max_v).prop_flat_map(move |n| {
        let pairs = vec((0..n as u32, 0..n as u32), 0..max_e);
        (Just(n), pairs)
    })
}

/// Reference WCC by union-find.
fn union_find_components(n: usize, pairs: &[(u32, u32)]) -> Vec<u32> {
    let mut parent: Vec<u32> = (0..n as u32).collect();
    fn find(p: &mut [u32], mut v: u32) -> u32 {
        while p[v as usize] != v {
            p[v as usize] = p[p[v as usize] as usize];
            v = p[v as usize];
        }
        v
    }
    for &(a, b) in pairs {
        let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
        // Union by smaller root so labels match min-label propagation.
        if ra < rb {
            parent[rb as usize] = ra;
        } else {
            parent[ra as usize] = rb;
        }
    }
    (0..n as u32).map(|v| find(&mut parent, v)).collect()
}

/// A sum program whose scatter declines on some states: every vertex
/// adds what its in-neighbours send, so a dropped, doubled or misrouted
/// update changes the states of every later superstep.
struct NeighbourSum;

impl EdgeProgram for NeighbourSum {
    type State = u32;
    type Update = u32;

    fn init(&self, v: VertexId) -> u32 {
        v
    }

    fn scatter(&self, s: &u32, e: &Edge) -> Option<u32> {
        (!s.is_multiple_of(3)).then(|| s.wrapping_mul(31).wrapping_add(e.dst + 1))
    }

    fn gather(&self, d: &mut u32, u: &u32) -> bool {
        *d = d.wrapping_add(*u);
        true
    }
}

/// `input` laid out as `tasks` contiguous tasks' updates under `plan`,
/// keyed by their `src` field, and finished.
fn layout_tasks(input: &[Edge], plan: MultiStagePlan, tasks: usize) -> UpdateLayout<Edge> {
    let key = |e: &Edge| e.src as usize;
    let task = |t: usize| &input[t * input.len() / tasks..(t + 1) * input.len() / tasks];
    let mut counts = vec![0; tasks * plan.fan0()];
    for t in 0..tasks {
        for e in task(t) {
            counts[t * plan.fan0() + plan.digit0(key(e))] += 1;
        }
    }
    let mut layout = UpdateLayout::new(plan, tasks, counts, 1);
    {
        let writer = layout.writer();
        for t in 0..tasks {
            let mut out = writer.task(t);
            task(t).iter().for_each(|e| out.push(*e, key(e)));
        }
    }
    layout.finish(None, &key);
    layout
}

/// Reference BFS levels.
fn reference_bfs(n: usize, pairs: &[(u32, u32)], root: u32) -> Vec<u32> {
    let mut adj = vec![Vec::new(); n];
    for &(a, b) in pairs {
        adj[a as usize].push(b);
    }
    let mut level = vec![u32::MAX; n];
    level[root as usize] = 0;
    let mut frontier = vec![root];
    let mut d = 0;
    while !frontier.is_empty() {
        d += 1;
        let mut next = Vec::new();
        for &u in &frontier {
            for &v in &adj[u as usize] {
                if level[v as usize] == u32::MAX {
                    level[v as usize] = d;
                    next.push(v);
                }
            }
        }
        frontier = next;
    }
    level
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn wcc_matches_union_find((n, pairs) in arb_graph(120, 400)) {
        let g = from_pairs(n, &pairs).to_undirected();
        let (labels, _) = wcc::wcc_in_memory(
            &g,
            EngineConfig::default().with_threads(2).with_partitions(4),
        );
        let expect = union_find_components(n, &pairs);
        prop_assert_eq!(labels, expect);
    }

    #[test]
    fn bfs_matches_reference((n, pairs) in arb_graph(120, 400)) {
        let g = from_pairs(n, &pairs);
        let (levels, _) = bfs::bfs_in_memory(
            &g,
            0,
            EngineConfig::default().with_threads(2).with_partitions(4),
        );
        prop_assert_eq!(levels, reference_bfs(n, &pairs, 0));
    }

    #[test]
    fn sssp_on_unit_weights_equals_bfs((n, pairs) in arb_graph(100, 300)) {
        let mut g = from_pairs(n, &pairs);
        for e in g.edges_mut() {
            e.weight = 1.0;
        }
        let cfg = || EngineConfig::default().with_threads(2).with_partitions(4);
        let (dist, _) = sssp::sssp_in_memory(&g, 0, cfg());
        let (levels, _) = bfs::bfs_in_memory(&g, 0, cfg());
        for v in 0..n {
            if levels[v] == u32::MAX {
                prop_assert!(dist[v].is_infinite(), "vertex {} unreachable", v);
            } else {
                prop_assert!((dist[v] - levels[v] as f32).abs() < 1e-6,
                    "vertex {}: dist {} level {}", v, dist[v], levels[v]);
            }
        }
    }

    #[test]
    fn mis_always_valid((n, pairs) in arb_graph(100, 300)) {
        let g = from_pairs(n, &pairs).to_undirected();
        let (statuses, _) = mis::mis_in_memory(
            &g,
            EngineConfig::default().with_threads(2).with_partitions(4),
        );
        prop_assert!(mis::verify_mis(&g, &statuses).is_ok());
    }

    #[test]
    fn mcst_matches_kruskal_weight((n, pairs) in arb_graph(80, 200), seed in 0u64..1000) {
        // Distinct weights via a deterministic hash keyed by the seed.
        let mut g = from_pairs(n, &pairs);
        let mut k = 0u64;
        for e in g.edges_mut() {
            if e.src == e.dst {
                // MSTs never use self loops; give them terrible weight.
                e.weight = 1e9;
            } else {
                k += 1;
                e.weight =
                    1.0 + ((seed.wrapping_mul(2654435761).wrapping_add(k * 40503)) % 100_000) as f32
                        / 1000.0;
            }
        }
        let und = g.to_undirected();
        let (result, _) = mcst::mcst_in_memory(
            &und,
            EngineConfig::default().with_threads(2).with_partitions(4),
        );
        let expect = mcst::kruskal_weight(&und);
        prop_assert!((result.total_weight - expect).abs() < 1e-2,
            "ghs {} vs kruskal {}", result.total_weight, expect);
    }

    #[test]
    fn shuffle_preserves_multiset_and_routes(
        records in vec((0u32..64, any::<u32>()), 0..2000),
        k in 1usize..64,
    ) {
        let input: Vec<Edge> =
            records.iter().map(|&(p, x)| Edge::weighted(p % k as u32, x, 0.0)).collect();
        let buf = shuffle(&input, k, |e| e.src as usize);
        prop_assert_eq!(buf.len(), input.len());
        let mut seen = 0usize;
        for (p, chunk) in buf.iter_chunks() {
            for e in chunk {
                prop_assert_eq!(e.src as usize, p, "record in wrong chunk");
                seen += 1;
            }
        }
        prop_assert_eq!(seen, input.len());
    }

    #[test]
    fn counting_placement_builds_each_partitions_run_index(
        (n, pairs) in arb_graph(40, 300),
        chunk_len in 1usize..64,
    ) {
        // The engines' build: a placement keyed by partition (each chunk
        // keeps input order), then each partition's edges placed by
        // source vertex. Fed in chunks the placement must equal the
        // one-shot call, its offsets must be the run index of a
        // comparison-sorted copy (the old build), and each run must
        // hold its vertex's edges in input order.
        let input: Vec<Edge> = pairs.iter().map(|&(s, d)| Edge::new(s, d)).collect();
        for k in [1usize, 4, n] {
            let part = Partitioner::new(n, k);
            let by_part = shuffle(&input, part.num_partitions(), |e| part.partition_of(e.src));
            for p in part.iter() {
                let range = part.range(p);
                let edges: Vec<Edge> = input
                    .iter()
                    .filter(|e| range.contains(&(e.src as usize)))
                    .copied()
                    .collect();
                prop_assert_eq!(by_part.chunk(p), &edges[..], "K={}, partition {}", k, p);
                let key = |e: &Edge| e.src as usize - range.start;
                let one_shot = shuffle(&edges, range.len(), key);
                let mut chunked = CountingPlacement::default();
                chunked.begin(range.len());
                for c in edges.chunks(chunk_len) {
                    chunked.count(c.iter().copied(), key);
                }
                for c in edges.chunks(chunk_len) {
                    chunked.place(c.iter().copied(), key);
                }
                let (placed, offsets) = chunked.finish().unwrap();
                prop_assert_eq!(placed, one_shot.as_slice(), "K={}, partition {}", k, p);

                let mut sorted = edges.clone();
                sorted.sort_unstable_by_key(|e| e.src);
                let want: Vec<usize> = range
                    .clone()
                    .chain([range.end])
                    .map(|v| sorted.partition_point(|e| (e.src as usize) < v))
                    .collect();
                prop_assert_eq!(offsets, &want[..], "K={}, partition {}", k, p);

                for v in range.clone() {
                    let lv = v - range.start;
                    let run = &placed[offsets[lv]..offsets[lv + 1]];
                    let in_order: Vec<Edge> =
                        input.iter().filter(|e| e.src as usize == v).copied().collect();
                    prop_assert_eq!(run, &in_order[..], "vertex {}", v);
                }
            }
        }
    }

    #[test]
    fn sliced_placement_equals_the_serial_one_bit_for_bit(
        records in vec((any::<u32>(), any::<u32>()), 0..3000),
        many in 5usize..5000,
    ) {
        // Pools of 0..=3 workers cut the input into up to four slices,
        // fewer when the keys outnumber the records per slice; every
        // cut must place exactly as the serial placement does. The
        // payload is any bit pattern (NaN weights included), so compare
        // bytes.
        let pools: Vec<WorkerPool> = (0..4).map(WorkerPool::new).collect();
        for k in [1usize, 4, many] {
            let all: Vec<Edge> = records
                .iter()
                .map(|&(s, x)| Edge::weighted(s % k as u32, x, f32::from_bits(x)))
                .collect();
            for len in [0, 1, 3, all.len()] {
                let input = &all[..len.min(all.len())];
                let key = |e: &Edge| e.src as usize;
                let cache = EngineConfig::default().cache_size;
                let mut serial = CountingPlacement::default();
                let (want, want_offsets) = serial.place_slice(input, k, None, cache, key);
                for pool in &pools {
                    let mut sliced = CountingPlacement::default();
                    let (got, got_offsets) =
                        sliced.place_slice(input, k, Some(pool), cache, key);
                    prop_assert_eq!(
                        records_as_bytes(got), records_as_bytes(want),
                        "K={}, {} records, {} workers", k, len, pool.workers()
                    );
                    prop_assert_eq!(got_offsets, want_offsets);
                }
            }
        }
    }

    #[test]
    fn two_level_placement_equals_the_chunked_one_level_one(
        records in vec((any::<u32>(), any::<u32>()), 0..3000),
        keys in 1usize..3000,
        hot in any::<bool>(),
    ) {
        // A 4 KiB cache has 64 lines, so more keys than that take two
        // levels, with groups of up to 64 keys and about 170 records.
        // Most key counts are no multiple of the group width, few
        // records over many keys leave groups empty, and a hot key 0
        // holds more records than a group's budget. Serial or on 1-3
        // workers, the placement must equal the chunked one-level
        // placement, bytes and offsets.
        const CACHE: usize = 4 << 10;
        let pools: Vec<WorkerPool> = (1..4).map(WorkerPool::new).collect();
        let input: Vec<Edge> = records
            .iter()
            .enumerate()
            .map(|(i, &(s, x))| {
                let src = if hot && i % 3 != 0 { 0 } else { s % keys as u32 };
                Edge::weighted(src, x, f32::from_bits(x))
            })
            .collect();
        let key = |e: &Edge| e.src as usize;
        let mut chunked = CountingPlacement::default();
        chunked.begin(keys);
        chunked.count(input.iter().copied(), key);
        chunked.place(input.iter().copied(), key);
        let (want, want_offsets) = chunked.finish().unwrap();
        for pool in [None].into_iter().chain(pools.iter().map(Some)) {
            let mut placement = CountingPlacement::default();
            let (got, got_offsets) = placement.place_slice(&input, keys, pool, CACHE, key);
            prop_assert_eq!(
                records_as_bytes(got), records_as_bytes(want),
                "{} keys, {} records, {} workers",
                keys, input.len(), pool.map_or(0, WorkerPool::workers)
            );
            prop_assert_eq!(got_offsets, want_offsets);
        }
    }

    #[test]
    fn multistage_equals_single_stage(
        records in vec((0u32..256, any::<u32>()), 0..2000),
        fanout_bits in 1u32..4,
    ) {
        let k = 256usize;
        let input: Vec<Edge> =
            records.iter().map(|&(p, x)| Edge::weighted(p, x, 0.0)).collect();
        let single = shuffle(&input, k, |e| e.src as usize);
        let plan = MultiStagePlan::new(k, 1 << fanout_bits);
        let multi = multistage_shuffle(input, plan, |e| e.src as usize);
        // Same records per partition (multi-stage is stable per chunk).
        for p in 0..k {
            prop_assert_eq!(single.chunk(p), multi.chunk(p), "partition {}", p);
        }
    }

    #[test]
    fn fused_scatter_first_stage_equals_shuffle(
        records in vec((0u32..256, any::<u32>()), 0..2000),
        fanout_bits in 1u32..5,
        tasks in 1usize..4,
    ) {
        // The engine's fused path: contiguous tasks write their records
        // one by one into their first-stage regions (exactly what the
        // engine's scatter does), the remaining stages run per digit
        // group. The result must equal the reference single-pass
        // shuffle for every fanout and task count.
        let k = 256usize;
        let input: Vec<Edge> =
            records.iter().map(|&(p, x)| Edge::weighted(p, x, 0.0)).collect();
        let reference = shuffle(&input, k, |e| e.src as usize);
        let plan = MultiStagePlan::new(k, 1 << fanout_bits);
        let layout = layout_tasks(&input, plan, tasks);
        prop_assert_eq!(layout.len(), input.len());
        for p in 0..k {
            let chunk: Vec<Edge> = layout.runs(p).flatten().copied().collect();
            prop_assert_eq!(reference.chunk(p), &chunk[..], "partition {}", p);
        }
    }

    #[test]
    fn pooled_scratch_reuse_is_invariant(
        records in vec((0u32..64, any::<u32>()), 0..1000),
        k in 1usize..64,
    ) {
        // Re-running a differently sized workload through the same
        // layout (as the engine does every superstep, when only some
        // edges emit) must not leak state from previous rounds.
        let input: Vec<Edge> =
            records.iter().map(|&(p, x)| Edge::weighted(p % k as u32, x, 0.0)).collect();
        let some: Vec<Edge> = input.iter().filter(|e| e.dst % 3 == 0).copied().collect();
        let plan = MultiStagePlan::new(k, 4);
        let key = |e: &Edge| e.src as usize;
        let mut layout = UpdateLayout::of_records(input.clone(), plan, key);
        for round in [&some, &input, &some] {
            layout.fill(round, &key);
            let reference = shuffle(round, k, key);
            prop_assert_eq!(layout.len(), round.len());
            for p in 0..k {
                let chunk: Vec<Edge> = layout.runs(p).flatten().copied().collect();
                prop_assert_eq!(reference.chunk(p), &chunk[..], "partition {}", p);
            }
        }
    }

    #[test]
    fn in_memory_supersteps_match_the_oracle(
        (n, pairs) in arb_graph(120, 400),
        threads in 1usize..4,
        small_fanout in any::<bool>(),
    ) {
        // Every counter and the bitwise states of a sum program, three
        // supersteps deep, at K = 1, 4 and one partition per vertex.
        let g = from_pairs(n, &pairs);
        for k in [1usize, 4, n] {
            let mut cfg = EngineConfig::default().with_threads(threads).with_partitions(k);
            if small_fanout {
                cfg = cfg.with_shuffle_fanout(2);
            }
            let mut engine = InMemoryEngine::from_graph(&g, &NeighbourSum, cfg);
            let mut oracle = OracleEngine::new(n, g.edges().to_vec(), &NeighbourSum);
            for step in 0..3 {
                let a = engine.scatter_gather(&NeighbourSum);
                let b = oracle.scatter_gather(&NeighbourSum);
                let counters = |s: &xstream::core::IterationStats| {
                    (s.edges_streamed, s.updates_generated, s.updates_applied, s.vertices_changed)
                };
                prop_assert_eq!(counters(&a), counters(&b), "K={}, step {}", k, step);
                prop_assert_eq!(engine.states(), oracle.states(), "K={}, step {}", k, step);
            }
        }
    }

    #[test]
    fn record_roundtrip(edges in vec(any::<(u32, u32, f32)>(), 0..500)) {
        let input: Vec<Edge> = edges
            .iter()
            .map(|&(s, d, w)| Edge::weighted(s, d, w))
            .collect();
        let bytes = records_as_bytes(&input).to_vec();
        let back: Vec<Edge> = decode_records(&bytes);
        // Compare bitwise so NaN weights round trip too.
        prop_assert_eq!(input.len(), back.len());
        for (a, b) in input.iter().zip(&back) {
            prop_assert_eq!(a.src, b.src);
            prop_assert_eq!(a.dst, b.dst);
            prop_assert_eq!(a.weight.to_bits(), b.weight.to_bits());
        }
    }

    #[test]
    fn undirected_expansion_is_symmetric((n, pairs) in arb_graph(60, 200)) {
        let g = from_pairs(n, &pairs);
        let und = g.to_undirected();
        use std::collections::HashSet;
        let set: HashSet<(u32, u32)> =
            und.edges().iter().map(|e| (e.src, e.dst)).collect();
        for e in und.edges() {
            prop_assert!(set.contains(&(e.dst, e.src)),
                "missing reverse of ({}, {})", e.src, e.dst);
        }
    }
}

/// The engines must agree on arbitrary graphs too, not just the seeded
/// fixtures of the unit tests (fewer cases: each builds real files).
mod disk_engine_props {
    use super::*;
    use xstream::disk::DiskEngine;
    use xstream::storage::StreamStore;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        #[test]
        fn disk_wcc_matches_union_find((n, pairs) in arb_graph(80, 250)) {
            let g = from_pairs(n, &pairs).to_undirected();
            let root = std::env::temp_dir().join(format!(
                "xstream_prop_{}_{}", n, pairs.len()
            ));
            let _ = std::fs::remove_dir_all(&root);
            let store = StreamStore::new(&root, 1 << 14).expect("store");
            let cfg = EngineConfig::default()
                .with_memory_budget(1 << 18)
                .with_io_unit(1 << 12)
                .with_threads(2);
            let p = wcc::Wcc::new();
            let mut engine = DiskEngine::from_graph(store, &g, &p, cfg).expect("engine");
            let (labels, _) = wcc::run(&mut engine, &p);
            prop_assert_eq!(labels, union_find_components(n, &pairs));
            let _ = std::fs::remove_dir_all(&root);
        }

        #[test]
        fn disk_supersteps_match_the_oracle(
            (n, pairs) in arb_graph(120, 400),
            threads in 1usize..4,
            in_memory_updates in any::<bool>(),
        ) {
            // The disk counterpart of `in_memory_supersteps_match_the_oracle`:
            // every counter and the bitwise states of a sum program,
            // three supersteps deep, at K = 1, 4 and one partition per
            // vertex, with the update streams spilled or kept in memory.
            let g = from_pairs(n, &pairs);
            for k in [1usize, 4, n] {
                let root = std::env::temp_dir().join(format!(
                    "xstream_prop_disk_oracle_{}_{}_{}_{}_{}",
                    n, pairs.len(), threads, in_memory_updates, k
                ));
                let _ = std::fs::remove_dir_all(&root);
                let store = StreamStore::new(&root, 1 << 12).expect("store");
                let cfg = EngineConfig {
                    in_memory_updates,
                    ..EngineConfig::default()
                        .with_memory_budget(1 << 18)
                        .with_io_unit(1 << 12)
                        .with_threads(threads)
                        .with_partitions(k)
                };
                let mut engine =
                    DiskEngine::from_graph(store, &g, &NeighbourSum, cfg).expect("engine");
                let mut oracle = OracleEngine::new(n, g.edges().to_vec(), &NeighbourSum);
                for step in 0..3 {
                    let a = engine.try_scatter_gather(&NeighbourSum).expect("superstep");
                    let b = oracle.scatter_gather(&NeighbourSum);
                    let counters = |s: &xstream::core::IterationStats| {
                        (s.edges_streamed, s.updates_generated, s.updates_applied, s.vertices_changed)
                    };
                    prop_assert_eq!(counters(&a), counters(&b), "K={}, step {}", k, step);
                    prop_assert_eq!(engine.states(), oracle.states(), "K={}, step {}", k, step);
                }
                drop(engine);
                let _ = std::fs::remove_dir_all(&root);
            }
        }
    }
}

/// The serve protocol faces untrusted sockets: arbitrary bytes and
/// near-miss JSON must produce a well-formed error line — never a
/// panic, never a malformed response. (Slot accounting and cache
/// hygiene under the same inputs are covered by the live-server test
/// in `tests/serve_protocol.rs`; these properties pin the parser.)
mod protocol_props {
    use super::*;
    use xstream::server::json;
    use xstream::server::protocol::{parse_request, render_err, render_ok};

    /// Whatever `parse_request` returns, the response line the server
    /// would write for it must itself be one valid JSON object with a
    /// boolean `ok` field.
    fn response_is_well_formed(line: &[u8]) {
        let rendered = match parse_request(line) {
            Ok(env) => render_ok(&env.id, vec![("op".to_string(), json::Json::str("x"))]),
            Err((id, msg)) => render_err(&id, &msg),
        };
        let parsed = json::parse(rendered.as_bytes()).expect("response line must be valid JSON");
        assert!(parsed.get("ok").and_then(json::Json::as_bool).is_some());
        assert!(
            !rendered.contains('\n'),
            "response must stay on one line: {rendered:?}"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn arbitrary_bytes_never_panic_the_parser(line in vec(any::<u8>(), 0..512)) {
            response_is_well_formed(&line);
        }

        #[test]
        fn corrupted_valid_requests_never_panic(
            template in 0usize..6,
            root in any::<u32>(),
            cut in any::<u16>(),
            flip in any::<u8>(),
        ) {
            // Start from a well-formed request, then truncate it and
            // flip one byte — the near-miss inputs a buggy hand-rolled
            // parser is most likely to mishandle.
            let valid = match template {
                0 => format!(r#"{{"op":"bfs","root":{root},"id":1}}"#),
                1 => format!(r#"{{"op":"sssp","root":{root},"target":{}}}"#, root / 2),
                2 => format!(r#"{{"op":"reach","src":{root},"dst":0}}"#),
                3 => format!(r#"{{"op":"pagerank","k":{},"iterations":3}}"#, root % 100),
                4 => format!(r#"{{"op":"same-component","u":{root},"v":{root}}}"#),
                _ => r#"{"op":"components","id":"😀"}"#.to_string(),
            };
            response_is_well_formed(valid.as_bytes());
            let mut bytes = valid.into_bytes();
            bytes.truncate(cut as usize % (bytes.len() + 1));
            if !bytes.is_empty() {
                let at = flip as usize % bytes.len();
                bytes[at] ^= 1 << (flip % 8);
            }
            response_is_well_formed(&bytes);
        }

        #[test]
        fn deep_nesting_is_rejected_not_overflowed(depth in 1usize..2000) {
            let mut line = Vec::with_capacity(2 * depth + 20);
            line.extend_from_slice(br#"{"op":"#);
            line.extend(std::iter::repeat_n(b'[', depth));
            line.extend(std::iter::repeat_n(b']', depth));
            line.push(b'}');
            response_is_well_formed(&line);
        }
    }
}

/// EdgeList construction helper used by the strategies above.
#[allow(dead_code)]
fn as_edge_list(n: usize, pairs: &[(u32, u32)]) -> EdgeList {
    from_pairs(n, pairs)
}
