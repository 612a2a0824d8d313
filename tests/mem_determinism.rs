//! The in-memory engine's results do not depend on how its work is
//! scheduled: every update reaches its vertex in (source partition,
//! edge position) order, whatever the thread count, the steal schedule
//! or the shuffle plan, so floating-point sums come out bitwise equal.

use xstream::algorithms::pagerank;
use xstream::core::EngineConfig;
use xstream::graph::generators;

#[test]
fn pagerank_is_bitwise_identical_at_any_thread_count() {
    let g = generators::preferential_attachment(20_000, 8, 7);
    let cfg = |threads: usize, stealing: bool| {
        EngineConfig::default()
            .with_threads(threads)
            .with_partitions(16)
            .with_work_stealing(stealing)
    };
    let bits = |cfg: EngineConfig| -> Vec<u32> {
        let (ranks, _) = pagerank::pagerank_in_memory(&g, 5, cfg);
        ranks.iter().map(|r| r.to_bits()).collect()
    };
    let want = bits(cfg(1, false));
    let mut runs = Vec::new();
    for threads in [1usize, 2, 4] {
        for stealing in [false, true] {
            runs.push((
                format!("{threads} threads, stealing {stealing}"),
                cfg(threads, stealing),
            ));
        }
    }
    runs.push((
        "2 threads, fanout 2".into(),
        cfg(2, true).with_shuffle_fanout(2),
    ));
    for (name, cfg) in runs {
        let got = bits(cfg);
        let differ = got.iter().zip(&want).filter(|(a, b)| a != b).count();
        assert_eq!(differ, 0, "{name}: {differ} of {} ranks differ", want.len());
    }
}
