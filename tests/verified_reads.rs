//! Every stream read is verified and length-checked: the tracked disk
//! build's regroup streams each partition file through the engine's
//! read-ahead and checks every sum chunk on both of its passes, and a
//! stream whose file ends before its recorded length is an error, with
//! read verification on or off.

use std::fs::OpenOptions;

use xstream::algorithms::bfs;
use xstream::core::record::{decode_records, Record};
use xstream::core::{Edge, EngineConfig};
use xstream::disk::engine::edge_stream;
use xstream::disk::DiskEngine;
use xstream::graph::generators;
use xstream::storage::{ReadAhead, StreamStore};

#[test]
fn tracked_build_verifies_every_chunk_of_both_regroup_passes() {
    let unit = 1usize << 16;
    let root = std::env::temp_dir().join("xstream_verified_regroup");
    let _ = std::fs::remove_dir_all(&root);
    let store = StreamStore::new(&root, unit).expect("store");
    let g = generators::erdos_renyi(20_000, 200_000, 5);
    let cfg = EngineConfig::default()
        .with_threads(2)
        .with_io_unit(unit)
        .with_memory_budget(4 << 20)
        .with_partitions(4);
    let p = bfs::Bfs::new();
    let e = DiskEngine::from_graph(store, &g, &p, cfg).expect("engine");
    let (store, part) = (e.store(), *e.partitioner());
    let verified = store.accounting().snapshot().chunks_verified;
    let mut expect = 0u64;
    for p in part.iter() {
        let edges: Vec<Edge> = decode_records(&store.read_all(&edge_stream(p)).expect("edges"));
        let len = edges.len() * Edge::SIZE;
        assert!(len >= 2 * unit, "partition {p}: under two sum chunks");
        // Regrouped: the file is sorted by source.
        assert!(
            edges.windows(2).all(|w| w[0].src <= w[1].src),
            "partition {p} was not regrouped"
        );
        expect += 2 * len.div_ceil(unit) as u64;
    }
    assert_eq!(
        verified, expect,
        "chunk checks of the build's two regroup passes"
    );
    drop(e);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn a_stream_truncated_behind_the_store_fails_its_reads() {
    let payload: Vec<u8> = (0..2500u32).flat_map(|i| i.to_le_bytes()).collect();
    for verify in [true, false] {
        let root = std::env::temp_dir().join(format!("xstream_verified_truncated_{verify}"));
        let _ = std::fs::remove_dir_all(&root);
        let store = StreamStore::new(&root, 4096)
            .expect("store")
            .with_verify(verify);
        store.append("s", &payload).expect("append");
        OpenOptions::new()
            .write(true)
            .open(root.join("s"))
            .expect("open")
            .set_len(6000)
            .expect("truncate");

        let mut reader = ReadAhead::new(1);
        reader
            .begin(store.read_source("s", 4).expect("source"))
            .expect("begin");
        let mut delivered = 0;
        let end = loop {
            match reader.next_chunk() {
                Ok(Some(chunk)) => delivered += chunk.len(),
                Ok(None) => break Ok(()),
                Err(e) => break Err(e),
            }
        };
        let err = end.expect_err("read-ahead returned a short stream");
        assert!(
            err.to_string().contains("stream s ended"),
            "verify {verify}: {err}"
        );
        assert!(delivered <= 6000, "verify {verify}: {delivered} bytes");

        let err = store
            .read_all("s")
            .expect_err("read_all returned a short stream");
        assert!(
            err.to_string().contains("stream s ended"),
            "verify {verify}: {err}"
        );
        drop(reader);
        store.destroy().expect("destroy");
    }
}
