//! W-Stream algorithms (Aggarwal, Datar, Rajagopalan, Ruhl \[14\]).
//!
//! In the W-Stream model a pass may *write* an output stream that
//! becomes the next pass's input, trading passes for the ability to
//! shrink the problem as it flows by. The intermediate streams map
//! directly onto X-Stream's storage: sequentially written, then
//! sequentially read, then truncated — the same pattern as the
//! engine's update files (and, on SSDs, the same TRIM-friendly
//! lifecycle, §3.3).
//!
//! Implemented: connected components by repeated in-memory star
//! contraction. Each pass admits up to `capacity` distinct endpoints
//! into an in-memory union-find; edges that do not fit are relabeled
//! through the contraction so far and forwarded to the output stream.
//! The edge stream shrinks every pass until it is empty.

use crate::semi::UnionFind;
use crate::source::{EdgeSource, StoreSource};
use xstream_core::record::records_as_bytes;
use xstream_core::{Edge, Result};
use xstream_storage::StreamStore;

/// Where the intermediate streams of a W-Stream computation live.
pub enum Backing<'a> {
    /// In-memory vectors (for in-memory graphs and tests).
    Memory,
    /// Named streams inside an on-disk store; consumed streams are
    /// deleted (truncation → TRIM on SSDs, §3.3).
    Store(&'a StreamStore),
}

/// Result of a W-Stream connected-components run.
#[derive(Debug, Clone)]
pub struct WStreamCc {
    /// Min-id component label per vertex.
    pub labels: Vec<u32>,
    /// Sequential passes over (shrinking) edge streams, including the
    /// initial pass over the input.
    pub passes: usize,
    /// Edges forwarded to intermediate streams, summed over passes —
    /// the model's measure of stream traffic.
    pub forwarded_edges: u64,
}

/// Connected components in the W-Stream model with an in-memory
/// working set of at most `capacity` distinct supervertices per pass.
///
/// `capacity` plays the role of the model's working memory `M`; the
/// number of passes grows as the capacity shrinks (the trade the
/// W-Stream papers quantify), which the caller can observe via
/// [`WStreamCc::passes`].
pub fn connected_components<S: EdgeSource>(
    source: &S,
    capacity: usize,
    backing: Backing<'_>,
) -> Result<WStreamCc> {
    let n = source.num_vertices();
    let capacity = capacity.max(2);
    let mut labels: Vec<u32> = (0..n as u32).collect();
    let mut passes = 0usize;
    let mut forwarded = 0u64;

    // Dense supervertex ids for the in-memory window: admitted label ->
    // slot in a capacity-sized union-find.
    let mut slot_of = std::collections::HashMap::new();
    let mut admitted: Vec<u32> = Vec::new();

    // Current input: `None` = the original source; `Some` = an
    // intermediate stream from the previous pass.
    let mut current: Option<Vec<Edge>> = None;
    let mut store_pass = 0usize;

    loop {
        passes += 1;
        slot_of.clear();
        admitted.clear();
        let mut uf = UnionFind::new(capacity);
        let mut out: Vec<Edge> = Vec::new();
        let mut out_count = 0u64;

        // Writer for edges that do not fit this pass's window.
        let stream_name = |i: usize| format!("wstream.pass.{i}");
        let mut forward = |e: Edge, out: &mut Vec<Edge>| -> Result<()> {
            out_count += 1;
            match &backing {
                Backing::Memory => {
                    out.push(e);
                    Ok(())
                }
                Backing::Store(store) => {
                    out.push(e);
                    if out.len() >= 8192 {
                        store.append(&stream_name(store_pass + 1), records_as_bytes(out))?;
                        out.clear();
                    }
                    Ok(())
                }
            }
        };

        {
            let mut process = |e: Edge| -> Result<()> {
                // Relabel through the contraction so far.
                let a = labels[e.src as usize];
                let b = labels[e.dst as usize];
                if a == b {
                    return Ok(());
                }
                // Admit endpoints into the window if room remains.
                let slot = |label: u32,
                            slot_of: &mut std::collections::HashMap<u32, u32>,
                            admitted: &mut Vec<u32>|
                 -> Option<u32> {
                    if let Some(&s) = slot_of.get(&label) {
                        return Some(s);
                    }
                    if admitted.len() >= capacity {
                        return None;
                    }
                    let s = admitted.len() as u32;
                    slot_of.insert(label, s);
                    admitted.push(label);
                    Some(s)
                };
                match (
                    slot(a, &mut slot_of, &mut admitted),
                    slot(b, &mut slot_of, &mut admitted),
                ) {
                    (Some(sa), Some(sb)) => {
                        uf.union(sa, sb);
                        Ok(())
                    }
                    // No room: forward the relabeled edge to the next
                    // pass's stream.
                    _ => forward(Edge::new(a, b), &mut out),
                }
            };

            match &current {
                None => {
                    // `for_each_edge` closures cannot return errors, so
                    // capture the first failure and surface it after
                    // the pass.
                    let mut first_err: Option<xstream_core::Error> = None;
                    source.for_each_edge(&mut |e| {
                        if first_err.is_none() {
                            if let Err(err) = process(e) {
                                first_err = Some(err);
                            }
                        }
                    })?;
                    if let Some(err) = first_err {
                        return Err(err);
                    }
                }
                Some(edges) => {
                    for e in edges {
                        process(*e)?;
                    }
                }
            }
        }

        // Fold the window's contraction into the global labels:
        // admitted label -> min admitted label of its set.
        let mut min_of_root = std::collections::HashMap::new();
        for (i, &label) in admitted.iter().enumerate() {
            let root = uf.find(i as u32);
            let entry = min_of_root.entry(root).or_insert(label);
            if label < *entry {
                *entry = label;
            }
        }
        let resolve: std::collections::HashMap<u32, u32> = admitted
            .iter()
            .enumerate()
            .map(|(i, &label)| (label, min_of_root[&uf.find(i as u32)]))
            .collect();
        for l in labels.iter_mut() {
            if let Some(&m) = resolve.get(l) {
                *l = m;
            }
        }

        forwarded += out_count;
        if out_count == 0 {
            // Clean up any leftover store streams.
            if let Backing::Store(store) = &backing {
                let _ = store.delete(&format!("wstream.pass.{store_pass}"));
            }
            return Ok(WStreamCc {
                labels,
                passes,
                forwarded_edges: forwarded,
            });
        }

        // Arrange the next pass's input.
        match &backing {
            Backing::Memory => {
                // Relabel the forwarded edges once more: the window
                // contraction may have merged their endpoints already.
                current = Some(
                    out.into_iter()
                        .map(|e| Edge::new(labels[e.src as usize], labels[e.dst as usize]))
                        .filter(|e| e.src != e.dst)
                        .collect(),
                );
            }
            Backing::Store(store) => {
                if !out.is_empty() {
                    store.append(&format!("wstream.pass.{}", store_pass + 1), {
                        records_as_bytes(&out)
                    })?;
                }
                // The consumed stream is destroyed, as the engine does
                // with spent update files.
                if store_pass > 0 {
                    store.delete(&format!("wstream.pass.{store_pass}"))?;
                }
                store_pass += 1;
                let src = StoreSource::new(store, &format!("wstream.pass.{store_pass}"), n);
                let mut edges = Vec::new();
                src.for_each_edge(&mut |e| {
                    let (a, b) = (labels[e.src as usize], labels[e.dst as usize]);
                    if a != b {
                        edges.push(Edge::new(a, b));
                    }
                })?;
                current = Some(edges);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semi;
    use xstream_graph::generators;

    #[test]
    fn matches_semistream_components_with_tiny_memory() {
        let g = generators::erdos_renyi(300, 1200, 17).to_undirected();
        let expect = semi::connected_components(&g).unwrap();
        for capacity in [4usize, 16, 64, 1024] {
            let got = connected_components(&g, capacity, Backing::Memory).unwrap();
            assert_eq!(got.labels, expect, "capacity {capacity}");
        }
    }

    #[test]
    fn smaller_memory_needs_more_passes() {
        let g = generators::erdos_renyi(400, 3000, 23).to_undirected();
        let big = connected_components(&g, 4096, Backing::Memory).unwrap();
        let small = connected_components(&g, 8, Backing::Memory).unwrap();
        assert!(
            big.passes <= small.passes,
            "passes {} vs {}",
            big.passes,
            small.passes
        );
        assert!(small.passes > 1, "tiny memory must forward edges");
        assert!(small.forwarded_edges > 0);
    }

    #[test]
    fn store_backing_matches_memory_backing() {
        let g = generators::erdos_renyi(200, 900, 31).to_undirected();
        let dir = std::env::temp_dir().join("xstream_wstream_cc");
        let _ = std::fs::remove_dir_all(&dir);
        let store = StreamStore::new(&dir, 4096).unwrap();
        let mem = connected_components(&g, 16, Backing::Memory).unwrap();
        let disk = connected_components(&g, 16, Backing::Store(&store)).unwrap();
        assert_eq!(mem.labels, disk.labels);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn store_backing_detects_a_flipped_pass_stream() {
        // Silent corruption of an intermediate pass stream must abort
        // the computation, not yield wrong labels.
        use std::sync::Arc;
        use xstream_core::Error;
        use xstream_storage::{FaultKind, FaultOp, FaultPlan, FaultSpec};

        let g = generators::erdos_renyi(200, 900, 31).to_undirected();
        let dir = std::env::temp_dir().join("xstream_wstream_bitflip");
        let _ = std::fs::remove_dir_all(&dir);
        let plan = Arc::new(FaultPlan::new(vec![FaultSpec {
            stream_prefix: "wstream.pass.".to_string(),
            op: FaultOp::Read,
            nth: 0,
            kind: FaultKind::BitFlip,
        }]));
        plan.arm();
        let store = StreamStore::new(&dir, 4096)
            .unwrap()
            .with_faults(Arc::clone(&plan));
        match connected_components(&g, 16, Backing::Store(&store)) {
            Err(Error::Corrupt { stream, .. }) => assert!(stream.starts_with("wstream.pass.")),
            other => panic!("expected Corrupt, got {:?}", other.map(|r| r.passes)),
        }
        assert_eq!(plan.fired_count(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn single_pass_when_everything_fits() {
        let g = generators::erdos_renyi(100, 400, 37).to_undirected();
        let r = connected_components(&g, 1 << 16, Backing::Memory).unwrap();
        assert_eq!(r.passes, 1);
        assert_eq!(r.forwarded_edges, 0);
    }
}
