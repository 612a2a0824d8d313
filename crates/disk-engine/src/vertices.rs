//! Vertex-state storage for the out-of-core engine.
//!
//! The paper's §3.2 optimization: when the entire vertex set fits in
//! the memory budget, the vertex array is kept in memory for the whole
//! run and never written back per phase. Otherwise each streaming
//! partition's vertex set lives in its own `vertices.p` file, loaded
//! before scatter/gather over that partition and written back after a
//! gather mutates it.
//!
//! Gather mutates partition states through
//! [`VertexStorage::update_partition`], which is *in place* for the
//! in-memory case (no copy, no write-back, no allocation — part of the
//! engine's zero-allocation steady state) and decodes into pooled
//! scratch buffers for the on-disk case.

use xstream_core::record::{decode_records, records_as_bytes, RecordIter};
use xstream_core::{Partitioner, Record, Result, VertexId};
use xstream_storage::StreamStore;

/// Name of the vertex stream of partition `p`.
pub fn vertex_stream(p: usize) -> String {
    format!("vertices.{p}")
}

/// Where vertex state lives during a run.
pub enum VertexStorage<S> {
    /// §3.2 optimization 1: the whole vertex array stays in memory.
    InMemory(Vec<S>),
    /// One file per streaming partition, decoded through pooled
    /// scratch buffers (reused across partitions and supersteps).
    OnDisk {
        /// Decoded states of the partition being processed.
        scratch: Vec<S>,
        /// Raw-byte staging buffer for file loads.
        bytes: Vec<u8>,
        /// Interned stream names (one per partition): hot-path loads
        /// and write-backs never format a name.
        names: Vec<String>,
    },
}

impl<S: Record> VertexStorage<S> {
    /// Initializes storage for `partitioner.num_vertices()` states via
    /// `init`, spilling per-partition files unless `in_memory`.
    pub fn initialize(
        store: &StreamStore,
        partitioner: &Partitioner,
        in_memory: bool,
        mut init: impl FnMut(VertexId) -> S,
    ) -> Result<Self> {
        if in_memory {
            let states = (0..partitioner.num_vertices() as VertexId)
                .map(init)
                .collect();
            return Ok(VertexStorage::InMemory(states));
        }
        let names: Vec<String> = partitioner.iter().map(vertex_stream).collect();
        for p in partitioner.iter() {
            let states: Vec<S> = partitioner.range(p).map(|v| init(v as VertexId)).collect();
            store.write_replace(&names[p], records_as_bytes(&states))?;
        }
        Ok(VertexStorage::OnDisk {
            scratch: Vec::new(),
            bytes: Vec::new(),
            names,
        })
    }

    /// Loads the states of partition `p` for reading (scatter).
    ///
    /// Prefer [`Self::load_scatter`] on hot paths — this variant
    /// allocates a fresh decode vector in the on-disk case.
    pub fn load(
        &self,
        store: &StreamStore,
        partitioner: &Partitioner,
        p: usize,
    ) -> Result<PartitionStates<'_, S>> {
        match self {
            VertexStorage::InMemory(states) => {
                let range = partitioner.range(p);
                Ok(PartitionStates::Borrowed(&states[range]))
            }
            VertexStorage::OnDisk { names, .. } => {
                let bytes = store.read_all(&names[p])?;
                Ok(PartitionStates::Owned(decode_records(&bytes)))
            }
        }
    }

    /// Loads the states of partition `p` for reading (scatter),
    /// decoding on-disk partitions into the pooled scratch — the
    /// allocation-free variant of [`Self::load`] used by the superstep
    /// hot path.
    pub fn load_scatter(
        &mut self,
        store: &StreamStore,
        partitioner: &Partitioner,
        p: usize,
    ) -> Result<&[S]> {
        match self {
            VertexStorage::InMemory(states) => Ok(&states[partitioner.range(p)]),
            VertexStorage::OnDisk {
                scratch,
                bytes,
                names,
            } => {
                store.read_all_into(&names[p], bytes)?;
                scratch.clear();
                scratch.extend(RecordIter::<S>::new(bytes));
                Ok(scratch)
            }
        }
    }

    /// Mutable view of the whole in-memory vertex array, or `None`
    /// when states live in per-partition files. The parallel gather
    /// path uses this to hand disjoint partition sub-slices to pool
    /// workers (each partition's range is owned by exactly one worker,
    /// so the sub-slices never alias).
    pub fn in_memory_mut(&mut self) -> Option<&mut [S]> {
        match self {
            VertexStorage::InMemory(states) => Some(states),
            VertexStorage::OnDisk { .. } => None,
        }
    }

    /// Runs `f` over the mutable states of partition `p`; `f` returns
    /// whether it changed anything. In-memory states are mutated in
    /// place (nothing to write back); on-disk states are decoded into
    /// the pooled scratch and written back only when changed (Fig. 6's
    /// "write vertex set of p") — via truncate + append, so the cached
    /// file handle survives and the write-back allocates nothing.
    pub fn update_partition(
        &mut self,
        store: &StreamStore,
        partitioner: &Partitioner,
        p: usize,
        f: impl FnOnce(&mut [S]) -> Result<bool>,
    ) -> Result<bool> {
        match self {
            VertexStorage::InMemory(states) => f(&mut states[partitioner.range(p)]),
            VertexStorage::OnDisk {
                scratch,
                bytes,
                names,
            } => {
                store.read_all_into(&names[p], bytes)?;
                scratch.clear();
                scratch.extend(RecordIter::<S>::new(bytes));
                let changed = f(scratch)?;
                if changed {
                    store.truncate(&names[p])?;
                    store.append(&names[p], records_as_bytes(scratch))?;
                }
                Ok(changed)
            }
        }
    }

    /// Writes mutated partition states back (a copy into the in-memory
    /// array under optimization 1; a file replace otherwise).
    pub fn store_back(
        &mut self,
        store: &StreamStore,
        partitioner: &Partitioner,
        p: usize,
        states: &[S],
    ) -> Result<()> {
        match self {
            VertexStorage::InMemory(all) => {
                let range = partitioner.range(p);
                all[range].copy_from_slice(states);
                Ok(())
            }
            VertexStorage::OnDisk { names, .. } => {
                store.write_replace(&names[p], records_as_bytes(states))
            }
        }
    }

    /// Reads back the complete state vector in vertex order.
    pub fn collect_all(&self, store: &StreamStore, partitioner: &Partitioner) -> Result<Vec<S>> {
        match self {
            VertexStorage::InMemory(states) => Ok(states.clone()),
            VertexStorage::OnDisk { names, .. } => {
                let mut out = Vec::with_capacity(partitioner.num_vertices());
                for p in partitioner.iter() {
                    let bytes = store.read_all(&names[p])?;
                    out.extend(decode_records::<S>(&bytes));
                }
                Ok(out)
            }
        }
    }
}

/// Partition states loaded for the scatter phase.
pub enum PartitionStates<'a, S> {
    /// Borrowed directly from the in-memory array.
    Borrowed(&'a [S]),
    /// Decoded from the partition's vertex file.
    Owned(Vec<S>),
}

impl<S> std::ops::Deref for PartitionStates<'_, S> {
    type Target = [S];

    fn deref(&self) -> &[S] {
        match self {
            PartitionStates::Borrowed(s) => s,
            PartitionStates::Owned(v) => v,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store(tag: &str) -> StreamStore {
        let root = std::env::temp_dir().join(format!("xstream_vstore_{tag}"));
        let _ = std::fs::remove_dir_all(&root);
        StreamStore::new(&root, 4096).unwrap()
    }

    #[test]
    fn on_disk_roundtrip() {
        let st = store("ondisk");
        let part = Partitioner::new(100, 4);
        let mut vs = VertexStorage::<u64>::initialize(&st, &part, false, |v| v as u64 * 3).unwrap();
        let all = vs.collect_all(&st, &part).unwrap();
        assert_eq!(all.len(), 100);
        assert_eq!(all[10], 30);
        // Mutate one partition.
        let p = part.partition_of(10);
        let mut states = vs.load(&st, &part, p).unwrap().to_vec();
        let local = 10 - part.range(p).start;
        states[local] = 999;
        vs.store_back(&st, &part, p, &states).unwrap();
        let all = vs.collect_all(&st, &part).unwrap();
        assert_eq!(all[10], 999);
        st.destroy().unwrap();
    }

    #[test]
    fn in_memory_matches_on_disk() {
        let st = store("mem");
        let part = Partitioner::new(64, 8);
        let mut a = VertexStorage::<u32>::initialize(&st, &part, true, |v| v * v).unwrap();
        let mut b = VertexStorage::<u32>::initialize(&st, &part, false, |v| v * v).unwrap();
        for p in part.iter() {
            let sa = a.load(&st, &part, p).unwrap().to_vec();
            let sb = b.load(&st, &part, p).unwrap().to_vec();
            assert_eq!(sa, sb);
            let bumped: Vec<u32> = sa.iter().map(|x| x + 1).collect();
            a.store_back(&st, &part, p, &bumped).unwrap();
            b.store_back(&st, &part, p, &bumped).unwrap();
        }
        assert_eq!(
            a.collect_all(&st, &part).unwrap(),
            b.collect_all(&st, &part).unwrap()
        );
        st.destroy().unwrap();
    }

    #[test]
    fn update_partition_agrees_across_storage_kinds() {
        let st = store("update");
        let part = Partitioner::new(48, 4);
        let mut a = VertexStorage::<u32>::initialize(&st, &part, true, |v| v).unwrap();
        let mut b = VertexStorage::<u32>::initialize(&st, &part, false, |v| v).unwrap();
        for p in part.iter() {
            for vs in [&mut a, &mut b] {
                let changed = vs
                    .update_partition(&st, &part, p, |states| {
                        for s in states.iter_mut() {
                            *s *= 2;
                        }
                        Ok(true)
                    })
                    .unwrap();
                assert!(changed);
            }
        }
        let all_a = a.collect_all(&st, &part).unwrap();
        assert_eq!(all_a, b.collect_all(&st, &part).unwrap());
        assert_eq!(all_a[13], 26);
        st.destroy().unwrap();
    }

    #[test]
    fn unchanged_update_skips_write_back() {
        let st = store("nowrite");
        let part = Partitioner::new(16, 2);
        let mut vs = VertexStorage::<u32>::initialize(&st, &part, false, |v| v).unwrap();
        let before = st.accounting().snapshot().bytes_written();
        let changed = vs.update_partition(&st, &part, 0, |_| Ok(false)).unwrap();
        assert!(!changed);
        assert_eq!(st.accounting().snapshot().bytes_written(), before);
        st.destroy().unwrap();
    }

    #[test]
    fn in_memory_update_is_in_place_and_allocation_free() {
        let st = store("inplace");
        let part = Partitioner::new(1024, 4);
        let mut vs = VertexStorage::<u64>::initialize(&st, &part, true, |v| v as u64).unwrap();
        let clean = xstream_core::alloc_stats::any_allocation_free_window(50, || {
            for p in part.iter() {
                vs.update_partition(&st, &part, p, |states| {
                    for s in states.iter_mut() {
                        *s += 1;
                    }
                    Ok(true)
                })
                .unwrap();
            }
        });
        assert!(
            clean,
            "in-memory update_partition allocated in every window"
        );
        let all = vs.collect_all(&st, &part).unwrap();
        assert!(all.iter().enumerate().all(|(v, &s)| s > v as u64));
        st.destroy().unwrap();
    }

    #[test]
    fn load_borrows_in_memory() {
        let st = store("borrow");
        let part = Partitioner::new(16, 2);
        let vs = VertexStorage::<u32>::initialize(&st, &part, true, |v| v).unwrap();
        let loaded = vs.load(&st, &part, 1).unwrap();
        assert_eq!(
            &*loaded,
            &(part.range(1).map(|v| v as u32).collect::<Vec<_>>())[..]
        );
        st.destroy().unwrap();
    }
}
