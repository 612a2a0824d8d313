//! Sequential edge sources for the streaming models.
//!
//! A source can be streamed from the beginning any number of times;
//! each pass visits every edge exactly once in storage order. This is
//! the only access the semi-streaming and W-Stream models are allowed.

use std::path::{Path, PathBuf};

use xstream_core::record::RecordIter;
use xstream_core::{Edge, Result};
use xstream_graph::fileio::EdgeFileReader;
use xstream_graph::EdgeList;
use xstream_storage::{ReadAhead, StreamStore};

/// A graph presented as a restartable sequential stream of edges.
pub trait EdgeSource {
    /// Number of vertices (ids are `0..num_vertices`).
    fn num_vertices(&self) -> usize;

    /// Streams every edge once, in storage order, calling `f` on each.
    fn for_each_edge(&self, f: &mut dyn FnMut(Edge)) -> Result<()>;
}

impl EdgeSource for EdgeList {
    fn num_vertices(&self) -> usize {
        EdgeList::num_vertices(self)
    }

    fn for_each_edge(&self, f: &mut dyn FnMut(Edge)) -> Result<()> {
        for e in self.edges() {
            f(*e);
        }
        Ok(())
    }
}

/// An edge source backed by a binary edge file; every pass re-reads
/// the file in `chunk_edges`-sized sequential chunks.
pub struct FileSource {
    path: PathBuf,
    num_vertices: usize,
    chunk_edges: usize,
}

impl FileSource {
    /// Opens `path`, reading its header for the vertex count.
    pub fn open(path: &Path, chunk_edges: usize) -> Result<Self> {
        let reader = EdgeFileReader::open(path)?;
        Ok(Self {
            path: path.to_path_buf(),
            num_vertices: reader.num_vertices(),
            chunk_edges: chunk_edges.max(1),
        })
    }
}

impl EdgeSource for FileSource {
    fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    fn for_each_edge(&self, f: &mut dyn FnMut(Edge)) -> Result<()> {
        let mut reader = EdgeFileReader::open(&self.path)?;
        let mut chunk = Vec::new();
        while reader.read_chunk_into(self.chunk_edges, &mut chunk)? {
            for &e in &chunk {
                f(e);
            }
        }
        Ok(())
    }
}

/// Streams every edge of an inner source followed by its reverse —
/// the on-the-fly undirected expansion. Lets the streaming models
/// treat a directed edge file as undirected without materializing the
/// doubled list ([`xstream_graph::EdgeList::to_undirected`] copies the
/// whole graph; this wrapper costs nothing beyond the inner stream).
pub struct Mirrored<S>(pub S);

impl<S: EdgeSource> EdgeSource for Mirrored<S> {
    fn num_vertices(&self) -> usize {
        self.0.num_vertices()
    }

    fn for_each_edge(&self, f: &mut dyn FnMut(Edge)) -> Result<()> {
        self.0.for_each_edge(&mut |e| {
            f(e);
            f(Edge {
                src: e.dst,
                dst: e.src,
                ..e
            });
        })
    }
}

/// An edge source reading a named stream inside a [`StreamStore`]
/// (used by the W-Stream driver for its intermediate streams).
///
/// Each pass streams through a one-stream [`ReadAhead`] (prefetch
/// distance 1, bounded memory), so the store's checksum verification
/// and fault injection apply: a corrupted pass stream surfaces as
/// [`xstream_core::Error::Corrupt`].
pub struct StoreSource<'a> {
    store: &'a StreamStore,
    name: String,
    num_vertices: usize,
}

impl<'a> StoreSource<'a> {
    /// Wraps stream `name` of `store`.
    pub fn new(store: &'a StreamStore, name: &str, num_vertices: usize) -> Self {
        Self {
            store,
            name: name.to_string(),
            num_vertices,
        }
    }
}

impl EdgeSource for StoreSource<'_> {
    fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    fn for_each_edge(&self, f: &mut dyn FnMut(Edge)) -> Result<()> {
        let mut reader = ReadAhead::new(1);
        reader.begin(self.store.read_source(&self.name, Edge::SIZE)?)?;
        while let Some(chunk) = reader.next_chunk()? {
            for e in RecordIter::<Edge>::new(chunk) {
                f(e);
            }
        }
        Ok(())
    }
}

use xstream_core::Record as _;

#[cfg(test)]
mod tests {
    use super::*;
    use xstream_core::record::records_as_bytes;
    use xstream_graph::edgelist::from_pairs;

    #[test]
    fn edge_list_source_streams_all_edges() {
        let g = from_pairs(4, &[(0, 1), (1, 2), (2, 3)]);
        let mut seen = Vec::new();
        g.for_each_edge(&mut |e| seen.push((e.src, e.dst))).unwrap();
        assert_eq!(seen, vec![(0, 1), (1, 2), (2, 3)]);
    }

    #[test]
    fn file_source_restarts_each_pass() {
        let g = from_pairs(10, &[(0, 1), (5, 6), (7, 8), (9, 0)]);
        let dir = std::env::temp_dir().join("xstream_streams_filesrc");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.edges");
        xstream_graph::fileio::write_edge_file(&path, &g).unwrap();
        let src = FileSource::open(&path, 2).unwrap();
        assert_eq!(EdgeSource::num_vertices(&src), 10);
        for _pass in 0..3 {
            let mut count = 0;
            src.for_each_edge(&mut |_| count += 1).unwrap();
            assert_eq!(count, 4);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mirrored_source_doubles_every_edge() {
        let g = from_pairs(4, &[(0, 1), (2, 3)]);
        let m = Mirrored(g);
        assert_eq!(EdgeSource::num_vertices(&m), 4);
        let mut seen = Vec::new();
        m.for_each_edge(&mut |e| seen.push((e.src, e.dst))).unwrap();
        assert_eq!(seen, vec![(0, 1), (1, 0), (2, 3), (3, 2)]);
        // Weights survive the mirroring.
        let w = from_pairs(2, &[(0, 1)]);
        let mut edges: Vec<Edge> = w.edges().to_vec();
        edges[0].weight = 2.5;
        let m = Mirrored(EdgeList::from_parts_unchecked(2, edges));
        let mut weights = Vec::new();
        m.for_each_edge(&mut |e| weights.push(e.weight)).unwrap();
        assert_eq!(weights, vec![2.5, 2.5]);
    }

    #[test]
    fn store_source_reads_appended_records() {
        let dir = std::env::temp_dir().join("xstream_streams_storesrc");
        let _ = std::fs::remove_dir_all(&dir);
        let store = StreamStore::new(&dir, 4096).unwrap();
        let edges = vec![Edge::new(0, 1), Edge::new(2, 3)];
        store.append("s0", records_as_bytes(&edges)).unwrap();
        let src = StoreSource::new(&store, "s0", 4);
        let mut seen = Vec::new();
        src.for_each_edge(&mut |e| seen.push(e)).unwrap();
        assert_eq!(seen, edges);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
