//! One algorithm table over either engine.
//!
//! An algorithm is written once against [`Engine`]; the in-memory
//! engine (§4) and the out-of-core engine (§3) differ only in where the
//! streams live (§2.1). This module owns the two decisions every engine
//! consumer would otherwise repeat per engine: which edge stream an
//! algorithm needs ([`Algo::orientation`]) and how either engine is
//! built from a loaded graph or an `.xse` file ([`build`]).

use std::borrow::Cow;
use std::fmt;
use std::path::Path;
use std::str::FromStr;
use std::sync::{Arc, Mutex};

use xstream_core::{EdgeProgram, Engine, EngineConfig, IterationStats, Result, VertexId};
use xstream_disk::{DiskEngine, EdgeIngest};
use xstream_graph::fileio::{read_edge_file, EdgeFileReader};
use xstream_graph::EdgeList;
use xstream_memory::InMemoryEngine;
use xstream_storage::StreamStore;

/// The edge stream an algorithm reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Orientation {
    /// The edges as stored.
    Directed,
    /// Every edge plus its reverse; self-loops stay single.
    Undirected,
    /// Every edge forward and reversed, tagged with its direction
    /// (SCC's forward/backward traversals).
    Bidirectional,
}

impl Orientation {
    fn apply(self, graph: &EdgeList) -> Cow<'_, EdgeList> {
        match self {
            Orientation::Directed => Cow::Borrowed(graph),
            Orientation::Undirected => Cow::Owned(graph.to_undirected()),
            Orientation::Bidirectional => Cow::Owned(graph.to_bidirectional()),
        }
    }

    fn ingest(self, path: &Path) -> EdgeIngest {
        match self {
            Orientation::Directed => EdgeIngest::new(path),
            Orientation::Undirected => EdgeIngest::undirected(path),
            Orientation::Bidirectional => EdgeIngest::bidirectional(path),
        }
    }
}

/// The algorithms `xstream run` offers, named as on its command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algo {
    /// Weakly connected components.
    Wcc,
    /// Breadth-first search levels.
    Bfs,
    /// Single-source shortest paths.
    Sssp,
    /// PageRank over fixed iterations.
    Pagerank,
    /// Delta-propagating PageRank.
    PagerankDelta,
    /// Sparse matrix-vector multiply.
    Spmv,
    /// Maximal independent set.
    Mis,
    /// Strongly connected components.
    Scc,
    /// Minimum-cost spanning forest.
    Mcst,
    /// Conductance of the parity bisection.
    Conductance,
}

impl Algo {
    /// Every algorithm, in `xstream run`'s documented order.
    pub const ALL: [Algo; 10] = [
        Algo::Wcc,
        Algo::Bfs,
        Algo::Sssp,
        Algo::Pagerank,
        Algo::PagerankDelta,
        Algo::Spmv,
        Algo::Mis,
        Algo::Scc,
        Algo::Mcst,
        Algo::Conductance,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Algo::Wcc => "wcc",
            Algo::Bfs => "bfs",
            Algo::Sssp => "sssp",
            Algo::Pagerank => "pagerank",
            Algo::PagerankDelta => "pagerank-delta",
            Algo::Spmv => "spmv",
            Algo::Mis => "mis",
            Algo::Scc => "scc",
            Algo::Mcst => "mcst",
            Algo::Conductance => "conductance",
        }
    }

    /// The edge stream the algorithm's program expects.
    pub fn orientation(self) -> Orientation {
        match self {
            Algo::Wcc | Algo::Mis | Algo::Mcst => Orientation::Undirected,
            Algo::Scc => Orientation::Bidirectional,
            Algo::Bfs
            | Algo::Sssp
            | Algo::Pagerank
            | Algo::PagerankDelta
            | Algo::Spmv
            | Algo::Conductance => Orientation::Directed,
        }
    }
}

impl fmt::Display for Algo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for Algo {
    type Err = String;

    fn from_str(s: &str) -> std::result::Result<Self, String> {
        Algo::ALL
            .into_iter()
            .find(|a| a.name() == s)
            .ok_or_else(|| format!("unknown algorithm `{s}`"))
    }
}

/// Either engine behind one [`Engine`] implementation.
// An engine is built once and stays with its owner for the whole run,
// so the size skew between the variants never costs a copy.
#[allow(clippy::large_enum_variant)]
pub enum AnyEngine<P: EdgeProgram> {
    /// The in-memory engine (§4).
    Mem(InMemoryEngine<P>),
    /// The out-of-core engine (§3).
    Disk(DiskEngine<P>),
}

macro_rules! delegate {
    ($engine:expr, $e:ident => $call:expr) => {
        match $engine {
            AnyEngine::Mem($e) => $call,
            AnyEngine::Disk($e) => $call,
        }
    };
}

impl<P: EdgeProgram> Engine<P> for AnyEngine<P> {
    fn num_vertices(&self) -> usize {
        delegate!(self, e => e.num_vertices())
    }

    fn num_edges(&self) -> usize {
        delegate!(self, e => e.num_edges())
    }

    fn scatter_gather(&mut self, program: &P) -> IterationStats {
        delegate!(self, e => e.scatter_gather(program))
    }

    fn vertex_map(&mut self, f: &mut dyn FnMut(VertexId, &mut P::State)) {
        delegate!(self, e => e.vertex_map(f))
    }

    fn vertex_fold(
        &mut self,
        init: f64,
        f: &mut dyn FnMut(f64, VertexId, &P::State) -> f64,
    ) -> f64 {
        delegate!(self, e => e.vertex_fold(init, f))
    }

    fn states(&mut self) -> Vec<P::State> {
        delegate!(self, e => e.states())
    }

    fn seed_frontier(&mut self, sources: &[VertexId]) {
        delegate!(self, e => e.seed_frontier(sources))
    }
}

/// Where an engine's edges come from.
#[derive(Debug, Clone, Copy)]
pub enum Source<'a> {
    /// A loaded edge list.
    Graph(&'a EdgeList),
    /// A binary `.xse` edge file. The out-of-core engine streams it
    /// chunk by chunk into its partition shuffle, orienting each chunk
    /// on the way, and never holds the edge list (§3.2); the in-memory
    /// engine reads it whole.
    File(&'a Path),
}

/// Builds the engine for `program` over `source` in `orientation`: the
/// out-of-core engine over `store` when one is given, otherwise the
/// in-memory engine.
///
/// With `out_degrees` the second value holds the oriented stream's
/// per-vertex out-degree counts (PageRank's O(V) input); when a file is
/// streamed to disk they are counted during the ingest pass instead of
/// by a second read. Without it the vector is empty.
pub fn build<P: EdgeProgram>(
    source: Source<'_>,
    orientation: Orientation,
    store: Option<StreamStore>,
    program: &P,
    cfg: EngineConfig,
    out_degrees: bool,
) -> Result<(AnyEngine<P>, Vec<u32>)> {
    let (graph, store) = match (source, store) {
        (Source::File(path), Some(store)) => {
            return ingest(path, orientation, store, program, cfg, out_degrees)
        }
        (Source::File(path), None) => {
            let graph = read_edge_file(path)?;
            return build(
                Source::Graph(&graph),
                orientation,
                None,
                program,
                cfg,
                out_degrees,
            );
        }
        (Source::Graph(graph), store) => (orientation.apply(graph), store),
    };
    let degrees = if out_degrees {
        graph.out_degrees()
    } else {
        Vec::new()
    };
    let engine = match store {
        Some(store) => AnyEngine::Disk(DiskEngine::from_graph(store, &graph, program, cfg)?),
        None => AnyEngine::Mem(InMemoryEngine::from_graph(&graph, program, cfg)),
    };
    Ok((engine, degrees))
}

/// The streaming half of [`build`]: one pass over the file into the
/// out-of-core engine, with the degree count riding on the ingest
/// observer when asked for.
fn ingest<P: EdgeProgram>(
    path: &Path,
    orientation: Orientation,
    store: StreamStore,
    program: &P,
    cfg: EngineConfig,
    out_degrees: bool,
) -> Result<(AnyEngine<P>, Vec<u32>)> {
    let ingest = orientation.ingest(path);
    if !out_degrees {
        let engine = DiskEngine::from_ingest(store, &ingest, program, cfg)?;
        return Ok((AnyEngine::Disk(engine), Vec::new()));
    }
    let num_vertices = EdgeFileReader::open(path)?.num_vertices();
    let counts = Arc::new(Mutex::new(vec![0u32; num_vertices]));
    let ingest = {
        let counts = Arc::clone(&counts);
        ingest.with_observer(move |chunk| {
            let mut d = counts.lock().expect("degree counter poisoned");
            for e in chunk {
                d[e.src as usize] += 1;
            }
        })
    };
    let engine = DiskEngine::from_ingest(store, &ingest, program, cfg)?;
    let degrees = std::mem::take(&mut *counts.lock().expect("degree counter poisoned"));
    Ok((AnyEngine::Disk(engine), degrees))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn algo_names_round_trip_and_unknown_names_are_rejected() {
        for algo in Algo::ALL {
            assert_eq!(algo.to_string().parse::<Algo>(), Ok(algo));
        }
        assert_eq!(
            "warp".parse::<Algo>(),
            Err("unknown algorithm `warp`".to_string())
        );
    }
}
