//! Graph algorithms expressed in X-Stream's edge-centric scatter-gather
//! model (paper §5.2).
//!
//! Every algorithm is an [`xstream_core::EdgeProgram`] plus a driver
//! that runs on any [`xstream_core::Engine`] — the same code executes
//! on the in-memory engine and the out-of-core engine. Algorithms that
//! the paper evaluates:
//!
//! | module | algorithm | input expectation |
//! |--------|-----------|-------------------|
//! | [`bfs`] | breadth-first search levels | any directed list |
//! | [`wcc`] | weakly connected components | undirected expansion |
//! | [`scc`] | strongly connected components (trim + FW-BW coloring) | bidirectional stream |
//! | [`sssp`] | single-source shortest paths (Bellman-Ford) | weighted edges |
//! | [`multi`] | batched multi-source BFS/SSSP (lane vectors) | as bfs/sssp |
//! | [`mcst`] | minimum-cost spanning tree (GHS/Borůvka) | weighted undirected |
//! | [`mis`] | maximal independent set (Luby) | undirected expansion |
//! | [`conductance`] | conductance of a vertex bisection | any |
//! | [`spmv`] | sparse matrix-vector multiply | weighted edges |
//! | [`pagerank`] | PageRank (fixed iterations) | directed list |
//! | [`pagerank_delta`] | delta-propagating PageRank (frontier-driven) | directed list |
//! | [`als`] | alternating least squares | bipartite rating graph |
//! | [`bp`] | loopy belief propagation | undirected expansion |
//! | [`hyperanf`] | HyperANF neighbourhood function / diameter | undirected expansion |
//!
//! [`engines`] records which stream each of the CLI's algorithms reads
//! and builds either engine for it from a loaded graph or an edge file.

pub mod als;
pub mod bfs;
pub mod bp;
pub mod conductance;
pub mod engines;
pub mod hyperanf;
pub mod mcst;
pub mod mis;
pub mod multi;
pub mod pagerank;
pub mod pagerank_delta;
pub mod scc;
pub mod spmv;
pub mod sssp;
pub mod util;
pub mod wcc;
