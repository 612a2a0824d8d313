//! The X-Stream in-memory streaming engine (paper §4).
//!
//! Processes graphs whose vertices, edges and updates all fit in main
//! memory. *Fast storage* is the CPU cache: the engine sizes streaming
//! partitions so the vertex data of one partition fits in the cache of
//! the core processing it, and streams edges/updates from main memory
//! sequentially. Parallelism comes from processing streaming partitions
//! concurrently (with work stealing to absorb skew), each scatter task
//! writing its own regions of a static update layout counted at build,
//! and from the parallel multi-stage shuffler of the storage crate.
//!
//! # Examples
//!
//! ```
//! use xstream_core::{Edge, EdgeProgram, Engine, EngineConfig, Termination, VertexId};
//! use xstream_memory::InMemoryEngine;
//!
//! // Count, for every vertex, how many in-neighbours it has.
//! struct InDegree;
//!
//! impl EdgeProgram for InDegree {
//!     type State = u32;
//!     type Update = u32;
//!     fn init(&self, _v: VertexId) -> u32 { 0 }
//!     fn scatter(&self, _s: &u32, _e: &Edge) -> Option<u32> { Some(1) }
//!     fn gather(&self, d: &mut u32, u: &u32) -> bool { *d += u; true }
//! }
//!
//! let graph = xstream_graph::edgelist::from_pairs(3, &[(0, 1), (2, 1), (1, 2)]);
//! let program = InDegree;
//! let mut engine = InMemoryEngine::from_graph(&graph, &program, EngineConfig::default());
//! engine.run(&program, Termination::FixedIterations(1));
//! assert_eq!(engine.states(), vec![0, 2, 1]);
//! ```

pub mod engine;
pub mod queue;

pub use engine::InMemoryEngine;
// The worker pool moved to `xstream_storage` so the out-of-core engine
// can share it; re-exported here for backward compatibility.
pub use xstream_storage::WorkerPool;
