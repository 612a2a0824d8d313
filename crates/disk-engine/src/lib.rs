//! The X-Stream out-of-core streaming engine (paper §3).
//!
//! Processes graphs whose edges and updates live on SSD or magnetic
//! disk. *Fast storage* is main memory: only the vertex state of the
//! streaming partition being processed (plus fixed stream buffers) is
//! held in memory; edges and updates are streamed in large sequential
//! chunks with prefetch distance 1.
//!
//! The engine stores three streams per partition — vertices, edges and
//! updates — inside a [`xstream_storage::StreamStore`]. Pre-processing
//! is a single streaming shuffle of the unordered input edge list into
//! the per-partition edge files: no sorting, ever. The streaming entry
//! point is [`DiskEngine::from_ingest`] with an [`EdgeIngest`]
//! descriptor (path + on-the-fly mirroring), which never materializes
//! the graph; [`DiskEngine::from_graph`] exists for callers that
//! already hold an in-memory edge list (tests, benches, generators).
//!
//! Like the in-memory engine, the superstep hot path is built for a
//! **zero-allocation, fully overlapped steady state**: a persistent
//! read-ahead thread streams edge and update files (rolling into the
//! next partition's file while the current one computes, §3.3), a
//! persistent writer thread drains spills from a recycling byte-buffer
//! pool, scatter fans loaded chunks out to a parked
//! [`xstream_storage::WorkerPool`] whose workers append into
//! per-partition chains of blocks of two output buffers allocated at
//! build, and update streams are truncated (a TRIM)
//! rather than deleted so file handles survive across supersteps. See
//! [`engine`] for the pipeline walk-through.

//! # Examples
//!
//! ```
//! use xstream_core::{Edge, EdgeProgram, Engine, EngineConfig, Termination, VertexId};
//! use xstream_disk::DiskEngine;
//! use xstream_storage::StreamStore;
//!
//! struct MinLabel;
//!
//! impl EdgeProgram for MinLabel {
//!     type State = u32;
//!     type Update = u32;
//!     fn init(&self, v: VertexId) -> u32 { v }
//!     fn scatter(&self, s: &u32, _e: &Edge) -> Option<u32> { Some(*s) }
//!     fn gather(&self, d: &mut u32, u: &u32) -> bool {
//!         if u < d { *d = *u; true } else { false }
//!     }
//! }
//!
//! let dir = std::env::temp_dir().join("xstream_disk_doc");
//! # let _ = std::fs::remove_dir_all(&dir);
//! let store = StreamStore::new(&dir, 1 << 16)?;
//! let graph = xstream_graph::edgelist::from_pairs(4, &[(0, 1), (1, 2), (3, 2)])
//!     .to_undirected();
//! let program = MinLabel;
//! let config = EngineConfig::default()
//!     .with_memory_budget(1 << 20)
//!     .with_io_unit(1 << 14);
//! let mut engine = DiskEngine::from_graph(store, &graph, &program, config)?;
//! engine.run(&program, Termination::Converged);
//! assert_eq!(engine.states(), vec![0, 0, 0, 0]);
//! # std::fs::remove_dir_all(&dir)?;
//! # Ok::<(), xstream_core::Error>(())
//! ```

pub mod checkpoint;
pub mod engine;
pub mod scrub;
pub mod vertices;

pub use engine::{DiskEngine, EdgeIngest};
pub use scrub::{scrub, Action, ScrubReport, StreamReport, Verdict};
