//! Core types and programming model for X-Stream, an edge-centric
//! scatter-gather graph processing system (Roy, Mihailovic, Zwaenepoel,
//! SOSP 2013).
//!
//! X-Stream stores mutable computation state in vertices and streams a
//! completely *unordered* edge list. Each iteration is a scatter phase
//! (stream edges, emit updates) followed by a shuffle (route updates to
//! the streaming partition owning their destination vertex) and a gather
//! phase (stream updates, mutate destination vertex state).
//!
//! This crate defines:
//!
//! * the fundamental [`Edge`]/[`VertexId`] types ([`types`]),
//! * the [`record::Record`] POD trait that lets engines move
//!   states and updates through byte-level chunk arrays and partition
//!   files without serialization overhead ([`record`]),
//! * the user-facing [`program::EdgeProgram`] trait
//!   ([`program`]),
//! * streaming-partition arithmetic ([`partition`]),
//! * active-vertex frontiers for Ligra-hybrid scatter skipping
//!   ([`frontier`]),
//! * engine configuration ([`config`]), statistics ([`stats`]) and
//!   process-wide allocation accounting ([`alloc_stats`]),
//! * the [`engine::Engine`] abstraction implemented by the
//!   in-memory and out-of-core engines ([`engine`]),
//! * the literal §2 [`oracle::OracleEngine`] both engines are tested
//!   against ([`oracle`]).

// Docs are load-bearing in this repo (docs/ARCHITECTURE.md maps the
// paper onto these items); CI builds rustdoc with `-D warnings`.
#![deny(missing_docs)]

pub mod alloc_stats;
pub mod config;
pub mod engine;
pub mod error;
pub mod frontier;
pub mod oracle;
pub mod partition;
pub mod program;
pub mod record;
pub mod stats;
pub mod types;

pub use alloc_stats::AllocSnapshot;
pub use config::{DeviceMap, EngineConfig, PinMode, RetryPolicy};
pub use engine::{Engine, Termination};
pub use error::{Error, Result};
pub use frontier::{Frontier, FrontierMode, FrontierPair};
pub use oracle::OracleEngine;
pub use partition::Partitioner;
pub use program::{EdgeProgram, TargetedUpdate};
pub use record::Record;
pub use stats::{IterationStats, RunStats};
pub use types::{Edge, VertexId, INVALID_VERTEX};
