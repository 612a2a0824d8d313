//! Storage substrate for X-Stream.
//!
//! Implements the data-movement machinery both engines are built on:
//!
//! * [`buffer`] — the *stream buffer* of paper Fig. 5: a chunk array
//!   plus a K-entry index array describing one chunk per streaming
//!   partition,
//! * [`shuffle`] — the in-memory shuffle (§3.1) and the parallel
//!   multi-stage shuffler (§4.2) that routes records to partitions in
//!   `ceil(log_F K)` sequential passes,
//! * [`scratch`] — the iteration-persistent update buffers behind the
//!   zero-allocation pipeline: the in-memory engine's static update
//!   layout (exact scatter regions counted at build, plus the
//!   multi-stage passes over them) and the out-of-core engine's
//!   fixed output buffers (block pools sized at build),
//! * [`pool`] — the persistent worker pool with allocation-free
//!   dispatch, shared by the in-memory engine's phase workers and the
//!   out-of-core engine's per-chunk fan-out (§4.3),
//! * [`channel`] — a pre-allocated bounded MPMC queue used by the I/O
//!   threads, so steady-state submissions never touch the allocator,
//! * [`filestream`] — on-disk streams with large-unit sequential I/O,
//!   a stream-name → device mapping (`device_fn`, Fig. 15), a
//!   persistent **striped** read-ahead — one prefetch thread with
//!   pooled double buffers per device ([`ReadAhead`]) — and
//!   truncate-on-destroy (§3.3),
//! * [`writer`] — persistent background writer threads, one per
//!   device, with bounded per-device depth, a recycling byte-buffer
//!   pool and a zero-copy borrowed-run path, overlapping update-file
//!   writes with scatter computation (§3.3's double-buffered output)
//!   while a slow or failing device never stalls the others,
//! * [`faults`] — deterministic seed-driven I/O fault injection
//!   ([`FaultPlan`]) threaded through every stream operation, so the
//!   engines' retry and checkpoint/resume paths can be exercised
//!   reproducibly; a disabled plan costs one `Option` check per op,
//! * [`checksum`] — hand-rolled CRC32s: IEEE ([`crc32`]) framing the
//!   engine checkpoints, the manifest and the sidecar files against
//!   torn writes, and CRC-32C ([`crc32c`], with a streaming state and
//!   the SSE4.2 instruction where present) covering every chunk of
//!   every durable stream against rot,
//! * [`manifest`] — the self-validating store `MANIFEST`: generation,
//!   graph/config fingerprint, per-stream roles/lengths/sidecar CRCs;
//!   sealed at ingest and checkpoint time, validated on open and
//!   `--resume`, and the ground truth `xstream scrub` audits against,
//! * [`iostats`] — per-device byte/op accounting and event tracing
//!   (regenerates the paper's iostat bandwidth plot, Fig. 23),
//! * [`diskmodel`] — a parametric seek+bandwidth+RAID-0 model
//!   calibrated against the paper's measured device table (Fig. 11),
//!   used to evaluate device-level experiments on arbitrary hardware.

// Docs are load-bearing in this repo (docs/ARCHITECTURE.md maps the
// paper onto these items); CI builds rustdoc with `-D warnings`.
#![deny(missing_docs)]

pub mod buffer;
pub mod channel;
pub mod checksum;
pub mod diskmodel;
pub mod faults;
pub mod filestream;
pub mod iostats;
pub mod manifest;
pub mod pool;
pub mod scratch;
pub mod shuffle;
pub mod writer;

pub use buffer::StreamBuffer;
pub use channel::BoundedQueue;
pub use checksum::{crc32, crc32c, Crc32c};
pub use diskmodel::DiskModel;
pub use faults::{FaultKind, FaultOp, FaultOutcome, FaultPlan, FaultSpec};
pub use filestream::{replace_file, ReadAhead, StreamStore, SumSidecar};
pub use iostats::{DeviceId, IoAccounting, IoSnapshot};
pub use manifest::{Manifest, StreamEntry, StreamRole, MANIFEST_NAME};
pub use pool::{PerWorkerPtr, WorkerPool};
pub use scratch::{
    BufferWriter, LayoutWriter, OutputBuffer, TaskWriter, UpdateLayout, WorkerWriter,
};
pub use writer::{AsyncWriter, WriteMark};
