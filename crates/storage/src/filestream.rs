//! On-disk streams (paper §3, §3.3, Fig. 15).
//!
//! The out-of-core engine stores three files per streaming partition
//! (vertices, edges, updates) and accesses them strictly as streams:
//! large sequential appends and large sequential chunk reads. This
//! module provides that abstraction:
//!
//! * [`StreamStore`] — a directory of named append-only streams with
//!   per-device accounting and truncate-on-destroy (truncation maps to
//!   a TRIM on SSDs, §3.3). A `device_fn` maps stream names to device
//!   ids ([`StreamStore::with_device_fn`]), which places e.g. the edge
//!   and update streams on different devices — the paper's Fig. 15
//!   "independent disks" layout — and tells the I/O machinery how many
//!   threads to stripe across ([`StreamStore::num_devices`]),
//! * [`ReadAhead`] — a *persistent* striped reader: **one sequential
//!   prefetch thread per device**, each with its own job queue and
//!   pooled double buffers. The engine queues streams to read
//!   ([`ReadSource`]s resolved from cached file handles); each source
//!   is routed to its device's thread, so streams on different devices
//!   prefetch concurrently while the consumer still sees queued
//!   streams strictly in [`begin`](ReadAhead::begin) order. Consumed
//!   buffers recycle into per-device pools — steady-state streaming
//!   spawns no threads and performs no allocation. It emulates the
//!   paper's asynchronous direct I/O with dedicated per-disk threads
//!   and prefetch distance 1. (True `O_DIRECT` page cache bypass is
//!   not portable to containers and is documented as a substitution in
//!   DESIGN.md.)
//!
//! Every read goes through one of four methods, all checksum-verified
//! and fault-injectable: [`StreamStore::read_all`] /
//! [`StreamStore::read_all_into`] (whole stream),
//! [`StreamStore::read_source`] + [`ReadAhead`] (sequential chunks)
//! and [`StreamStore::read_range_into`] (positioned).
//!
//! # Stream integrity (PR 8)
//!
//! Every append rolls a CRC-32C per I/O-unit-sized chunk into the
//! stream's in-memory [`SumSidecar`]-shaped state, and the sequential
//! read paths ([`ReadAhead`], [`StreamStore::read_all_into`]) verify
//! each chunk as it streams back, surfacing
//! [`Error::Corrupt`] — a *permanent* error, so retry loops fail
//! fast on rot instead of re-reading it.
//! Ranged reads ([`StreamStore::read_range_into`]) verify every
//! sum-chunk fully covered by the requested range (sub-chunk reads of
//! the sparse scatter stay cheap; full-coverage verification is
//! `xstream scrub`'s job). [`StreamStore::seal_sums`] persists the
//! state as a `<stream>.sum` sidecar file which is reloaded when a
//! later process reopens the stream — that is what makes a store
//! scrubabble and a resume verified end-to-end. Chunk sums are
//! CRC-32C ([`crate::checksum::crc32c`]) — hardware-computed on
//! x86-64 — so default-on verification costs one near-memory-speed
//! pass per chunk;
//! [`StreamStore::with_verify`] disables the read-side checks
//! (`--no-verify-reads`).

use parking_lot::Mutex;
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use crate::channel::BoundedQueue;
use crate::checksum::{crc32, crc32c, Crc32c};
use crate::faults::{FaultOp, FaultOutcome, FaultPlan};
use crate::iostats::{DeviceId, IoAccounting};
use xstream_core::{Error, Result};

/// Positioned read that does not move the shared handle's cursor.
#[cfg(unix)]
fn pread(file: &File, buf: &mut [u8], offset: u64) -> std::io::Result<usize> {
    std::os::unix::fs::FileExt::read_at(file, buf, offset)
}

/// Positioned read that does not move the shared handle's cursor.
#[cfg(windows)]
fn pread(file: &File, buf: &mut [u8], offset: u64) -> std::io::Result<usize> {
    std::os::windows::fs::FileExt::seek_read(file, buf, offset)
}

/// Magic of a persisted `.sum` sidecar file: "XSUM".
pub const SUM_MAGIC: [u8; 4] = *b"XSUM";

/// Current sidecar format version.
pub const SUM_VERSION: u32 = 1;

/// The persisted form of a stream's per-chunk checksums: one CRC32
/// per `unit`-sized chunk (the last entry covering the trailing
/// partial chunk, if any). Written next to the stream as
/// `<stream>.sum` by [`StreamStore::seal_sums`] and by the graph
/// crate's edge-file writer; read back when a stream is reopened and
/// by `xstream scrub`.
///
/// On-disk layout (all integers native-endian — a sidecar describes
/// bytes on this host, it is not an interchange format):
///
/// ```text
/// magic "XSUM" | version u32 | unit u64 | total_len u64 | crcs [u32]
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SumSidecar {
    /// Chunk size each CRC covers (the store's I/O unit at write time).
    pub unit: u64,
    /// Total stream length the checksums describe.
    pub total_len: u64,
    /// One CRC32 per chunk, `ceil(total_len / unit)` entries.
    pub crcs: Vec<u32>,
}

impl SumSidecar {
    /// Number of chunks `total_len` bytes split into at `unit`.
    fn chunk_count(unit: u64, total_len: u64) -> usize {
        (total_len.div_ceil(unit.max(1))) as usize
    }

    /// Computes the sidecar of a fully in-memory stream (used by the
    /// edge-file writer and by `scrub --repair` rebuilding sidecars).
    pub fn of_bytes(unit: u64, bytes: &[u8]) -> Self {
        let unit = unit.max(1);
        let crcs = bytes.chunks(unit as usize).map(crc32c).collect();
        Self {
            unit,
            total_len: bytes.len() as u64,
            crcs,
        }
    }

    /// Serializes to the on-disk sidecar format.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(4 + 4 + 8 + 8 + 4 * self.crcs.len());
        out.extend_from_slice(&SUM_MAGIC);
        out.extend_from_slice(&SUM_VERSION.to_ne_bytes());
        out.extend_from_slice(&self.unit.to_ne_bytes());
        out.extend_from_slice(&self.total_len.to_ne_bytes());
        for c in &self.crcs {
            out.extend_from_slice(&c.to_ne_bytes());
        }
        out
    }

    /// Parses and validates a sidecar. `None` on any malformation:
    /// short file, bad magic/version, zero unit, or a CRC count that
    /// does not match the declared length.
    pub fn decode(bytes: &[u8]) -> Option<Self> {
        if bytes.len() < 24 || bytes[..4] != SUM_MAGIC {
            return None;
        }
        let version = u32::from_ne_bytes(bytes[4..8].try_into().ok()?);
        if version != SUM_VERSION {
            return None;
        }
        let unit = u64::from_ne_bytes(bytes[8..16].try_into().ok()?);
        let total_len = u64::from_ne_bytes(bytes[16..24].try_into().ok()?);
        if unit == 0 {
            return None;
        }
        let n = Self::chunk_count(unit, total_len);
        if bytes.len() != 24 + 4 * n {
            return None;
        }
        let crcs = bytes[24..]
            .chunks_exact(4)
            .map(|c| u32::from_ne_bytes(c.try_into().unwrap()))
            .collect();
        Some(Self {
            unit,
            total_len,
            crcs,
        })
    }
}

/// In-memory per-stream checksum state, maintained on the write path
/// (one rolling CRC over the trailing partial chunk, completed-chunk
/// CRCs pushed as the boundary crosses) and consulted on the read
/// path. `tracked == false` means the sums are unknown (the stream
/// pre-dates checksumming or was positioned-written) and verification
/// is skipped for that stream.
struct SumState {
    unit: u64,
    /// CRC of each complete `unit`-sized chunk.
    complete: Vec<u32>,
    /// Rolling CRC state of the trailing partial chunk (writer side).
    tail: Crc32c,
    tail_len: u64,
    /// Expected CRC of the trailing partial chunk (reader side).
    /// Normally `tail.value()`; after loading a sidecar it is the
    /// *recorded* value even if the on-disk tail no longer matches —
    /// which is exactly how a rotted tail gets detected on read.
    tail_expected: u32,
    tracked: bool,
}

impl SumState {
    /// Fresh tracked state for an empty stream.
    fn fresh(unit: u64) -> Self {
        Self {
            unit: unit.max(1),
            complete: Vec::new(),
            tail: Crc32c::new(),
            tail_len: 0,
            tail_expected: 0,
            tracked: true,
        }
    }

    /// Unknown-sums state (verification skipped).
    fn untracked(unit: u64) -> Self {
        Self {
            tracked: false,
            ..Self::fresh(unit)
        }
    }

    /// Total stream length these sums describe.
    fn total_len(&self) -> u64 {
        self.complete.len() as u64 * self.unit + self.tail_len
    }

    /// Rolls appended bytes into the state. Steady-state cost is the
    /// CRC update; `complete` only grows to the stream's high-water
    /// chunk count (its capacity survives [`Self::reset`]).
    fn absorb(&mut self, mut bytes: &[u8]) {
        if !self.tracked {
            return;
        }
        while !bytes.is_empty() {
            let room = (self.unit - self.tail_len) as usize;
            let take = room.min(bytes.len());
            self.tail.update(&bytes[..take]);
            self.tail_len += take as u64;
            bytes = &bytes[take..];
            if self.tail_len == self.unit {
                self.complete.push(self.tail.value());
                self.tail.reset();
                self.tail_len = 0;
            }
        }
        self.tail_expected = self.tail.value();
    }

    /// Back to an empty *tracked* state (stream truncated), keeping
    /// `complete`'s capacity so per-superstep truncate/append cycles
    /// stay allocation-free once warm.
    fn reset(&mut self) {
        self.complete.clear();
        self.tail.reset();
        self.tail_len = 0;
        self.tail_expected = 0;
        self.tracked = true;
    }

    /// Tracked state recomputed from a full buffer (atomic replace).
    fn from_bytes(unit: u64, bytes: &[u8]) -> Self {
        let mut s = Self::fresh(unit);
        s.absorb(bytes);
        s
    }

    /// The persistable sidecar (complete chunks plus trailing partial).
    fn sidecar(&self) -> SumSidecar {
        let mut crcs = Vec::with_capacity(self.complete.len() + 1);
        crcs.extend_from_slice(&self.complete);
        if self.tail_len > 0 {
            crcs.push(self.tail_expected);
        }
        SumSidecar {
            unit: self.unit,
            total_len: self.total_len(),
            crcs,
        }
    }
}

/// Sidecar file path of stream `name` under `root`.
fn sum_path(root: &Path, name: &str) -> PathBuf {
    root.join(format!("{name}.sum"))
}

/// Replaces the file at `path` with `bytes`: writes and fsyncs a
/// `.tmp` sibling, then renames it over `path`. A crash at any point
/// leaves either the old or the new complete file at `path`; the
/// rename itself is durable once the directory is fsynced
/// ([`StreamStore::write_atomic`] does that).
fn replace_file(path: &Path, bytes: &[u8]) -> Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    {
        let mut f = File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    Ok(())
}

/// Loads the checksum state for an existing stream of length `len`:
/// the persisted sidecar if one exists and describes exactly `len`
/// bytes (reconstructing the rolling tail state by re-reading the
/// trailing partial chunk), otherwise untracked. Setup-path only.
fn load_sums(root: &Path, name: &str, file: &File, len: u64, default_unit: u64) -> SumState {
    if len == 0 {
        return SumState::fresh(default_unit);
    }
    let Ok(bytes) = std::fs::read(sum_path(root, name)) else {
        return SumState::untracked(default_unit);
    };
    let Some(sc) = SumSidecar::decode(&bytes) else {
        return SumState::untracked(default_unit);
    };
    if sc.total_len != len {
        return SumState::untracked(default_unit);
    }
    let n_full = (len / sc.unit) as usize;
    let tail_len = len % sc.unit;
    let mut crcs = sc.crcs;
    let mut tail_expected = 0;
    if tail_len > 0 {
        tail_expected = crcs[n_full];
        crcs.truncate(n_full);
    }
    let mut tail = Crc32c::new();
    if tail_len > 0 {
        // Re-feed the on-disk tail so future appends continue the
        // rolling CRC. If the tail has rotted, `tail_expected` (the
        // recorded value) still disagrees with what a reader computes,
        // so the corruption surfaces on the next verified read.
        let mut buf = vec![0u8; tail_len as usize];
        let mut filled = 0usize;
        while filled < buf.len() {
            match pread(
                file,
                &mut buf[filled..],
                n_full as u64 * sc.unit + filled as u64,
            ) {
                Ok(0) => return SumState::untracked(default_unit),
                Ok(n) => filled += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => return SumState::untracked(default_unit),
            }
        }
        tail.update(&buf);
    }
    SumState {
        unit: sc.unit,
        complete: crcs,
        tail,
        tail_len,
        tail_expected,
        tracked: true,
    }
}

struct FileHandle {
    /// Shared so persistent readers can `pread` the stream without
    /// reopening its path (reopening allocates and costs a syscall on
    /// every superstep).
    file: Arc<File>,
    /// The stream name, interned once at handle creation so the
    /// fault-injection checks on per-chunk hot paths need no per-call
    /// allocation.
    name: Arc<str>,
    len: u64,
    id: u32,
    /// Per-chunk checksum state, shared with readers (`Arc` so the
    /// read-ahead threads verify without holding the handle-map lock).
    sums: Arc<Mutex<SumState>>,
    /// The `<name>.sum` sidecar path, cached at handle creation: the
    /// per-superstep truncate of every update stream drops its sidecar,
    /// and building the path there would allocate in the steady state.
    sum_path: PathBuf,
}

/// How an intercepted operation must be perturbed (resolved from a
/// [`FaultOutcome`]; errors are returned directly instead).
enum Injected {
    /// Proceed normally.
    None,
    /// Deliver a short read this round.
    ShortRead,
    /// Complete the read, then flip one payload byte.
    BitFlip,
}

/// A directory of named append-only byte streams.
pub struct StreamStore {
    root: PathBuf,
    accounting: Arc<IoAccounting>,
    device_fn: Arc<dyn Fn(&str) -> DeviceId + Send + Sync>,
    num_devices: usize,
    io_unit: usize,
    files: Mutex<HashMap<String, FileHandle>>,
    next_id: AtomicU32,
    /// Deterministic fault-injection plan; `None` (the default) costs
    /// one branch per operation and nothing else.
    faults: Option<Arc<FaultPlan>>,
    /// Whether read paths verify per-chunk checksums (default on).
    verify: bool,
}

impl StreamStore {
    /// Opens (creating if necessary) a stream store rooted at `root`,
    /// with all streams mapped to device 0 and `io_unit`-byte transfer
    /// chunks.
    pub fn new(root: &Path, io_unit: usize) -> Result<Self> {
        std::fs::create_dir_all(root)?;
        Ok(Self {
            root: root.to_path_buf(),
            accounting: Arc::new(IoAccounting::new(false)),
            device_fn: Arc::new(|_| 0),
            num_devices: 1,
            io_unit: io_unit.max(4096),
            files: Mutex::new(HashMap::new()),
            next_id: AtomicU32::new(0),
            faults: None,
            verify: true,
        })
    }

    /// Enables or disables read-side checksum verification (the
    /// `--no-verify-reads` trust mode). Write-side checksum tracking
    /// stays on either way so the store remains sealable/scrubbable.
    pub fn with_verify(mut self, verify: bool) -> Self {
        self.verify = verify;
        self
    }

    /// Whether read paths verify per-chunk checksums.
    pub fn verifies_reads(&self) -> bool {
        self.verify
    }

    /// Installs a deterministic fault-injection plan on this store (see
    /// [`crate::faults`]). Every read, write, flush and truncate path
    /// consults it; a disarmed or absent plan is free.
    pub fn with_faults(mut self, plan: Arc<FaultPlan>) -> Self {
        self.faults = Some(plan);
        self
    }

    /// The installed fault plan, if any.
    pub fn faults(&self) -> Option<&Arc<FaultPlan>> {
        self.faults.as_ref()
    }

    /// Consults the fault plan (if any) for operation `op` on stream
    /// `name`. Returns how the operation must be perturbed (not at
    /// all, a short read, a flipped payload byte) or the injected
    /// error.
    #[inline]
    fn inject(&self, name: &str, op: FaultOp) -> Result<Injected> {
        let Some(plan) = &self.faults else {
            return Ok(Injected::None);
        };
        match plan.check(name, op) {
            FaultOutcome::Pass => Ok(Injected::None),
            FaultOutcome::ShortRead => Ok(Injected::ShortRead),
            FaultOutcome::BitFlip => Ok(Injected::BitFlip),
            FaultOutcome::Error(e) => Err(Error::Io(e)),
        }
    }

    /// Enables or replaces the accounting sink (with tracing on for the
    /// bandwidth-timeline experiments).
    pub fn with_accounting(mut self, accounting: Arc<IoAccounting>) -> Self {
        self.accounting = accounting;
        self
    }

    /// Sets the stream-name → device mapping over `num_devices`
    /// devices, letting experiments place the edge and update streams
    /// on different devices (Fig. 15). `device_fn` must return ids
    /// below `num_devices` (capped at [`crate::iostats::MAX_DEVICES`]); the persistent
    /// I/O machinery ([`ReadAhead`], `AsyncWriter`) spawns one thread
    /// per declared device.
    pub fn with_device_fn(
        mut self,
        num_devices: usize,
        device_fn: impl Fn(&str) -> DeviceId + Send + Sync + 'static,
    ) -> Self {
        self.device_fn = Arc::new(device_fn);
        self.num_devices = num_devices.clamp(1, crate::iostats::MAX_DEVICES);
        self
    }

    /// Number of storage devices the `device_fn` maps streams onto
    /// (1 unless [`Self::with_device_fn`] declared more).
    pub fn num_devices(&self) -> usize {
        self.num_devices
    }

    /// The device stream `name` is mapped to.
    pub fn device_of(&self, name: &str) -> DeviceId {
        (self.device_fn)(name)
    }

    /// The accounting sink.
    pub fn accounting(&self) -> &Arc<IoAccounting> {
        &self.accounting
    }

    /// The transfer chunk size.
    pub fn io_unit(&self) -> usize {
        self.io_unit
    }

    fn path_of(&self, name: &str) -> PathBuf {
        // Stream names are engine-generated ("edges.3"); reject path
        // separators defensively.
        debug_assert!(!name.contains('/') && !name.contains('\\'));
        self.root.join(name)
    }

    fn with_handle<R>(
        &self,
        name: &str,
        f: impl FnOnce(&mut FileHandle) -> Result<R>,
    ) -> Result<R> {
        let mut files = self.files.lock();
        if !files.contains_key(name) {
            let path = self.path_of(name);
            let file = OpenOptions::new()
                .create(true)
                .append(true)
                .read(true)
                .open(&path)?;
            let len = file.metadata()?.len();
            let id = self.next_id.fetch_add(1, Ordering::Relaxed);
            let sums = load_sums(&self.root, name, &file, len, self.io_unit as u64);
            files.insert(
                name.to_string(),
                FileHandle {
                    file: Arc::new(file),
                    name: Arc::from(name),
                    len,
                    id,
                    sums: Arc::new(Mutex::new(sums)),
                    sum_path: sum_path(&self.root, name),
                },
            );
        }
        f(files.get_mut(name).expect("inserted above"))
    }

    /// Appends `bytes` to stream `name`, creating it if needed.
    pub fn append(&self, name: &str, bytes: &[u8]) -> Result<()> {
        if bytes.is_empty() {
            return Ok(());
        }
        self.inject(name, FaultOp::Write)?;
        let device = (self.device_fn)(name);
        self.with_handle(name, |h| {
            (&*h.file).write_all(bytes)?;
            self.accounting
                .record_write(device, h.id, h.len, bytes.len() as u64);
            h.len += bytes.len() as u64;
            h.sums.lock().absorb(bytes);
            Ok(())
        })
    }

    /// Current length of stream `name` in bytes (0 if absent).
    pub fn len(&self, name: &str) -> u64 {
        let files = self.files.lock();
        if let Some(h) = files.get(name) {
            return h.len;
        }
        drop(files);
        std::fs::metadata(self.path_of(name))
            .map(|m| m.len())
            .unwrap_or(0)
    }

    /// Whether stream `name` exists and is non-empty.
    pub fn exists(&self, name: &str) -> bool {
        self.len(name) > 0
    }

    /// Reads the entire stream into memory in `io_unit` chunks.
    pub fn read_all(&self, name: &str) -> Result<Vec<u8>> {
        let mut out = Vec::new();
        self.read_all_into(name, &mut out)?;
        Ok(out)
    }

    /// Reads the entire stream into `out` (cleared first), reusing the
    /// caller's buffer capacity — the pooled variant of
    /// [`Self::read_all`] used by per-superstep hot paths.
    pub fn read_all_into(&self, name: &str, out: &mut Vec<u8>) -> Result<()> {
        let device = (self.device_fn)(name);
        let (file, id, len, sums) = self.with_handle(name, |h| {
            Ok((Arc::clone(&h.file), h.id, h.len, Arc::clone(&h.sums)))
        })?;
        out.clear();
        out.reserve(len as usize);
        let mut offset = 0u64;
        loop {
            let mut want = self.io_unit.min((len - offset) as usize);
            if want == 0 {
                break;
            }
            let mut flip = false;
            match self.inject(name, FaultOp::Read)? {
                Injected::None => {}
                // Injected short read: deliver at most half the request
                // this round; the loop completes the stream anyway.
                Injected::ShortRead => want = (want / 2).max(1),
                Injected::BitFlip => flip = true,
            }
            let start = out.len();
            out.resize(start + want, 0);
            let n = pread(&file, &mut out[start..], offset)?;
            out.truncate(start + n);
            if n == 0 {
                break;
            }
            if flip {
                out[start] ^= 0x01;
            }
            self.accounting.record_read(device, id, offset, n as u64);
            offset += n as u64;
        }
        if self.verify {
            self.verify_full(name, &sums, out)?;
        }
        Ok(())
    }

    /// Verifies a fully-read stream against its checksum state: every
    /// complete chunk, plus the trailing partial chunk when `bytes`
    /// covers the whole recorded stream. No-op for untracked streams.
    fn verify_full(&self, name: &str, sums: &Mutex<SumState>, bytes: &[u8]) -> Result<()> {
        let s = sums.lock();
        if !s.tracked {
            return Ok(());
        }
        let unit = s.unit as usize;
        let corrupt = |chunk: u64, verified: u64| {
            self.accounting.record_chunks_verified(verified + 1);
            self.accounting.record_corruption();
            Err(Error::Corrupt {
                stream: name.to_string(),
                chunk,
            })
        };
        let full = (bytes.len() / unit).min(s.complete.len());
        for k in 0..full {
            if crc32c(&bytes[k * unit..(k + 1) * unit]) != s.complete[k] {
                return corrupt(k as u64, k as u64);
            }
        }
        let mut verified = full as u64;
        if s.tail_len > 0 && bytes.len() as u64 == s.total_len() {
            verified += 1;
            if crc32c(&bytes[s.complete.len() * unit..]) != s.tail_expected {
                return corrupt(s.complete.len() as u64, full as u64);
            }
        }
        self.accounting.record_chunks_verified(verified);
        Ok(())
    }

    /// Resolves stream `name` into a [`ReadSource`] for a persistent
    /// [`ReadAhead`] reader, with chunks a multiple of `record_size`
    /// bytes so no record straddles a chunk boundary (the analogue of
    /// the paper's §3.3 alignment page).
    ///
    /// The source borrows the store's cached file handle (`Arc`), so
    /// once a stream's handle exists this is allocation-free — the
    /// property the out-of-core engine's steady state relies on.
    pub fn read_source(&self, name: &str, record_size: usize) -> Result<ReadSource> {
        let record_size = record_size.max(1);
        let chunk_size = (self.io_unit / record_size).max(1) * record_size;
        let device = (self.device_fn)(name);
        let faults = self.faults.clone();
        let verify = self.verify;
        self.with_handle(name, |h| {
            Ok(ReadSource {
                file: Arc::clone(&h.file),
                name: Arc::clone(&h.name),
                id: h.id,
                device,
                accounting: Arc::clone(&self.accounting),
                chunk_size,
                faults,
                sums: Arc::clone(&h.sums),
                verify,
            })
        })
    }

    /// Reads up to `len` bytes at `offset` from stream `name`,
    /// *appending* them to `out` — positioned (random) access, used by
    /// the sparse frontier scatter to assemble active vertices' edge
    /// runs into a recycled chunk buffer, and by the GraphChi-like
    /// comparison engine's sliding windows. The accounting records it
    /// like any other read, and the disk-model replay charges the
    /// implied seeks. Goes through the cached file handle (positioned read,
    /// no seek, no reopen), so once the handle exists and `out` has
    /// capacity the call allocates nothing. Returns the bytes read
    /// (short only at end-of-stream).
    pub fn read_range_into(
        &self,
        name: &str,
        offset: u64,
        len: usize,
        out: &mut Vec<u8>,
    ) -> Result<usize> {
        let device = (self.device_fn)(name);
        let (file, id, stream_len, sums) = self.with_handle(name, |h| {
            Ok((Arc::clone(&h.file), h.id, h.len, Arc::clone(&h.sums)))
        })?;
        let want_total = len.min(stream_len.saturating_sub(offset) as usize);
        let start = out.len();
        out.resize(start + want_total, 0);
        let mut filled = 0usize;
        while filled < want_total {
            let mut want = (want_total - filled).min(self.io_unit);
            let mut flip = false;
            match self.inject(name, FaultOp::Read)? {
                Injected::None => {}
                // Injected short read: deliver at most half the request
                // this round; the fill loop completes the range anyway,
                // so callers still see record-aligned data.
                Injected::ShortRead => want = (want / 2).max(1),
                Injected::BitFlip => flip = true,
            }
            let at = start + filled;
            let n = pread(&file, &mut out[at..at + want], offset + filled as u64)?;
            if n == 0 {
                break;
            }
            if flip {
                out[at] ^= 0x01;
            }
            self.accounting
                .record_read(device, id, offset + filled as u64, n as u64);
            filled += n;
        }
        out.truncate(start + filled);
        if self.verify {
            self.verify_covered(name, &sums, offset, &out[start..])?;
        }
        Ok(filled)
    }

    /// Verifies the sum-chunks *fully covered* by a ranged read of
    /// `bytes` at `offset`. Sub-chunk ranges verify nothing (keeping
    /// the sparse scatter's small ranged reads cheap — full coverage
    /// is `scrub`'s job); large ranges verify every interior chunk and
    /// the trailing partial chunk when the range reaches end-of-stream.
    fn verify_covered(
        &self,
        name: &str,
        sums: &Mutex<SumState>,
        offset: u64,
        bytes: &[u8],
    ) -> Result<()> {
        let s = sums.lock();
        if !s.tracked || bytes.is_empty() {
            return Ok(());
        }
        let unit = s.unit;
        let end = offset + bytes.len() as u64;
        let corrupt = |chunk: u64, verified: u64| {
            self.accounting.record_chunks_verified(verified + 1);
            self.accounting.record_corruption();
            Err(Error::Corrupt {
                stream: name.to_string(),
                chunk,
            })
        };
        let mut verified = 0u64;
        let first = offset.div_ceil(unit);
        let mut k = first;
        while (k + 1) * unit <= end && (k as usize) < s.complete.len() {
            let lo = (k * unit - offset) as usize;
            if crc32c(&bytes[lo..lo + unit as usize]) != s.complete[k as usize] {
                return corrupt(k, verified);
            }
            verified += 1;
            k += 1;
        }
        // The trailing partial chunk, when the range covers it whole.
        let tail_start = s.complete.len() as u64 * unit;
        if s.tail_len > 0 && tail_start >= offset && end >= s.total_len() {
            let lo = (tail_start - offset) as usize;
            let hi = lo + s.tail_len as usize;
            if hi <= bytes.len() {
                if crc32c(&bytes[lo..hi]) != s.tail_expected {
                    return corrupt(s.complete.len() as u64, verified);
                }
                verified += 1;
            }
        }
        self.accounting.record_chunks_verified(verified);
        Ok(())
    }

    /// Overwrites `bytes` at `offset` within stream `name` (positioned
    /// write for the GraphChi-like comparison engine's sliding windows;
    /// X-Stream itself only appends).
    pub fn write_at(&self, name: &str, offset: u64, bytes: &[u8]) -> Result<()> {
        use std::io::{Seek, SeekFrom, Write as _};
        if bytes.is_empty() {
            return Ok(());
        }
        let device = (self.device_fn)(name);
        let id = self.with_handle(name, |h| Ok(h.id))?;
        let mut file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(false)
            .open(self.path_of(name))?;
        file.seek(SeekFrom::Start(offset))?;
        file.write_all(bytes)?;
        self.accounting
            .record_write(device, id, offset, bytes.len() as u64);
        let end = offset + bytes.len() as u64;
        self.with_handle(name, |h| {
            h.len = h.len.max(end);
            // A positioned overwrite invalidates the append-rolled
            // sums; the stream becomes unverifiable until rewritten.
            h.sums.lock().tracked = false;
            let _ = std::fs::remove_file(&h.sum_path);
            Ok(())
        })
    }

    /// Truncates stream `name` to zero length while *keeping its
    /// cached handle* (the same TRIM semantics as [`Self::delete`],
    /// §3.3, minus the unlink). The out-of-core engine truncates its
    /// update streams after every gather instead of deleting them, so
    /// the next superstep appends through the already-open handle
    /// without re-opening a path — no allocation, no open syscall.
    pub fn truncate(&self, name: &str) -> Result<()> {
        self.inject(name, FaultOp::Truncate)?;
        let device = (self.device_fn)(name);
        self.with_handle(name, |h| {
            h.file.set_len(0)?;
            self.accounting.record_trim(device, h.id);
            h.len = 0;
            h.sums.lock().reset();
            // A persisted sidecar now describes bytes that no longer
            // exist; drop it so a crash before the next seal can never
            // pair stale sums with a same-length future stream.
            let _ = std::fs::remove_file(&h.sum_path);
            Ok(())
        })
    }

    /// Destroys stream `name`, truncating its file (the paper notes the
    /// truncation translates into a TRIM on SSDs, easing the flash
    /// garbage collector).
    pub fn delete(&self, name: &str) -> Result<()> {
        let device = (self.device_fn)(name);
        let mut files = self.files.lock();
        if let Some(h) = files.remove(name) {
            self.accounting.record_trim(device, h.id);
        }
        let _ = std::fs::remove_file(sum_path(&self.root, name));
        match std::fs::remove_file(self.path_of(name)) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(Error::Io(e)),
        }
    }

    /// Replaces the contents of stream `name` with `bytes`: a
    /// [`delete`](Self::delete) followed by an [`append`](Self::append).
    pub fn write_replace(&self, name: &str, bytes: &[u8]) -> Result<()> {
        self.delete(name)?;
        self.append(name, bytes)
    }

    /// *Crash-atomically* replaces stream `name` with `bytes`: writes
    /// a `{name}.tmp` sibling, fsyncs it, renames it over the final
    /// path and fsyncs the directory. A crash at any point leaves
    /// either the old complete contents or the new complete contents —
    /// never a torn mix. Used by the engine checkpoints; unlike
    /// [`Self::write_replace`] this always pays an open + two fsyncs,
    /// so it is not for per-superstep hot paths.
    pub fn write_atomic(&self, name: &str, bytes: &[u8]) -> Result<()> {
        self.inject(name, FaultOp::Write)?;
        let device = (self.device_fn)(name);
        // A persisted sidecar describes the old contents; drop it before
        // the rename, so a crash cannot pair it with the new ones (the
        // in-memory sums below are authoritative until resealed).
        let _ = std::fs::remove_file(sum_path(&self.root, name));
        replace_file(&self.path_of(name), bytes)?;
        // Makes this rename durable, and every earlier one in the
        // store, such as the sidecars sealed before a manifest.
        File::open(&self.root)?.sync_all()?;
        // Any cached handle now points at the unlinked old inode; drop
        // it so the next access reopens the renamed file.
        let mut files = self.files.lock();
        if let Some(h) = files.remove(name) {
            self.accounting.record_trim(device, h.id);
        }
        drop(files);
        self.with_handle(name, |h| {
            self.accounting
                .record_write(device, h.id, 0, bytes.len() as u64);
            *h.sums.lock() = SumState::from_bytes(self.io_unit as u64, bytes);
            Ok(())
        })
    }

    /// Persists stream `name`'s per-chunk checksums as a `<name>.sum`
    /// sidecar file (write-temp-then-rename, fsynced), making the
    /// stream verifiable across process restarts and scrubbable. The
    /// rename becomes durable with the next [`Self::write_atomic`],
    /// whose directory fsync covers it: every caller seals its streams
    /// before it writes the manifest that records their sidecars.
    /// Returns the CRC32 of the encoded sidecar — the manifest records
    /// it, closing the integrity chain manifest → sidecar → chunks —
    /// or `None` when the stream's sums are untracked (nothing is
    /// written and any stale sidecar is removed).
    pub fn seal_sums(&self, name: &str) -> Result<Option<u32>> {
        debug_assert!(!name.ends_with(".sum"), "sidecar of a sidecar");
        let encoded = self.with_handle(name, |h| {
            let s = h.sums.lock();
            Ok(s.tracked.then(|| s.sidecar().encode()))
        })?;
        let path = sum_path(&self.root, name);
        let Some(bytes) = encoded else {
            let _ = std::fs::remove_file(&path);
            return Ok(None);
        };
        replace_file(&path, &bytes)?;
        Ok(Some(crc32(&bytes)))
    }

    /// Whether stream `name`'s checksums are currently tracked (i.e. a
    /// verified read is possible).
    pub fn sums_tracked(&self, name: &str) -> bool {
        self.with_handle(name, |h| Ok(h.sums.lock().tracked))
            .unwrap_or(false)
    }

    /// Marks stream `name`'s checksums unknown and removes any
    /// persisted sidecar — reads stop being verified until the stream
    /// is rewritten. Used by repair/quarantine paths.
    pub fn invalidate_sums(&self, name: &str) -> Result<()> {
        self.with_handle(name, |h| {
            h.sums.lock().tracked = false;
            Ok(())
        })?;
        let _ = std::fs::remove_file(sum_path(&self.root, name));
        Ok(())
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Names of all regular files in the store directory, sorted —
    /// streams, sidecars, manifest, markers alike (`scrub` walks this
    /// against the manifest).
    pub fn stream_names(&self) -> Result<Vec<String>> {
        let mut names = Vec::new();
        for entry in std::fs::read_dir(&self.root)? {
            let entry = entry?;
            if entry.file_type()?.is_file() {
                if let Ok(name) = entry.file_name().into_string() {
                    names.push(name);
                }
            }
        }
        names.sort_unstable();
        Ok(names)
    }

    /// Removes the whole store directory (test/experiment teardown).
    pub fn destroy(self) -> Result<()> {
        let root = self.root.clone();
        drop(self);
        match std::fs::remove_dir_all(&root) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(Error::Io(e)),
        }
    }
}

/// One stream queued for a [`ReadAhead`] reader: a shared file handle
/// plus the accounting identity of the stream. Built by
/// [`StreamStore::read_source`].
pub struct ReadSource {
    file: Arc<File>,
    /// Stream name (interned by the store) for fault matching.
    name: Arc<str>,
    id: u32,
    device: DeviceId,
    accounting: Arc<IoAccounting>,
    chunk_size: usize,
    /// The store's fault plan, consulted once per prefetched chunk.
    faults: Option<Arc<FaultPlan>>,
    /// The stream's checksum state, rolled against by the prefetch
    /// thread as chunks stream through.
    sums: Arc<Mutex<SumState>>,
    /// Whether the store verifies reads.
    verify: bool,
}

/// Messages from the read-ahead thread to the consumer, tagged with
/// the generation of the job that produced them so a
/// [`ReadAhead::reset`] can invalidate everything in flight.
enum ReadMsg {
    /// The next chunk of the current stream.
    Chunk(u64, Vec<u8>),
    /// End of the current stream; subsequent messages belong to the
    /// next queued [`ReadSource`].
    End(u64),
    /// The current stream failed (I/O error or checksum mismatch); it
    /// is abandoned and subsequent messages belong to the next queued
    /// source.
    Fail(u64, Error),
}

impl ReadMsg {
    fn generation(&self) -> u64 {
        match self {
            ReadMsg::Chunk(g, _) | ReadMsg::End(g) | ReadMsg::Fail(g, _) => *g,
        }
    }
}

/// Rolling checksum verifier used by the read-ahead threads: feed the
/// sequentially-read bytes in whatever chunk size the reader uses;
/// each time a sum-chunk boundary crosses, the accumulated CRC is
/// compared against the stream's recorded state (and at end-of-stream
/// the trailing partial chunk is checked). Stack-allocated per job —
/// the steady state stays allocation-free.
struct RollVerify {
    on: bool,
    unit: u64,
    pos: u64,
    crc: Crc32c,
}

impl RollVerify {
    fn begin(src: &ReadSource) -> Self {
        let (on, unit) = if src.verify {
            let s = src.sums.lock();
            (s.tracked, s.unit)
        } else {
            (false, 1)
        };
        Self {
            on,
            unit,
            pos: 0,
            crc: Crc32c::new(),
        }
    }

    /// Feeds the next sequential bytes; `Err(chunk)` on a mismatch.
    fn feed(&mut self, src: &ReadSource, mut bytes: &[u8]) -> std::result::Result<(), u64> {
        if !self.on {
            return Ok(());
        }
        while !bytes.is_empty() {
            let into = (self.pos % self.unit) as usize;
            let take = (self.unit as usize - into).min(bytes.len());
            self.crc.update(&bytes[..take]);
            self.pos += take as u64;
            bytes = &bytes[take..];
            if self.pos.is_multiple_of(self.unit) {
                let k = self.pos / self.unit - 1;
                let expected = src.sums.lock().complete.get(k as usize).copied();
                if let Some(e) = expected {
                    src.accounting.record_chunks_verified(1);
                    if e != self.crc.value() {
                        src.accounting.record_corruption();
                        return Err(k);
                    }
                }
                self.crc.reset();
            }
        }
        Ok(())
    }

    /// End-of-stream: verifies the trailing partial chunk, provided
    /// the whole recorded stream was read.
    fn finish(&mut self, src: &ReadSource) -> std::result::Result<(), u64> {
        if !self.on || self.pos.is_multiple_of(self.unit) {
            return Ok(());
        }
        let s = src.sums.lock();
        if s.tail_len > 0 && self.pos == s.total_len() {
            src.accounting.record_chunks_verified(1);
            if s.tail_expected != self.crc.value() {
                src.accounting.record_corruption();
                return Err(s.complete.len() as u64);
            }
        }
        Ok(())
    }
}

/// The per-device half of a [`ReadAhead`]: one prefetch thread's job,
/// data and recycle queues.
struct ReadLane {
    jobs: BoundedQueue<(ReadSource, u64)>,
    data: BoundedQueue<ReadMsg>,
    recycled: BoundedQueue<Vec<u8>>,
}

/// Persistent striped sequential reader: one dedicated prefetch thread
/// **per storage device**, each with pooled buffers (paper §3.3:
/// asynchronous reads with prefetch distance 1, which the paper found
/// sufficient to keep disks 100% busy; Fig. 15: independent devices
/// serviced by independent threads).
///
/// One `ReadAhead` serves any number of streams over its lifetime —
/// no thread spawn and no fresh chunk buffer per stream: [`begin`](Self::begin) queues a
/// [`ReadSource`] on the thread of the device the stream lives on, the
/// thread streams it chunk by chunk into buffers drawn from its
/// recycle pool, and [`next_chunk`](Self::next_chunk) returns each
/// consumed buffer to that pool. Queueing the next stream before the
/// current one is drained lets a device thread roll straight into it —
/// reading partition `p + 1`'s edge file while the engine still
/// computes on partition `p` — and streams queued on *different*
/// devices prefetch fully concurrently, so a slow device never stalls
/// the other's thread.
///
/// Protocol: the consumer sees queued sources strictly in
/// [`begin`](Self::begin) order regardless of their devices; every
/// queued source must be drained to its end-of-stream (`next_chunk()
/// == None`) or error before the chunks of the next queued source are
/// visible. A consumer abandoning mid-protocol (e.g. an engine bailing
/// out on an error) must call [`reset`](Self::reset) before reusing
/// the reader.
pub struct ReadAhead {
    lanes: Vec<ReadLane>,
    /// Device lane of each queued-but-undrained source, in `begin`
    /// order; the consumer pops chunks from the front lane. Capacity
    /// is pre-reserved so steady-state queueing never allocates.
    pending: std::collections::VecDeque<usize>,
    /// The chunk most recently handed to the consumer (and its lane);
    /// recycled on the next call.
    current: Option<(usize, Vec<u8>)>,
    /// Consumer-side current generation; messages tagged with an older
    /// one are discarded.
    generation: u64,
    /// Latest valid generation, read by the threads to abandon stale
    /// jobs early (pure optimization — correctness comes from the
    /// consumer-side filtering).
    shared_generation: Arc<std::sync::atomic::AtomicU64>,
    threads: Vec<JoinHandle<()>>,
}

impl ReadAhead {
    /// Spawns one reader thread for a single-device store; up to
    /// `job_depth` streams may be queued ahead of the one being read.
    pub fn new(job_depth: usize) -> Self {
        Self::striped(job_depth, 1)
    }

    /// Spawns one reader thread per device. Up to `job_depth` streams
    /// may be queued ahead of the one being read *per device*; sources
    /// route to lane `device % num_devices`.
    pub fn striped(job_depth: usize, num_devices: usize) -> Self {
        let job_depth = job_depth.max(1);
        let num_devices = num_devices.clamp(1, crate::iostats::MAX_DEVICES);
        let shared_generation = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let mut lanes = Vec::with_capacity(num_devices);
        let mut threads = Vec::with_capacity(num_devices);
        for d in 0..num_devices {
            let lane = ReadLane {
                jobs: BoundedQueue::new(job_depth),
                // Prefetch distance 1: one chunk queued while one is
                // being consumed and one is being read.
                data: BoundedQueue::new(1),
                recycled: BoundedQueue::new(4),
            };
            let jobs = lane.jobs.clone();
            let data = lane.data.clone();
            let recycled = lane.recycled.clone();
            let shared_generation = Arc::clone(&shared_generation);
            let thread = std::thread::Builder::new()
                .name(format!("xstream-io-read-{d}"))
                .spawn(move || {
                    let stale = |gen: u64| {
                        gen < shared_generation.load(std::sync::atomic::Ordering::Relaxed)
                    };
                    'jobs: while let Some((src, gen)) = jobs.pop() {
                        if stale(gen) {
                            continue;
                        }
                        let mut offset = 0u64;
                        let mut verify = RollVerify::begin(&src);
                        let corrupt = |chunk: u64| Error::Corrupt {
                            stream: src.name.to_string(),
                            chunk,
                        };
                        loop {
                            if stale(gen) {
                                continue 'jobs;
                            }
                            // Fault-injection checkpoint: at most one
                            // consult per prefetched chunk, a no-op
                            // branch without an armed plan.
                            let mut first_pread_cap = usize::MAX;
                            let mut bit_flip = false;
                            if let Some(plan) = &src.faults {
                                match plan.check(&src.name, FaultOp::Read) {
                                    FaultOutcome::Pass => {}
                                    FaultOutcome::ShortRead => {
                                        // Cap only the first pread of
                                        // the chunk; the fill loop then
                                        // completes it, so delivered
                                        // chunks stay record-aligned.
                                        first_pread_cap = (src.chunk_size / 2).max(1);
                                    }
                                    FaultOutcome::BitFlip => bit_flip = true,
                                    FaultOutcome::Error(e) => {
                                        if data.push(ReadMsg::Fail(gen, Error::Io(e))).is_err() {
                                            return;
                                        }
                                        continue 'jobs;
                                    }
                                }
                            }
                            let mut buf = recycled.try_pop().unwrap_or_default();
                            // Recycled buffers keep their length, so in
                            // steady state this resize is a no-op (no
                            // re-zeroing of the whole chunk).
                            buf.resize(src.chunk_size, 0);
                            let mut filled = 0usize;
                            while filled < src.chunk_size {
                                let end =
                                    src.chunk_size.min(filled.saturating_add(first_pread_cap));
                                first_pread_cap = usize::MAX;
                                match pread(
                                    &src.file,
                                    &mut buf[filled..end],
                                    offset + filled as u64,
                                ) {
                                    Ok(0) => break,
                                    Ok(n) => filled += n,
                                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                                    Err(e) => {
                                        let _ = recycled.try_push(buf);
                                        if data.push(ReadMsg::Fail(gen, Error::Io(e))).is_err() {
                                            return;
                                        }
                                        continue 'jobs;
                                    }
                                }
                            }
                            if filled == 0 {
                                let _ = recycled.try_push(buf);
                                let msg = match verify.finish(&src) {
                                    Ok(()) => ReadMsg::End(gen),
                                    Err(k) => ReadMsg::Fail(gen, corrupt(k)),
                                };
                                if data.push(msg).is_err() {
                                    return;
                                }
                                continue 'jobs;
                            }
                            if bit_flip {
                                // The syscall "succeeded"; corrupt the
                                // payload after the fact.
                                buf[0] ^= 0x01;
                            }
                            let short = filled < src.chunk_size;
                            buf.truncate(filled);
                            // Verify before the chunk is exposed, so a
                            // consumer never computes on rotten bytes.
                            let bad = match verify.feed(&src, &buf) {
                                Err(k) => Some(k),
                                Ok(()) if short => verify.finish(&src).err(),
                                Ok(()) => None,
                            };
                            if let Some(k) = bad {
                                let _ = recycled.try_push(buf);
                                if data.push(ReadMsg::Fail(gen, corrupt(k))).is_err() {
                                    return;
                                }
                                continue 'jobs;
                            }
                            src.accounting
                                .record_read(src.device, src.id, offset, filled as u64);
                            offset += filled as u64;
                            if data.push(ReadMsg::Chunk(gen, buf)).is_err() {
                                return;
                            }
                            if short {
                                // A short chunk is end of stream; skip
                                // the extra zero-byte read.
                                if data.push(ReadMsg::End(gen)).is_err() {
                                    return;
                                }
                                continue 'jobs;
                            }
                        }
                    }
                })
                .expect("failed to spawn read-ahead thread");
            lanes.push(lane);
            threads.push(thread);
        }
        Self {
            pending: std::collections::VecDeque::with_capacity(num_devices * job_depth + 2),
            lanes,
            current: None,
            generation: 0,
            shared_generation,
            threads,
        }
    }

    /// Queues `source` for streaming on its device's thread; blocks
    /// only when `job_depth` streams are already queued on that device.
    pub fn begin(&mut self, source: ReadSource) -> Result<()> {
        let lane = source.device as usize % self.lanes.len();
        self.lanes[lane]
            .jobs
            .push((source, self.generation))
            .map_err(|_| Error::Io(std::io::Error::other("read-ahead thread terminated")))?;
        self.pending.push_back(lane);
        Ok(())
    }

    /// Returns the next chunk of the stream at the head of the queue,
    /// or `None` at its end (after which chunks of the next queued
    /// stream follow; with nothing queued, `None` immediately). The
    /// returned slice is valid until the next call.
    pub fn next_chunk(&mut self) -> Result<Option<&[u8]>> {
        if let Some((lane, buf)) = self.current.take() {
            let _ = self.lanes[lane].recycled.try_push(buf);
        }
        loop {
            let Some(&lane) = self.pending.front() else {
                return Ok(None); // Nothing queued.
            };
            let Some(msg) = self.lanes[lane].data.pop() else {
                return Ok(None); // Thread gone (drop in progress).
            };
            if msg.generation() != self.generation {
                // Residue from before a reset: recycle and skip.
                if let ReadMsg::Chunk(_, buf) = msg {
                    let _ = self.lanes[lane].recycled.try_push(buf);
                }
                continue;
            }
            return match msg {
                ReadMsg::Chunk(_, buf) => {
                    self.current = Some((lane, buf));
                    Ok(self.current.as_ref().map(|(_, b)| b.as_slice()))
                }
                ReadMsg::End(_) => {
                    self.pending.pop_front();
                    Ok(None)
                }
                ReadMsg::Fail(_, e) => {
                    self.pending.pop_front();
                    Err(e)
                }
            };
        }
    }

    /// Invalidates every queued job and in-flight chunk on every
    /// device, returning the reader to a clean slate. Call after
    /// abandoning a stream mid-protocol (e.g. an engine error path):
    /// queued stale jobs are discarded here or skipped by the threads,
    /// and stale messages are discarded here or filtered by generation
    /// on the next [`next_chunk`](Self::next_chunk). Non-blocking.
    pub fn reset(&mut self) {
        self.generation += 1;
        self.shared_generation
            .store(self.generation, std::sync::atomic::Ordering::Relaxed);
        if let Some((lane, buf)) = self.current.take() {
            let _ = self.lanes[lane].recycled.try_push(buf);
        }
        self.pending.clear();
        // Drain every lane's queues until quiescent. Emptying `jobs`
        // guarantees the next `begin` cannot block behind stale work
        // even if a thread is still blocked pushing one stale message
        // (at most two stale messages per lane can trail this loop —
        // the threads re-check the generation before reading any
        // further chunk — and the `next_chunk` filter discards them).
        loop {
            let mut progress = false;
            for lane in &self.lanes {
                if lane.jobs.try_pop().is_some() {
                    progress = true;
                }
                while let Some(msg) = lane.data.try_pop() {
                    if let ReadMsg::Chunk(_, buf) = msg {
                        let _ = lane.recycled.try_push(buf);
                    }
                    progress = true;
                }
            }
            if !progress {
                break;
            }
        }
    }
}

impl Default for ReadAhead {
    fn default() -> Self {
        Self::new(1)
    }
}

impl Drop for ReadAhead {
    fn drop(&mut self) {
        // Closing the queues unblocks the threads wherever they are.
        for lane in &self.lanes {
            lane.jobs.close();
            lane.data.close();
            lane.recycled.close();
        }
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_store(tag: &str) -> StreamStore {
        let root = std::env::temp_dir().join(format!("xstream_store_{tag}"));
        let _ = std::fs::remove_dir_all(&root);
        StreamStore::new(&root, 4096).unwrap()
    }

    #[test]
    fn append_read_roundtrip() {
        let store = temp_store("rt");
        store.append("s", b"hello ").unwrap();
        store.append("s", b"world").unwrap();
        assert_eq!(store.read_all("s").unwrap(), b"hello world");
        assert_eq!(store.len("s"), 11);
        store.destroy().unwrap();
    }

    #[test]
    fn chunked_reader_reassembles() {
        let store = temp_store("chunks");
        let payload: Vec<u8> = (0..20_000u32).flat_map(|i| i.to_le_bytes()).collect();
        store.append("big", &payload).unwrap();
        let mut reader = ReadAhead::new(1);
        reader.begin(store.read_source("big", 1).unwrap()).unwrap();
        let mut out = Vec::new();
        while let Some(chunk) = reader.next_chunk().unwrap() {
            assert!(chunk.len() <= 4096);
            out.extend_from_slice(chunk);
        }
        assert_eq!(out, payload);
        drop(reader);
        store.destroy().unwrap();
    }

    #[test]
    fn delete_then_recreate() {
        let store = temp_store("del");
        store.append("x", b"abc").unwrap();
        store.delete("x").unwrap();
        assert!(!store.exists("x"));
        store.append("x", b"de").unwrap();
        assert_eq!(store.read_all("x").unwrap(), b"de");
        store.destroy().unwrap();
    }

    #[test]
    fn accounting_observes_traffic() {
        let root = std::env::temp_dir().join("xstream_store_acct");
        let _ = std::fs::remove_dir_all(&root);
        let acc = Arc::new(IoAccounting::new(true));
        let store = StreamStore::new(&root, 4096)
            .unwrap()
            .with_accounting(Arc::clone(&acc))
            .with_device_fn(2, |name| u8::from(name.starts_with("upd")));
        store.append("edges", &[0u8; 5000]).unwrap();
        store.append("upd.1", &[0u8; 100]).unwrap();
        let _ = store.read_all("edges").unwrap();
        let snap = acc.snapshot();
        assert_eq!(snap.per_device[0].bytes_written, 5000);
        assert_eq!(snap.per_device[1].bytes_written, 100);
        assert_eq!(snap.per_device[0].bytes_read, 5000);
        // Chunked read produced two events (4096 + 904).
        assert_eq!(snap.per_device[0].read_ops, 2);
        store.destroy().unwrap();
    }

    #[test]
    fn dropping_reader_midway_is_clean() {
        let store = temp_store("dropmid");
        store.append("s", &vec![7u8; 100_000]).unwrap();
        let mut reader = ReadAhead::new(1);
        reader.begin(store.read_source("s", 1).unwrap()).unwrap();
        let _ = reader.next_chunk().unwrap();
        drop(reader); // Must not hang or panic.
        store.destroy().unwrap();
    }

    #[test]
    fn positioned_reads_and_writes() {
        let store = temp_store("positioned");
        store.append("s", b"0123456789").unwrap();
        let mut out = Vec::new();
        assert_eq!(store.read_range_into("s", 3, 4, &mut out).unwrap(), 4);
        assert_eq!(out, b"3456");
        store.write_at("s", 2, b"XY").unwrap();
        assert_eq!(store.read_all("s").unwrap(), b"01XY456789");
        // Extending write updates the tracked length.
        store.write_at("s", 9, b"ZZZ").unwrap();
        assert_eq!(store.len("s"), 12);
        // Short read past EOF truncates.
        out.clear();
        assert_eq!(store.read_range_into("s", 10, 100, &mut out).unwrap(), 2);
        assert_eq!(out, b"ZZ");
        store.destroy().unwrap();
    }

    #[test]
    fn read_range_into_appends_and_survives_short_reads() {
        use crate::faults::{FaultKind, FaultSpec};
        let root = std::env::temp_dir().join("xstream_store_range_into");
        let _ = std::fs::remove_dir_all(&root);
        let plan = Arc::new(FaultPlan::new(vec![FaultSpec {
            stream_prefix: String::new(),
            op: FaultOp::Read,
            nth: 0,
            kind: FaultKind::ShortRead,
        }]));
        let store = StreamStore::new(&root, 4096)
            .unwrap()
            .with_faults(Arc::clone(&plan));
        let payload: Vec<u8> = (0..4000u32).flat_map(|i| i.to_le_bytes()).collect();
        store.append("s", &payload).unwrap();

        // Appends to the caller's buffer, preserving what's there.
        let mut out = b"prefix".to_vec();
        let n = store.read_range_into("s", 8, 12, &mut out).unwrap();
        assert_eq!(n, 12);
        assert_eq!(&out[..6], b"prefix");
        assert_eq!(&out[6..], &payload[8..20]);

        // A request past EOF is clamped, not an error.
        out.clear();
        let n = store
            .read_range_into("s", payload.len() as u64 - 5, 100, &mut out)
            .unwrap();
        assert_eq!(n, 5);
        assert_eq!(&out, &payload[payload.len() - 5..]);

        // An injected short read still delivers the full range, and the
        // accounting sees every byte exactly once.
        let before = store.accounting().snapshot().per_device[0].bytes_read;
        plan.arm();
        out.clear();
        let n = store.read_range_into("s", 100, 9000, &mut out).unwrap();
        assert_eq!(n, 9000);
        assert_eq!(&out, &payload[100..9100]);
        assert_eq!(plan.fired_count(), 1);
        let after = store.accounting().snapshot().per_device[0].bytes_read;
        assert_eq!(after - before, 9000);
        store.destroy().unwrap();
    }

    #[test]
    fn empty_and_missing_streams() {
        let store = temp_store("empty");
        assert_eq!(store.len("nope"), 0);
        let mut r = ReadAhead::new(1);
        r.begin(store.read_source("nope", 1).unwrap()).unwrap();
        assert!(r.next_chunk().unwrap().is_none());
        let mut out = Vec::new();
        assert_eq!(store.read_range_into("nope", 0, 16, &mut out).unwrap(), 0);
        assert!(out.is_empty());
        store.append("empty", b"").unwrap();
        r.begin(store.read_source("empty", 1).unwrap()).unwrap();
        assert!(r.next_chunk().unwrap().is_none());
        store.destroy().unwrap();
    }

    #[test]
    fn truncate_keeps_the_stream_usable() {
        let store = temp_store("trunc");
        store.append("s", b"before").unwrap();
        store.truncate("s").unwrap();
        assert_eq!(store.len("s"), 0);
        store.append("s", b"after").unwrap();
        assert_eq!(store.read_all("s").unwrap(), b"after");
        store.destroy().unwrap();
    }

    #[test]
    fn read_ahead_reassembles_streams_in_order() {
        let store = temp_store("readahead");
        let a: Vec<u8> = (0..9000u32).flat_map(|i| i.to_le_bytes()).collect();
        let b: Vec<u8> = (0..700u32).flat_map(|i| (i * 3).to_le_bytes()).collect();
        store.append("a", &a).unwrap();
        store.append("b", &b).unwrap();
        let mut reader = ReadAhead::new(2);
        // Queue both up front: the thread rolls from `a` into `b`.
        reader.begin(store.read_source("a", 4).unwrap()).unwrap();
        reader.begin(store.read_source("b", 4).unwrap()).unwrap();
        for (name, expect) in [("a", &a), ("b", &b)] {
            let mut out = Vec::new();
            while let Some(chunk) = reader.next_chunk().unwrap() {
                assert!(chunk.len() <= 4096, "{name}: oversized chunk");
                out.extend_from_slice(chunk);
            }
            assert_eq!(&out, expect, "stream {name}");
        }
        drop(reader);
        store.destroy().unwrap();
    }

    #[test]
    fn striped_read_ahead_preserves_begin_order_across_devices() {
        let root = std::env::temp_dir().join("xstream_store_striped");
        let _ = std::fs::remove_dir_all(&root);
        let store = StreamStore::new(&root, 4096)
            .unwrap()
            .with_device_fn(2, |name| u8::from(name.starts_with("upd")));
        let a: Vec<u8> = (0..5000u32).flat_map(|i| i.to_le_bytes()).collect();
        let b: Vec<u8> = (0..900u32).flat_map(|i| (i * 7).to_le_bytes()).collect();
        let c: Vec<u8> = (0..300u32).flat_map(|i| (i ^ 5).to_le_bytes()).collect();
        store.append("edges.0", &a).unwrap();
        store.append("upd.0", &b).unwrap();
        store.append("edges.1", &c).unwrap();
        let mut reader = ReadAhead::striped(2, store.num_devices());
        // Interleave devices; the consumer must see streams strictly
        // in begin order even though two threads prefetch them.
        reader
            .begin(store.read_source("edges.0", 4).unwrap())
            .unwrap();
        reader
            .begin(store.read_source("upd.0", 4).unwrap())
            .unwrap();
        reader
            .begin(store.read_source("edges.1", 4).unwrap())
            .unwrap();
        for (name, expect) in [("edges.0", &a), ("upd.0", &b), ("edges.1", &c)] {
            let mut out = Vec::new();
            while let Some(chunk) = reader.next_chunk().unwrap() {
                out.extend_from_slice(chunk);
            }
            assert_eq!(&out, expect, "stream {name}");
        }
        // Nothing queued: immediate None, no hang.
        assert!(reader.next_chunk().unwrap().is_none());
        drop(reader);
        store.destroy().unwrap();
    }

    #[test]
    fn read_ahead_empty_stream_yields_immediate_end() {
        let store = temp_store("readahead_empty");
        let mut reader = ReadAhead::new(1);
        reader.begin(store.read_source("nope", 1).unwrap()).unwrap();
        assert!(reader.next_chunk().unwrap().is_none());
        drop(reader);
        store.destroy().unwrap();
    }

    #[test]
    fn read_ahead_steady_state_is_allocation_free() {
        if !xstream_core::alloc_stats::run_alone(
            module_path!(),
            "read_ahead_steady_state_is_allocation_free",
        ) {
            return;
        }
        let store = temp_store("readahead_alloc");
        store.append("s", &vec![42u8; 40_000]).unwrap();
        let mut reader = ReadAhead::new(1);
        let drain = |reader: &mut ReadAhead| {
            let src = store.read_source("s", 1).unwrap();
            reader.begin(src).unwrap();
            let mut total = 0usize;
            while let Some(chunk) = reader.next_chunk().unwrap() {
                total += chunk.len();
            }
            assert_eq!(total, 40_000);
        };
        // Warm the buffer pool and the store's handle cache.
        drain(&mut reader);
        let clean = xstream_core::alloc_stats::any_allocation_free_window(50, || {
            drain(&mut reader);
        });
        assert!(clean, "warm read-ahead pass allocated in every window");
        drop(reader);
        store.destroy().unwrap();
    }

    #[test]
    fn reset_discards_abandoned_streams() {
        let store = temp_store("readahead_reset");
        store.append("big", &vec![1u8; 50_000]).unwrap();
        let b: Vec<u8> = (0..500u32).flat_map(|i| i.to_le_bytes()).collect();
        store.append("b", &b).unwrap();
        let mut reader = ReadAhead::new(2);
        // Abandon `big` mid-stream with another stream still queued.
        reader.begin(store.read_source("big", 1).unwrap()).unwrap();
        reader.begin(store.read_source("big", 1).unwrap()).unwrap();
        let _ = reader.next_chunk().unwrap();
        reader.reset();
        // After the reset only `b`'s bytes may surface.
        reader.begin(store.read_source("b", 4).unwrap()).unwrap();
        let mut out = Vec::new();
        while let Some(chunk) = reader.next_chunk().unwrap() {
            out.extend_from_slice(chunk);
        }
        assert_eq!(out, b);
        drop(reader);
        store.destroy().unwrap();
    }

    #[test]
    fn injected_read_fault_surfaces_and_then_clears() {
        use crate::faults::{FaultKind, FaultSpec};
        let root = std::env::temp_dir().join("xstream_store_fault_read");
        let _ = std::fs::remove_dir_all(&root);
        let plan = Arc::new(FaultPlan::new(vec![FaultSpec {
            stream_prefix: "s".to_string(),
            op: FaultOp::Read,
            nth: 0,
            kind: FaultKind::Transient,
        }]));
        let store = StreamStore::new(&root, 4096)
            .unwrap()
            .with_faults(Arc::clone(&plan));
        store.append("s", &vec![3u8; 10_000]).unwrap();
        // Disarmed: reads pass.
        assert_eq!(store.read_all("s").unwrap().len(), 10_000);
        plan.arm();
        match store.read_all("s") {
            Err(Error::Io(e)) => assert_eq!(e.kind(), std::io::ErrorKind::TimedOut),
            other => panic!("expected injected error, got {:?}", other.map(|v| v.len())),
        }
        // The spec is spent: the retry succeeds.
        assert_eq!(store.read_all("s").unwrap().len(), 10_000);
        assert_eq!(plan.fired_count(), 1);
        store.destroy().unwrap();
    }

    #[test]
    fn injected_short_read_still_delivers_full_stream() {
        use crate::faults::{FaultKind, FaultSpec};
        let root = std::env::temp_dir().join("xstream_store_fault_short");
        let _ = std::fs::remove_dir_all(&root);
        let plan = Arc::new(FaultPlan::new(vec![FaultSpec {
            stream_prefix: String::new(),
            op: FaultOp::Read,
            nth: 0,
            kind: FaultKind::ShortRead,
        }]));
        let store = StreamStore::new(&root, 4096)
            .unwrap()
            .with_faults(Arc::clone(&plan));
        let payload: Vec<u8> = (0..10_000u32).flat_map(|i| i.to_le_bytes()).collect();
        store.append("s", &payload).unwrap();
        plan.arm();
        // read_all path: short first transfer, but the loop completes.
        assert_eq!(store.read_all("s").unwrap(), payload);
        assert_eq!(plan.fired_count(), 1);
        store.destroy().unwrap();
    }

    #[test]
    fn injected_fault_in_read_ahead_fails_only_that_stream() {
        use crate::faults::{FaultKind, FaultSpec};
        let root = std::env::temp_dir().join("xstream_store_fault_ra");
        let _ = std::fs::remove_dir_all(&root);
        let plan = Arc::new(FaultPlan::new(vec![
            FaultSpec {
                stream_prefix: "a".to_string(),
                op: FaultOp::Read,
                nth: 1,
                kind: FaultKind::Transient,
            },
            FaultSpec {
                stream_prefix: "a".to_string(),
                op: FaultOp::Read,
                nth: 2,
                kind: FaultKind::ShortRead,
            },
        ]));
        let store = StreamStore::new(&root, 4096)
            .unwrap()
            .with_faults(Arc::clone(&plan));
        let a: Vec<u8> = (0..5000u32).flat_map(|i| i.to_le_bytes()).collect();
        let b: Vec<u8> = (0..700u32).flat_map(|i| (i * 3).to_le_bytes()).collect();
        store.append("a", &a).unwrap();
        store.append("b", &b).unwrap();
        plan.arm();
        let mut reader = ReadAhead::new(2);
        reader.begin(store.read_source("a", 4).unwrap()).unwrap();
        reader.begin(store.read_source("b", 4).unwrap()).unwrap();
        // Stream `a`: first chunk arrives, second faults.
        assert!(reader.next_chunk().unwrap().is_some());
        assert!(matches!(reader.next_chunk(), Err(Error::Io(_))));
        // Stream `b` is unaffected and complete.
        let mut out = Vec::new();
        while let Some(chunk) = reader.next_chunk().unwrap() {
            out.extend_from_slice(chunk);
        }
        assert_eq!(out, b);
        // Retry of `a` succeeds; the pending ShortRead spec fires on
        // its first chunk but the fill loop still delivers every byte.
        reader.begin(store.read_source("a", 4).unwrap()).unwrap();
        let mut out = Vec::new();
        while let Some(chunk) = reader.next_chunk().unwrap() {
            out.extend_from_slice(chunk);
        }
        assert_eq!(out, a);
        assert_eq!(plan.fired_count(), 2);
        drop(reader);
        store.destroy().unwrap();
    }

    #[test]
    fn injected_write_fault_fails_append() {
        use crate::faults::{FaultKind, FaultSpec};
        let root = std::env::temp_dir().join("xstream_store_fault_write");
        let _ = std::fs::remove_dir_all(&root);
        let plan = Arc::new(FaultPlan::new(vec![FaultSpec {
            stream_prefix: "s".to_string(),
            op: FaultOp::Write,
            nth: 0,
            kind: FaultKind::Enospc,
        }]));
        let store = StreamStore::new(&root, 4096)
            .unwrap()
            .with_faults(Arc::clone(&plan));
        plan.arm();
        match store.append("s", b"doomed") {
            Err(Error::Io(e)) => assert_eq!(e.raw_os_error(), Some(28)),
            other => panic!("expected ENOSPC, got {other:?}"),
        }
        // Nothing was written; the retry lands cleanly.
        store.append("s", b"ok").unwrap();
        assert_eq!(store.read_all("s").unwrap(), b"ok");
        store.destroy().unwrap();
    }

    #[test]
    fn write_atomic_replaces_contents_and_reopens_handle() {
        let store = temp_store("write_atomic");
        store.append("cp", b"old contents").unwrap();
        store.write_atomic("cp", b"new").unwrap();
        assert_eq!(store.read_all("cp").unwrap(), b"new");
        assert_eq!(store.len("cp"), 3);
        // The handle cache was refreshed: appends extend the new file.
        store.append("cp", b"+more").unwrap();
        assert_eq!(store.read_all("cp").unwrap(), b"new+more");
        // No leftover temp file.
        assert!(!store.exists("cp.tmp"));
        store.destroy().unwrap();
    }

    /// Flips one byte of an on-disk stream file, bypassing the store.
    fn rot_byte(root: &Path, name: &str, at: u64) {
        use std::io::{Read, Seek, SeekFrom};
        let mut f = OpenOptions::new()
            .read(true)
            .write(true)
            .open(root.join(name))
            .unwrap();
        let mut b = [0u8; 1];
        f.seek(SeekFrom::Start(at)).unwrap();
        f.read_exact(&mut b).unwrap();
        b[0] ^= 0x01;
        f.seek(SeekFrom::Start(at)).unwrap();
        f.write_all(&b).unwrap();
    }

    #[test]
    fn sum_sidecar_roundtrip_and_rejection() {
        let payload: Vec<u8> = (0..10_000u32).flat_map(|i| i.to_le_bytes()).collect();
        let sc = SumSidecar::of_bytes(4096, &payload);
        assert_eq!(sc.crcs.len(), 10);
        let bytes = sc.encode();
        assert_eq!(SumSidecar::decode(&bytes).expect("valid"), sc);
        // Truncations and a zero unit are rejected.
        for cut in 0..24 {
            assert!(SumSidecar::decode(&bytes[..cut]).is_none());
        }
        let mut bad = bytes.clone();
        bad[0] ^= 1;
        assert!(SumSidecar::decode(&bad).is_none(), "magic");
        let zero_unit = SumSidecar {
            unit: 0,
            total_len: 0,
            crcs: vec![],
        };
        assert!(SumSidecar::decode(&zero_unit.encode()).is_none());
    }

    #[test]
    fn sealed_store_detects_rot_after_reopen() {
        let root = std::env::temp_dir().join("xstream_store_seal_rot");
        let _ = std::fs::remove_dir_all(&root);
        let payload: Vec<u8> = (0..3000u32).flat_map(|i| i.to_le_bytes()).collect();
        {
            let store = StreamStore::new(&root, 4096).unwrap();
            store.append("edges.0", &payload).unwrap();
            let crc = store.seal_sums("edges.0").unwrap();
            assert!(crc.is_some());
        }
        // A clean reopen verifies (including the reconstructed tail).
        {
            let store = StreamStore::new(&root, 4096).unwrap();
            assert_eq!(store.read_all("edges.0").unwrap(), payload);
            let snap = store.accounting().snapshot();
            assert_eq!(snap.chunks_verified, 3, "2 full chunks + tail");
            assert_eq!(snap.corruptions_detected, 0);
        }
        // Rot one byte in chunk 1: reopen detects it, naming the chunk.
        rot_byte(&root, "edges.0", 5000);
        {
            let store = StreamStore::new(&root, 4096).unwrap();
            match store.read_all("edges.0") {
                Err(Error::Corrupt { stream, chunk }) => {
                    assert_eq!(stream, "edges.0");
                    assert_eq!(chunk, 1);
                }
                other => panic!("expected Corrupt, got {:?}", other.map(|v| v.len())),
            }
            assert_eq!(store.accounting().snapshot().corruptions_detected, 1);
            // The read-ahead path detects the same rot.
            let mut reader = ReadAhead::new(1);
            reader
                .begin(store.read_source("edges.0", 4).unwrap())
                .unwrap();
            assert!(reader.next_chunk().unwrap().is_some()); // chunk 0 clean
            match reader.next_chunk() {
                Err(Error::Corrupt { stream, chunk }) => {
                    assert_eq!(stream, "edges.0");
                    assert_eq!(chunk, 1);
                }
                other => panic!("expected Corrupt, got {other:?}"),
            }
            drop(reader);
        }
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn rotted_tail_is_detected_after_reopen() {
        let root = std::env::temp_dir().join("xstream_store_tail_rot");
        let _ = std::fs::remove_dir_all(&root);
        let payload = vec![7u8; 4096 + 100];
        {
            let store = StreamStore::new(&root, 4096).unwrap();
            store.append("s", &payload).unwrap();
            store.seal_sums("s").unwrap();
        }
        rot_byte(&root, "s", 4096 + 50);
        let store = StreamStore::new(&root, 4096).unwrap();
        match store.read_all("s") {
            Err(Error::Corrupt { stream, chunk }) => {
                assert_eq!(stream, "s");
                assert_eq!(chunk, 1, "the trailing partial chunk");
            }
            other => panic!("expected Corrupt, got {:?}", other.map(|v| v.len())),
        }
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn bitflip_injection_is_detected_and_trust_mode_is_not() {
        use crate::faults::{FaultKind, FaultSpec};
        let flip_spec = || {
            Arc::new(FaultPlan::new(vec![FaultSpec {
                stream_prefix: "s".to_string(),
                op: FaultOp::Read,
                nth: 0,
                kind: FaultKind::BitFlip,
            }]))
        };
        let payload: Vec<u8> = (0..5000u32).flat_map(|i| i.to_le_bytes()).collect();

        // Verification on (default): the flip is detected and typed.
        let root = std::env::temp_dir().join("xstream_store_flip_on");
        let _ = std::fs::remove_dir_all(&root);
        let plan = flip_spec();
        let store = StreamStore::new(&root, 4096)
            .unwrap()
            .with_faults(Arc::clone(&plan));
        store.append("s", &payload).unwrap();
        plan.arm();
        match store.read_all("s") {
            Err(Error::Corrupt { stream, chunk }) => {
                assert_eq!(stream, "s");
                assert_eq!(chunk, 0);
            }
            other => panic!("expected Corrupt, got {:?}", other.map(|v| v.len())),
        }
        assert!(!Error::Corrupt {
            stream: "s".into(),
            chunk: 0
        }
        .is_transient());
        // The spec is spent: the next read is clean.
        assert_eq!(store.read_all("s").unwrap(), payload);
        store.destroy().unwrap();

        // Trust mode (--no-verify-reads): the flip passes silently.
        let root = std::env::temp_dir().join("xstream_store_flip_off");
        let _ = std::fs::remove_dir_all(&root);
        let plan = flip_spec();
        let store = StreamStore::new(&root, 4096)
            .unwrap()
            .with_faults(Arc::clone(&plan))
            .with_verify(false);
        store.append("s", &payload).unwrap();
        plan.arm();
        let got = store.read_all("s").unwrap();
        assert_ne!(got, payload, "trust mode returns the corrupted bytes");
        assert_eq!(got.len(), payload.len());
        store.destroy().unwrap();
    }

    #[test]
    fn bitflip_in_read_ahead_is_detected_before_the_chunk_is_exposed() {
        use crate::faults::{FaultKind, FaultSpec};
        let root = std::env::temp_dir().join("xstream_store_flip_ra");
        let _ = std::fs::remove_dir_all(&root);
        let plan = Arc::new(FaultPlan::new(vec![FaultSpec {
            stream_prefix: "s".to_string(),
            op: FaultOp::Read,
            nth: 1,
            kind: FaultKind::BitFlip,
        }]));
        let store = StreamStore::new(&root, 4096)
            .unwrap()
            .with_faults(Arc::clone(&plan));
        store.append("s", &vec![9u8; 12_000]).unwrap();
        plan.arm();
        let mut reader = ReadAhead::new(1);
        reader.begin(store.read_source("s", 1).unwrap()).unwrap();
        assert!(reader.next_chunk().unwrap().is_some());
        match reader.next_chunk() {
            Err(Error::Corrupt { stream, chunk }) => {
                assert_eq!(stream, "s");
                assert_eq!(chunk, 1);
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
        // The reader stays usable for other streams after the failure.
        store.append("t", b"fine").unwrap();
        reader.begin(store.read_source("t", 1).unwrap()).unwrap();
        assert_eq!(reader.next_chunk().unwrap().unwrap(), b"fine");
        assert!(reader.next_chunk().unwrap().is_none());
        drop(reader);
        store.destroy().unwrap();
    }

    #[test]
    fn ranged_reads_verify_covered_chunks_only() {
        let root = std::env::temp_dir().join("xstream_store_range_verify");
        let _ = std::fs::remove_dir_all(&root);
        let payload: Vec<u8> = (0..4000u32).flat_map(|i| i.to_le_bytes()).collect();
        {
            let store = StreamStore::new(&root, 4096).unwrap();
            store.append("s", &payload).unwrap();
            store.seal_sums("s").unwrap();
        }
        rot_byte(&root, "s", 4200); // inside chunk 1
        let store = StreamStore::new(&root, 4096).unwrap();
        // A sub-chunk range over the rot is NOT verified (documented:
        // sparse reads stay cheap; scrub provides full coverage).
        let mut out = Vec::new();
        assert_eq!(
            store.read_range_into("s", 4100, 200, &mut out).unwrap(),
            200
        );
        // A range fully covering chunk 1 detects it.
        out.clear();
        match store.read_range_into("s", 0, 12_288, &mut out) {
            Err(Error::Corrupt { stream, chunk }) => {
                assert_eq!(stream, "s");
                assert_eq!(chunk, 1);
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
        // A clean covered range verifies and passes.
        out.clear();
        let n = store.read_range_into("s", 8192, 4096, &mut out).unwrap();
        assert_eq!(n, 4096);
        assert_eq!(&out, &payload[8192..12_288]);
        assert!(store.accounting().snapshot().chunks_verified >= 1);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn truncate_and_write_at_invalidate_sums() {
        let store = temp_store("sums_invalidate");
        store.append("s", &vec![1u8; 5000]).unwrap();
        assert!(store.sums_tracked("s"));
        assert!(store.seal_sums("s").unwrap().is_some());
        // Positioned write: sums unknown, sidecar gone, reads pass
        // unverified rather than falsely failing.
        store.write_at("s", 100, b"XX").unwrap();
        assert!(!store.sums_tracked("s"));
        assert!(store.seal_sums("s").unwrap().is_none());
        assert_eq!(store.read_all("s").unwrap().len(), 5000);
        // Truncate resets to tracked-empty; new appends re-roll.
        store.truncate("s").unwrap();
        assert!(store.sums_tracked("s"));
        store.append("s", b"fresh").unwrap();
        assert_eq!(store.read_all("s").unwrap(), b"fresh");
        assert!(store.seal_sums("s").unwrap().is_some());
        store.destroy().unwrap();
    }

    #[test]
    fn write_atomic_recomputes_sums() {
        let root = std::env::temp_dir().join("xstream_store_atomic_sums");
        let _ = std::fs::remove_dir_all(&root);
        {
            let store = StreamStore::new(&root, 4096).unwrap();
            store.append("cp", b"old contents").unwrap();
            store.seal_sums("cp").unwrap();
            store.write_atomic("cp", &vec![5u8; 6000]).unwrap();
            // In-memory sums describe the new contents immediately.
            assert_eq!(store.read_all("cp").unwrap(), vec![5u8; 6000]);
            store.seal_sums("cp").unwrap();
        }
        // A fresh store loads the resealed sidecar and verifies the new
        // contents against it; no temp file is left behind.
        {
            let store = StreamStore::new(&root, 4096).unwrap();
            assert!(store.sums_tracked("cp"));
            assert_eq!(store.read_all("cp").unwrap(), vec![5u8; 6000]);
        }
        assert!(!root.join("cp.tmp").exists());
        assert!(!root.join("cp.sum.tmp").exists());
        // And the resealed sidecar survives a reopen.
        rot_byte(&root, "cp", 10);
        let store = StreamStore::new(&root, 4096).unwrap();
        assert!(matches!(store.read_all("cp"), Err(Error::Corrupt { .. })));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn dropping_read_ahead_midstream_is_clean() {
        let store = temp_store("readahead_drop");
        store.append("s", &vec![9u8; 100_000]).unwrap();
        let mut reader = ReadAhead::new(1);
        reader.begin(store.read_source("s", 1).unwrap()).unwrap();
        let _ = reader.next_chunk().unwrap();
        drop(reader); // Must not hang or panic.
        store.destroy().unwrap();
    }
}
