//! Binary on-disk edge-list format (`.xse`).
//!
//! The out-of-core engine's input is "a file containing the unordered
//! edge list of the graph" (paper §3). The format here is a small
//! header followed by raw [`Edge`] records — readable in fixed-size
//! chunks so the pre-processing shuffle can stream it with large
//! sequential I/O and never hold the whole graph in memory.
//!
//! Reading is defensive: [`EdgeFileReader::open`] cross-checks the
//! header's declared counts against the actual file length *before*
//! anything is allocated, so a corrupt (or hostile) header can neither
//! trigger a multi-gigabyte `Vec::with_capacity` nor masquerade a
//! truncated payload as a smaller graph. Genuine I/O failures keep
//! their [`std::io::Error`] kind ([`Error::Io`]) — `ENOSPC`/`EIO`
//! stay distinguishable from truncation ([`Error::InvalidInput`]).
//!
//! Writing comes in two flavors: [`write_edge_file`] for in-memory
//! edge lists, and the streaming [`EdgeFileWriter`] used by
//! `xstream import` — it stamps a placeholder header, appends edge
//! chunks as they are parsed, and seeks back to finalize the counts,
//! so an import never holds more than one chunk of the input.
//!
//! Both writers additionally emit a `<file>.sum` checksum sidecar (the
//! same [`SumSidecar`] framing the stream store seals its streams
//! with: one CRC32 per [`EDGE_SUM_UNIT`] chunk), and the reader
//! verifies each chunk as it streams past when the sidecar is present
//! — a bit-rotted edge file is reported as [`Error::Corrupt`] at the
//! offending chunk instead of being shuffled into the store as
//! plausible garbage. A *missing* sidecar only disables verification
//! (edge files from other producers stay readable); a present but
//! undecodable or length-mismatched one is an error, because silently
//! ignoring a rotted sidecar would hollow out the integrity chain.

use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use crate::edgelist::EdgeList;
use crate::transform::validate_edge;
use xstream_core::record::{records_as_bytes, records_as_bytes_mut, zeroed_records};
use xstream_core::{Edge, Error, Result, VertexId};
use xstream_storage::{crc32c, Crc32c, SumSidecar};

/// Magic bytes identifying an X-Stream edge file.
pub const MAGIC: &[u8; 8] = b"XSTREAM1";

/// Size of the file header in bytes.
pub const HEADER_LEN: usize = 8 + 8 + 8;

/// Chunk size the edge-file checksum sidecar covers. Small enough that
/// a detected corruption localizes usefully, large enough that the
/// sidecar stays ~0.006% of the file.
pub const EDGE_SUM_UNIT: usize = 64 * 1024;

/// Path of the checksum sidecar next to an edge file.
pub fn sum_path(path: &Path) -> PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(".sum");
    PathBuf::from(os)
}

/// Writes an edge list to `path` in the binary format, with its
/// checksum sidecar.
pub fn write_edge_file(path: &Path, g: &EdgeList) -> Result<()> {
    let mut w = EdgeFileWriter::create(path)?;
    w.append(g.edges())?;
    w.finish(Some(g.num_vertices()))?;
    Ok(())
}

/// Rolling sidecar computation for the streaming writer. The first
/// chunk's *bytes* are buffered (bounded by [`EDGE_SUM_UNIT`]) rather
/// than CRC'd on the fly, because [`EdgeFileWriter::finish`] seeks
/// back and rewrites the header inside it; every later chunk rolls
/// through a streaming CRC and is never held.
struct SidecarBuilder {
    unit: usize,
    first: Vec<u8>,
    rest: Vec<u32>,
    cur: Crc32c,
    cur_len: usize,
    total: u64,
}

impl SidecarBuilder {
    fn new(unit: usize) -> Self {
        Self {
            unit: unit.max(1),
            first: Vec::new(),
            rest: Vec::new(),
            cur: Crc32c::new(),
            cur_len: 0,
            total: 0,
        }
    }

    fn feed(&mut self, mut bytes: &[u8]) {
        self.total += bytes.len() as u64;
        if self.first.len() < self.unit {
            let take = (self.unit - self.first.len()).min(bytes.len());
            self.first.extend_from_slice(&bytes[..take]);
            bytes = &bytes[take..];
        }
        while !bytes.is_empty() {
            let take = (self.unit - self.cur_len).min(bytes.len());
            self.cur.update(&bytes[..take]);
            self.cur_len += take;
            if self.cur_len == self.unit {
                self.rest.push(self.cur.value());
                self.cur.reset();
                self.cur_len = 0;
            }
            bytes = &bytes[take..];
        }
    }

    /// Finalizes after the caller patched [`Self::first`] in place.
    fn finish(self) -> SumSidecar {
        let mut crcs = Vec::with_capacity(1 + self.rest.len() + 1);
        if !self.first.is_empty() {
            crcs.push(crc32c(&self.first));
        }
        crcs.extend(self.rest);
        if self.cur_len > 0 {
            crcs.push(self.cur.value());
        }
        SumSidecar {
            unit: self.unit as u64,
            total_len: self.total,
            crcs,
        }
    }
}

/// Rolling chunk verification against a sidecar, fed every byte the
/// reader consumes in order (header included).
struct SidecarVerify {
    sidecar: SumSidecar,
    cur: Crc32c,
    cur_len: u64,
    chunk: u64,
    name: String,
}

impl SidecarVerify {
    fn feed(&mut self, mut bytes: &[u8]) -> Result<()> {
        while !bytes.is_empty() {
            let take = ((self.sidecar.unit - self.cur_len) as usize).min(bytes.len());
            self.cur.update(&bytes[..take]);
            self.cur_len += take as u64;
            if self.cur_len == self.sidecar.unit {
                self.check()?;
            }
            bytes = &bytes[take..];
        }
        Ok(())
    }

    /// Compares the completed (or, at EOF, trailing partial) chunk.
    fn check(&mut self) -> Result<()> {
        let expect = self.sidecar.crcs.get(self.chunk as usize).copied();
        if expect != Some(self.cur.value()) {
            return Err(Error::Corrupt {
                stream: self.name.clone(),
                chunk: self.chunk,
            });
        }
        self.cur.reset();
        self.cur_len = 0;
        self.chunk += 1;
        Ok(())
    }

    fn finish(&mut self) -> Result<()> {
        if self.cur_len > 0 {
            self.check()?;
        }
        Ok(())
    }
}

/// Edges [`read_edge_file`] reads, verifies and range-checks per
/// window: 12 MiB, so each window is still cache-warm for its checks.
const READ_WINDOW_EDGES: usize = 1 << 20;

/// Reads a whole edge file into memory.
///
/// The header was validated against the file length by
/// [`EdgeFileReader::open`], so the up-front allocation is bounded by
/// the actual file size. The file is read straight into the edge
/// vector, one window at a time; each window is checksum-verified (with
/// a sidecar) and range-checked as it lands, so an edge that names a
/// vertex outside the declared range is an [`Error::InvalidInput`]
/// here, as it is on every streaming path.
pub fn read_edge_file(path: &Path) -> Result<EdgeList> {
    let mut reader = EdgeFileReader::open(path)?;
    let n = reader.num_vertices();
    let mut edges = zeroed_records::<Edge>(reader.num_edges());
    for window in edges.chunks_mut(READ_WINDOW_EDGES) {
        reader.fill(window)?;
        window.iter().try_for_each(|e| validate_edge(e, n))?;
    }
    Ok(EdgeList::from_parts_unchecked(n, edges))
}

/// Chunked sequential reader over an edge file.
pub struct EdgeFileReader {
    reader: BufReader<File>,
    num_vertices: usize,
    num_edges: usize,
    read_edges: usize,
    /// Rolling checksum verification, when a `.sum` sidecar was found
    /// next to the file.
    verify: Option<SidecarVerify>,
}

impl EdgeFileReader {
    /// Opens an edge file, parses its header and validates the
    /// declared counts against the actual file length. A header that
    /// promises more edges than the file holds — or fewer — is
    /// rejected here, before any record is read or any buffer sized
    /// from it is allocated.
    pub fn open(path: &Path) -> Result<Self> {
        let file = File::open(path)?;
        let file_len = file.metadata()?.len();
        let mut reader = BufReader::new(file);
        let mut header = [0u8; HEADER_LEN];
        reader.read_exact(&mut header).map_err(|_| {
            Error::InvalidInput(format!("{}: too short for an edge file", path.display()))
        })?;
        if &header[..8] != MAGIC {
            return Err(Error::InvalidInput(format!(
                "{}: bad magic, not an X-Stream edge file",
                path.display()
            )));
        }
        let num_vertices = u64::from_le_bytes(header[8..16].try_into().unwrap());
        let num_edges = u64::from_le_bytes(header[16..24].try_into().unwrap());
        if num_vertices > VertexId::MAX as u64 {
            return Err(Error::InvalidInput(format!(
                "{}: header declares {num_vertices} vertices, beyond the 32-bit id space",
                path.display()
            )));
        }
        let expected = num_edges
            .checked_mul(Edge::SIZE as u64)
            .and_then(|b| b.checked_add(HEADER_LEN as u64));
        if expected != Some(file_len) {
            return Err(Error::InvalidInput(format!(
                "{}: truncated or corrupt: header promises {num_edges} edges \
                 ({} bytes), file holds {file_len} bytes",
                path.display(),
                expected.map_or_else(|| "overflowing".to_string(), |b| b.to_string()),
            )));
        }
        // A sidecar next to the file turns on rolling verification; its
        // absence is fine (other producers), but a present-and-broken
        // one is rot in the integrity chain, not a reason to skip it.
        let verify = match std::fs::read(sum_path(path)) {
            Err(_) => None,
            Ok(raw) => {
                let sidecar = SumSidecar::decode(&raw).ok_or_else(|| {
                    Error::InvalidInput(format!(
                        "{}: checksum sidecar is malformed; refusing to read unverified \
                         (delete the .sum file to skip verification)",
                        sum_path(path).display()
                    ))
                })?;
                if sidecar.total_len != file_len {
                    return Err(Error::InvalidInput(format!(
                        "{}: checksum sidecar describes {} bytes but the file holds {file_len}; \
                         the file was modified after sealing",
                        sum_path(path).display(),
                        sidecar.total_len
                    )));
                }
                let mut v = SidecarVerify {
                    sidecar,
                    cur: Crc32c::new(),
                    cur_len: 0,
                    chunk: 0,
                    name: path.display().to_string(),
                };
                v.feed(&header)?;
                Some(v)
            }
        };
        let mut this = Self {
            reader,
            num_vertices: num_vertices as usize,
            num_edges: num_edges as usize,
            read_edges: 0,
            verify,
        };
        // An edge-free file is fully read at open; settle the tail so
        // a rotted header cannot hide behind "no chunk ever completed".
        if this.num_edges == 0 {
            if let Some(v) = &mut this.verify {
                v.finish()?;
            }
        }
        Ok(this)
    }

    /// Declared vertex count.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Declared edge count.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Refills `out` with the next chunk of at most `max_edges` edges,
    /// read straight into its storage: `out` is resized, which
    /// zero-fills only growth, so a streaming pass over the file
    /// allocates nothing once `out` has held one full chunk. Returns
    /// `false` (with `out` empty) at end of file.
    ///
    /// An unexpected end of file (the file shrank after
    /// [`open`](Self::open) validated it) reports
    /// [`Error::InvalidInput`]; every other read failure keeps its
    /// [`std::io::Error`] kind in [`Error::Io`], so `EIO`/`ENOSPC`
    /// remain distinguishable from truncation. On any error `out` is
    /// left empty, never holding unverified edges.
    pub fn read_chunk_into(&mut self, max_edges: usize, out: &mut Vec<Edge>) -> Result<bool> {
        let want = (self.num_edges - self.read_edges).min(max_edges.max(1));
        out.resize(want, Edge::new(0, 0));
        if want == 0 {
            return Ok(false);
        }
        self.fill(out).inspect_err(|_| out.clear())?;
        Ok(true)
    }

    /// Reads the next `edges.len()` edges into `edges`, feeding the
    /// same bytes to the sidecar verifier.
    fn fill(&mut self, edges: &mut [Edge]) -> Result<()> {
        debug_assert!(edges.len() <= self.num_edges - self.read_edges);
        self.read_edges += edges.len();
        let bytes = records_as_bytes_mut(edges);
        self.reader.read_exact(bytes).map_err(|e| {
            if e.kind() == std::io::ErrorKind::UnexpectedEof {
                Error::InvalidInput("edge file truncated mid-record".to_string())
            } else {
                Error::Io(e)
            }
        })?;
        if let Some(v) = &mut self.verify {
            v.feed(bytes)?;
            if self.read_edges == self.num_edges {
                v.finish()?;
            }
        }
        Ok(())
    }
}

/// Streaming writer producing the binary edge format without holding
/// the edge list in memory: create, append parsed chunks, finish.
///
/// The header is stamped with placeholder counts at creation and
/// rewritten by [`finish`](Self::finish) once the totals are known —
/// the shape `xstream import` needs, where the vertex count is
/// discovered while streaming the source.
pub struct EdgeFileWriter {
    writer: BufWriter<File>,
    num_edges: usize,
    /// Highest vertex id seen across every appended edge (`None` until
    /// the first edge arrives).
    max_vertex: Option<VertexId>,
    /// Rolling sidecar computation over everything written; the header
    /// region is patched at [`finish`](Self::finish).
    sums: SidecarBuilder,
    /// Where the sidecar lands at finish.
    sum_path: PathBuf,
}

impl EdgeFileWriter {
    /// Creates `path` and stamps a placeholder header.
    pub fn create(path: &Path) -> Result<Self> {
        let mut writer = BufWriter::new(File::create(path)?);
        writer.write_all(MAGIC)?;
        writer.write_all(&[0u8; HEADER_LEN - MAGIC.len()])?;
        let mut sums = SidecarBuilder::new(EDGE_SUM_UNIT);
        sums.feed(MAGIC);
        sums.feed(&[0u8; HEADER_LEN - MAGIC.len()]);
        // A stale sidecar from a previous file at this path must not
        // outlive it; it is rewritten from the fresh sums at finish.
        let sum_path = sum_path(path);
        let _ = std::fs::remove_file(&sum_path);
        Ok(Self {
            writer,
            num_edges: 0,
            max_vertex: None,
            sums,
            sum_path,
        })
    }

    /// Appends a chunk of edges, tracking the highest vertex id for
    /// automatic vertex-count discovery.
    pub fn append(&mut self, edges: &[Edge]) -> Result<()> {
        for e in edges {
            let hi = e.src.max(e.dst);
            self.max_vertex = Some(self.max_vertex.map_or(hi, |m| m.max(hi)));
        }
        self.num_edges += edges.len();
        let bytes = records_as_bytes(edges);
        self.writer.write_all(bytes)?;
        self.sums.feed(bytes);
        Ok(())
    }

    /// Edges appended so far.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// The vertex count the appended edges imply (`max id + 1`).
    #[inline]
    pub fn discovered_vertices(&self) -> usize {
        self.max_vertex.map_or(0, |m| m as usize + 1)
    }

    /// Finalizes the header and returns `(num_vertices, num_edges)`.
    ///
    /// `num_vertices` of `None` uses the discovered `max id + 1`; an
    /// explicit count smaller than that is an
    /// [`Error::InvalidInput`] — the file would reference vertices
    /// outside its own declared range.
    pub fn finish(mut self, num_vertices: Option<usize>) -> Result<(usize, usize)> {
        let discovered = self.discovered_vertices();
        let n = num_vertices.unwrap_or(discovered);
        if n < discovered {
            return Err(Error::InvalidInput(format!(
                "declared vertex count {n} is below the highest referenced id \
                 (needs at least {discovered})"
            )));
        }
        if n > VertexId::MAX as usize {
            return Err(Error::InvalidInput(format!(
                "vertex count {n} exceeds the 32-bit id space"
            )));
        }
        self.writer.flush()?;
        let file = self.writer.get_mut();
        file.seek(SeekFrom::Start(MAGIC.len() as u64))?;
        file.write_all(&(n as u64).to_le_bytes())?;
        file.write_all(&(self.num_edges as u64).to_le_bytes())?;
        file.sync_data()?;
        // Mirror the header rewrite into the buffered first chunk, then
        // seal the sidecar (temp + rename, like the store does).
        self.sums.first[8..16].copy_from_slice(&(n as u64).to_le_bytes());
        self.sums.first[16..24].copy_from_slice(&(self.num_edges as u64).to_le_bytes());
        let sidecar = self.sums.finish();
        let tmp = self.sum_path.with_extension("sum.tmp");
        std::fs::write(&tmp, sidecar.encode())?;
        std::fs::rename(&tmp, &self.sum_path)?;
        Ok((n, self.num_edges))
    }
}

use xstream_core::Record;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::erdos_renyi;

    #[test]
    fn roundtrip() {
        let dir = std::env::temp_dir().join("xstream_fileio_test_rt");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.xse");
        let g = erdos_renyi(100, 1000, 2);
        write_edge_file(&path, &g).unwrap();
        let back = read_edge_file(&path).unwrap();
        assert_eq!(back, g);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn chunked_reading_matches() {
        let dir = std::env::temp_dir().join("xstream_fileio_test_chunk");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.xse");
        let g = erdos_renyi(64, 777, 3);
        write_edge_file(&path, &g).unwrap();
        let mut reader = EdgeFileReader::open(&path).unwrap();
        let mut edges = Vec::new();
        let mut chunk = Vec::new();
        while reader.read_chunk_into(100, &mut chunk).unwrap() {
            assert!(chunk.len() <= 100);
            edges.extend_from_slice(&chunk);
        }
        assert!(chunk.is_empty());
        assert_eq!(edges, g.edges());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn streaming_writer_roundtrip() {
        let dir = std::env::temp_dir().join("xstream_fileio_test_writer");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.xse");
        let g = erdos_renyi(50, 400, 9);
        let mut w = EdgeFileWriter::create(&path).unwrap();
        for chunk in g.edges().chunks(37) {
            w.append(chunk).unwrap();
        }
        // Explicit vertex count (the generator may leave trailing
        // isolated vertices the discovered max id cannot see).
        let (v, e) = w.finish(Some(g.num_vertices())).unwrap();
        assert_eq!((v, e), (g.num_vertices(), g.num_edges()));
        assert_eq!(read_edge_file(&path).unwrap(), g);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn writer_discovers_vertex_count_and_rejects_undercounts() {
        let dir = std::env::temp_dir().join("xstream_fileio_test_disc");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.xse");
        let mut w = EdgeFileWriter::create(&path).unwrap();
        w.append(&[Edge::new(3, 17), Edge::new(0, 4)]).unwrap();
        assert_eq!(w.discovered_vertices(), 18);
        let (v, e) = w.finish(None).unwrap();
        assert_eq!((v, e), (18, 2));

        let mut w = EdgeFileWriter::create(&path).unwrap();
        w.append(&[Edge::new(3, 17)]).unwrap();
        assert!(matches!(w.finish(Some(10)), Err(Error::InvalidInput(_))));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rejects_bad_magic() {
        let dir = std::env::temp_dir().join("xstream_fileio_test_magic");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bogus.xse");
        std::fs::write(&path, b"NOTMAGICxxxxxxxxxxxxxxxxxxx").unwrap();
        assert!(EdgeFileReader::open(&path).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn detects_truncation() {
        let dir = std::env::temp_dir().join("xstream_fileio_test_trunc");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.xse");
        let g = erdos_renyi(10, 50, 4);
        write_edge_file(&path, &g).unwrap();
        // Chop off the last 7 bytes: the length check at open rejects
        // the file before a single record is read.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 7]).unwrap();
        match read_edge_file(&path) {
            Err(Error::InvalidInput(msg)) => assert!(msg.contains("truncated"), "{msg}"),
            other => panic!("expected InvalidInput, got {:?}", other.map(|_| ())),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn hostile_header_rejected_before_allocation() {
        let dir = std::env::temp_dir().join("xstream_fileio_test_hostile");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("evil.xse");
        // A header promising u64::MAX edges over 8 bytes of payload:
        // open() must reject it from the length mismatch (and the
        // byte-count overflow) — never size an allocation from it.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        bytes.extend_from_slice(&100u64.to_le_bytes());
        bytes.extend_from_slice(&u64::MAX.to_le_bytes());
        bytes.extend_from_slice(&[0u8; 8]);
        std::fs::write(&path, &bytes).unwrap();
        match EdgeFileReader::open(&path) {
            Err(Error::InvalidInput(msg)) => assert!(msg.contains("truncated"), "{msg}"),
            other => panic!("expected InvalidInput, got {:?}", other.map(|_| ())),
        }
        // Same for a merely-large lie that doesn't overflow.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        bytes.extend_from_slice(&100u64.to_le_bytes());
        bytes.extend_from_slice(&(1u64 << 40).to_le_bytes());
        bytes.extend_from_slice(&[0u8; 24]);
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            EdgeFileReader::open(&path),
            Err(Error::InvalidInput(_))
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn vertex_count_beyond_id_space_rejected() {
        let dir = std::env::temp_dir().join("xstream_fileio_test_vspace");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("big.xse");
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        bytes.extend_from_slice(&(u64::from(u32::MAX) + 2).to_le_bytes());
        bytes.extend_from_slice(&0u64.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        match EdgeFileReader::open(&path) {
            Err(Error::InvalidInput(msg)) => assert!(msg.contains("id space"), "{msg}"),
            other => panic!("expected InvalidInput, got {:?}", other.map(|_| ())),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    fn rot_byte(path: &Path, at: u64) {
        let mut bytes = std::fs::read(path).unwrap();
        bytes[at as usize] ^= 0x01;
        std::fs::write(path, bytes).unwrap();
    }

    #[test]
    fn writers_emit_sidecars_and_rot_is_detected() {
        let dir = std::env::temp_dir().join("xstream_fileio_test_sums");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.xse");
        // ~1.2 MB so the sidecar spans many chunks and the streaming
        // writer's chunk-0 header fixup is exercised alongside rolled
        // later chunks.
        let g = erdos_renyi(500, 100_000, 11);
        let mut w = EdgeFileWriter::create(&path).unwrap();
        for chunk in g.edges().chunks(9973) {
            w.append(chunk).unwrap();
        }
        w.finish(Some(g.num_vertices())).unwrap();
        assert!(sum_path(&path).exists());
        assert_eq!(read_edge_file(&path).unwrap(), g);

        // Rot one payload byte mid-file: the read fails at the exact
        // chunk, classified as corruption (not transient I/O).
        let at = HEADER_LEN as u64 + (EDGE_SUM_UNIT as u64 * 3) + 17;
        rot_byte(&path, at);
        match read_edge_file(&path) {
            Err(Error::Corrupt { chunk, .. }) => assert_eq!(chunk, 3),
            other => panic!("expected Corrupt, got {:?}", other.map(|_| ())),
        }
        rot_byte(&path, at); // heal

        // Rot a byte inside the header (past the magic): chunk 0.
        rot_byte(&path, 9);
        assert!(matches!(
            read_edge_file(&path),
            Err(Error::Corrupt { chunk: 0, .. }) | Err(Error::InvalidInput(_))
        ));
        rot_byte(&path, 9);

        // A missing sidecar only disables verification...
        std::fs::remove_file(sum_path(&path)).unwrap();
        assert_eq!(read_edge_file(&path).unwrap(), g);
        // ...but a rotted one is an error, never silently skipped.
        write_edge_file(&path, &g).unwrap();
        rot_byte(&sum_path(&path), 25);
        assert!(read_edge_file(&path).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rot_in_the_last_sum_unit_of_a_multi_window_read_is_reported() {
        let dir = std::env::temp_dir().join("xstream_fileio_test_window_rot");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.xse");
        // Three read windows, the last one partial.
        let n = 2 * READ_WINDOW_EDGES + 12_345;
        let edges: Vec<Edge> = (0..n as u32)
            .map(|i| Edge::new(i % 1000, i.wrapping_mul(7) % 1000))
            .collect();
        let mut w = EdgeFileWriter::create(&path).unwrap();
        w.append(&edges).unwrap();
        w.finish(Some(1000)).unwrap();
        assert_eq!(read_edge_file(&path).unwrap().edges(), &edges[..]);

        let len = std::fs::metadata(&path).unwrap().len();
        let last_unit = (len - 1) / EDGE_SUM_UNIT as u64;
        rot_byte(&path, len - 5);
        match read_edge_file(&path) {
            Err(Error::Corrupt { chunk, .. }) => assert_eq!(chunk, last_unit),
            other => panic!("expected Corrupt, got {:?}", other.map(|_| ())),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn out_of_range_edges_are_rejected_on_read() {
        let dir = std::env::temp_dir().join("xstream_fileio_test_range");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.xse");
        // Four declared vertices, one edge naming vertex 9, no sidecar
        // (the writer would refuse the undercount).
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        bytes.extend_from_slice(&4u64.to_le_bytes());
        bytes.extend_from_slice(&2u64.to_le_bytes());
        bytes.extend_from_slice(records_as_bytes(&[Edge::new(0, 1), Edge::new(0, 9)]));
        std::fs::write(&path, &bytes).unwrap();
        match read_edge_file(&path) {
            Err(Error::InvalidInput(msg)) => {
                assert!(msg.contains("outside the declared range"), "{msg}")
            }
            other => panic!("expected InvalidInput, got {:?}", other.map(|_| ())),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stale_sidecar_after_rewrite_is_rejected() {
        let dir = std::env::temp_dir().join("xstream_fileio_test_stale");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.xse");
        let g = erdos_renyi(40, 300, 5);
        write_edge_file(&path, &g).unwrap();
        let sidecar = std::fs::read(sum_path(&path)).unwrap();
        // Rewrite the file to a different size but restore the old
        // sidecar: the length mismatch is caught at open.
        let g2 = erdos_renyi(40, 200, 6);
        write_edge_file(&path, &g2).unwrap();
        std::fs::write(sum_path(&path), &sidecar).unwrap();
        match EdgeFileReader::open(&path) {
            Err(Error::InvalidInput(msg)) => assert!(msg.contains("modified after"), "{msg}"),
            other => panic!("expected InvalidInput, got {:?}", other.map(|_| ())),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn steady_state_chunk_reads_reuse_buffers() {
        // Deterministic reuse check (the process-wide alloc counters
        // belong to single-test binaries like `tests/out_of_core.rs`,
        // which asserts the end-to-end ingest allocation bound): after
        // the first chunk warms the buffers, neither the caller's
        // chunk vector nor its backing allocation may move or grow.
        let dir = std::env::temp_dir().join("xstream_fileio_test_alloc");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.xse");
        let g = erdos_renyi(200, 20_000, 6);
        write_edge_file(&path, &g).unwrap();
        let mut reader = EdgeFileReader::open(&path).unwrap();
        let mut chunk = Vec::new();
        assert!(reader.read_chunk_into(512, &mut chunk).unwrap());
        let (ptr, cap) = (chunk.as_ptr(), chunk.capacity());
        let mut total = chunk.len();
        while reader.read_chunk_into(512, &mut chunk).unwrap() {
            total += chunk.len();
            assert_eq!(chunk.as_ptr(), ptr, "chunk buffer was reallocated");
            assert_eq!(chunk.capacity(), cap, "chunk buffer grew");
        }
        assert_eq!(total, g.num_edges());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
