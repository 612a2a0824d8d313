//! Dataset ingestion: external edge-list formats → the binary `.xse`
//! format.
//!
//! Real published graphs (the paper's Twitter/Friendster regime) ship
//! as SNAP-style text edge lists or raw binary id pairs, not as
//! X-Stream edge files. `xstream import` — backed by [`import`] here —
//! converts them *streaming*: the source is read in bounded chunks,
//! text chunks are parsed in parallel on a
//! [`WorkerPool`] (one slice of the
//! chunk per worker, pooled per-worker edge buffers), and the parsed
//! edges go straight to a streaming [`EdgeFileWriter`] that fixes up
//! the header at the end. Peak memory is O(chunk × threads),
//! independent of the graph size — the same discipline as the
//! out-of-core engine's pre-processing (paper §3.2).
//!
//! Supported sources:
//!
//! * **SNAP text** (`src dst [weight]` per line): `#`/`%` comment
//!   lines, blank lines and `\r\n` endings are tolerated; tokens after
//!   the weight column (timestamps in several SNAP datasets) are
//!   ignored; the vertex count is discovered as `max id + 1` unless
//!   overridden.
//! * **Raw binary pairs**: back-to-back little-endian `(src, dst)`
//!   pairs, 32-bit ([`ImportFormat::PairsU32`]) or 64-bit
//!   ([`ImportFormat::PairsU64`]) ids, no weights.

use std::fs::File;
use std::io::Read;
use std::path::Path;

use crate::fileio::EdgeFileWriter;
use crate::transform::MirrorMode;
use xstream_core::record::RecordIter;
use xstream_core::{Edge, Error, Result, VertexId};
use xstream_storage::pool::{PerWorkerPtr, WorkerPool};

/// Bytes of source text (or binary pairs) ingested per chunk.
const IMPORT_CHUNK_BYTES: usize = 1 << 20;

/// Longest single text line the parser accepts before concluding the
/// source is not a text edge list. Caps the chunk-widening loop so a
/// binary file fed to the text parser (a forgotten `--format`) fails
/// fast instead of buffering the whole input in RAM.
const MAX_LINE_BYTES: usize = 8 << 20;

/// Source encodings [`import`] understands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ImportFormat {
    /// SNAP-style whitespace-separated text: `src dst [weight]`.
    #[default]
    SnapText,
    /// Raw little-endian `u32` id pairs, 8 bytes per edge.
    PairsU32,
    /// Raw little-endian `u64` id pairs, 16 bytes per edge.
    PairsU64,
}

impl std::str::FromStr for ImportFormat {
    type Err = String;

    /// Parses the CLI form (`snap`/`text`, `pairs32`, `pairs64`).
    fn from_str(s: &str) -> std::result::Result<Self, String> {
        match s.trim().to_ascii_lowercase().as_str() {
            "snap" | "text" | "txt" | "tsv" | "edgelist" => Ok(Self::SnapText),
            "pairs32" | "pairs-u32" | "bin32" => Ok(Self::PairsU32),
            "pairs64" | "pairs-u64" | "bin64" => Ok(Self::PairsU64),
            _ => Err(format!("expected snap|pairs32|pairs64, got `{s}`")),
        }
    }
}

/// Knobs for [`import`].
#[derive(Debug, Clone)]
pub struct ImportOptions {
    /// Source encoding.
    pub format: ImportFormat,
    /// Explicit vertex count; `None` discovers `max id + 1`. An
    /// explicit count below the highest referenced id is rejected.
    pub num_vertices: Option<usize>,
    /// Also write the reverse of every edge (self-loops stay single),
    /// mirroring [`MirrorMode::Undirected`] at import time.
    pub undirected: bool,
    /// Parser threads for text sources.
    pub threads: usize,
}

impl Default for ImportOptions {
    fn default() -> Self {
        Self {
            format: ImportFormat::SnapText,
            num_vertices: None,
            undirected: false,
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        }
    }
}

/// What an [`import`] produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ImportReport {
    /// Final declared vertex count.
    pub num_vertices: usize,
    /// Edges written (after any undirected mirroring).
    pub num_edges: usize,
    /// Comment/blank lines skipped (text sources only).
    pub skipped_lines: usize,
}

/// Converts `src` into the binary edge format at `dst`, streaming.
pub fn import(src: &Path, dst: &Path, opts: &ImportOptions) -> Result<ImportReport> {
    // Open the source *before* the destination is created: creating
    // `dst` truncates it, and `src == dst` (same path or a link to
    // the same file) would otherwise destroy the user's input. The
    // dev/inode check catches links on Unix; the canonical-path check
    // catches the plain same-path case everywhere.
    let src_file = File::open(src)?;
    let same = match std::fs::metadata(dst) {
        Ok(dst_meta) => {
            same_file(&src_file.metadata()?, &dst_meta)
                || matches!(
                    (std::fs::canonicalize(src), std::fs::canonicalize(dst)),
                    (Ok(a), Ok(b)) if a == b
                )
        }
        Err(_) => false,
    };
    if same {
        return Err(Error::InvalidInput(format!(
            "{} and {} are the same file; importing would overwrite the source",
            src.display(),
            dst.display()
        )));
    }
    let mut writer = EdgeFileWriter::create(dst)?;
    let imported = (|| -> Result<usize> {
        let skipped_lines = match opts.format {
            ImportFormat::SnapText => import_text(src_file, &mut writer, opts)?,
            ImportFormat::PairsU32 => {
                import_pairs(src, src_file, &mut writer, opts, false)?;
                0
            }
            ImportFormat::PairsU64 => {
                import_pairs(src, src_file, &mut writer, opts, true)?;
                0
            }
        };
        Ok(skipped_lines)
    })();
    let finished = imported.and_then(|skipped_lines| {
        writer
            .finish(opts.num_vertices)
            .map(|(num_vertices, num_edges)| ImportReport {
                num_vertices,
                num_edges,
                skipped_lines,
            })
    });
    if finished.is_err() {
        // Leave no half-written artifact behind: a partial file with
        // the placeholder header would later be rejected with a
        // misleading "truncated or corrupt" message.
        let _ = std::fs::remove_file(dst);
    }
    finished
}

/// Whether two metadata records name the same underlying file.
#[cfg(unix)]
fn same_file(a: &std::fs::Metadata, b: &std::fs::Metadata) -> bool {
    use std::os::unix::fs::MetadataExt;
    a.dev() == b.dev() && a.ino() == b.ino()
}

/// Conservative non-Unix fallback: never claims identity (the Unix
/// dev/inode check is the real guard on the platforms this runs on).
#[cfg(not(unix))]
fn same_file(_a: &std::fs::Metadata, _b: &std::fs::Metadata) -> bool {
    false
}

/// Per-worker parse output, pooled across chunks.
#[derive(Default)]
struct ParseSlot {
    edges: Vec<Edge>,
    skipped: usize,
    error: Option<String>,
}

fn import_text(mut file: File, writer: &mut EdgeFileWriter, opts: &ImportOptions) -> Result<usize> {
    let threads = opts.threads.max(1);
    let pool = WorkerPool::new(threads - 1);
    let mut slots: Vec<ParseSlot> = (0..threads).map(|_| ParseSlot::default()).collect();
    let mut data: Vec<u8> = Vec::new();
    let mut skipped = 0usize;
    let mut eof = false;
    let mut target = IMPORT_CHUNK_BYTES;
    loop {
        // Top the staging buffer up to the current target.
        while !eof && data.len() < target {
            let old = data.len();
            data.resize(target, 0);
            let n = file.read(&mut data[old..])?;
            data.truncate(old + n);
            if n == 0 {
                eof = true;
            }
        }
        if data.is_empty() {
            break;
        }
        // Parse only whole lines; the partial tail carries over.
        let end = if eof {
            data.len()
        } else if let Some(i) = data.iter().rposition(|&b| b == b'\n') {
            i + 1
        } else {
            // One line longer than the chunk: widen and refill — up
            // to the line-length cap, past which this is clearly not
            // a text edge list (keeps memory bounded when a binary
            // file is fed to the text parser).
            if target >= MAX_LINE_BYTES {
                return Err(Error::InvalidInput(format!(
                    "no line break within {MAX_LINE_BYTES} bytes — not a text edge \
                     list? (binary id pairs need --format pairs32/pairs64)"
                )));
            }
            target += IMPORT_CHUNK_BYTES;
            continue;
        };
        skipped += parse_chunk(&data[..end], &pool, &mut slots)?;
        for slot in &mut slots {
            if opts.undirected {
                MirrorMode::Undirected.mirror_in_place(&mut slot.edges);
            }
            writer.append(&slot.edges)?;
        }
        data.drain(..end);
        target = IMPORT_CHUNK_BYTES;
    }
    Ok(skipped)
}

/// Parses one chunk of whole lines in parallel: worker `t` takes the
/// `t`-th newline-aligned slice into its own pooled [`ParseSlot`].
/// Returns the number of comment/blank lines skipped.
fn parse_chunk(region: &[u8], pool: &WorkerPool, slots: &mut [ParseSlot]) -> Result<usize> {
    let threads = slots.len();
    let bounds = line_aligned_bounds(region, threads);
    {
        let slots_ptr = PerWorkerPtr(slots.as_mut_ptr());
        let bounds = &bounds;
        let job = |tid: usize| {
            // SAFETY: each dispatch runs every tid exactly once and
            // tid < threads == slots.len(), so these `&mut` borrows
            // are disjoint across workers.
            let slot: &mut ParseSlot = unsafe { slots_ptr.get_mut(tid) };
            slot.edges.clear();
            slot.skipped = 0;
            slot.error = None;
            parse_lines(&region[bounds[tid]..bounds[tid + 1]], slot);
        };
        pool.run(&job);
    }
    let mut skipped = 0;
    for slot in slots.iter_mut() {
        if let Some(msg) = slot.error.take() {
            return Err(Error::InvalidInput(msg));
        }
        skipped += slot.skipped;
    }
    Ok(skipped)
}

/// Splits `region` into `parts` contiguous byte ranges whose interior
/// boundaries sit just after a `\n`, as `parts + 1` offsets.
fn line_aligned_bounds(region: &[u8], parts: usize) -> Vec<usize> {
    let mut bounds = Vec::with_capacity(parts + 1);
    bounds.push(0);
    for t in 1..parts {
        let lo = *bounds.last().unwrap();
        let guess = (region.len() * t / parts).max(lo);
        let next = region[guess..]
            .iter()
            .position(|&b| b == b'\n')
            .map(|i| guess + i + 1)
            .unwrap_or(region.len());
        bounds.push(next.max(lo));
    }
    bounds.push(region.len());
    bounds
}

fn parse_lines(bytes: &[u8], slot: &mut ParseSlot) {
    let text = match std::str::from_utf8(bytes) {
        Ok(t) => t,
        Err(_) => {
            slot.error = Some("source is not valid UTF-8 text".to_string());
            return;
        }
    };
    for line in text.lines() {
        match parse_line(line) {
            Ok(Some(e)) => slot.edges.push(e),
            Ok(None) => slot.skipped += 1,
            Err(msg) => {
                slot.error = Some(msg);
                return;
            }
        }
    }
}

/// Parses one line: `Ok(None)` for comments/blanks, `Err` with a
/// message naming the offending line otherwise.
fn parse_line(line: &str) -> std::result::Result<Option<Edge>, String> {
    let t = line.trim();
    if t.is_empty() || t.starts_with('#') || t.starts_with('%') {
        return Ok(None);
    }
    let mut it = t.split_whitespace();
    let src = parse_id(it.next().unwrap_or(""), t)?;
    let dst = parse_id(
        it.next()
            .ok_or_else(|| format!("missing destination vertex in line `{t}`"))?,
        t,
    )?;
    let weight = match it.next() {
        // Extra columns after the weight (timestamps etc.) are
        // tolerated; a third column that isn't numeric is not.
        Some(w) => w
            .parse::<f32>()
            .map_err(|_| format!("bad weight `{w}` in line `{t}`"))?,
        None => 0.0,
    };
    Ok(Some(Edge::weighted(src, dst, weight)))
}

fn parse_id(tok: &str, line: &str) -> std::result::Result<VertexId, String> {
    let id: u64 = tok
        .parse()
        .map_err(|_| format!("bad vertex id `{tok}` in line `{line}`"))?;
    if id >= VertexId::MAX as u64 {
        // VertexId::MAX is the engines' INVALID_VERTEX sentinel.
        return Err(format!(
            "vertex id {id} in line `{line}` exceeds the 32-bit id space"
        ));
    }
    Ok(id as VertexId)
}

fn import_pairs(
    src: &Path,
    mut file: File,
    writer: &mut EdgeFileWriter,
    opts: &ImportOptions,
    wide: bool,
) -> Result<()> {
    let pair_size = if wide { 16 } else { 8 };
    let len = file.metadata()?.len();
    if len % pair_size as u64 != 0 {
        return Err(Error::InvalidInput(format!(
            "{}: length {len} is not a whole number of {pair_size}-byte id pairs",
            src.display()
        )));
    }
    let chunk_bytes = IMPORT_CHUNK_BYTES / pair_size * pair_size;
    let mut buf = vec![0u8; chunk_bytes];
    let mut edges: Vec<Edge> = Vec::new();
    let mut remaining = len as usize;
    while remaining > 0 {
        let take = remaining.min(chunk_bytes);
        file.read_exact(&mut buf[..take])?;
        remaining -= take;
        edges.clear();
        if wide {
            for [s, d] in RecordIter::<[u64; 2]>::new(&buf[..take]) {
                if s >= VertexId::MAX as u64 || d >= VertexId::MAX as u64 {
                    return Err(Error::InvalidInput(format!(
                        "pair ({s}, {d}) exceeds the 32-bit id space"
                    )));
                }
                edges.push(Edge::new(s as VertexId, d as VertexId));
            }
        } else {
            for [s, d] in RecordIter::<[u32; 2]>::new(&buf[..take]) {
                // Same rule as the text and pairs64 paths: u32::MAX is
                // the engines' INVALID_VERTEX sentinel.
                if s == VertexId::MAX || d == VertexId::MAX {
                    return Err(Error::InvalidInput(format!(
                        "pair ({s}, {d}) uses the reserved id {}",
                        VertexId::MAX
                    )));
                }
                edges.push(Edge::new(s, d));
            }
        }
        if opts.undirected {
            MirrorMode::Undirected.mirror_in_place(&mut edges);
        }
        writer.append(&edges)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fileio::read_edge_file;
    use crate::EdgeList;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("xstream_import_tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn snap_text_with_comments_blanks_and_weights() {
        let src = tmp("snap.txt");
        let dst = tmp("snap.xse");
        std::fs::write(
            &src,
            "# SNAP-style fixture\n\
             % matrix-market comment\n\
             0 1\n\
             \n\
             1 2 0.5\n\
             2 0 1.25 1699999999\n\
             \t 3   1 \r\n",
        )
        .unwrap();
        let r = import(&src, &dst, &ImportOptions::default()).unwrap();
        assert_eq!(r.num_vertices, 4);
        assert_eq!(r.num_edges, 4);
        assert_eq!(r.skipped_lines, 3);
        let g = read_edge_file(&dst).unwrap();
        assert_eq!(
            g.edges(),
            &[
                Edge::new(0, 1),
                Edge::weighted(1, 2, 0.5),
                Edge::weighted(2, 0, 1.25),
                Edge::new(3, 1),
            ]
        );
    }

    #[test]
    fn undirected_and_explicit_vertex_count() {
        let src = tmp("und.txt");
        let dst = tmp("und.xse");
        std::fs::write(&src, "0 1\n2 2\n").unwrap();
        let opts = ImportOptions {
            undirected: true,
            num_vertices: Some(10),
            ..ImportOptions::default()
        };
        let r = import(&src, &dst, &opts).unwrap();
        // Self-loop stays single; declared count wins.
        assert_eq!(r.num_vertices, 10);
        assert_eq!(r.num_edges, 3);
        let g = read_edge_file(&dst).unwrap();
        assert_eq!(g.num_vertices(), 10);
    }

    #[test]
    fn bad_lines_are_reported_with_content() {
        for (body, needle) in [
            ("0 x\n", "bad vertex id `x`"),
            ("7\n", "missing destination"),
            ("0 1 heavy\n", "bad weight"),
            ("0 4294967295\n", "id space"),
        ] {
            let src = tmp("bad.txt");
            let dst = tmp("bad.xse");
            std::fs::write(&src, body).unwrap();
            match import(&src, &dst, &ImportOptions::default()) {
                Err(Error::InvalidInput(msg)) => {
                    assert!(msg.contains(needle), "`{msg}` missing `{needle}`")
                }
                other => panic!("{body:?}: expected InvalidInput, got {other:?}"),
            }
            // A failed import leaves no half-written artifact behind.
            assert!(!dst.exists(), "{body:?}: partial output not cleaned up");
        }
    }

    #[test]
    fn undercounted_vertices_rejected() {
        let src = tmp("under.txt");
        let dst = tmp("under.xse");
        std::fs::write(&src, "0 9\n").unwrap();
        let opts = ImportOptions {
            num_vertices: Some(5),
            ..ImportOptions::default()
        };
        assert!(matches!(
            import(&src, &dst, &opts),
            Err(Error::InvalidInput(_))
        ));
    }

    #[test]
    fn binary_pair_formats_roundtrip() {
        let pairs: &[(u32, u32)] = &[(0, 1), (5, 2), (3, 3)];
        let mut narrow = Vec::new();
        let mut wide = Vec::new();
        for &(s, d) in pairs {
            narrow.extend_from_slice(&s.to_le_bytes());
            narrow.extend_from_slice(&d.to_le_bytes());
            wide.extend_from_slice(&(s as u64).to_le_bytes());
            wide.extend_from_slice(&(d as u64).to_le_bytes());
        }
        for (format, bytes) in [
            (ImportFormat::PairsU32, narrow),
            (ImportFormat::PairsU64, wide),
        ] {
            let src = tmp("pairs.bin");
            let dst = tmp("pairs.xse");
            std::fs::write(&src, &bytes).unwrap();
            let opts = ImportOptions {
                format,
                ..ImportOptions::default()
            };
            let r = import(&src, &dst, &opts).unwrap();
            assert_eq!(r.num_edges, 3, "{format:?}");
            let g = read_edge_file(&dst).unwrap();
            let expected: Vec<Edge> = pairs.iter().map(|&(s, d)| Edge::new(s, d)).collect();
            assert_eq!(g.edges(), &expected[..], "{format:?}");
        }
        // A ragged pair file is invalid input, not a panic.
        let src = tmp("ragged.bin");
        std::fs::write(&src, [0u8; 7]).unwrap();
        let opts = ImportOptions {
            format: ImportFormat::PairsU32,
            ..ImportOptions::default()
        };
        assert!(matches!(
            import(&src, tmp("ragged.xse").as_path(), &opts),
            Err(Error::InvalidInput(_))
        ));
    }

    #[test]
    fn importing_onto_the_source_is_refused() {
        let src = tmp("self.txt");
        std::fs::write(&src, "0 1\n").unwrap();
        match import(&src, &src, &ImportOptions::default()) {
            Err(Error::InvalidInput(msg)) => assert!(msg.contains("same file"), "{msg}"),
            other => panic!("expected InvalidInput, got {other:?}"),
        }
        // The source survives untouched (no truncation happened).
        assert_eq!(std::fs::read(&src).unwrap(), b"0 1\n");
    }

    #[test]
    fn newline_free_input_fails_fast_with_bounded_memory() {
        // A binary blob fed to the text parser must be rejected at the
        // line-length cap, not buffered whole.
        let src = tmp("blob.bin");
        std::fs::write(&src, vec![b'7'; super::MAX_LINE_BYTES + 1]).unwrap();
        match import(&src, tmp("blob.xse").as_path(), &ImportOptions::default()) {
            Err(Error::InvalidInput(msg)) => assert!(msg.contains("--format"), "{msg}"),
            other => panic!("expected InvalidInput, got {other:?}"),
        }
    }

    #[test]
    fn pairs32_rejects_the_invalid_vertex_sentinel() {
        let src = tmp("sentinel.bin");
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&0u32.to_le_bytes());
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        std::fs::write(&src, &bytes).unwrap();
        let opts = ImportOptions {
            format: ImportFormat::PairsU32,
            ..ImportOptions::default()
        };
        match import(&src, tmp("sentinel.xse").as_path(), &opts) {
            Err(Error::InvalidInput(msg)) => assert!(msg.contains("reserved id"), "{msg}"),
            other => panic!("expected InvalidInput, got {other:?}"),
        }
    }

    #[test]
    fn large_text_import_matches_in_memory_parse() {
        // Cross the chunk boundary several times with a multi-thread
        // pool: the parallel chunked parse must agree with a trivial
        // sequential one.
        let g = crate::generators::preferential_attachment(2000, 8, 41);
        let src = tmp("big.txt");
        let dst = tmp("big.xse");
        let mut body = String::from("# big fixture\n");
        for e in g.edges() {
            body.push_str(&format!("{} {}\n", e.src, e.dst));
        }
        std::fs::write(&src, &body).unwrap();
        let opts = ImportOptions {
            threads: 4,
            num_vertices: Some(g.num_vertices()),
            ..ImportOptions::default()
        };
        let r = import(&src, &dst, &opts).unwrap();
        assert_eq!(r.num_edges, g.num_edges());
        let back = read_edge_file(&dst).unwrap();
        let strip = |l: &EdgeList| l.edges().iter().map(|e| (e.src, e.dst)).collect::<Vec<_>>();
        assert_eq!(strip(&back), strip(&g));
    }

    #[test]
    fn format_names_parse() {
        assert_eq!("snap".parse(), Ok(ImportFormat::SnapText));
        assert_eq!("TEXT".parse(), Ok(ImportFormat::SnapText));
        assert_eq!("pairs32".parse(), Ok(ImportFormat::PairsU32));
        assert_eq!("bin64".parse(), Ok(ImportFormat::PairsU64));
        assert!("json".parse::<ImportFormat>().is_err());
    }
}
