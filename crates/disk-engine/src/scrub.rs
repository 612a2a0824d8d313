//! Whole-store integrity scrub and repair (`xstream scrub [--repair]`).
//!
//! A store sealed by the engine carries a three-level integrity chain:
//! the [`MANIFEST`](xstream_storage::Manifest) names every durable
//! stream and records the CRC of its `.sum` sidecar; each sidecar
//! records one CRC per I/O-unit chunk; each chunk covers the stream
//! bytes themselves. `scrub` walks that chain top-down — manifest →
//! sidecar authenticity → per-chunk stream verification — so a rotted
//! sidecar is distinguished from a rotted stream instead of being
//! reported as one, and every byte of every durable stream is read
//! exactly once.
//!
//! Verification reads go through `std::fs` directly rather than the
//! [`StreamStore`] read path: the store's own verifier trusts the
//! on-disk sidecar, which is precisely what scrub must not do, and it
//! fails on the *first* bad chunk where scrub wants a complete verdict.
//!
//! With `repair`, detected damage is dispatched by stream role:
//!
//! * **Derived streams are rebuilt.** A rotted or `needs_rebuild`
//!   sparse-scatter index is recomputed from its partition's edge
//!   stream (which must itself verify — the index is a pure function of
//!   it) using the partitioner reconstructed from the manifest's
//!   recorded `vertices` / `--partitions` config. A rotted sidecar over
//!   an intact stream (proven by re-deriving the sidecar and matching
//!   its CRC against the manifest) is simply rewritten.
//! * **Stale streams are quarantined.** A rotted checkpoint slot, or an
//!   unlisted non-empty update/unknown stream left by a killed run, is
//!   renamed to `<name>.quarantined` and dropped from the manifest —
//!   never silently deleted.
//! * **Primary data is not guessed at.** A rotted edge stream is
//!   reported as unrepairable; rebuilding it would require the original
//!   input.
//!
//! A successful repair re-seals the manifest with a bumped generation,
//! leaving a store that passes a subsequent scrub cleanly.

use std::fs;
use std::io::Read as _;
use std::path::Path;

use crate::checkpoint::frame_is_valid;
use xstream_core::partition::run_offsets;
use xstream_core::record::{records_as_bytes, RecordIter};
use xstream_core::{Edge, Error, Partitioner, Record, Result};
use xstream_storage::{
    crc32, crc32c, Manifest, StreamRole, StreamStore, SumSidecar, MANIFEST_NAME,
};

/// What scrub concluded about one stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// Every chunk matched its checksum (and, for checkpoint slots, the
    /// frame is structurally valid).
    Intact,
    /// The stream bytes are intact but the `.sum` sidecar is missing or
    /// rotted (proven by re-deriving it and matching the manifest CRC).
    SidecarRotted,
    /// The stream failed verification; `detail` says how (first bad
    /// chunk, length mismatch, invalid frame, ...).
    Corrupt {
        /// Human-readable description of the first failure.
        detail: String,
    },
    /// Listed in the manifest but absent on disk.
    Missing,
    /// The manifest flagged this stream for rebuild (a mid-run
    /// degradation already consumed the corruption).
    NeedsRebuild,
    /// Present on disk but not listed in the manifest (stale output of
    /// a killed run, or foreign).
    Unlisted,
    /// Not covered by checksums and carrying no validity structure of
    /// its own; nothing to verify (e.g. per-run vertex state).
    Unverified,
}

/// What `--repair` did (or would have to do) about a verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Nothing needed.
    None,
    /// Derived stream recomputed from its verified source.
    Rebuilt,
    /// Sidecar rewritten over an intact stream.
    SidecarRewritten,
    /// Renamed to `<name>.quarantined` and dropped from the manifest.
    Quarantined,
    /// Damage to primary data; no repair exists without the original
    /// input.
    Unrepairable,
    /// Repair was needed but not requested (`--repair` off).
    RepairNeeded,
}

/// Per-stream scrub result.
#[derive(Debug, Clone)]
pub struct StreamReport {
    /// Stream name (manifest entry or on-disk file).
    pub name: String,
    /// Role the manifest records (or infers from the name).
    pub role: StreamRole,
    /// What verification concluded.
    pub verdict: Verdict,
    /// What repair did about it.
    pub action: Action,
}

/// Whole-store scrub result.
#[derive(Debug, Clone)]
pub struct ScrubReport {
    /// Whether the manifest itself decoded and passed its CRC.
    pub manifest_ok: bool,
    /// Store generation from the manifest (post-repair value if a
    /// repair re-sealed it).
    pub generation: u64,
    /// Graph/program/config fingerprint from the manifest.
    pub fingerprint: u64,
    /// One report per stream examined, manifest entries first.
    pub streams: Vec<StreamReport>,
    /// Whether a repair pass rewrote the manifest.
    pub repaired: bool,
}

impl ScrubReport {
    /// True when every stream verified intact and the manifest is
    /// valid — the store needs no repair.
    pub fn is_clean(&self) -> bool {
        self.manifest_ok
            && self
                .streams
                .iter()
                .all(|s| matches!(s.verdict, Verdict::Intact | Verdict::Unverified))
    }

    /// True when damage remains that `--repair` could not (or was not
    /// asked to) fix.
    pub fn has_unresolved_damage(&self) -> bool {
        !self.manifest_ok
            || self.streams.iter().any(|s| {
                !matches!(s.verdict, Verdict::Intact | Verdict::Unverified)
                    && !matches!(
                        s.action,
                        Action::Rebuilt | Action::SidecarRewritten | Action::Quarantined
                    )
            })
    }
}

/// Verifies `path` against `sidecar` chunk by chunk through a reused
/// buffer. Returns the first failing chunk, or `None` if every chunk
/// (and the total length) matches.
fn verify_file(path: &Path, sidecar: &SumSidecar, buf: &mut Vec<u8>) -> Result<Option<String>> {
    let meta = match fs::metadata(path) {
        Ok(m) => m,
        Err(_) => return Ok(Some("file missing".into())),
    };
    if meta.len() != sidecar.total_len {
        return Ok(Some(format!(
            "length {} does not match sealed length {}",
            meta.len(),
            sidecar.total_len
        )));
    }
    let mut file = fs::File::open(path).map_err(Error::Io)?;
    let unit = sidecar.unit.max(1) as usize;
    let mut remaining = sidecar.total_len;
    for (i, &expect) in sidecar.crcs.iter().enumerate() {
        let want = (remaining as usize).min(unit);
        buf.clear();
        buf.resize(want, 0);
        if file.read_exact(buf).is_err() {
            return Ok(Some(format!("short read at chunk {i}")));
        }
        if crc32c(buf) != expect {
            return Ok(Some(format!("chunk {i} failed checksum")));
        }
        remaining -= want as u64;
    }
    Ok(None)
}

/// Quarantines a stream: renames it to `<name>.quarantined` (replacing
/// any previous quarantine of the same name) and removes its sidecar.
fn quarantine(root: &Path, name: &str) -> Result<()> {
    let from = root.join(name);
    let to = root.join(format!("{name}.quarantined"));
    fs::rename(&from, &to).map_err(Error::Io)?;
    let _ = fs::remove_file(root.join(format!("{name}.sum")));
    Ok(())
}

/// Writes a sidecar file atomically (temp + rename), mirroring how the
/// store seals one.
fn write_sidecar(root: &Path, name: &str, sidecar: &SumSidecar) -> Result<u32> {
    let encoded = sidecar.encode();
    let tmp = root.join(format!("{name}.sum.tmp"));
    let dst = root.join(format!("{name}.sum"));
    fs::write(&tmp, &encoded).map_err(Error::Io)?;
    fs::rename(&tmp, &dst).map_err(Error::Io)?;
    Ok(crc32(&encoded))
}

/// Rebuilds the sparse-scatter index of partition `p` from its (already
/// verified) edge stream with the engine's own index builder,
/// [`run_offsets`]. Returns the new index bytes.
fn rebuild_index(edges_bytes: &[u8], partitioner: &Partitioner, p: usize) -> Result<Vec<u8>> {
    if !edges_bytes.len().is_multiple_of(Edge::SIZE) {
        return Err(Error::Config(format!(
            "edges.{p} length {} is not a whole number of edge records",
            edges_bytes.len()
        )));
    }
    let mut offsets = Vec::new();
    run_offsets(
        RecordIter::<Edge>::new(edges_bytes),
        partitioner.range(p),
        &mut offsets,
    )
    .map_err(|e| Error::Config(format!("edges.{p}: {e}; cannot derive an index from it")))?;
    Ok(records_as_bytes(&offsets).to_vec())
}

/// The partitioner the manifest describes. `Partitioner::new` is a
/// fixed point of its own `(num_vertices, num_partitions)` output, so
/// feeding the recorded actual partition count back in reconstructs
/// the exact vertex ranges.
fn manifest_partitioner(manifest: &Manifest) -> Option<Partitioner> {
    let nv: usize = manifest.config_value("vertices")?.parse().ok()?;
    let kp: usize = manifest.config_value("--partitions")?.parse().ok()?;
    Some(Partitioner::new(nv, kp))
}

/// Scrubs the store rooted at `root` against its manifest; with
/// `repair`, rebuilds/quarantines what the verdicts allow and re-seals
/// the manifest under a bumped generation.
///
/// Returns an error only for environmental failures (the root is not a
/// store, a repair write failed); detected corruption is *reported*,
/// not raised.
pub fn scrub(root: &Path, repair: bool) -> Result<ScrubReport> {
    let manifest_path = root.join(MANIFEST_NAME);
    let mut manifest = match fs::read(&manifest_path).ok().and_then(|b| {
        if b.is_empty() {
            None
        } else {
            Manifest::decode(&b)
        }
    }) {
        Some(m) => m,
        None => {
            // No valid manifest: nothing is trustworthy enough to
            // repair against. Report every stream-looking file as
            // unverifiable and stop.
            let mut streams = Vec::new();
            if let Ok(names) = list_streams(root) {
                for name in names {
                    streams.push(StreamReport {
                        role: StreamRole::of_stream(&name),
                        name,
                        verdict: Verdict::Unverified,
                        action: Action::None,
                    });
                }
            }
            return Ok(ScrubReport {
                manifest_ok: false,
                generation: 0,
                fingerprint: 0,
                streams,
                repaired: false,
            });
        }
    };

    let io_unit: u64 = manifest
        .config_value("--io-unit")
        .and_then(|v| v.parse().ok())
        .unwrap_or(1 << 20);
    let mut buf: Vec<u8> = Vec::with_capacity(io_unit as usize);
    let mut streams: Vec<StreamReport> = Vec::new();

    // ---- Pass 1: verdicts for every manifest entry ----
    for entry in &manifest.entries {
        let path = root.join(&entry.name);
        let verdict = if entry.needs_rebuild {
            Verdict::NeedsRebuild
        } else if !path.exists() {
            Verdict::Missing
        } else if entry.has_sums {
            // Authenticate the sidecar against the manifest before
            // trusting it for chunk verification.
            let sidecar_path = root.join(format!("{}.sum", entry.name));
            let authentic = fs::read(&sidecar_path)
                .ok()
                .filter(|b| crc32(b) == entry.sum_crc)
                .and_then(|b| SumSidecar::decode(&b));
            match authentic {
                Some(sidecar) => match verify_file(&path, &sidecar, &mut buf)? {
                    None => checkpoint_structure(&path, entry.role)?,
                    Some(detail) => Verdict::Corrupt { detail },
                },
                None => {
                    // Sidecar missing or rotted. Re-derive it from the
                    // stream bytes: if the derived sidecar's CRC matches
                    // the manifest, the *stream* is intact and only the
                    // sidecar rotted.
                    let bytes = fs::read(&path).map_err(Error::Io)?;
                    let derived = SumSidecar::of_bytes(io_unit, &bytes);
                    if crc32(&derived.encode()) == entry.sum_crc {
                        Verdict::SidecarRotted
                    } else {
                        Verdict::Corrupt {
                            detail: "stream and sidecar disagree with the manifest".into(),
                        }
                    }
                }
            }
        } else {
            // Listed without sums (legacy or placeholder): the only
            // structure to check is a checkpoint frame's own CRC.
            checkpoint_structure(&path, entry.role)?
        };
        streams.push(StreamReport {
            name: entry.name.clone(),
            role: entry.role,
            verdict,
            action: Action::None,
        });
    }

    // ---- Unlisted on-disk streams ----
    for name in list_streams(root)? {
        if name == MANIFEST_NAME || manifest.entry(&name).is_some() {
            continue;
        }
        let role = StreamRole::of_stream(&name);
        let len = fs::metadata(root.join(&name)).map(|m| m.len()).unwrap_or(0);
        // Per-run vertex state and zero-length streams are expected
        // residue of a healthy run, not damage: the store creates every
        // registered stream's file up front, so e.g. a dense-only
        // partition leaves an empty `index.p` behind and an untracked
        // program leaves all of them.
        let verdict = if matches!(role, StreamRole::Vertices) || len == 0 {
            Verdict::Unverified
        } else {
            Verdict::Unlisted
        };
        streams.push(StreamReport {
            name,
            role,
            verdict,
            action: Action::None,
        });
    }

    if !repair {
        for s in &mut streams {
            s.action = match s.verdict {
                Verdict::Intact | Verdict::Unverified => Action::None,
                Verdict::Corrupt { .. } if matches!(s.role, StreamRole::Edges) => {
                    Action::Unrepairable
                }
                _ => Action::RepairNeeded,
            };
        }
        return Ok(ScrubReport {
            manifest_ok: true,
            generation: manifest.generation,
            fingerprint: manifest.fingerprint,
            streams,
            repaired: false,
        });
    }

    // ---- Pass 2: repair ----
    // Index rebuilds need the partitioner and a store handle whose I/O
    // unit matches the sealed chunking (so the re-sealed sidecar lines
    // up with what the engine will verify against).
    let partitioner = manifest_partitioner(&manifest);
    let store = StreamStore::new(root, io_unit as usize)?.with_verify(false);
    let mut dirty = false;

    // Edge-stream health gates index rebuilds; collect it first.
    let edges_ok = |streams: &[StreamReport], p: usize| {
        streams
            .iter()
            .any(|s| s.name == format!("edges.{p}") && s.verdict == Verdict::Intact)
    };

    for i in 0..streams.len() {
        let (name, role, verdict) = {
            let s = &streams[i];
            (s.name.clone(), s.role, s.verdict.clone())
        };
        let action = match (&verdict, role) {
            (Verdict::Intact | Verdict::Unverified, _) => Action::None,

            // Intact stream, rotted sidecar: rewrite it.
            (Verdict::SidecarRotted, _) => {
                let bytes = fs::read(root.join(&name)).map_err(Error::Io)?;
                let crc = write_sidecar(root, &name, &SumSidecar::of_bytes(io_unit, &bytes))?;
                if let Some(e) = manifest.entry_mut(&name) {
                    e.sum_crc = crc;
                    e.has_sums = true;
                }
                dirty = true;
                Action::SidecarRewritten
            }

            // Derived index: rebuild from the verified edge stream.
            (
                Verdict::Corrupt { .. } | Verdict::Missing | Verdict::NeedsRebuild,
                StreamRole::Index,
            ) => {
                let p: Option<usize> = name.strip_prefix("index.").and_then(|s| s.parse().ok());
                match (p, &partitioner) {
                    (Some(p), Some(part)) if edges_ok(&streams, p) => {
                        let edges_bytes =
                            fs::read(root.join(format!("edges.{p}"))).map_err(Error::Io)?;
                        let index_bytes = rebuild_index(&edges_bytes, part, p)?;
                        if store.exists(&name) {
                            store.delete(&name)?;
                        }
                        store.append(&name, &index_bytes)?;
                        let sealed = store.seal_sums(&name)?;
                        if let Some(e) = manifest.entry_mut(&name) {
                            e.len = index_bytes.len() as u64;
                            e.sum_crc = sealed.unwrap_or(0);
                            e.has_sums = sealed.is_some();
                            e.needs_rebuild = false;
                        }
                        dirty = true;
                        Action::Rebuilt
                    }
                    _ => Action::Unrepairable,
                }
            }

            // Primary data: nothing to rebuild it from.
            (Verdict::Corrupt { .. } | Verdict::Missing, StreamRole::Edges) => Action::Unrepairable,

            // A listed stream that vanished: drop the dangling entry.
            (Verdict::Missing, _) => {
                manifest.remove(&name);
                dirty = true;
                Action::Quarantined
            }

            // Rotted checkpoint slots and other non-derivable listed
            // streams: quarantine and delist (resume falls back to the
            // other slot or a fresh run).
            (Verdict::Corrupt { .. } | Verdict::NeedsRebuild, _) => {
                quarantine(root, &name)?;
                manifest.remove(&name);
                dirty = true;
                Action::Quarantined
            }

            // Stale residue of a killed run.
            (Verdict::Unlisted, _) => {
                quarantine(root, &name)?;
                Action::Quarantined
            }
        };
        streams[i].action = action;
    }

    if dirty {
        manifest.generation += 1;
        store.write_atomic(MANIFEST_NAME, &manifest.encode())?;
    }

    Ok(ScrubReport {
        manifest_ok: true,
        generation: manifest.generation,
        fingerprint: manifest.fingerprint,
        streams,
        repaired: dirty,
    })
}

/// For checkpoint slots, chunk checksums prove the bytes are what the
/// engine wrote, but the frame's own CRC additionally proves the write
/// was whole (not torn before sealing); check both. Everything else
/// passing chunk verification is simply intact.
fn checkpoint_structure(path: &Path, role: StreamRole) -> Result<Verdict> {
    if role != StreamRole::Checkpoint {
        return Ok(Verdict::Intact);
    }
    let bytes = fs::read(path).map_err(Error::Io)?;
    if frame_is_valid(&bytes) {
        Ok(Verdict::Intact)
    } else {
        Ok(Verdict::Corrupt {
            detail: "checkpoint frame failed structural validation".into(),
        })
    }
}

/// The stream-looking files under `root`: regular files, minus sidecars
/// and the temp/quarantine artifacts scrub itself produces.
fn list_streams(root: &Path) -> Result<Vec<String>> {
    let mut names = Vec::new();
    for dirent in fs::read_dir(root).map_err(Error::Io)? {
        let dirent = dirent.map_err(Error::Io)?;
        if !dirent.file_type().map_err(Error::Io)?.is_file() {
            continue;
        }
        let name = match dirent.file_name().into_string() {
            Ok(n) => n,
            Err(_) => continue,
        };
        if name.ends_with(".sum")
            || name.ends_with(".tmp")
            || name.ends_with(".quarantined")
            || name.starts_with('.')
        {
            continue;
        }
        names.push(name);
    }
    names.sort();
    Ok(names)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xstream_core::{EdgeProgram, Engine, EngineConfig, FrontierMode, VertexId};

    /// Tracked so the build pass writes sparse-scatter index streams —
    /// scrub's rebuild path needs them to exist.
    struct MinLabel;
    impl EdgeProgram for MinLabel {
        type State = u32;
        type Update = u32;
        fn init(&self, v: VertexId) -> u32 {
            v
        }
        fn scatter(&self, s: &u32, _e: &Edge) -> Option<u32> {
            Some(*s)
        }
        fn gather(&self, d: &mut u32, u: &u32) -> bool {
            if u < d {
                *d = *u;
                true
            } else {
                false
            }
        }
        fn frontier_mode(&self) -> FrontierMode {
            FrontierMode::Tracked
        }
    }

    fn temp_root(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("xstream_scrub_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    /// Builds a small sealed store by running the engine briefly.
    fn sealed_store(root: &Path) {
        let store = StreamStore::new(root, 4096).unwrap();
        let graph = xstream_graph::edgelist::from_pairs(
            64,
            &(0..63u32).map(|v| (v, v + 1)).collect::<Vec<_>>(),
        )
        .to_undirected();
        let program = MinLabel;
        let config = EngineConfig::default()
            .with_memory_budget(1 << 20)
            .with_io_unit(4096)
            .with_threads(1)
            .with_partitions(2)
            .with_checkpoint_every(1);
        let mut engine = crate::DiskEngine::from_graph(store, &graph, &program, config).unwrap();
        for _ in 0..2 {
            engine.scatter_gather(&program);
        }
    }

    fn rot_byte(root: &Path, name: &str, at: u64) {
        use std::io::{Seek, SeekFrom, Write};
        let mut f = fs::OpenOptions::new()
            .read(true)
            .write(true)
            .open(root.join(name))
            .unwrap();
        f.seek(SeekFrom::Start(at)).unwrap();
        let mut b = [0u8; 1];
        {
            use std::io::Read;
            let mut g = fs::File::open(root.join(name)).unwrap();
            g.seek(SeekFrom::Start(at)).unwrap();
            g.read_exact(&mut b).unwrap();
        }
        f.write_all(&[b[0] ^ 0x01]).unwrap();
    }

    #[test]
    fn clean_store_scrubs_clean() {
        let root = temp_root("clean");
        sealed_store(&root);
        let report = scrub(&root, false).unwrap();
        assert!(report.manifest_ok);
        assert!(report.is_clean(), "unexpected damage: {report:#?}");
        assert!(!report.has_unresolved_damage());
        // Every durable stream was examined.
        assert!(report.streams.iter().any(|s| s.name.starts_with("edges.")));
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn missing_manifest_is_reported_not_fatal() {
        let root = temp_root("nomanifest");
        sealed_store(&root);
        fs::remove_file(root.join(MANIFEST_NAME)).unwrap();
        let report = scrub(&root, true).unwrap();
        assert!(!report.manifest_ok);
        assert!(!report.is_clean());
        assert!(!report.repaired);
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn rotted_edge_stream_is_detected_and_unrepairable() {
        let root = temp_root("rotedges");
        sealed_store(&root);
        rot_byte(&root, "edges.0", 10);
        let report = scrub(&root, true).unwrap();
        let s = report.streams.iter().find(|s| s.name == "edges.0").unwrap();
        assert!(matches!(s.verdict, Verdict::Corrupt { .. }), "{s:?}");
        assert_eq!(s.action, Action::Unrepairable);
        assert!(report.has_unresolved_damage());
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn rotted_index_is_rebuilt_from_edges() {
        let root = temp_root("rotindex");
        sealed_store(&root);
        let index = "index.0";
        assert!(root.join(index).exists(), "expected a sparse index");
        rot_byte(&root, index, 4);
        // Detected without repair...
        let report = scrub(&root, false).unwrap();
        let s = report.streams.iter().find(|s| s.name == index).unwrap();
        assert!(matches!(s.verdict, Verdict::Corrupt { .. }));
        assert_eq!(s.action, Action::RepairNeeded);
        // ...rebuilt with repair...
        let before = fs::read(root.join(index)).unwrap();
        let report = scrub(&root, true).unwrap();
        let s = report.streams.iter().find(|s| s.name == index).unwrap();
        assert_eq!(s.action, Action::Rebuilt);
        assert!(report.repaired);
        let after = fs::read(root.join(index)).unwrap();
        assert_eq!(before.len(), after.len());
        assert_ne!(before, after, "the rotted byte must be healed");
        // ...and the store is manifest-valid again.
        let report = scrub(&root, false).unwrap();
        assert!(report.is_clean(), "{report:#?}");
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn rotted_sidecar_over_intact_stream_is_rewritten_not_quarantined() {
        let root = temp_root("rotsidecar");
        sealed_store(&root);
        // Rot a byte of the first chunk CRC (the sidecar header is 24
        // bytes; the store is small enough that offset 25 is always
        // inside the CRC array).
        rot_byte(&root, "edges.0.sum", 25);
        let report = scrub(&root, true).unwrap();
        let s = report.streams.iter().find(|s| s.name == "edges.0").unwrap();
        assert_eq!(s.verdict, Verdict::SidecarRotted);
        assert_eq!(s.action, Action::SidecarRewritten);
        let report = scrub(&root, false).unwrap();
        assert!(report.is_clean(), "{report:#?}");
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn rotted_checkpoint_is_quarantined() {
        let root = temp_root("rotckpt");
        sealed_store(&root);
        let slot = if root.join("checkpoint.0").exists() {
            "checkpoint.0"
        } else {
            "checkpoint.1"
        };
        rot_byte(&root, slot, 20);
        let report = scrub(&root, true).unwrap();
        let s = report.streams.iter().find(|s| s.name == slot).unwrap();
        assert!(matches!(s.verdict, Verdict::Corrupt { .. }));
        assert_eq!(s.action, Action::Quarantined);
        assert!(root.join(format!("{slot}.quarantined")).exists());
        assert!(!root.join(slot).exists());
        let report = scrub(&root, false).unwrap();
        assert!(report.is_clean(), "{report:#?}");
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn stale_update_stream_is_quarantined_and_vertices_are_left_alone() {
        let root = temp_root("staleupd");
        sealed_store(&root);
        fs::write(root.join("updates.0"), b"leftover spill bytes").unwrap();
        let report = scrub(&root, true).unwrap();
        let upd = report
            .streams
            .iter()
            .find(|s| s.name == "updates.0")
            .unwrap();
        assert_eq!(upd.verdict, Verdict::Unlisted);
        assert_eq!(upd.action, Action::Quarantined);
        assert!(root.join("updates.0.quarantined").exists());
        for s in report
            .streams
            .iter()
            .filter(|s| s.name.starts_with("vertices"))
        {
            assert_eq!(s.verdict, Verdict::Unverified);
            assert_eq!(s.action, Action::None);
        }
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn empty_unlisted_streams_are_placeholders_not_damage() {
        // The engine registers every stream name up front, which
        // creates the file: a dense-only partition leaves a zero-length
        // `index.p` behind, and an untracked program leaves all of
        // them. Scrub must not read those as stale damage.
        let root = temp_root("emptyidx");
        sealed_store(&root);
        fs::write(root.join("index.7"), b"").unwrap();
        let report = scrub(&root, false).unwrap();
        assert!(report.is_clean(), "{report:#?}");
        let s = report.streams.iter().find(|s| s.name == "index.7").unwrap();
        assert_eq!(s.verdict, Verdict::Unverified);
        let report = scrub(&root, true).unwrap();
        assert!(report.is_clean(), "{report:#?}");
        assert!(
            root.join("index.7").exists(),
            "repair must leave the placeholder alone"
        );
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn rebuilt_index_matches_the_original_bit_for_bit() {
        let root = temp_root("bitexact");
        sealed_store(&root);
        let original = fs::read(root.join("index.0")).unwrap();
        rot_byte(&root, "index.0", 8);
        scrub(&root, true).unwrap();
        let rebuilt = fs::read(root.join("index.0")).unwrap();
        assert_eq!(original, rebuilt);
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn rebuild_index_rejects_ungrouped_edges() {
        let part = Partitioner::new(8, 1);
        let edges = [Edge::new(3, 0), Edge::new(1, 0)];
        let bytes = records_as_bytes(&edges);
        assert!(rebuild_index(bytes, &part, 0).is_err());
        // Grouped input round-trips.
        let edges = [Edge::new(1, 0), Edge::new(1, 2), Edge::new(3, 0)];
        let bytes = records_as_bytes(&edges);
        let index = rebuild_index(bytes, &part, 0).unwrap();
        let offsets: Vec<u32> = RecordIter::<u32>::new(&index).collect();
        assert_eq!(offsets, vec![0, 0, 2, 2, 3, 3, 3, 3, 3]);
    }
}
