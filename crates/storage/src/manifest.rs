//! The self-describing store manifest.
//!
//! PR 5's `.xstream-store` marker said only "a store lives here"; the
//! `MANIFEST` written next to it says *what* lives here and how to
//! check it. It records the store generation, the graph/config
//! fingerprint a run must match to `--resume`, the engine-config flags
//! as explicit `(flag, value)` pairs (so a mismatch error can name the
//! offending flag instead of just "fingerprint mismatch"), and one
//! entry per durable stream: its role, length, and the CRC32 of its
//! `.sum` sidecar — closing the integrity chain
//! *manifest → sidecar → per-chunk CRCs → bytes*.
//!
//! The engine seals a manifest after ingest, re-seals it
//! at every checkpoint, and validates it on open and `--resume`;
//! `xstream scrub` streams the whole store against it. The frame is
//! self-validating (trailing CRC32 over everything before it) and is
//! written with `StreamStore::write_atomic`, so a crash leaves either
//! the old or the new manifest, never a torn one.
//!
//! ```text
//! magic "XSMF" | version u32 | generation u64 | fingerprint u64 |
//! config_count u32 | (key_len u32, key, val_len u32, val)* |
//! entry_count u32 |
//! (name_len u32, name, role u8, flags u8, len u64, sum_crc u32)* |
//! crc32 u32
//! ```
//!
//! Integers little-endian; `flags` bit 0 = has sums, bit 1 = needs
//! rebuild.

use crate::checksum::crc32;

/// File name of the manifest within a store directory.
pub const MANIFEST_NAME: &str = "MANIFEST";

/// Frame magic: "XSMF" (X-Stream ManiFest).
pub const MANIFEST_MAGIC: [u8; 4] = *b"XSMF";

/// Current manifest format version; older versions are rejected, not
/// migrated (the engine then re-seals from scratch). Version 2 dropped
/// the sparse-scatter index streams, which the engine now keeps in
/// memory.
pub const MANIFEST_VERSION: u32 = 2;

/// What a durable stream is *for* — which decides whether `scrub
/// --repair` must quarantine it (updates, checkpoints: transient by
/// design) or must give up (edges: the source of truth). A rotted
/// sidecar over an intact stream is rewritten whatever the role.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamRole {
    /// An ingested edge file partition (`edges.{p}`) — the source of
    /// truth; unrepairable if corrupt.
    Edges,
    /// Persistent vertex state (`vertices.{p}`).
    Vertices,
    /// An inter-superstep update stream (`updates.{p}`) — transient,
    /// quarantined rather than repaired.
    Update,
    /// A checkpoint slot (`checkpoint.{0,1}`) — self-validating frame,
    /// quarantined if invalid.
    Checkpoint,
    /// Any other derived artifact.
    Derived,
}

impl StreamRole {
    fn to_byte(self) -> u8 {
        match self {
            StreamRole::Edges => 0,
            StreamRole::Vertices => 2,
            StreamRole::Update => 3,
            StreamRole::Checkpoint => 4,
            StreamRole::Derived => 5,
        }
    }

    fn from_byte(b: u8) -> Option<Self> {
        Some(match b {
            0 => StreamRole::Edges,
            2 => StreamRole::Vertices,
            3 => StreamRole::Update,
            4 => StreamRole::Checkpoint,
            5 => StreamRole::Derived,
            _ => return None,
        })
    }

    /// Classifies an engine stream name by its conventional prefix.
    pub fn of_stream(name: &str) -> Self {
        if name.starts_with("edges.") {
            StreamRole::Edges
        } else if name.starts_with("vertices.") {
            StreamRole::Vertices
        } else if name.starts_with("updates.") {
            StreamRole::Update
        } else if name.starts_with("checkpoint.") {
            StreamRole::Checkpoint
        } else {
            StreamRole::Derived
        }
    }
}

/// One durable stream the manifest vouches for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamEntry {
    /// Stream name within the store (`edges.3`).
    pub name: String,
    /// What the stream is for (decides repairability).
    pub role: StreamRole,
    /// Expected byte length.
    pub len: u64,
    /// CRC32 of the stream's encoded `.sum` sidecar file; meaningful
    /// only when [`Self::has_sums`].
    pub sum_crc: u32,
    /// Whether a `.sum` sidecar was sealed for this stream.
    pub has_sums: bool,
    /// Set when a resume read this checkpoint slot back corrupt and
    /// fell back to the other slot; `scrub --repair` quarantines
    /// flagged slots.
    pub needs_rebuild: bool,
}

/// The decoded manifest. See the module docs for the frame layout.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Manifest {
    /// Store generation, bumped by every seal (ingest, checkpoint,
    /// repair) — lets caches and services detect "same path, new
    /// contents".
    pub generation: u64,
    /// The graph/config fingerprint checkpoints are bound to (FNV-1a,
    /// same value the checkpoint frames carry).
    pub fingerprint: u64,
    /// Engine-config `(flag, value)` pairs the store was built under.
    /// Validated on `--resume`; a mismatch error names the flag.
    pub config: Vec<(String, String)>,
    /// Per-stream entries, in seal order.
    pub entries: Vec<StreamEntry>,
}

impl Manifest {
    /// Looks up the entry for stream `name`.
    pub fn entry(&self, name: &str) -> Option<&StreamEntry> {
        self.entries.iter().find(|e| e.name == name)
    }

    /// Mutable lookup.
    pub fn entry_mut(&mut self, name: &str) -> Option<&mut StreamEntry> {
        self.entries.iter_mut().find(|e| e.name == name)
    }

    /// Inserts or replaces the entry for `entry.name`.
    pub fn upsert(&mut self, entry: StreamEntry) {
        match self.entry_mut(&entry.name) {
            Some(e) => *e = entry,
            None => self.entries.push(entry),
        }
    }

    /// Removes the entry for stream `name` (quarantine path).
    pub fn remove(&mut self, name: &str) {
        self.entries.retain(|e| e.name != name);
    }

    /// The recorded value of config flag `key`.
    pub fn config_value(&self, key: &str) -> Option<&str> {
        self.config
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Serializes the manifest to its self-validating frame.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + self.entries.len() * 32);
        out.extend_from_slice(&MANIFEST_MAGIC);
        out.extend_from_slice(&MANIFEST_VERSION.to_le_bytes());
        out.extend_from_slice(&self.generation.to_le_bytes());
        out.extend_from_slice(&self.fingerprint.to_le_bytes());
        out.extend_from_slice(&(self.config.len() as u32).to_le_bytes());
        for (k, v) in &self.config {
            for s in [k, v] {
                out.extend_from_slice(&(s.len() as u32).to_le_bytes());
                out.extend_from_slice(s.as_bytes());
            }
        }
        out.extend_from_slice(&(self.entries.len() as u32).to_le_bytes());
        for e in &self.entries {
            out.extend_from_slice(&(e.name.len() as u32).to_le_bytes());
            out.extend_from_slice(e.name.as_bytes());
            out.push(e.role.to_byte());
            out.push(u8::from(e.has_sums) | (u8::from(e.needs_rebuild) << 1));
            out.extend_from_slice(&e.len.to_le_bytes());
            out.extend_from_slice(&e.sum_crc.to_le_bytes());
        }
        let crc = crc32(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    /// Validates and decodes a manifest frame. `None` on any
    /// malformation: short frame, bad magic/version, CRC mismatch,
    /// truncated or over-long field data.
    pub fn decode(bytes: &[u8]) -> Option<Self> {
        if bytes.len() < 4 + 4 + 8 + 8 + 4 + 4 + 4 {
            return None;
        }
        let (body, crc_bytes) = bytes.split_at(bytes.len() - 4);
        let stored = u32::from_le_bytes(crc_bytes.try_into().ok()?);
        if crc32(body) != stored {
            return None;
        }
        if body[..4] != MANIFEST_MAGIC {
            return None;
        }
        let mut cur = Cursor { body, at: 4 };
        if cur.u32()? != MANIFEST_VERSION {
            return None;
        }
        let generation = cur.u64()?;
        let fingerprint = cur.u64()?;
        let config_count = cur.u32()? as usize;
        let mut config = Vec::with_capacity(config_count.min(256));
        for _ in 0..config_count {
            let k = cur.string()?;
            let v = cur.string()?;
            config.push((k, v));
        }
        let entry_count = cur.u32()? as usize;
        let mut entries = Vec::with_capacity(entry_count.min(4096));
        for _ in 0..entry_count {
            let name = cur.string()?;
            let meta = cur.take(2)?;
            let role = StreamRole::from_byte(meta[0])?;
            let flags = meta[1];
            if flags > 0b11 {
                return None;
            }
            let len = cur.u64()?;
            let sum_crc = cur.u32()?;
            entries.push(StreamEntry {
                name,
                role,
                len,
                sum_crc,
                has_sums: flags & 1 != 0,
                needs_rebuild: flags & 2 != 0,
            });
        }
        if cur.at != body.len() {
            return None; // Trailing garbage inside a valid CRC frame.
        }
        Some(Self {
            generation,
            fingerprint,
            config,
            entries,
        })
    }
}

/// Bounds-checked little-endian reader over a manifest body.
struct Cursor<'a> {
    body: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let s = self.body.get(self.at..self.at.checked_add(n)?)?;
        self.at += n;
        Some(s)
    }

    fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().ok()?))
    }

    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }

    fn string(&mut self) -> Option<String> {
        let n = self.u32()? as usize;
        String::from_utf8(self.take(n)?.to_vec()).ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Manifest {
        Manifest {
            generation: 3,
            fingerprint: 0xDEAD_BEEF_CAFE,
            config: vec![
                ("--partitions".into(), "8".into()),
                ("--io-unit".into(), "1048576".into()),
            ],
            entries: vec![
                StreamEntry {
                    name: "edges.0".into(),
                    role: StreamRole::Edges,
                    len: 4096,
                    sum_crc: 0x1234_5678,
                    has_sums: true,
                    needs_rebuild: false,
                },
                StreamEntry {
                    name: "checkpoint.1".into(),
                    role: StreamRole::Checkpoint,
                    len: 128,
                    sum_crc: 0,
                    has_sums: false,
                    needs_rebuild: true,
                },
            ],
        }
    }

    #[test]
    fn roundtrip() {
        let m = sample();
        let bytes = m.encode();
        assert_eq!(Manifest::decode(&bytes).expect("valid"), m);
    }

    #[test]
    fn empty_manifest_roundtrips() {
        let m = Manifest::default();
        assert_eq!(Manifest::decode(&m.encode()).expect("valid"), m);
    }

    #[test]
    fn any_bit_flip_is_rejected() {
        let bytes = sample().encode();
        for pos in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[pos] ^= 0x40;
            assert!(
                Manifest::decode(&bad).is_none(),
                "bit flip at {pos} must invalidate the manifest"
            );
        }
    }

    #[test]
    fn an_older_version_is_rejected() {
        let mut bytes = sample().encode();
        bytes[4..8].copy_from_slice(&1u32.to_le_bytes());
        let body = bytes.len() - 4;
        let crc = crc32(&bytes[..body]);
        bytes[body..].copy_from_slice(&crc.to_le_bytes());
        assert!(Manifest::decode(&bytes).is_none());
    }

    #[test]
    fn truncation_is_rejected() {
        let bytes = sample().encode();
        for cut in 0..bytes.len() {
            assert!(Manifest::decode(&bytes[..cut]).is_none());
        }
    }

    #[test]
    fn upsert_and_remove() {
        let mut m = sample();
        m.upsert(StreamEntry {
            name: "edges.0".into(),
            role: StreamRole::Edges,
            len: 9999,
            sum_crc: 1,
            has_sums: true,
            needs_rebuild: false,
        });
        assert_eq!(m.entries.len(), 2);
        assert_eq!(m.entry("edges.0").unwrap().len, 9999);
        m.remove("checkpoint.1");
        assert!(m.entry("checkpoint.1").is_none());
        m.upsert(StreamEntry {
            name: "checkpoint.0".into(),
            role: StreamRole::Checkpoint,
            len: 64,
            sum_crc: 2,
            has_sums: true,
            needs_rebuild: false,
        });
        assert_eq!(m.entries.len(), 2);
    }

    #[test]
    fn role_classification_by_name() {
        assert_eq!(StreamRole::of_stream("edges.7"), StreamRole::Edges);
        assert_eq!(StreamRole::of_stream("vertices.1"), StreamRole::Vertices);
        assert_eq!(StreamRole::of_stream("updates.3"), StreamRole::Update);
        assert_eq!(
            StreamRole::of_stream("checkpoint.1"),
            StreamRole::Checkpoint
        );
        assert_eq!(StreamRole::of_stream("whatever"), StreamRole::Derived);
    }

    #[test]
    fn config_lookup() {
        let m = sample();
        assert_eq!(m.config_value("--partitions"), Some("8"));
        assert_eq!(m.config_value("--nope"), None);
    }
}
