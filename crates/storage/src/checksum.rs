//! CRC32 over byte slices and streams.
//!
//! The checkpoint frames written by the out-of-core engine end with a
//! CRC32 of everything before it, so a torn or bit-rotted checkpoint is
//! rejected at resume time instead of silently corrupting vertex state.
//! Every durable stream is covered too: `.sum` sidecars carry one CRC
//! per I/O-unit chunk and the read paths verify them on the fly, with
//! a streaming [`Crc32c`] whose state can roll across arbitrarily-sized
//! reads.
//!
//! Hand-rolled to keep the no-new-crates precedent. Two polynomials:
//! the IEEE one ([`crc32`]) for the small framed records (checkpoint
//! frames, the manifest, sidecar files), and the Castagnoli one
//! ([`crc32c`] / [`Crc32c`]) for the per-chunk stream sums — CRC-32C is what SSE4.2's
//! `crc32` instruction computes, so the hot verify-every-read path runs
//! at memory speed on x86-64 (runtime-detected; elsewhere both fall
//! back to the same slicing-by-8 kernel, eight 256-entry tables built
//! at compile time, folding 8 input bytes per iteration).

/// The reflected IEEE polynomial used by zip, PNG, Ethernet et al.
const POLY: u32 = 0xEDB8_8320;

/// The reflected Castagnoli polynomial (iSCSI, ext4, SSE4.2 `crc32`).
const POLY_C: u32 = 0x82F6_3B78;

const fn build_tables(poly: u32) -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ poly
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    // tables[k][b] = crc of byte b followed by k zero bytes; lets the
    // slicing kernel fold 8 bytes into the running crc at once.
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 8] = build_tables(POLY);
static TABLES_C: [[u32; 256]; 8] = build_tables(POLY_C);

/// Advances a raw (pre-inverted) CRC state over `bytes` using the
/// slicing-by-8 kernel. Shared by the one-shot and streaming fronts.
fn update_sliced(tables: &[[u32; 256]; 8], mut crc: u32, bytes: &[u8]) -> u32 {
    let mut chunks = bytes.chunks_exact(8);
    for c in chunks.by_ref() {
        let lo = u32::from_le_bytes([c[0], c[1], c[2], c[3]]) ^ crc;
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = tables[7][(lo & 0xFF) as usize]
            ^ tables[6][((lo >> 8) & 0xFF) as usize]
            ^ tables[5][((lo >> 16) & 0xFF) as usize]
            ^ tables[4][(lo >> 24) as usize]
            ^ tables[3][(hi & 0xFF) as usize]
            ^ tables[2][((hi >> 8) & 0xFF) as usize]
            ^ tables[1][((hi >> 16) & 0xFF) as usize]
            ^ tables[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ tables[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

fn update_raw(crc: u32, bytes: &[u8]) -> u32 {
    update_sliced(&TABLES, crc, bytes)
}

/// CRC-32C kernel on the SSE4.2 `crc32` instruction: 8 bytes per
/// instruction at a few cycles' latency, an order of magnitude past
/// the table kernel. Safe to call only when SSE4.2 is present.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.2")]
unsafe fn update_raw_c_hw(crc: u32, bytes: &[u8]) -> u32 {
    use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};
    let mut chunks = bytes.chunks_exact(8);
    let mut c = crc as u64;
    for ch in chunks.by_ref() {
        c = _mm_crc32_u64(c, u64::from_le_bytes(ch.try_into().unwrap()));
    }
    let mut crc = c as u32;
    for &b in chunks.remainder() {
        crc = _mm_crc32_u8(crc, b);
    }
    crc
}

fn update_raw_c(crc: u32, bytes: &[u8]) -> u32 {
    // The feature probe caches its CPUID result in an atomic — no
    // allocation, no syscall in the steady state.
    #[cfg(target_arch = "x86_64")]
    if std::is_x86_feature_detected!("sse4.2") {
        return unsafe { update_raw_c_hw(crc, bytes) };
    }
    update_sliced(&TABLES_C, crc, bytes)
}

/// CRC32 (IEEE) of `bytes`, with the conventional init/final XOR of
/// `0xFFFF_FFFF` — matches `cksum -o3`, zlib's `crc32`, PNG, etc.
pub fn crc32(bytes: &[u8]) -> u32 {
    update_raw(0xFFFF_FFFF, bytes) ^ 0xFFFF_FFFF
}

/// CRC-32C (Castagnoli) of `bytes`, conventional init/final XOR —
/// matches iSCSI, ext4 metadata, and the SSE4.2 `crc32` instruction.
/// The polynomial behind every per-chunk stream sum: the verify-on-read
/// path runs it on every byte the engines load, so it uses the hardware
/// instruction when the CPU has it.
pub fn crc32c(bytes: &[u8]) -> u32 {
    update_raw_c(0xFFFF_FFFF, bytes) ^ 0xFFFF_FFFF
}

/// Streaming CRC-32C state (hardware-accelerated where available):
/// feed bytes in any-sized pieces with [`update`](Self::update), read
/// the digest-so-far with [`value`](Self::value).
/// `Crc32c::new().update(a).value()` equals `crc32c(a)`, and feeding a
/// buffer in any split equals feeding it whole — which is what lets the
/// read paths verify fixed-size sum chunks while reading in unrelated
/// (record-aligned) chunk sizes.
#[derive(Debug, Clone, Copy)]
pub struct Crc32c {
    state: u32,
}

impl Crc32c {
    /// Fresh state (digest of the empty string is 0).
    pub fn new() -> Self {
        Self { state: 0xFFFF_FFFF }
    }

    /// Folds `bytes` into the running state.
    pub fn update(&mut self, bytes: &[u8]) -> &mut Self {
        self.state = update_raw_c(self.state, bytes);
        self
    }

    /// The CRC-32C of everything fed so far. Non-destructive.
    pub fn value(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }

    /// Resets to the fresh state (reusable without reallocation).
    pub fn reset(&mut self) {
        self.state = 0xFFFF_FFFF;
    }
}

impl Default for Crc32c {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Standard check value for the IEEE CRC32.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn single_bit_flip_changes_crc() {
        let mut data = vec![0xA5u8; 1024];
        let clean = crc32(&data);
        data[512] ^= 0x01;
        assert_ne!(crc32(&data), clean);
    }

    #[test]
    fn streaming_value_is_non_destructive_and_reset_works() {
        let mut s = Crc32c::new();
        s.update(b"1234");
        assert_eq!(s.value(), crc32c(b"1234"));
        s.update(b"56789");
        assert_eq!(s.value(), 0xE306_9283);
        s.reset();
        s.update(b"123456789");
        assert_eq!(s.value(), 0xE306_9283);
    }

    #[test]
    fn crc32c_known_vectors() {
        // Standard check value for CRC-32C (Castagnoli).
        assert_eq!(crc32c(b"123456789"), 0xE306_9283);
        assert_eq!(crc32c(b""), 0);
        // 32 zero bytes: the iSCSI test vector (RFC 3720 B.4).
        assert_eq!(crc32c(&[0u8; 32]), 0x8A91_36AA);
        assert_eq!(crc32c(&[0xFFu8; 32]), 0x62A8_AB43);
    }

    #[test]
    fn crc32c_hardware_and_table_kernels_agree() {
        // On x86-64 `crc32c` takes the SSE4.2 path; pin it to the
        // table fallback at every split and length so a kernel bug on
        // either side cannot hide (elsewhere both sides are the same
        // kernel and this degrades to the streaming-consistency check).
        let data: Vec<u8> = (0..300u32).map(|i| (i * 131 % 251) as u8).collect();
        for len in 0..data.len() {
            let soft = update_sliced(&TABLES_C, 0xFFFF_FFFF, &data[..len]) ^ 0xFFFF_FFFF;
            assert_eq!(crc32c(&data[..len]), soft, "len {len}");
        }
    }

    #[test]
    fn crc32c_streaming_matches_one_shot_at_every_split() {
        let data: Vec<u8> = (0..300u32).map(|i| (i * 31 % 251) as u8).collect();
        let whole = crc32c(&data);
        for split in 0..data.len() {
            let mut s = Crc32c::new();
            s.update(&data[..split]).update(&data[split..]);
            assert_eq!(s.value(), whole, "split at {split}");
        }
    }

    #[test]
    fn slicing_kernel_handles_unaligned_lengths() {
        // Exercise every residue mod 8 around the chunk boundary.
        for len in 0..64usize {
            let data: Vec<u8> = (0..len).map(|i| (i as u8).wrapping_mul(37)).collect();
            let mut byte_at_a_time = 0xFFFF_FFFFu32;
            for &b in &data {
                byte_at_a_time = (byte_at_a_time >> 8)
                    ^ TABLES[0][((byte_at_a_time ^ b as u32) & 0xFF) as usize];
            }
            assert_eq!(crc32(&data), byte_at_a_time ^ 0xFFFF_FFFF, "len {len}");
        }
    }
}
