//! Hardware bounds measured in the same run, for the roofline ratios:
//! sequential memory bandwidth over an array at least 4x the LLC, and
//! sequential `StreamStore` write and read of a page-cached stream.

use std::path::Path;
use std::time::Instant;

use xstream_bench::membw::{self, Dir, Pattern};
use xstream_core::{Edge, IterationStats};
use xstream_storage::StreamStore;

use crate::metrics::Metrics;

pub struct Bounds {
    pub membw_bps: f64,
    pub membw_array_bytes: usize,
    pub llc_bytes: usize,
    pub seq_read_bps: f64,
    pub seq_write_bps: f64,
}

/// Size of the largest CPU cache, from sysfs; 32 MiB when unreadable.
fn llc_bytes() -> usize {
    let mut best = 0usize;
    for i in 0..8 {
        let p = format!("/sys/devices/system/cpu/cpu0/cache/index{i}/size");
        let Ok(s) = std::fs::read_to_string(p) else {
            continue;
        };
        let s = s.trim();
        let (num, mul) = match s.strip_suffix('K') {
            Some(n) => (n, 1 << 10),
            None => match s.strip_suffix('M') {
                Some(n) => (n, 1 << 20),
                None => (s, 1),
            },
        };
        if let Ok(n) = num.parse::<usize>() {
            best = best.max(n * mul);
        }
    }
    if best == 0 {
        32 << 20
    } else {
        best
    }
}

impl Bounds {
    pub fn measure(work: &Path, smoke: bool) -> Result<Bounds, String> {
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        let llc = llc_bytes();
        let array = if smoke { 16 << 20 } else { 4 * llc };
        let membw_bps = (0..3)
            .map(|_| membw::measure(threads, array / threads, 2, Pattern::Sequential, Dir::Read))
            .fold(0.0, f64::max);

        let dir = work.join("seqbw");
        let io_unit = 1 << 20;
        let store = StreamStore::new(&dir, io_unit)
            .map_err(|e| format!("bound store: {e}"))?
            .with_verify(false);
        let total: usize = if smoke { 8 << 20 } else { 256 << 20 };
        let chunk = vec![0x5au8; io_unit];
        let t = Instant::now();
        for _ in 0..total / io_unit {
            store
                .append("seq", &chunk)
                .map_err(|e| format!("bound write: {e}"))?;
        }
        let seq_write_bps = total as f64 / t.elapsed().as_secs_f64();
        let mut buf = Vec::with_capacity(total);
        let mut seq_read_bps = 0f64;
        for _ in 0..3 {
            let t = Instant::now();
            store
                .read_all_into("seq", &mut buf)
                .map_err(|e| format!("bound read: {e}"))?;
            seq_read_bps = seq_read_bps.max(buf.len() as f64 / t.elapsed().as_secs_f64());
        }
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
        eprintln!(
            "bounds: membw {:.2} GB/s ({} MiB array, LLC {} MiB, {threads} threads); \
             stream write {:.2} GB/s, read {:.2} GB/s ({} MiB, page cache)",
            membw_bps / 1e9,
            array >> 20,
            llc >> 20,
            seq_write_bps / 1e9,
            seq_read_bps / 1e9,
            total >> 20
        );
        Ok(Bounds {
            membw_bps,
            membw_array_bytes: array,
            llc_bytes: llc,
            seq_read_bps,
            seq_write_bps,
        })
    }

    pub fn set_metrics(&self, m: &mut Metrics) {
        m.set("hw.membw_gbps", self.membw_bps / 1e9);
        m.set(
            "hw.membw_array_mib",
            self.membw_array_bytes as f64 / (1 << 20) as f64,
        );
        m.set("hw.llc_mib", self.llc_bytes as f64 / (1 << 20) as f64);
        m.set("storage.seq_read_gbps", self.seq_read_bps / 1e9);
        m.set("storage.seq_write_gbps", self.seq_write_bps / 1e9);
    }
}

/// Bytes an in-memory superstep must move at least: every edge read
/// once, and every update written by scatter and read back by gather
/// (a 4-byte destination plus a 4-byte payload).
pub fn mem_superstep_bytes(it: &IterationStats) -> f64 {
    it.edges_streamed as f64 * std::mem::size_of::<Edge>() as f64
        + it.updates_generated as f64 * 16.0
}

/// One roofline row: a layer, the bytes it moved, its time and the
/// bound it is compared with.
pub struct Row {
    pub layer: String,
    pub bytes: f64,
    pub secs: f64,
    pub bound: &'static str,
    pub bound_bps: f64,
}

/// Prints bytes moved per layer / layer time / bound, and names the
/// layer furthest from its bound.
pub fn print_roofline(rows: &[Row]) {
    eprintln!(
        "{:<26} {:>12} {:>10} {:>10} {:>10}  bound",
        "layer", "MB moved", "time s", "GB/s", "of bound"
    );
    let mut worst: Option<(&str, f64)> = None;
    for r in rows {
        if r.secs <= 0.0 || r.bytes <= 0.0 {
            continue;
        }
        let bps = r.bytes / r.secs;
        let frac = bps / r.bound_bps;
        eprintln!(
            "{:<26} {:>12.1} {:>10.4} {:>10.3} {:>10.3}  {}",
            r.layer,
            r.bytes / 1e6,
            r.secs,
            bps / 1e9,
            frac,
            r.bound
        );
        if worst.is_none_or(|(_, w)| frac < w) {
            worst = Some((&r.layer, frac));
        }
    }
    if let Some((layer, frac)) = worst {
        eprintln!(
            "furthest from its bound: {layer} ({:.1}% of bound)",
            100.0 * frac
        );
    }
}
