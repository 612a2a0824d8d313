//! Parametric storage-device model.
//!
//! The paper's device-level results depend on its testbed hardware
//! (two PCIe SSDs and two 3 TB magnetic disks, each pair in software
//! RAID-0 with a 512 KB stripe). Container hardware is neither known
//! nor stable, so device-level figures are evaluated against this
//! model, calibrated to the paper's own measurements (Fig. 11):
//!
//! | medium | seq read | seq write | rand read | rand write |
//! |--------|----------|-----------|-----------|------------|
//! | SSD RAID-0 | 667.69 MB/s | 576.5 MB/s | 22.5 MB/s | 48.6 MB/s |
//! | HDD RAID-0 | 328 MB/s | 316.3 MB/s | 0.6 MB/s | 2 MB/s |
//!
//! A transfer of `s` bytes on a RAID of `d` devices with stripe `u`
//! engages `min(d, ceil(s/u))` devices and costs
//! `access_latency + s / (engaged * per_device_bandwidth)`. The access
//! latency is charged per operation that is not sequential with the
//! previous one on the same device (file switch or offset jump).

use crate::iostats::{IoEvent, IoKind, MAX_DEVICES};
use std::time::Duration;

/// A storage medium model (one device or a RAID-0 set).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiskModel {
    /// Human-readable name.
    pub name: &'static str,
    /// Latency charged on every non-sequential access, seconds.
    pub access_latency_read: f64,
    /// Write-side access latency, seconds (disks absorb writes in their
    /// write cache, so it is lower than the read latency, Fig. 11).
    pub access_latency_write: f64,
    /// Sequential bandwidth of one member device, bytes/second (read).
    pub device_read_bw: f64,
    /// Sequential bandwidth of one member device, bytes/second (write).
    pub device_write_bw: f64,
    /// RAID-0 stripe unit in bytes.
    pub stripe: u64,
    /// Number of member devices.
    pub devices: u32,
}

impl DiskModel {
    /// The paper's two-SSD RAID-0 (512 KB stripe), calibrated so that a
    /// 4 KB random read yields ~22.5 MB/s and large sequential reads
    /// ~667 MB/s (Fig. 9/11).
    pub fn ssd_raid0() -> Self {
        Self {
            name: "ssd-raid0",
            // 4096 / 22.5 MB/s - 4096 / (333 MB/s) ~= 170 us.
            access_latency_read: 170e-6,
            // 4096 / 48.6 MB/s ~= 84 us - transfer ~= 72 us.
            access_latency_write: 72e-6,
            device_read_bw: 333.8e6,
            device_write_bw: 288.3e6,
            stripe: 512 << 10,
            devices: 2,
        }
    }

    /// A single SSD (half the pair).
    pub fn ssd_single() -> Self {
        Self {
            name: "ssd",
            devices: 1,
            ..Self::ssd_raid0()
        }
    }

    /// The paper's two-HDD RAID-0, calibrated so that a 4 KB random
    /// read yields ~0.6 MB/s (a ~6.8 ms seek) and large sequential
    /// reads ~328 MB/s.
    pub fn hdd_raid0() -> Self {
        Self {
            name: "hdd-raid0",
            access_latency_read: 6.8e-3,
            // Write cache absorbs writes: 4 KB random writes at 2 MB/s.
            access_latency_write: 2.0e-3,
            device_read_bw: 164e6,
            device_write_bw: 158e6,
            stripe: 512 << 10,
            devices: 2,
        }
    }

    /// A single magnetic disk (half the pair).
    pub fn hdd_single() -> Self {
        Self {
            name: "hdd",
            devices: 1,
            ..Self::hdd_raid0()
        }
    }

    /// Effective member devices engaged by an `s`-byte request.
    #[inline]
    fn engaged(&self, s: u64) -> u32 {
        let spans = s.div_ceil(self.stripe.max(1)).max(1);
        (spans as u32).min(self.devices)
    }

    /// Time for one transfer of `s` bytes, charging the access latency.
    pub fn op_time(&self, s: u64, write: bool, sequential: bool) -> f64 {
        let (lat, bw) = if write {
            (self.access_latency_write, self.device_write_bw)
        } else {
            (self.access_latency_read, self.device_read_bw)
        };
        let latency = if sequential { 0.0 } else { lat };
        latency + s as f64 / (self.engaged(s) as f64 * bw)
    }

    /// Modeled bandwidth (bytes/s) for back-to-back synchronous
    /// requests of `s` bytes each with an access latency per request —
    /// the fio experiment of Fig. 9.
    pub fn request_bandwidth(&self, s: u64, write: bool) -> f64 {
        s as f64 / self.op_time(s, write, false)
    }

    /// Modeled sequential bandwidth at saturation (bytes/s).
    pub fn sequential_bw(&self, write: bool) -> f64 {
        let bw = if write {
            self.device_write_bw
        } else {
            self.device_read_bw
        };
        self.devices as f64 * bw
    }

    /// Modeled random bandwidth for 4 KB synchronous transfers
    /// (bytes/s) — the Fig. 11 "random" column.
    pub fn random_bw(&self, write: bool) -> f64 {
        self.request_bandwidth(4096, write)
    }

    /// Replays an I/O trace against this model, assuming each device
    /// services its operations serially and devices work in parallel
    /// (the engine overlaps I/O across devices, §3.3).
    ///
    /// Sequentiality is inferred per device: an op is sequential when
    /// it continues the previous op's file at the previous end offset.
    pub fn replay(&self, trace: &[IoEvent]) -> Duration {
        let mut busy = [0f64; MAX_DEVICES];
        let mut last: [Option<(u32, u64)>; MAX_DEVICES] = [None; MAX_DEVICES];
        for e in trace {
            let d = e.device as usize % MAX_DEVICES;
            match e.kind {
                IoKind::Trim => {
                    last[d] = None;
                }
                IoKind::Read | IoKind::Write => {
                    let seq = last[d] == Some((e.file, e.offset));
                    let write = e.kind == IoKind::Write;
                    busy[d] += self.op_time(e.bytes, write, seq);
                    last[d] = Some((e.file, e.offset + e.bytes));
                }
            }
        }
        let max = busy.iter().cloned().fold(0.0f64, f64::max);
        Duration::from_secs_f64(max)
    }
}

/// Measured RAM bandwidth table rows for Fig. 11 (filled by the
/// `fig11_seqrand` harness at run time; the type is here so engines
/// and harnesses share it).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MediumRow {
    /// Medium label.
    pub medium: &'static str,
    /// Random-read bandwidth, MB/s.
    pub rand_read: f64,
    /// Sequential-read bandwidth, MB/s.
    pub seq_read: f64,
    /// Random-write bandwidth, MB/s.
    pub rand_write: f64,
    /// Sequential-write bandwidth, MB/s.
    pub seq_write: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_matches_fig11() {
        let ssd = DiskModel::ssd_raid0();
        // Sequential saturation ~667 / ~577 MB/s.
        assert!((ssd.sequential_bw(false) / 1e6 - 667.6).abs() < 1.0);
        assert!((ssd.sequential_bw(true) / 1e6 - 576.6).abs() < 1.0);
        // 4K random read ~22.5 MB/s.
        let rr = ssd.random_bw(false) / 1e6;
        assert!((rr - 22.5).abs() < 2.0, "ssd random read {rr}");

        let hdd = DiskModel::hdd_raid0();
        assert!((hdd.sequential_bw(false) / 1e6 - 328.0).abs() < 1.0);
        let rr = hdd.random_bw(false) / 1e6;
        assert!((rr - 0.6).abs() < 0.1, "hdd random read {rr}");
    }

    #[test]
    fn bandwidth_grows_with_request_size() {
        let m = DiskModel::hdd_raid0();
        let small = m.request_bandwidth(4 << 10, false);
        let mid = m.request_bandwidth(1 << 20, false);
        let big = m.request_bandwidth(16 << 20, false);
        assert!(small < mid && mid < big);
        // 16 MB requests approach saturation (paper: chosen I/O unit).
        assert!(big > 0.85 * m.sequential_bw(false));
    }

    #[test]
    fn raid_engages_past_stripe() {
        let m = DiskModel::ssd_raid0();
        assert_eq!(m.engaged(4 << 10), 1);
        assert_eq!(m.engaged(512 << 10), 1);
        assert_eq!(m.engaged(1 << 20), 2);
        assert_eq!(m.engaged(16 << 20), 2);
    }

    #[test]
    fn replay_charges_seeks_only_on_discontinuity() {
        let m = DiskModel::hdd_raid0();
        let seq_trace: Vec<IoEvent> = (0..10)
            .map(|i| IoEvent {
                at_ns: 0,
                device: 0,
                file: 1,
                offset: i * 1000,
                bytes: 1000,
                kind: IoKind::Read,
            })
            .collect();
        let rand_trace: Vec<IoEvent> = (0..10)
            .map(|i| IoEvent {
                at_ns: 0,
                device: 0,
                file: 1,
                offset: i * 7777,
                bytes: 1000,
                kind: IoKind::Read,
            })
            .collect();
        // Sequential pays one access latency (the first op), random pays
        // ten; transfers are identical.
        let t_seq = m.replay(&seq_trace);
        let t_rand = m.replay(&rand_trace);
        assert!(t_rand > t_seq * 8, "random {t_rand:?} vs seq {t_seq:?}");
    }

    #[test]
    fn devices_overlap_in_replay() {
        let m = DiskModel::ssd_raid0();
        let one_dev: Vec<IoEvent> = (0..4)
            .map(|i| IoEvent {
                at_ns: 0,
                device: 0,
                file: i,
                offset: 0,
                bytes: 16 << 20,
                kind: IoKind::Read,
            })
            .collect();
        let two_dev: Vec<IoEvent> = (0..4)
            .map(|i| IoEvent {
                at_ns: 0,
                device: (i % 2) as u8,
                file: i,
                offset: 0,
                bytes: 16 << 20,
                kind: IoKind::Read,
            })
            .collect();
        assert!(m.replay(&two_dev) < m.replay(&one_dev));
    }
}
