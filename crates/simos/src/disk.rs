//! A simple disk performance model.
//!
//! Two aspects of the disk matter for the paper's evaluation:
//!
//! * sequential reads of HDFS blocks by map tasks (which dominate task
//!   duration together with the CPU parse rate), and
//! * swap traffic caused by paging out the memory of suspended tasks and
//!   paging it back in on resume — the entire overhead of the
//!   suspend/resume primitive comes from here.
//!
//! Linux clusters page-out operations into large sequential writes to amortise
//! seek costs (Section III-A of the paper), so swap writes run near sequential
//! bandwidth; page-ins on resume are also mostly sequential because the
//! process touches its whole working set while warming back up, but each
//! direction still runs at a fixed fraction of sequential bandwidth.

use mrp_sim::{SimDuration, MIB};
use serde::{Deserialize, Serialize};

// The paper's node has a single 7.2k RPM SATA disk of the kind used in
// 2013-era Hadoop nodes: ~120 MB/s streaming, a few ms of positioning time.

/// Sequential read bandwidth in bytes/second (HDFS block reads).
pub const SEQ_READ_BYTES_PER_SEC: f64 = 130.0 * MIB as f64;
/// Sequential write bandwidth in bytes/second (task output, spills).
pub const SEQ_WRITE_BYTES_PER_SEC: f64 = 120.0 * MIB as f64;
/// Fraction of sequential bandwidth achieved by clustered page-out writes.
const SWAP_OUT_EFFICIENCY: f64 = 0.9;
/// Fraction of sequential bandwidth achieved by page-in reads.
const SWAP_IN_EFFICIENCY: f64 = 0.75;
/// Fixed per-operation latency (seek + queueing), in seconds.
const ACCESS_LATENCY_SECS: f64 = 0.008;

/// Static description of a node-local disk. Bandwidths, swap efficiencies
/// and latency are the paper's spindle ([`SEQ_READ_BYTES_PER_SEC`],
/// [`SEQ_WRITE_BYTES_PER_SEC`] and private constants); only the
/// re-replication contention share is settable.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct DiskConfig {
    /// Fraction of the spindle's bandwidth that queued background traffic
    /// (DFS re-replication after a node failure) steals from swap I/O while
    /// a backlog is pending, in `[0, 1)`. `0.0` (the default) disables the
    /// contention model entirely: queued background bytes are dropped
    /// and swap timings are byte-identical to the legacy model.
    #[serde(default)]
    pub background_share: f64,
}

/// Cumulative I/O accounting for a disk.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct DiskStats {
    /// Bytes read sequentially (block reads).
    pub bytes_read: u64,
    /// Bytes written sequentially (task output).
    pub bytes_written: u64,
    /// Bytes written to the swap area.
    pub swap_bytes_out: u64,
    /// Bytes read back from the swap area.
    pub swap_bytes_in: u64,
    /// Background (re-replication) bytes ever queued against this spindle.
    #[serde(default)]
    pub(crate) background_bytes: u64,
}

fn transfer_time(bytes: u64, bytes_per_sec: f64) -> SimDuration {
    if bytes == 0 {
        return SimDuration::ZERO;
    }
    let secs = ACCESS_LATENCY_SECS + bytes as f64 / bytes_per_sec;
    SimDuration::from_secs_f64(secs)
}

/// A disk with a bandwidth/latency cost model and cumulative statistics.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Disk {
    config: DiskConfig,
    stats: DiskStats,
    /// Background (re-replication) bytes still contending for the spindle.
    #[serde(default)]
    background_pending: u64,
}

impl Disk {
    /// Creates a disk with the given configuration.
    pub(crate) fn new(config: DiskConfig) -> Self {
        assert!(config.background_share >= 0.0 && config.background_share < 1.0);
        Disk {
            config,
            stats: DiskStats::default(),
            background_pending: 0,
        }
    }

    /// Cumulative I/O statistics.
    pub(crate) fn stats(&self) -> &DiskStats {
        &self.stats
    }

    /// Time to sequentially read `bytes` (e.g. an HDFS block), and records it.
    pub(crate) fn read(&mut self, bytes: u64) -> SimDuration {
        self.stats.bytes_read += bytes;
        transfer_time(bytes, SEQ_READ_BYTES_PER_SEC)
    }

    /// Time to sequentially write `bytes` (e.g. task output), and records it.
    pub(crate) fn write(&mut self, bytes: u64) -> SimDuration {
        self.stats.bytes_written += bytes;
        transfer_time(bytes, SEQ_WRITE_BYTES_PER_SEC)
    }

    /// Slows `bw` down while a background backlog holds part of the spindle,
    /// then drains the backlog by what the background stream transferred
    /// during the foreground operation.
    fn contended(&mut self, bytes: u64, bw: f64) -> SimDuration {
        if self.background_pending == 0 || self.config.background_share <= 0.0 {
            return transfer_time(bytes, bw);
        }
        let share = self.config.background_share;
        let time = transfer_time(bytes, bw * (1.0 - share));
        let drained = (time.as_secs_f64() * SEQ_WRITE_BYTES_PER_SEC * share) as u64;
        self.background_pending = self.background_pending.saturating_sub(drained.max(1));
        time
    }

    /// Time to page out `bytes` of dirty anonymous memory to swap.
    pub(crate) fn swap_out(&mut self, bytes: u64) -> SimDuration {
        self.stats.swap_bytes_out += bytes;
        let bw = SEQ_WRITE_BYTES_PER_SEC * SWAP_OUT_EFFICIENCY;
        self.contended(bytes, bw)
    }

    /// Time to page `bytes` back in from swap.
    pub(crate) fn swap_in(&mut self, bytes: u64) -> SimDuration {
        self.stats.swap_bytes_in += bytes;
        let bw = SEQ_READ_BYTES_PER_SEC * SWAP_IN_EFFICIENCY;
        self.contended(bytes, bw)
    }

    /// Queues `bytes` of background traffic (DFS re-replication) against the
    /// spindle. No-op while [`DiskConfig::background_share`] is zero, so the
    /// default configuration never perturbs swap timings.
    pub(crate) fn queue_background(&mut self, bytes: u64) {
        if self.config.background_share > 0.0 {
            self.background_pending += bytes;
            self.stats.background_bytes += bytes;
        }
    }

    /// Background bytes still pending on the spindle.
    pub fn background_pending(&self) -> u64 {
        self.background_pending
    }
}

impl Default for Disk {
    fn default() -> Self {
        Disk::new(DiskConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrp_sim::GIB;

    #[test]
    fn zero_bytes_costs_nothing() {
        let mut d = Disk::default();
        assert_eq!(d.read(0), SimDuration::ZERO);
        assert_eq!(d.write(0), SimDuration::ZERO);
        assert_eq!(d.swap_out(0), SimDuration::ZERO);
        assert_eq!(d.swap_in(0), SimDuration::ZERO);
    }

    #[test]
    fn read_time_scales_with_bytes() {
        let mut d = Disk::default();
        let one = d.read(100 * MIB).as_secs_f64();
        let two = d.read(200 * MIB).as_secs_f64();
        assert!(two > one * 1.8 && two < one * 2.2);
    }

    #[test]
    fn swap_is_slower_than_sequential_io() {
        let mut d = Disk::default();
        let seq = d.write(GIB).as_secs_f64();
        let swap = d.swap_out(GIB).as_secs_f64();
        assert!(swap >= seq, "swap out should not beat sequential writes");
        let seq_r = d.read(GIB).as_secs_f64();
        let swap_r = d.swap_in(GIB).as_secs_f64();
        assert!(swap_r >= seq_r);
    }

    #[test]
    fn stats_accumulate() {
        let mut d = Disk::default();
        d.read(10);
        d.read(20);
        d.write(5);
        d.swap_out(100);
        d.swap_in(50);
        assert_eq!(d.stats().bytes_read, 30);
        assert_eq!(d.stats().bytes_written, 5);
        assert_eq!(d.stats().swap_bytes_out, 100);
        assert_eq!(d.stats().swap_bytes_in, 50);
    }

    #[test]
    fn gigabyte_swap_takes_seconds_not_minutes() {
        let mut d = Disk::default();
        let t = d.swap_out(GIB).as_secs_f64();
        assert!(t > 5.0 && t < 20.0, "1 GiB page-out took {t}s");
    }

    #[test]
    fn background_contention_slows_swap_then_drains() {
        let mut d = Disk::new(DiskConfig {
            background_share: 0.5,
        });
        let calm = d.swap_out(256 * MIB);
        d.queue_background(100 * MIB);
        assert!(d.background_pending() > 0);
        let contended = d.swap_out(256 * MIB);
        assert!(
            contended > calm,
            "swap writes should slow down while re-replication holds the spindle"
        );
        while d.background_pending() > 0 {
            d.swap_out(64 * MIB);
        }
        let after = d.swap_out(256 * MIB);
        assert_eq!(
            after, calm,
            "full bandwidth returns once the backlog drains"
        );
    }

    #[test]
    fn zero_share_makes_background_a_noop() {
        let mut d = Disk::default();
        d.queue_background(GIB);
        assert_eq!(d.background_pending(), 0);
        assert_eq!(d.stats().background_bytes, 0);
        assert_eq!(d.swap_out(GIB), Disk::default().swap_out(GIB));
    }
}
