//! Metrics primitives for the observability layer: a log-bucketed
//! [`LogHistogram`] and a virtual-time [`TimeSeriesSampler`].
//!
//! Everything here is plain in-memory state: the engine owns one histogram
//! per span family and one sampler per observed cluster, and higher layers
//! decide when to snapshot or export them, so recording never perturbs
//! simulation state and a run with metrics enabled stays bit-identical to
//! one without.
//!
//! ```
//! use mrp_sim::{LogHistogram, SimDuration, SimTime, TimeSeriesSampler};
//!
//! let mut latency = LogHistogram::default();
//! latency.record(1_500);
//! assert_eq!(latency.count, 1);
//! assert_eq!(latency.percentile_bound(50.0), Some(2_047));
//!
//! let mut sampler = TimeSeriesSampler::new(
//!     SimDuration::from_secs(10),
//!     vec!["pending".to_string()],
//! );
//! assert!(sampler.due(SimTime::ZERO));
//! sampler.record(SimTime::ZERO, vec![7]);
//! assert!(!sampler.due(SimTime::from_secs(5)));
//! assert!(sampler.due(SimTime::from_secs(10)));
//! ```

use crate::{SimDuration, SimTime};

/// A histogram over `u64` samples with power-of-two ("log2") buckets.
///
/// Bucket `i` holds samples whose bit length is `i` (bucket 0 holds the
/// value 0, bucket 1 holds 1, bucket 2 holds 2..=3, bucket 3 holds 4..=7,
/// ...). Recording is two array ops; the trade-off is that percentiles are
/// reported as the upper bound of the bucket that crosses the rank, i.e.
/// within a factor of two of the true value — plenty for latency-shaped
/// distributions spanning many orders of magnitude.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LogHistogram {
    buckets: [u64; 65],
    /// Number of recorded samples.
    pub count: u64,
    /// Saturating sum of all recorded samples.
    pub sum: u64,
    /// Smallest recorded sample (`u64::MAX` when empty).
    pub(crate) min: u64,
    /// Largest recorded sample (0 when empty).
    pub(crate) max: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram {
            buckets: [0; 65],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl LogHistogram {
    fn bucket_of(value: u64) -> usize {
        (64 - value.leading_zeros()) as usize
    }

    /// Record one sample.
    pub fn record(&mut self, value: u64) {
        self.buckets[Self::bucket_of(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Upper bound of the bucket containing the `p`-th percentile
    /// (`0.0..=100.0`), or `None` when the histogram is empty.
    ///
    /// The true percentile lies within a factor of two below the returned
    /// bound (exact for buckets 0 and 1).
    pub fn percentile_bound(&self, p: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((p.clamp(0.0, 100.0) / 100.0) * self.count as f64).ceil() as u64;
        let rank = rank.max(1);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Some(match i {
                    0 => 0,
                    64 => u64::MAX,
                    _ => (1u64 << i) - 1,
                });
            }
        }
        Some(self.max)
    }
}

/// One sampled row of a [`TimeSeriesSampler`]: a virtual timestamp plus one
/// value per configured column.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SeriesRow {
    /// Virtual time at which the row was sampled.
    pub at: SimTime,
    /// One value per column, in column order.
    pub values: Vec<u64>,
}

/// Snapshots a fixed set of columns on a virtual-time cadence.
///
/// The sampler never schedules anything: the owner polls [`due`] from its
/// event loop and calls [`record`] with the current values when a sampling
/// deadline has passed. Deadlines advance on a fixed grid
/// (`0, interval, 2*interval, ...`); when the simulation jumps over several
/// grid points between events, one row is recorded at the current time and
/// the missed points are skipped rather than back-filled.
///
/// [`due`]: TimeSeriesSampler::due
/// [`record`]: TimeSeriesSampler::record
#[derive(Clone, Debug, PartialEq)]
pub struct TimeSeriesSampler {
    interval: SimDuration,
    next: SimTime,
    columns: Vec<String>,
    rows: Vec<SeriesRow>,
}

impl TimeSeriesSampler {
    /// A sampler with the given cadence and column names. `interval` must be
    /// non-zero.
    pub fn new(interval: SimDuration, columns: Vec<String>) -> Self {
        assert!(
            interval > SimDuration::ZERO,
            "sampler interval must be non-zero"
        );
        TimeSeriesSampler {
            interval,
            next: SimTime::ZERO,
            columns,
            rows: Vec::new(),
        }
    }

    /// Whether a sampling deadline has been reached at `now`.
    pub fn due(&self, now: SimTime) -> bool {
        now >= self.next
    }

    /// Record one row at `now` and advance the deadline past `now`.
    ///
    /// `values` must have one entry per column.
    pub fn record(&mut self, now: SimTime, values: Vec<u64>) {
        debug_assert_eq!(values.len(), self.columns.len());
        self.rows.push(SeriesRow { at: now, values });
        while self.next <= now {
            self.next += self.interval;
        }
    }

    /// Column names, in value order.
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    /// All recorded rows, oldest first.
    pub fn rows(&self) -> &[SeriesRow] {
        &self.rows
    }

    /// Sampling cadence.
    pub fn interval(&self) -> SimDuration {
        self.interval
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl LogHistogram {
        /// Non-empty buckets as `(lower_bound, upper_bound, count)` triples.
        fn nonzero_buckets(&self) -> Vec<(u64, u64, u64)> {
            let mut out = Vec::new();
            for (i, &n) in self.buckets.iter().enumerate() {
                if n == 0 {
                    continue;
                }
                let (lo, hi) = match i {
                    0 => (0, 0),
                    64 => (1u64 << 63, u64::MAX),
                    _ => (1u64 << (i - 1), (1u64 << i) - 1),
                };
                out.push((lo, hi, n));
            }
            out
        }
    }

    #[test]
    fn histogram_buckets_are_powers_of_two() {
        let mut h = LogHistogram::default();
        for v in [0u64, 1, 2, 3, 4, 7, 8, 1023, 1024] {
            h.record(v);
        }
        assert_eq!(h.count, 9);
        assert_eq!(h.min, 0);
        assert_eq!(h.max, 1024);
        let buckets = h.nonzero_buckets();
        // 0 | 1 | 2..=3 (x2) | 4..=7 (x2) | 8..=15 | 512..=1023 | 1024..=2047
        assert_eq!(
            buckets,
            vec![
                (0, 0, 1),
                (1, 1, 1),
                (2, 3, 2),
                (4, 7, 2),
                (8, 15, 1),
                (512, 1023, 1),
                (1024, 2047, 1),
            ]
        );
        // The p50 rank (5th of 9) falls in the 4..=7 bucket.
        assert_eq!(h.percentile_bound(50.0), Some(7));
        assert_eq!(h.percentile_bound(100.0), Some(2047));
        assert_eq!(h.percentile_bound(0.0), Some(0));
    }

    #[test]
    fn sampler_grid_skips_missed_points() {
        let mut s = TimeSeriesSampler::new(SimDuration::from_secs(10), vec!["x".into()]);
        assert!(s.due(SimTime::ZERO));
        s.record(SimTime::ZERO, vec![1]);
        assert!(!s.due(SimTime::from_secs(9)));
        // Jump over three grid points: one row, deadline lands after `now`.
        assert!(s.due(SimTime::from_secs(35)));
        s.record(SimTime::from_secs(35), vec![2]);
        assert!(!s.due(SimTime::from_secs(39)));
        assert!(s.due(SimTime::from_secs(40)));
        assert_eq!(s.rows().len(), 2);
    }
}
