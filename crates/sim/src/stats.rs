//! Small statistics helpers used by the experiment harness.
//!
//! The paper reports averages over 20 runs and notes that min/max stay within
//! 5% of the mean; [`Summary`] captures exactly those quantities.

use serde::{Deserialize, Serialize};

/// Summary statistics over a set of observations.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    /// Number of observations.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Smallest observation.
    pub(crate) min: f64,
    /// Largest observation.
    pub(crate) max: f64,
    /// Sample standard deviation (zero when fewer than two observations).
    pub(crate) std_dev: f64,
}

impl Summary {
    /// Summarises a slice of observations.
    ///
    /// Returns `None` for an empty slice — an experiment with no runs has no
    /// meaningful summary and callers must handle that explicitly.
    pub fn of(values: &[f64]) -> Option<Summary> {
        if values.is_empty() {
            return None;
        }
        let count = values.len();
        let mean = values.iter().sum::<f64>() / count as f64;
        let min = values.iter().copied().fold(f64::INFINITY, f64::min);
        let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let std_dev = if count > 1 {
            let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (count - 1) as f64;
            var.sqrt()
        } else {
            0.0
        };
        Some(Summary {
            count,
            mean,
            min,
            max,
            std_dev,
        })
    }

    /// Half-width of the min–max band, relative to the mean (the paper's
    /// "within 5% of the average" check).
    pub fn relative_spread(&self) -> f64 {
        if self.mean == 0.0 {
            0.0
        } else {
            ((self.max - self.min) / 2.0) / self.mean.abs()
        }
    }
}

/// Computes the `p`-th percentile (0–100) of a data set using linear
/// interpolation between closest ranks. Returns `None` on empty input.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    assert!((0.0..=100.0).contains(&p), "percentile must be in [0, 100]");
    let mut sorted: Vec<f64> = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in percentile input"));
    if sorted.len() == 1 {
        return Some(sorted[0]);
    }
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * frac)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_empty_is_none() {
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn summary_basic() {
        let s = Summary::of(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]).unwrap();
        assert_eq!(s.count, 8);
        assert!((s.mean - 5.0).abs() < 1e-12);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 9.0);
        assert!((s.std_dev - 2.138).abs() < 0.01);
    }

    #[test]
    fn summary_single_value() {
        let s = Summary::of(&[3.5]).unwrap();
        assert_eq!(s.std_dev, 0.0);
        assert_eq!(s.min, 3.5);
        assert_eq!(s.max, 3.5);
    }

    #[test]
    fn relative_spread_matches_paper_check() {
        let s = Summary::of(&[95.0, 100.0, 105.0]).unwrap();
        assert!((s.relative_spread() - 0.05).abs() < 1e-9);
    }

    #[test]
    fn percentile_interpolates() {
        let data = [15.0, 20.0, 35.0, 40.0, 50.0];
        assert_eq!(percentile(&data, 0.0), Some(15.0));
        assert_eq!(percentile(&data, 100.0), Some(50.0));
        assert!((percentile(&data, 50.0).unwrap() - 35.0).abs() < 1e-9);
        assert!(percentile(&[], 50.0).is_none());
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
    }
}
