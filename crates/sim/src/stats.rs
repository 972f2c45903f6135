//! Lightweight statistics: running moments over `f64` samples.

use std::fmt;

/// Running mean/min/max/variance over a stream of `f64` samples
/// (Welford's online algorithm; numerically stable).
///
/// # Examples
///
/// ```
/// use esp_sim::RunningStats;
///
/// let mut s = RunningStats::new();
/// for x in [1.0, 2.0, 3.0] {
///     s.record(x);
/// }
/// assert_eq!(s.count(), 3);
/// assert!((s.mean() - 2.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Default)]
pub struct RunningStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl RunningStats {
    /// Creates an empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one sample.
    pub fn record(&mut self, x: f64) {
        if self.count == 0 {
            self.min = x;
            self.max = x;
        } else {
            self.min = self.min.min(x);
            self.max = self.max.max(x);
        }
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Number of samples recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean, or 0.0 if empty.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Smallest sample, or 0.0 if empty.
    #[must_use]
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest sample, or 0.0 if empty.
    #[must_use]
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Population variance, or 0.0 with fewer than two samples.
    #[must_use]
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation.
    #[must_use]
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Merges another accumulator into this one (Chan's parallel formula).
    pub fn merge(&mut self, other: &RunningStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        self.m2 +=
            other.m2 + delta * delta * (self.count as f64 * other.count as f64) / total as f64;
        self.mean += delta * other.count as f64 / total as f64;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.count = total;
    }
}

impl fmt::Display for RunningStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.3} min={:.3} max={:.3} sd={:.3}",
            self.count,
            self.mean(),
            self.min(),
            self.max(),
            self.std_dev()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn running_stats_basic_moments() {
        let mut s = RunningStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.record(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.variance() - 4.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn empty_stats_are_zero() {
        let s = RunningStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.max(), 0.0);
        assert_eq!(s.variance(), 0.0);
    }

    #[test]
    fn merge_matches_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = RunningStats::new();
        for &x in &xs {
            whole.record(x);
        }
        let mut a = RunningStats::new();
        let mut b = RunningStats::new();
        for &x in &xs[..37] {
            a.record(x);
        }
        for &x in &xs[37..] {
            b.record(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert!((a.variance() - whole.variance()).abs() < 1e-9);
        assert_eq!(a.min(), whole.min());
        assert_eq!(a.max(), whole.max());
    }
}
