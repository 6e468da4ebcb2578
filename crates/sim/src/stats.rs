//! Lightweight statistics used by the network models and the benchmark
//! harness: running summaries.

use std::fmt;

/// Running summary of a stream of samples: count, min, max, mean, variance
/// (Welford's online algorithm).
#[derive(Clone, Debug, Default)]
pub struct Summary {
    n: u64,
    min: f64,
    max: f64,
    mean: f64,
    m2: f64,
}

impl Summary {
    /// Empty summary.
    pub fn new() -> Self {
        Summary {
            n: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            mean: 0.0,
            m2: 0.0,
        }
    }

    /// Record one sample.
    pub fn record(&mut self, x: f64) {
        self.n += 1;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Smallest sample, or `None` when empty.
    pub fn min(&self) -> Option<f64> {
        (self.n > 0).then_some(self.min)
    }

    /// Largest sample, or `None` when empty.
    pub fn max(&self) -> Option<f64> {
        (self.n > 0).then_some(self.max)
    }

    /// Arithmetic mean, or `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (self.n > 0).then_some(self.mean)
    }

    /// Sample standard deviation, or `None` with fewer than two samples.
    pub fn stddev(&self) -> Option<f64> {
        (self.n > 1).then(|| (self.m2 / (self.n - 1) as f64).sqrt())
    }

    /// Merge another summary into this one.
    pub fn merge(&mut self, other: &Summary) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.mean() {
            Some(m) => write!(
                f,
                "n={} mean={:.3} min={:.3} max={:.3} sd={:.3}",
                self.n,
                m,
                self.min,
                self.max,
                self.stddev().unwrap_or(0.0)
            ),
            None => write!(f, "n=0"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_basic_moments() {
        let mut s = Summary::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.record(x);
        }
        assert_eq!(s.count(), 8);
        assert_eq!(s.mean(), Some(5.0));
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(9.0));
        let sd = s.stddev().unwrap();
        assert!((sd - 2.138).abs() < 0.01, "sd={sd}");
    }

    #[test]
    fn summary_empty_is_none() {
        let s = Summary::new();
        assert_eq!(s.mean(), None);
        assert_eq!(s.min(), None);
        assert_eq!(s.stddev(), None);
    }

    #[test]
    fn summary_merge_matches_combined_stream() {
        let xs: Vec<f64> = (0..100).map(|i| (i * 7 % 13) as f64).collect();
        let mut all = Summary::new();
        for &x in &xs {
            all.record(x);
        }
        let mut a = Summary::new();
        let mut b = Summary::new();
        for (i, &x) in xs.iter().enumerate() {
            if i % 2 == 0 {
                a.record(x)
            } else {
                b.record(x)
            }
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert!((a.mean().unwrap() - all.mean().unwrap()).abs() < 1e-9);
        assert!((a.stddev().unwrap() - all.stddev().unwrap()).abs() < 1e-9);
    }
}
