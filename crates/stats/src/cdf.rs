//! Empirical distributions: percentile queries over a full sample set.
//!
//! Used for every RTT and flow-completion-time figure in the paper
//! (Figures 2, 8, 16, 19–23).

/// An accumulating sample set with percentile queries.
///
/// Samples are kept in full (the experiments here collect at most a few
/// million points); queries sort lazily and cache the sorted order.
#[derive(Debug, Clone, Default)]
pub struct Distribution {
    samples: Vec<f64>,
    sorted: bool,
}

impl Distribution {
    /// New empty distribution.
    pub fn new() -> Distribution {
        Distribution::default()
    }

    /// Add one sample.
    pub fn add(&mut self, v: f64) {
        self.samples.push(v);
        self.sorted = false;
    }

    /// Add many samples.
    pub fn extend(&mut self, vs: impl IntoIterator<Item = f64>) {
        self.samples.extend(vs);
        self.sorted = false;
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True if no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.samples
                .sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
            self.sorted = true;
        }
    }

    /// The `p`-th percentile (0 ≤ p ≤ 100) by nearest-rank interpolation.
    /// Returns `None` on an empty distribution.
    pub fn percentile(&mut self, p: f64) -> Option<f64> {
        if self.samples.is_empty() {
            return None;
        }
        self.ensure_sorted();
        let n = self.samples.len();
        if n == 1 {
            return Some(self.samples[0]);
        }
        let rank = (p / 100.0).clamp(0.0, 1.0) * (n - 1) as f64;
        let lo = rank.floor() as usize;
        let hi = rank.ceil() as usize;
        let frac = rank - lo as f64;
        Some(self.samples[lo] * (1.0 - frac) + self.samples[hi] * frac)
    }

    /// Median shortcut.
    pub fn median(&mut self) -> Option<f64> {
        self.percentile(50.0)
    }

    /// Arithmetic mean.
    pub fn mean(&self) -> Option<f64> {
        if self.samples.is_empty() {
            None
        } else {
            Some(self.samples.iter().sum::<f64>() / self.samples.len() as f64)
        }
    }

    /// Minimum sample.
    pub fn min(&mut self) -> Option<f64> {
        self.ensure_sorted();
        self.samples.first().copied()
    }

    /// Maximum sample.
    pub fn max(&mut self) -> Option<f64> {
        self.ensure_sorted();
        self.samples.last().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_of_known_set() {
        let mut d = Distribution::new();
        d.extend((1..=100).map(f64::from));
        assert_eq!(d.percentile(0.0), Some(1.0));
        assert_eq!(d.percentile(100.0), Some(100.0));
        let p50 = d.percentile(50.0).unwrap();
        assert!((p50 - 50.5).abs() < 1e-9);
        let p99 = d.percentile(99.0).unwrap();
        assert!((p99 - 99.01).abs() < 0.5);
    }

    #[test]
    fn empty_distribution_returns_none() {
        let mut d = Distribution::new();
        assert_eq!(d.percentile(50.0), None);
        assert_eq!(d.mean(), None);
        assert_eq!(d.min(), None);
    }

    #[test]
    fn single_sample() {
        let mut d = Distribution::new();
        d.add(42.0);
        assert_eq!(d.percentile(0.0), Some(42.0));
        assert_eq!(d.percentile(50.0), Some(42.0));
        assert_eq!(d.percentile(100.0), Some(42.0));
    }

    #[test]
    fn interleaved_add_and_query() {
        let mut d = Distribution::new();
        d.add(10.0);
        assert_eq!(d.median(), Some(10.0));
        d.add(20.0);
        assert_eq!(d.median(), Some(15.0));
        d.add(0.0);
        assert_eq!(d.median(), Some(10.0));
    }
}
