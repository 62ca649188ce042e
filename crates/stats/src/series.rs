//! Timestamped series, used for window traces (Figures 9/10) and the
//! per-second throughput curves of the convergence test (Figure 14).

use crate::time::Nanos;

/// One sample of a time series.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Virtual timestamp.
    pub at: Nanos,
    /// Value at that instant.
    pub value: f64,
}

/// An append-only `(time, value)` series.
#[derive(Debug, Clone, Default)]
pub struct TimeSeries {
    samples: Vec<Sample>,
}

impl TimeSeries {
    /// New empty series.
    pub fn new() -> TimeSeries {
        TimeSeries::default()
    }

    /// Append a sample; timestamps should be nondecreasing.
    pub fn push(&mut self, at: Nanos, value: f64) {
        debug_assert!(
            self.samples.last().is_none_or(|s| s.at <= at),
            "time series must be appended in time order"
        );
        self.samples.push(Sample { at, value });
    }

    /// All samples.
    pub fn samples(&self) -> &[Sample] {
        &self.samples
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True if no samples.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Drop the oldest samples so at most `keep` remain. Long-haul
    /// consumers (the soak harness's hours of 10 ms maintenance ticks)
    /// use this to bound diagnostic history that would otherwise grow
    /// without limit.
    pub fn truncate_front(&mut self, keep: usize) {
        if self.samples.len() > keep {
            self.samples.drain(..self.samples.len() - keep);
        }
    }

    /// Samples within `[from, to)`.
    pub fn window(&self, from: Nanos, to: Nanos) -> impl Iterator<Item = &Sample> {
        self.samples
            .iter()
            .skip_while(move |s| s.at < from)
            .take_while(move |s| s.at < to)
    }

    /// Mean of all values.
    pub fn mean(&self) -> Option<f64> {
        if self.samples.is_empty() {
            None
        } else {
            Some(self.samples.iter().map(|s| s.value).sum::<f64>() / self.samples.len() as f64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_window() {
        let mut ts = TimeSeries::new();
        for i in 0..10u64 {
            ts.push(i * 100, i as f64);
        }
        let w: Vec<_> = ts.window(200, 500).map(|s| s.value).collect();
        assert_eq!(w, vec![2.0, 3.0, 4.0]);
    }

    #[test]
    fn truncate_front_keeps_newest() {
        let mut ts = TimeSeries::new();
        for i in 0..10u64 {
            ts.push(i, i as f64);
        }
        ts.truncate_front(3);
        let vals: Vec<f64> = ts.samples().iter().map(|s| s.value).collect();
        assert_eq!(vals, vec![7.0, 8.0, 9.0]);
        // A no-op when already within the bound.
        ts.truncate_front(5);
        assert_eq!(ts.len(), 3);
    }

    #[test]
    fn mean() {
        let mut ts = TimeSeries::new();
        ts.push(0, 1.0);
        ts.push(1, 3.0);
        assert_eq!(ts.mean(), Some(2.0));
        assert_eq!(TimeSeries::new().mean(), None);
    }
}
