//! Throughput measurement: bytes over virtual time in fixed-interval bins
//! (the per-second curves of Figure 14).

use crate::time::{Nanos, SECOND};
use crate::TimeSeries;

/// Counts bytes into bins of a fixed interval and reports each closed
/// bin as Gbps on a time series.
#[derive(Debug, Clone)]
pub struct ThroughputMeter {
    interval: Nanos,
    bin_start: Nanos,
    bin_bytes: u64,
    bins: TimeSeries,
}

impl ThroughputMeter {
    /// New meter whose first bin opens at `start`; bins are `interval` long.
    pub fn new(start: Nanos, interval: Nanos) -> ThroughputMeter {
        assert!(interval > 0);
        ThroughputMeter {
            interval,
            bin_start: start,
            bin_bytes: 0,
            bins: TimeSeries::new(),
        }
    }

    /// Record `bytes` delivered at time `now`.
    pub fn record(&mut self, now: Nanos, bytes: u64) {
        self.finish(now);
        self.bin_bytes += bytes;
    }

    /// The binned Gbps series.
    pub fn bins(&self) -> &TimeSeries {
        &self.bins
    }

    /// Close every bin that ended at or before `now` (call at experiment
    /// end to flush the last full bins).
    pub fn finish(&mut self, now: Nanos) {
        while now >= self.bin_start + self.interval {
            let gbps = (self.bin_bytes as f64 * 8.0) / (self.interval as f64 / SECOND as f64) / 1e9;
            self.bins.push(self.bin_start + self.interval, gbps);
            self.bin_start += self.interval;
            self.bin_bytes = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binning_splits_by_interval() {
        let mut m = ThroughputMeter::new(0, SECOND);
        // 125 MB in each of two seconds = 1 Gbps per bin.
        for i in 0..20u64 {
            m.record(i * SECOND / 10 + 1, 12_500_000);
        }
        m.finish(2 * SECOND);
        let bins = m.bins().samples();
        assert_eq!(bins.len(), 2);
        for b in bins {
            assert!((b.value - 1.0).abs() < 0.11, "bin {b:?}");
        }
    }

    #[test]
    fn idle_bins_are_recorded_as_zero() {
        let mut m = ThroughputMeter::new(0, SECOND);
        m.record(1, 1000);
        m.record(3 * SECOND + 1, 1000);
        m.finish(4 * SECOND);
        let bins = m.bins().samples();
        assert_eq!(bins.len(), 4);
        assert_eq!(bins[1].value, 0.0);
        assert_eq!(bins[2].value, 0.0);
    }
}
