//! Flow-completion-time bookkeeping.
//!
//! FCT is "the right metric for congestion control" \[19\] and what
//! Figures 21–23 report. A [`FctRecorder`] collects `(kind, start, end,
//! bytes)` tuples; experiment code splits mice from background flows by
//! kind and feeds the distributions in `acdc-stats`.

use acdc_packet::FlowKey;
use acdc_stats::time::{Nanos, MILLISECOND};
use acdc_stats::Distribution;

/// Flow class, for splitting CDFs the way the paper's figures do.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FctKind {
    /// Small latency-sensitive message ("mice": 16 KB messages, or
    /// trace-driven flows < 10 KB).
    Mice,
    /// Bulk background transfer (512 MB in stride/shuffle).
    Background,
    /// Anything else.
    Other,
}

/// One completed flow.
#[derive(Debug, Clone, Copy)]
pub struct FctSample {
    /// Flow class.
    pub kind: FctKind,
    /// When the message was handed to the transport.
    pub start: Nanos,
    /// When the final byte was acknowledged.
    pub end: Nanos,
    /// Message size in bytes.
    pub bytes: u64,
    /// The wire 5-tuple the transfer ran on (the same [`FlowKey`] the
    /// vSwitch table and the host demux use), when the recorder knows it.
    pub flow: Option<FlowKey>,
}

impl FctSample {
    /// Completion time.
    pub fn fct(&self) -> Nanos {
        self.end.saturating_sub(self.start)
    }
}

/// Accumulates completed-flow samples.
#[derive(Debug, Clone, Default)]
pub struct FctRecorder {
    samples: Vec<FctSample>,
}

impl FctRecorder {
    /// New empty recorder.
    pub fn new() -> FctRecorder {
        FctRecorder::default()
    }

    /// Record a completion with no flow attribution.
    pub fn record(&mut self, kind: FctKind, start: Nanos, end: Nanos, bytes: u64) {
        self.samples.push(FctSample {
            kind,
            start,
            end,
            bytes,
            flow: None,
        });
    }

    /// Record a completion attributed to a wire flow, so samples can be
    /// joined against vSwitch [`flow_stats`](FlowKey) by key.
    pub fn record_flow(
        &mut self,
        kind: FctKind,
        start: Nanos,
        end: Nanos,
        bytes: u64,
        flow: Option<FlowKey>,
    ) {
        self.samples.push(FctSample {
            kind,
            start,
            end,
            bytes,
            flow,
        });
    }

    /// All samples.
    pub fn samples(&self) -> &[FctSample] {
        &self.samples
    }

    /// Merge another recorder's samples into this one.
    pub fn merge(&mut self, other: &FctRecorder) {
        self.samples.extend_from_slice(&other.samples);
    }

    /// Number of completions recorded.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// No samples?
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// FCT distribution (milliseconds) for one kind.
    pub fn distribution_ms(&self, kind: FctKind) -> Distribution {
        let mut d = Distribution::new();
        d.extend(
            self.samples
                .iter()
                .filter(|s| s.kind == kind)
                .map(|s| s.fct() as f64 / MILLISECOND as f64),
        );
        d
    }

    /// FCT distribution (milliseconds) for flows smaller than `cutoff`
    /// bytes (the trace-driven figures use "< 10 KB" as mice).
    pub fn distribution_ms_by_size(&self, max_bytes: u64) -> Distribution {
        let mut d = Distribution::new();
        d.extend(
            self.samples
                .iter()
                .filter(|s| s.bytes < max_bytes)
                .map(|s| s.fct() as f64 / MILLISECOND as f64),
        );
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_split_by_kind() {
        let mut r = FctRecorder::new();
        r.record(FctKind::Mice, 0, 2 * MILLISECOND, 16_384);
        r.record(FctKind::Mice, 0, 4 * MILLISECOND, 16_384);
        r.record(FctKind::Background, 0, 1_000 * MILLISECOND, 512 << 20);
        let mut mice = r.distribution_ms(FctKind::Mice);
        assert_eq!(mice.len(), 2);
        assert_eq!(mice.median(), Some(3.0));
        let bg = r.distribution_ms(FctKind::Background);
        assert_eq!(bg.len(), 1);
    }

    #[test]
    fn split_by_size() {
        let mut r = FctRecorder::new();
        r.record(FctKind::Other, 0, MILLISECOND, 5_000);
        r.record(FctKind::Other, 0, MILLISECOND, 50_000);
        assert_eq!(r.distribution_ms_by_size(10_000).len(), 1);
    }

    #[test]
    fn merge_combines() {
        let mut a = FctRecorder::new();
        a.record(FctKind::Mice, 0, 1, 1);
        let mut b = FctRecorder::new();
        b.record(FctKind::Mice, 0, 2, 1);
        a.merge(&b);
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn fct_saturates() {
        let s = FctSample {
            kind: FctKind::Other,
            start: 10,
            end: 5,
            bytes: 0,
            flow: None,
        };
        assert_eq!(s.fct(), 0);
    }
}
