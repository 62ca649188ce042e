//! A window clamp wrapper: bounds any algorithm's window from above.
//!
//! Linux exposes this as `snd_cwnd_clamp`; the paper's Figure 6 shows the
//! AC/DC equivalent — bounding the enforced RWND — controls throughput
//! identically. Wrapping (rather than a field on each algorithm) keeps the
//! per-algorithm code faithful to its upstream source.

use crate::{AckEvent, CongestionControl};
use acdc_stats::time::Nanos;

/// Wraps an algorithm and clamps its reported window to `max_bytes`.
#[derive(Debug)]
pub struct Clamped<C> {
    inner: C,
    max_bytes: u64,
}

impl<C: CongestionControl> Clamped<C> {
    /// Clamp `inner`'s window to at most `max_bytes`.
    pub fn new(inner: C, max_bytes: u64) -> Clamped<C> {
        assert!(max_bytes > 0, "clamp must be positive");
        Clamped { inner, max_bytes }
    }
}

impl<C: CongestionControl> CongestionControl for Clamped<C> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn cwnd(&self) -> u64 {
        self.inner.cwnd().min(self.max_bytes)
    }

    fn ssthresh(&self) -> u64 {
        self.inner.ssthresh()
    }

    fn on_ack(&mut self, ack: &AckEvent) {
        self.inner.on_ack(ack);
    }

    fn on_fast_retransmit(&mut self, now: Nanos) {
        self.inner.on_fast_retransmit(now);
    }

    fn on_retransmit_timeout(&mut self, now: Nanos) {
        self.inner.on_retransmit_timeout(now);
    }

    fn wants_ecn(&self) -> bool {
        self.inner.wants_ecn()
    }

    fn alpha_micros(&self) -> Option<u64> {
        self.inner.alpha_micros()
    }

    /// Delegates to the wrapped algorithm; the clamp ceiling itself is a
    /// construction parameter and not part of the dynamic state.
    fn state_words(&self) -> Vec<u64> {
        self.inner.state_words()
    }

    fn load_state_words(&mut self, words: &[u64]) -> bool {
        self.inner.load_state_words(words)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CcConfig, NewReno};

    #[test]
    fn clamps_reported_window_only() {
        let cfg = CcConfig::host(1000);
        let mut c = Clamped::new(NewReno::new(cfg), 12_000);
        assert_eq!(c.cwnd(), 10_000); // below clamp: passthrough
        for i in 0..20 {
            c.on_ack(&AckEvent::simple(i, 1000));
        }
        assert_eq!(c.cwnd(), 12_000); // inner grew past clamp...
        c.on_fast_retransmit(0);
        assert_eq!(c.cwnd(), 12_000); // ...so far that its half is above it
    }

    #[test]
    fn loss_still_reaches_inner() {
        let cfg = CcConfig::host(1000);
        let mut c = Clamped::new(NewReno::new(cfg), 100_000);
        c.on_fast_retransmit(0);
        assert_eq!(c.cwnd(), 5_000);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_clamp_rejected() {
        let _ = Clamped::new(NewReno::new(CcConfig::host(1000)), 0);
    }
}
