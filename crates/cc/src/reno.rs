//! TCP New Reno (RFC 5681 / RFC 6582): the baseline loss-based algorithm,
//! and the additive-increase engine DCTCP borrows when no congestion is
//! signalled.

use crate::{reno_cong_avoid, AckEvent, CcConfig, CongestionControl};
use acdc_stats::time::Nanos;

/// TCP New Reno congestion control.
#[derive(Debug, Clone)]
pub struct NewReno {
    cfg: CcConfig,
    cwnd: u64,
    ssthresh: u64,
    /// Start of the current "reaction window": we cut at most once per RTT.
    last_cut: Option<Nanos>,
    srtt_hint: Nanos,
}

impl NewReno {
    /// Create with the given configuration.
    pub fn new(cfg: CcConfig) -> NewReno {
        NewReno {
            cfg,
            cwnd: cfg.initial_window_bytes(),
            ssthresh: u64::MAX,
            last_cut: None,
            srtt_hint: acdc_stats::time::MILLISECOND,
        }
    }

    fn halve(&mut self, now: Nanos) {
        self.ssthresh = (self.cwnd / 2).max(self.cfg.min_window());
        self.cwnd = self.ssthresh;
        self.last_cut = Some(now);
    }

    fn can_cut(&self, now: Nanos) -> bool {
        match self.last_cut {
            None => true,
            Some(t) => now.saturating_sub(t) >= self.srtt_hint,
        }
    }
}

impl CongestionControl for NewReno {
    fn name(&self) -> &'static str {
        "reno"
    }

    fn cwnd(&self) -> u64 {
        self.cwnd
    }

    fn ssthresh(&self) -> u64 {
        self.ssthresh
    }

    fn on_ack(&mut self, ack: &AckEvent) {
        if let Some(rtt) = ack.rtt {
            // Keep a rough RTT to pace once-per-RTT reactions.
            self.srtt_hint = (self.srtt_hint * 7 + rtt) / 8;
        }
        if ack.newly_acked == 0 {
            return;
        }
        self.cwnd = reno_cong_avoid(self.cwnd, self.ssthresh, ack.newly_acked, self.cfg.mss);
    }

    fn on_fast_retransmit(&mut self, now: Nanos) {
        if self.can_cut(now) {
            self.halve(now);
        }
    }

    fn on_retransmit_timeout(&mut self, _now: Nanos) {
        self.ssthresh = (self.cwnd / 2).max(self.cfg.min_window());
        // RFC 5681: collapse to one segment (the "loss window").
        self.cwnd = u64::from(self.cfg.mss);
        self.last_cut = None;
    }

    /// Layout: `[cwnd, ssthresh, last_cut?, srtt_hint]`.
    fn state_words(&self) -> Vec<u64> {
        let mut w = vec![self.cwnd, self.ssthresh];
        crate::push_opt(&mut w, self.last_cut);
        w.push(self.srtt_hint);
        w
    }

    fn load_state_words(&mut self, words: &[u64]) -> bool {
        let [cwnd, ssthresh, cut_f, cut_v, srtt_hint] = *words else {
            return false;
        };
        self.cwnd = cwnd;
        self.ssthresh = ssthresh;
        self.last_cut = crate::read_opt(cut_f, cut_v);
        self.srtt_hint = srtt_hint;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acdc_stats::time::MILLISECOND;

    fn cfg() -> CcConfig {
        CcConfig::host(1000)
    }

    #[test]
    fn starts_at_initial_window() {
        let r = NewReno::new(cfg());
        assert_eq!(r.cwnd(), 10_000);
        assert!(r.in_slow_start());
    }

    #[test]
    fn slow_start_growth() {
        let mut r = NewReno::new(cfg());
        for i in 0..10 {
            r.on_ack(&AckEvent::simple(i * 1000, 1000));
        }
        assert_eq!(r.cwnd(), 20_000);
    }

    #[test]
    fn fast_retransmit_halves() {
        let mut r = NewReno::new(cfg());
        r.on_fast_retransmit(MILLISECOND);
        assert_eq!(r.cwnd(), 5_000);
        assert_eq!(r.ssthresh(), 5_000);
        assert!(!r.in_slow_start());
    }

    #[test]
    fn at_most_one_cut_per_rtt() {
        let mut r = NewReno::new(cfg());
        r.on_fast_retransmit(10 * MILLISECOND);
        let after_first = r.cwnd();
        // A second loss indication within the same RTT must not cut again.
        r.on_fast_retransmit(10 * MILLISECOND + MILLISECOND / 10);
        assert_eq!(r.cwnd(), after_first);
        // But after an RTT it may.
        r.on_fast_retransmit(20 * MILLISECOND);
        assert!(r.cwnd() < after_first);
    }

    #[test]
    fn timeout_collapses_to_one_segment() {
        let mut r = NewReno::new(cfg());
        r.on_retransmit_timeout(0);
        assert_eq!(r.cwnd(), 1000);
    }

    #[test]
    fn floor_respected() {
        let mut r = NewReno::new(cfg());
        for i in 0..64 {
            r.on_fast_retransmit(i * 10 * MILLISECOND);
        }
        assert!(r.cwnd() >= cfg().min_window());
    }
}
