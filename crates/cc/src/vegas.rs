//! TCP Vegas (Brakmo & Peterson 1994), following Linux's `tcp_vegas.c`.
//!
//! Vegas is *delay-based*: once per RTT it compares the expected rate
//! (`cwnd / baseRTT`) with the actual rate (`cwnd / RTT`) and keeps the
//! difference — the estimated queue occupancy in segments — between
//! `alpha` (2) and `beta` (4). It is the conservative outlier in Figure 1:
//! against loss-based stacks it backs off long before they do.

use crate::{AckEvent, CcConfig, CongestionControl};
use acdc_stats::time::Nanos;

/// Lower bound on estimated queued segments.
const ALPHA: f64 = 2.0;
/// Upper bound on estimated queued segments.
const BETA: f64 = 4.0;
/// Slow-start threshold on queued segments.
const GAMMA: f64 = 1.0;

/// TCP Vegas congestion control.
#[derive(Debug, Clone)]
pub struct Vegas {
    cfg: CcConfig,
    cwnd: u64,
    ssthresh: u64,
    /// Minimum RTT ever observed (the "baseRTT").
    base_rtt: Option<Nanos>,
    /// Minimum RTT observed within the current window (Vegas uses the min
    /// of samples in the last RTT to dodge delayed-ACK noise).
    min_rtt_window: Option<Nanos>,
    rtt_count: u32,
    /// End of the current once-per-RTT evaluation epoch.
    epoch_end: Option<Nanos>,
    /// Grow every *other* RTT while in slow start.
    ss_grow_this_epoch: bool,
}

impl Vegas {
    /// Create with the given configuration.
    pub fn new(cfg: CcConfig) -> Vegas {
        Vegas {
            cfg,
            cwnd: cfg.initial_window_bytes(),
            ssthresh: u64::MAX,
            base_rtt: None,
            min_rtt_window: None,
            rtt_count: 0,
            epoch_end: None,
            ss_grow_this_epoch: false,
        }
    }

    fn mss(&self) -> u64 {
        u64::from(self.cfg.mss)
    }

    fn evaluate(&mut self, now: Nanos) {
        let (Some(base), Some(rtt)) = (self.base_rtt, self.min_rtt_window) else {
            return;
        };
        // Need a couple of samples for a meaningful estimate.
        if self.rtt_count < 2 {
            self.next_epoch(now, rtt);
            return;
        }
        let cwnd_seg = self.cwnd as f64 / self.mss() as f64;
        // diff = cwnd · (rtt − base)/rtt, in segments: queue occupancy.
        let diff = cwnd_seg * (rtt.saturating_sub(base)) as f64 / rtt as f64;

        if self.cwnd < self.ssthresh {
            // Slow start: double every other RTT while the queue is small.
            if diff > GAMMA {
                self.ssthresh = self.cwnd;
            } else if self.ss_grow_this_epoch {
                self.cwnd += self.cwnd;
            }
            self.ss_grow_this_epoch = !self.ss_grow_this_epoch;
        } else if diff < ALPHA {
            self.cwnd += self.mss();
        } else if diff > BETA {
            self.cwnd = self.cwnd.saturating_sub(self.mss());
        }
        self.cwnd = self.cwnd.max(self.cfg.min_window());
        self.next_epoch(now, rtt);
    }

    fn next_epoch(&mut self, now: Nanos, rtt: Nanos) {
        self.epoch_end = Some(now + rtt);
        self.min_rtt_window = None;
        self.rtt_count = 0;
    }
}

impl CongestionControl for Vegas {
    fn name(&self) -> &'static str {
        "vegas"
    }

    fn cwnd(&self) -> u64 {
        self.cwnd
    }

    fn ssthresh(&self) -> u64 {
        self.ssthresh
    }

    fn on_ack(&mut self, ack: &AckEvent) {
        if let Some(rtt) = ack.rtt {
            self.base_rtt = Some(self.base_rtt.map_or(rtt, |b| b.min(rtt)));
            self.min_rtt_window = Some(self.min_rtt_window.map_or(rtt, |m| m.min(rtt)));
            self.rtt_count += 1;
        }
        let end = *self
            .epoch_end
            .get_or_insert_with(|| ack.now + ack.rtt.unwrap_or(acdc_stats::time::MILLISECOND));
        if ack.now >= end {
            self.evaluate(ack.now);
        }
    }

    fn on_fast_retransmit(&mut self, _now: Nanos) {
        // Vegas falls back to Reno behaviour on real loss.
        self.ssthresh = (self.cwnd / 2).max(self.cfg.min_window());
        self.cwnd = self.ssthresh;
    }

    fn on_retransmit_timeout(&mut self, _now: Nanos) {
        self.ssthresh = (self.cwnd / 2).max(self.cfg.min_window());
        self.cwnd = u64::from(self.cfg.mss);
        self.epoch_end = None;
    }

    /// Layout: `[cwnd, ssthresh, base_rtt?, min_rtt_window?, rtt_count,
    /// epoch_end?, ss_grow_this_epoch]`.
    fn state_words(&self) -> Vec<u64> {
        let mut w = vec![self.cwnd, self.ssthresh];
        crate::push_opt(&mut w, self.base_rtt);
        crate::push_opt(&mut w, self.min_rtt_window);
        w.push(u64::from(self.rtt_count));
        crate::push_opt(&mut w, self.epoch_end);
        w.push(u64::from(self.ss_grow_this_epoch));
        w
    }

    fn load_state_words(&mut self, words: &[u64]) -> bool {
        let [cwnd, ssthresh, base_f, base_v, min_f, min_v, rtt_count, end_f, end_v, grow] = *words
        else {
            return false;
        };
        let Ok(rtt_count) = u32::try_from(rtt_count) else {
            return false;
        };
        self.cwnd = cwnd;
        self.ssthresh = ssthresh;
        self.base_rtt = crate::read_opt(base_f, base_v);
        self.min_rtt_window = crate::read_opt(min_f, min_v);
        self.rtt_count = rtt_count;
        self.epoch_end = crate::read_opt(end_f, end_v);
        self.ss_grow_this_epoch = grow != 0;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acdc_stats::time::{MICROSECOND, MILLISECOND};

    fn cfg() -> CcConfig {
        CcConfig::host(1000)
    }

    fn ack_with_rtt(now: Nanos, rtt: Nanos) -> AckEvent {
        AckEvent {
            now,
            newly_acked: 1000,
            marked: 0,
            rtt: Some(rtt),
            in_flight: 0,
            ece: false,
        }
    }

    /// Feed `epochs` evaluation epochs of ACKs with constant RTT.
    fn drive(v: &mut Vegas, start: Nanos, epochs: usize, rtt: Nanos) -> Nanos {
        let mut now = start;
        for _ in 0..epochs {
            for _ in 0..8 {
                v.on_ack(&ack_with_rtt(now, rtt));
                now += rtt / 8;
            }
            // One more past the epoch boundary to trigger evaluation.
            now += rtt;
            v.on_ack(&ack_with_rtt(now, rtt));
        }
        now
    }

    #[test]
    fn grows_when_queue_is_empty() {
        let mut v = Vegas::new(cfg());
        v.ssthresh = 0; // skip slow start for a clean CA test
        let before = v.cwnd();
        // RTT equals baseRTT → diff = 0 < alpha → +1 MSS per RTT.
        drive(&mut v, 0, 10, 100 * MICROSECOND);
        assert!(v.cwnd() > before, "cwnd={} before={}", v.cwnd(), before);
    }

    #[test]
    fn shrinks_when_queue_builds() {
        let mut v = Vegas::new(cfg());
        v.ssthresh = 0;
        // Establish baseRTT = 100µs.
        let now = drive(&mut v, 0, 3, 100 * MICROSECOND);
        let before = v.cwnd();
        // Now the path's RTT doubles: queue estimated at cwnd/2 segments,
        // way over beta → shrink.
        drive(&mut v, now, 10, 200 * MICROSECOND);
        assert!(v.cwnd() < before, "cwnd={} before={}", v.cwnd(), before);
    }

    #[test]
    fn holds_inside_band() {
        let mut v = Vegas::new(cfg());
        v.ssthresh = 0;
        v.cwnd = 10_000; // 10 segments
                         // baseRTT 100µs; actual 130µs → diff = 10·0.3/1.3 ≈ 2.3 ∈ [2,4].
        let now = drive(&mut v, 0, 1, 100 * MICROSECOND);
        let target = v.cwnd();
        drive(&mut v, now, 8, 130 * MICROSECOND);
        assert_eq!(v.cwnd(), target);
    }

    #[test]
    fn slow_start_exits_on_queueing() {
        let mut v = Vegas::new(cfg());
        assert!(v.in_slow_start());
        // Large queueing delay immediately: Vegas should cap ssthresh.
        let now = drive(&mut v, 0, 2, 100 * MICROSECOND);
        drive(&mut v, now, 4, MILLISECOND);
        assert!(!v.in_slow_start());
    }

    #[test]
    fn loss_fallback_halves() {
        let mut v = Vegas::new(cfg());
        v.cwnd = 20_000;
        v.on_fast_retransmit(0);
        assert_eq!(v.cwnd(), 10_000);
    }

    #[test]
    fn does_not_want_ecn() {
        assert!(!Vegas::new(cfg()).wants_ecn());
    }
}
