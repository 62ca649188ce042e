//! CUBIC (Ha, Rhee & Xu 2008) — Linux's default congestion control and the
//! paper's baseline. Port of the `tcp_cubic.c` algorithm: cubic window
//! growth anchored at the last loss point, a TCP-friendly lower envelope,
//! and fast convergence.
//!
//! We intentionally omit HyStart (the testbed kernels had it, but it only
//! affects the first slow start and adds noise to small-scale experiments);
//! this is documented in DESIGN.md.

use crate::{AckEvent, CcConfig, CongestionControl};
use acdc_stats::time::{Nanos, SECOND};

/// CUBIC's scaling constant `C` (window units of MSS, time in seconds).
const C: f64 = 0.4;
/// Multiplicative decrease factor (Linux uses 717/1024 ≈ 0.7).
const BETA: f64 = 717.0 / 1024.0;

/// CUBIC congestion control.
#[derive(Debug, Clone)]
pub struct Cubic {
    cfg: CcConfig,
    cwnd: u64,
    ssthresh: u64,

    /// Window size (bytes) just before the last reduction.
    w_max: f64,
    /// Epoch start: time of the last reduction; `None` until the first.
    epoch_start: Option<Nanos>,
    /// Window at the start of the epoch, bytes.
    w_epoch: f64,
    /// Time (seconds) for the cubic to return to `w_max`.
    k: f64,
    /// Estimate of what Reno would have as cwnd (TCP-friendly region).
    w_est: f64,
    /// Smoothed RTT used by the TCP-friendly estimator.
    srtt: Nanos,
    /// Bytes acked since last `w_est` update.
    acked_since_est: u64,
    last_cut: Option<Nanos>,
}

impl Cubic {
    /// Create with the given configuration.
    pub fn new(cfg: CcConfig) -> Cubic {
        Cubic {
            cfg,
            cwnd: cfg.initial_window_bytes(),
            ssthresh: u64::MAX,
            w_max: 0.0,
            epoch_start: None,
            w_epoch: 0.0,
            k: 0.0,
            w_est: 0.0,
            srtt: acdc_stats::time::MILLISECOND,
            acked_since_est: 0,
            last_cut: None,
        }
    }

    fn mss_f(&self) -> f64 {
        f64::from(self.cfg.mss)
    }

    /// The cubic function W(t) = C·(t−K)³ + W_max, in bytes.
    fn w_cubic(&self, t_secs: f64) -> f64 {
        let d = t_secs - self.k;
        C * d * d * d * self.mss_f() + self.w_max
    }

    fn begin_epoch(&mut self, now: Nanos) {
        self.epoch_start = Some(now);
        self.w_epoch = self.cwnd as f64;
        if self.w_epoch < self.w_max {
            // Time to grow back to w_max: K = cbrt((W_max − cwnd)/C) with
            // windows in MSS units.
            self.k = (((self.w_max - self.w_epoch) / self.mss_f()) / C).cbrt();
        } else {
            self.k = 0.0;
            self.w_max = self.w_epoch;
        }
        self.w_est = self.w_epoch;
        self.acked_since_est = 0;
    }

    fn reduction(&mut self, now: Nanos) {
        // Fast convergence: if we are reducing from below the previous
        // w_max, the flow is losing ground — release more.
        if (self.cwnd as f64) < self.w_max {
            self.w_max = self.cwnd as f64 * (1.0 + BETA) / 2.0;
        } else {
            self.w_max = self.cwnd as f64;
        }
        self.cwnd = (((self.cwnd as f64) * BETA) as u64).max(self.cfg.min_window());
        self.ssthresh = self.cwnd;
        self.epoch_start = None;
        self.last_cut = Some(now);
    }

    fn can_cut(&self, now: Nanos) -> bool {
        match self.last_cut {
            None => true,
            Some(t) => now.saturating_sub(t) >= self.srtt,
        }
    }
}

impl CongestionControl for Cubic {
    fn name(&self) -> &'static str {
        "cubic"
    }

    fn cwnd(&self) -> u64 {
        self.cwnd
    }

    fn ssthresh(&self) -> u64 {
        self.ssthresh
    }

    fn on_ack(&mut self, ack: &AckEvent) {
        if let Some(rtt) = ack.rtt {
            self.srtt = (self.srtt * 7 + rtt) / 8;
        }
        if ack.newly_acked == 0 {
            return;
        }
        if self.cwnd < self.ssthresh {
            // Slow start, byte-counting.
            self.cwnd += ack.newly_acked.min(2 * u64::from(self.cfg.mss));
            return;
        }
        if self.epoch_start.is_none() {
            self.begin_epoch(ack.now);
        }
        let t = (ack.now.saturating_sub(self.epoch_start.unwrap())) as f64 / SECOND as f64;
        let target = self.w_cubic(t + self.srtt as f64 / SECOND as f64);

        // TCP-friendly region: emulate Reno's growth rate.
        self.acked_since_est += ack.newly_acked;
        // w_est += 3*(1-beta)/(1+beta) * acked_bytes/cwnd * mss  (per RFC 8312)
        let reno_gain = 3.0 * (1.0 - BETA) / (1.0 + BETA);
        self.w_est += reno_gain * (ack.newly_acked as f64 / self.cwnd as f64) * self.mss_f();

        let target = target.max(self.w_est);
        if target > self.cwnd as f64 {
            // Approach the target over one RTT: cwnd += (target−cwnd)/cwnd
            // per acked segment, in byte form.
            let incr = ((target - self.cwnd as f64) / self.cwnd as f64)
                * (ack.newly_acked as f64).min(self.mss_f());
            self.cwnd += (incr.max(1.0)) as u64;
        } else {
            // Below target (concave plateau): probe very slowly, matching
            // Linux's 1/(100·cwnd) tick.
            self.cwnd += 1;
        }
    }

    fn on_fast_retransmit(&mut self, now: Nanos) {
        if self.can_cut(now) {
            self.reduction(now);
        }
    }

    fn on_retransmit_timeout(&mut self, _now: Nanos) {
        self.ssthresh = ((self.cwnd as f64 * BETA) as u64).max(self.cfg.min_window());
        self.w_max = self.cwnd as f64;
        self.cwnd = u64::from(self.cfg.mss);
        self.epoch_start = None;
        self.last_cut = None;
    }

    /// Layout: `[cwnd, ssthresh, w_max, epoch_start?,
    /// w_epoch, k, w_est, srtt, acked_since_est, last_cut?]` with the
    /// `f64` fields bit-cast.
    fn state_words(&self) -> Vec<u64> {
        let mut w = vec![self.cwnd, self.ssthresh, self.w_max.to_bits()];
        crate::push_opt(&mut w, self.epoch_start);
        w.extend([
            self.w_epoch.to_bits(),
            self.k.to_bits(),
            self.w_est.to_bits(),
            self.srtt,
            self.acked_since_est,
        ]);
        crate::push_opt(&mut w, self.last_cut);
        w
    }

    fn load_state_words(&mut self, words: &[u64]) -> bool {
        let [cwnd, ssthresh, w_max, ep_f, ep_v, w_epoch, k, w_est, srtt, acked, cut_f, cut_v] =
            *words
        else {
            return false;
        };
        self.cwnd = cwnd;
        self.ssthresh = ssthresh;
        self.w_max = f64::from_bits(w_max);
        self.epoch_start = crate::read_opt(ep_f, ep_v);
        self.w_epoch = f64::from_bits(w_epoch);
        self.k = f64::from_bits(k);
        self.w_est = f64::from_bits(w_est);
        self.srtt = srtt;
        self.acked_since_est = acked;
        self.last_cut = crate::read_opt(cut_f, cut_v);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acdc_stats::time::MILLISECOND;

    fn cfg() -> CcConfig {
        CcConfig::host(1448)
    }

    fn rtt_ack(now: Nanos, bytes: u64) -> AckEvent {
        AckEvent {
            rtt: Some(100 * MICRO),
            ..AckEvent::simple(now, bytes)
        }
    }

    const MICRO: Nanos = 1_000;

    #[test]
    fn slow_start_then_reduction() {
        let mut c = Cubic::new(cfg());
        let start = c.cwnd();
        for i in 0..20 {
            c.on_ack(&rtt_ack(i * 100 * MICRO, 1448));
        }
        assert!(c.cwnd() > start);
        let before = c.cwnd();
        c.on_fast_retransmit(SECOND);
        let after = c.cwnd();
        assert!((after as f64) < before as f64 * 0.75);
        assert!((after as f64) > before as f64 * 0.65);
    }

    #[test]
    fn cubic_growth_is_concave_then_convex() {
        let mut c = Cubic::new(cfg());
        // Leave slow start with a loss.
        c.on_fast_retransmit(0);
        let w_after_cut = c.cwnd();
        // Feed steady ACKs over ~8 virtual seconds so the trajectory
        // crosses the plateau at t = K (a few seconds out); track growth
        // increments per 800 ms slice.
        let mut deltas = Vec::new();
        let mut prev = c.cwnd();
        for i in 1..=8000u64 {
            c.on_ack(&rtt_ack(i * MILLISECOND, 1448));
            if i % 800 == 0 {
                deltas.push(c.cwnd() - prev);
                prev = c.cwnd();
            }
        }
        assert!(c.cwnd() > w_after_cut);
        // Approaching the plateau growth slows (concave): the first delta
        // exceeds the smallest one, which sits in the middle.
        let min_idx = deltas
            .iter()
            .enumerate()
            .min_by_key(|(_, d)| **d)
            .unwrap()
            .0;
        assert!(
            deltas.first().unwrap() > &deltas[min_idx] && min_idx > 0,
            "deltas={deltas:?}"
        );
        // Past the plateau growth re-accelerates (convex): the last delta
        // exceeds the minimum, which is not at the end.
        assert!(
            min_idx < deltas.len() - 1 && deltas.last().unwrap() > &deltas[min_idx],
            "deltas={deltas:?}"
        );
    }

    #[test]
    fn fast_convergence_lowers_w_max_on_consecutive_losses() {
        let mut c = Cubic::new(cfg());
        for i in 0..10 {
            c.on_ack(&rtt_ack(i * 100 * MICRO, 1448));
        }
        c.on_fast_retransmit(10 * MILLISECOND);
        let w1 = c.w_max;
        c.on_fast_retransmit(30 * MILLISECOND);
        let w2 = c.w_max;
        assert!(w2 < w1);
    }

    #[test]
    fn tcp_friendly_region_keeps_growing_at_small_windows() {
        // With a tiny window and long epochs, the Reno envelope dominates;
        // cwnd must still grow roughly additively.
        let mut c = Cubic::new(cfg());
        c.on_retransmit_timeout(0);
        c.ssthresh = 0; // force congestion avoidance
        let start = c.cwnd();
        for i in 0..2000u64 {
            c.on_ack(&rtt_ack(i * 50 * MICRO, 1448));
        }
        assert!(c.cwnd() > start + 10 * 1448);
    }

    #[test]
    fn timeout_resets_to_one_segment() {
        let mut c = Cubic::new(cfg());
        c.on_retransmit_timeout(SECOND);
        assert_eq!(c.cwnd(), 1448);
    }
}
