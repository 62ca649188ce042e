//! TCP Illinois (Liu, Başar & Srikant 2008), following Linux's
//! `tcp_illinois.c`.
//!
//! A loss-based AIMD whose additive-increase coefficient `α(d)` *grows* as
//! queueing delay shrinks (up to 10 segments per RTT) and whose
//! multiplicative-decrease factor `β(d)` grows with delay (1/8 → 1/2).
//! This is one of the two "aggressive" stacks in Figure 1 that crowd out
//! CUBIC/Reno/Vegas on a shared bottleneck.

use crate::{AckEvent, CcConfig, CongestionControl};
use acdc_stats::time::Nanos;

/// Maximum additive increase (segments per RTT) at zero delay.
const ALPHA_MAX: f64 = 10.0;
/// Minimum additive increase at high delay.
const ALPHA_MIN: f64 = 0.3;
/// Minimum decrease factor.
const BETA_MIN: f64 = 0.125;
/// Maximum decrease factor.
const BETA_MAX: f64 = 0.5;
/// RTT samples needed before trusting the delay estimate.
const MIN_SAMPLES: u32 = 8;

/// TCP Illinois congestion control.
#[derive(Debug, Clone)]
pub struct Illinois {
    cfg: CcConfig,
    cwnd: u64,
    ssthresh: u64,
    base_rtt: Option<Nanos>,
    max_rtt: Option<Nanos>,
    /// Sum and count of RTT samples in the current window. The sum is a
    /// `u128` held as its `[lo, hi]` words (`Illinois::rtt_sum` reads it): a
    /// `u128` field would make every `AnyCc` 16-aligned, and the vSwitch
    /// flow entry that holds one 8 B larger.
    rtt_sum: [u64; 2],
    rtt_cnt: u32,
    /// Current alpha/beta, recomputed once per RTT.
    alpha: f64,
    beta: f64,
    epoch_end: Option<Nanos>,
    /// Bytes acked toward the next additive increase step.
    acked_accum: u64,
}

impl Illinois {
    /// Create with the given configuration.
    pub fn new(cfg: CcConfig) -> Illinois {
        Illinois {
            cfg,
            cwnd: cfg.initial_window_bytes(),
            ssthresh: u64::MAX,
            base_rtt: None,
            max_rtt: None,
            rtt_sum: [0, 0],
            rtt_cnt: 0,
            alpha: 1.0,
            beta: BETA_MAX,
            epoch_end: None,
            acked_accum: 0,
        }
    }

    /// Current additive-increase coefficient (segments/RTT).
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// The sum of this window's RTT samples.
    fn rtt_sum(&self) -> u128 {
        u128::from(self.rtt_sum[0]) | (u128::from(self.rtt_sum[1]) << 64)
    }

    fn update_params(&mut self) {
        let (Some(base), Some(max)) = (self.base_rtt, self.max_rtt) else {
            return;
        };
        if self.rtt_cnt == 0 {
            return;
        }
        let avg = (self.rtt_sum() / u128::from(self.rtt_cnt)) as f64;
        let da = avg - base as f64; // current avg queueing delay
        let dm = (max - base) as f64; // max observed queueing delay
        if dm <= 0.0 || self.rtt_cnt < MIN_SAMPLES {
            self.alpha = ALPHA_MAX;
            self.beta = BETA_MIN;
            return;
        }
        // alpha(da): alpha_max below d1 = dm/100, then hyperbolic decay
        // to alpha_min at dm (continuous at d1). Linux tcp_illinois.c.
        let d1 = dm / 100.0;
        self.alpha = if da <= d1 {
            ALPHA_MAX
        } else {
            let k1 = (dm - d1) * ALPHA_MIN * ALPHA_MAX / (ALPHA_MAX - ALPHA_MIN);
            let k2 = (dm - d1) * ALPHA_MIN / (ALPHA_MAX - ALPHA_MIN) - d1;
            (k1 / (k2 + da)).clamp(ALPHA_MIN, ALPHA_MAX)
        };
        // beta(da): beta_min below d2 = dm/10, beta_max above d3 = 0.8·dm,
        // linear in between.
        let d2 = dm / 10.0;
        let d3 = 0.8 * dm;
        self.beta = if da <= d2 {
            BETA_MIN
        } else if da >= d3 {
            BETA_MAX
        } else {
            (BETA_MIN * (d3 - da) + BETA_MAX * (da - d2)) / (d3 - d2)
        };
    }
}

impl CongestionControl for Illinois {
    fn name(&self) -> &'static str {
        "illinois"
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
            self.max_rtt = Some(self.max_rtt.map_or(rtt, |m| m.max(rtt)));
            let sum = self.rtt_sum() + u128::from(rtt);
            self.rtt_sum = [sum as u64, (sum >> 64) as u64];
            self.rtt_cnt += 1;
            let end = *self.epoch_end.get_or_insert(ack.now + rtt);
            if ack.now >= end {
                self.update_params();
                self.rtt_sum = [0, 0];
                self.rtt_cnt = 0;
                self.epoch_end = Some(ack.now + rtt);
            }
        }
        if ack.newly_acked == 0 {
            return;
        }
        let mss = u64::from(self.cfg.mss);
        if self.cwnd < self.ssthresh {
            self.cwnd += ack.newly_acked.min(2 * mss);
            return;
        }
        // Additive increase of `alpha` segments per RTT: each acked byte
        // contributes `alpha·mss/cwnd` bytes of growth. Accumulate acked
        // bytes and convert in integral steps of `T = cwnd/(alpha·mss)`
        // acked bytes per byte of growth.
        self.acked_accum += ack.newly_acked;
        let t = ((self.cwnd as f64) / (self.alpha * mss as f64)).max(1.0) as u64;
        if self.acked_accum >= t {
            self.cwnd += self.acked_accum / t;
            self.acked_accum %= t;
        }
    }

    fn on_fast_retransmit(&mut self, _now: Nanos) {
        let cut = (self.cwnd as f64 * (1.0 - self.beta)) as u64;
        self.cwnd = cut.max(self.cfg.min_window());
        self.ssthresh = self.cwnd;
    }

    fn on_retransmit_timeout(&mut self, _now: Nanos) {
        self.ssthresh = ((self.cwnd as f64 * (1.0 - self.beta)) as u64).max(self.cfg.min_window());
        self.cwnd = u64::from(self.cfg.mss);
        self.epoch_end = None;
    }

    /// Layout: `[cwnd, ssthresh, base_rtt?, max_rtt?, rtt_sum_lo,
    /// rtt_sum_hi, rtt_cnt, alpha, beta, epoch_end?, acked_accum]` with
    /// `rtt_sum` split into two little-endian words and the `f64`
    /// coefficients bit-cast.
    fn state_words(&self) -> Vec<u64> {
        let mut w = vec![self.cwnd, self.ssthresh];
        crate::push_opt(&mut w, self.base_rtt);
        crate::push_opt(&mut w, self.max_rtt);
        w.extend([
            self.rtt_sum[0],
            self.rtt_sum[1],
            u64::from(self.rtt_cnt),
            self.alpha.to_bits(),
            self.beta.to_bits(),
        ]);
        crate::push_opt(&mut w, self.epoch_end);
        w.push(self.acked_accum);
        w
    }

    fn load_state_words(&mut self, words: &[u64]) -> bool {
        let [cwnd, ssthresh, base_f, base_v, max_f, max_v, sum_lo, sum_hi, rtt_cnt, alpha, beta, end_f, end_v, acked] =
            *words
        else {
            return false;
        };
        let Ok(rtt_cnt) = u32::try_from(rtt_cnt) else {
            return false;
        };
        self.cwnd = cwnd;
        self.ssthresh = ssthresh;
        self.base_rtt = crate::read_opt(base_f, base_v);
        self.max_rtt = crate::read_opt(max_f, max_v);
        self.rtt_sum = [sum_lo, sum_hi];
        self.rtt_cnt = rtt_cnt;
        self.alpha = f64::from_bits(alpha);
        self.beta = f64::from_bits(beta);
        self.epoch_end = crate::read_opt(end_f, end_v);
        self.acked_accum = acked;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acdc_stats::time::MICROSECOND;

    fn cfg() -> CcConfig {
        CcConfig::host(1000)
    }

    fn ack(now: Nanos, rtt: Nanos) -> AckEvent {
        AckEvent {
            now,
            newly_acked: 1000,
            marked: 0,
            rtt: Some(rtt),
            in_flight: 0,
            ece: false,
        }
    }

    fn drive(i: &mut Illinois, start: Nanos, epochs: usize, rtt: Nanos) -> Nanos {
        let mut now = start;
        for _ in 0..epochs {
            for _ in 0..10 {
                i.on_ack(&ack(now, rtt));
                now += rtt / 10;
            }
            now += rtt;
            i.on_ack(&ack(now, rtt));
        }
        now
    }

    #[test]
    fn low_delay_gives_max_alpha() {
        let mut i = Illinois::new(cfg());
        i.ssthresh = 0;
        // Seed delay range: one high-RTT excursion then low RTTs.
        let now = drive(&mut i, 0, 2, 500 * MICROSECOND);
        drive(&mut i, now, 6, 100 * MICROSECOND);
        assert!(i.alpha() > 5.0, "alpha={}", i.alpha());
        assert!(i.beta <= 0.2, "beta={}", i.beta);
    }

    #[test]
    fn high_delay_gives_min_alpha_and_max_beta() {
        let mut i = Illinois::new(cfg());
        i.ssthresh = 0;
        let now = drive(&mut i, 0, 2, 100 * MICROSECOND);
        // Sit at the top of the observed delay range.
        drive(&mut i, now, 10, 500 * MICROSECOND);
        assert!(i.alpha() < 1.0, "alpha={}", i.alpha());
        assert!(i.beta > 0.4, "beta={}", i.beta);
    }

    #[test]
    fn grows_faster_than_reno_at_low_delay() {
        let mut ill = Illinois::new(cfg());
        ill.ssthresh = 0;
        let now = drive(&mut ill, 0, 2, 400 * MICROSECOND);
        let start_w = ill.cwnd();
        drive(&mut ill, now, 10, 100 * MICROSECOND);
        let ill_growth = ill.cwnd() - start_w;

        let mut reno = crate::NewReno::new(cfg());
        // Same number of CA ACK bytes through Reno.
        let rw;
        let start_r;
        {
            let mut now2 = 0;
            reno.on_fast_retransmit(0); // leave slow start
            start_r = reno.cwnd();
            for _ in 0..(10 * 11) {
                reno.on_ack(&AckEvent::simple(now2, 1000));
                now2 += 10 * MICROSECOND;
            }
            rw = reno.cwnd() - start_r;
        }
        assert!(
            ill_growth > rw,
            "illinois {ill_growth} should outgrow reno {rw}"
        );
    }

    #[test]
    fn loss_uses_current_beta() {
        let mut i = Illinois::new(cfg());
        i.cwnd = 100_000;
        i.beta = 0.5;
        i.on_fast_retransmit(0);
        assert_eq!(i.cwnd(), 50_000);

        let mut i = Illinois::new(cfg());
        i.cwnd = 100_000;
        i.beta = 0.125;
        i.on_fast_retransmit(0);
        assert_eq!(i.cwnd(), 87_500);
    }

    #[test]
    fn timeout_collapses() {
        let mut i = Illinois::new(cfg());
        i.on_retransmit_timeout(0);
        assert_eq!(i.cwnd(), 1000);
    }
}
