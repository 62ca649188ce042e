//! DCTCP (Alizadeh et al., SIGCOMM 2010), following the Linux
//! `tcp_dctcp.c` module and the paper's Figure 5 flow:
//!
//! * `alpha` is an EWMA (gain 1/16) of the fraction of bytes that carried a
//!   CE mark, updated roughly once per RTT;
//! * without congestion, the window grows like New Reno
//!   (`tcp_cong_avoid`);
//! * with congestion, the window is cut **at most once per RTT** by
//!   `cwnd ← cwnd · (1 − α/2)`;
//! * on loss, `alpha` saturates to its maximum and the cut is a full halve.
//!
//! This same struct implements the paper's **priority-weighted DCTCP**
//! (§3.4, Equation 1): `wnd ← wnd · (1 − (α − α·β/2))` with priority
//! `β ∈ [0, 1]`. `β = 1` is exactly DCTCP; lower `β` backs off more
//! aggressively, yielding proportionally less bandwidth.

use crate::{reno_cong_avoid, AckEvent, CcConfig, CongestionControl};
use acdc_stats::time::Nanos;

/// DCTCP's EWMA gain `g` (Linux default: 1/16).
pub const DEFAULT_GAIN: f64 = 1.0 / 16.0;

/// DCTCP congestion control (and its priority-weighted generalization).
#[derive(Debug, Clone)]
pub struct Dctcp {
    cfg: CcConfig,
    cwnd: u64,
    ssthresh: u64,
    /// EWMA of the marked fraction, in [0, 1].
    alpha: f64,
    gain: f64,
    /// Priority weight β ∈ [0, 1]; 1.0 = vanilla DCTCP.
    beta: f64,

    /// Observation window: bytes acked / marked since the last alpha update.
    acked_bytes: u64,
    marked_bytes: u64,
    /// End of the current observation window ~ one RTT out.
    window_end: Option<Nanos>,
    srtt: Nanos,
    /// Did we already cut within the current window?
    cut_in_window: bool,
}

impl Dctcp {
    /// Vanilla DCTCP with default gain.
    pub fn new(cfg: CcConfig) -> Dctcp {
        Dctcp::with_priority(cfg, 1.0)
    }

    /// Priority-weighted DCTCP (§3.4): `beta` in `[0, 1]`, 1.0 = vanilla.
    pub fn with_priority(cfg: CcConfig, beta: f64) -> Dctcp {
        assert!((0.0..=1.0).contains(&beta), "beta must be in [0,1]");
        Dctcp {
            cfg,
            cwnd: cfg.initial_window_bytes(),
            ssthresh: u64::MAX,
            alpha: 1.0, // Linux seeds alpha at max so early congestion bites
            gain: DEFAULT_GAIN,
            beta,
            acked_bytes: 0,
            marked_bytes: 0,
            window_end: None,
            srtt: acdc_stats::time::MILLISECOND,
            cut_in_window: false,
        }
    }

    /// Current `alpha` estimate.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// The multiplicative-decrease factor for the current `alpha`:
    /// `1 − (α − α·β/2)`; for β = 1 this is DCTCP's `1 − α/2`.
    fn cut_factor(&self) -> f64 {
        1.0 - (self.alpha - self.alpha * self.beta / 2.0)
    }

    fn maybe_update_alpha(&mut self, now: Nanos) {
        let end = *self.window_end.get_or_insert(now + self.srtt);
        if now < end {
            return;
        }
        if self.acked_bytes > 0 {
            let frac = self.marked_bytes as f64 / self.acked_bytes as f64;
            self.alpha = ((1.0 - self.gain) * self.alpha + self.gain * frac).clamp(0.0, 1.0);
            debug_assert!(
                (0.0..=1.0).contains(&self.alpha),
                "DCTCP alpha escaped [0,1]: {}",
                self.alpha
            );
        }
        self.acked_bytes = 0;
        self.marked_bytes = 0;
        self.window_end = Some(now + self.srtt);
        self.cut_in_window = false;
    }

    fn cut(&mut self) {
        let new = (self.cwnd as f64 * self.cut_factor()) as u64;
        self.cwnd = new.max(self.cfg.min_window());
        self.ssthresh = self.cwnd;
        self.cut_in_window = true;
        debug_assert!(
            self.cwnd >= self.cfg.min_window().min(u64::from(self.cfg.mss)),
            "cwnd {} fell below the floor (min_window={}, mss={})",
            self.cwnd,
            self.cfg.min_window(),
            self.cfg.mss
        );
    }
}

impl CongestionControl for Dctcp {
    fn name(&self) -> &'static str {
        "dctcp"
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
        self.acked_bytes += ack.newly_acked;
        self.marked_bytes += ack.marked.min(ack.newly_acked);
        self.maybe_update_alpha(ack.now);

        let congested = ack.marked > 0 || ack.ece;
        if congested {
            // Figure 5: cut at most once per RTT, scaled by alpha.
            if !self.cut_in_window {
                self.cut();
            }
            return;
        }
        if ack.newly_acked > 0 {
            self.cwnd = reno_cong_avoid(self.cwnd, self.ssthresh, ack.newly_acked, self.cfg.mss);
        }
    }

    fn on_fast_retransmit(&mut self, _now: Nanos) {
        // Loss: alpha saturates (paper's "α = max_alpha" branch) and the
        // cut is a full Reno halving regardless of β.
        self.alpha = 1.0;
        if !self.cut_in_window {
            self.ssthresh = (self.cwnd / 2).max(self.cfg.min_window());
            self.cwnd = self.ssthresh;
            self.cut_in_window = true;
        }
    }

    fn on_retransmit_timeout(&mut self, _now: Nanos) {
        self.alpha = 1.0;
        self.ssthresh = (self.cwnd / 2).max(self.cfg.min_window());
        self.cwnd = u64::from(self.cfg.mss);
        self.cut_in_window = false;
        self.window_end = None;
    }

    fn wants_ecn(&self) -> bool {
        true
    }

    fn alpha_micros(&self) -> Option<u64> {
        Some((self.alpha * 1e6) as u64)
    }

    /// Layout: `[cwnd, ssthresh, alpha, acked_bytes, marked_bytes,
    /// window_end?, srtt, cut_in_window]`. `gain` and `beta` are
    /// construction parameters and deliberately excluded — a restore
    /// rebuilds the object with the same priority weight first.
    fn state_words(&self) -> Vec<u64> {
        let mut w = vec![
            self.cwnd,
            self.ssthresh,
            self.alpha.to_bits(),
            self.acked_bytes,
            self.marked_bytes,
        ];
        crate::push_opt(&mut w, self.window_end);
        w.extend([self.srtt, u64::from(self.cut_in_window)]);
        w
    }

    fn load_state_words(&mut self, words: &[u64]) -> bool {
        let [cwnd, ssthresh, alpha, acked, marked, end_f, end_v, srtt, cut] = *words else {
            return false;
        };
        self.cwnd = cwnd;
        self.ssthresh = ssthresh;
        self.alpha = f64::from_bits(alpha);
        self.acked_bytes = acked;
        self.marked_bytes = marked;
        self.window_end = crate::read_opt(end_f, end_v);
        self.srtt = srtt;
        self.cut_in_window = cut != 0;
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

    fn ack(now: Nanos, bytes: u64, marked: u64) -> AckEvent {
        AckEvent {
            now,
            newly_acked: bytes,
            marked,
            rtt: Some(100_000),
            in_flight: 0,
            ece: false,
        }
    }

    /// Drive `n` RTT-windows of ACKs in which `frac` of the *packets* are
    /// CE-marked (whole segments, as a real marking switch produces).
    fn drive(d: &mut Dctcp, start: Nanos, windows: usize, frac: f64) -> Nanos {
        let mut now = start;
        let acks_per_window = 20usize;
        let marked_acks = (frac * acks_per_window as f64).round() as usize;
        for _ in 0..windows {
            for i in 0..acks_per_window {
                let marked = if i < marked_acks { 1000 } else { 0 };
                d.on_ack(&ack(now, 1000, marked));
                now += 10_000; // 20 acks per 200µs << srtt window
            }
            now += MILLISECOND; // push past the observation window
            d.on_ack(&ack(now, 0, 0)); // tick alpha update + reset cut gate
        }
        now
    }

    #[test]
    fn wants_ecn() {
        assert!(Dctcp::new(cfg()).wants_ecn());
    }

    #[test]
    fn alpha_converges_to_marked_fraction() {
        let mut d = Dctcp::new(cfg());
        drive(&mut d, 0, 200, 0.3);
        assert!(
            (d.alpha() - 0.3).abs() < 0.05,
            "alpha={} want ~0.3",
            d.alpha()
        );
    }

    #[test]
    fn alpha_decays_to_zero_without_marks() {
        let mut d = Dctcp::new(cfg());
        drive(&mut d, 0, 300, 0.0);
        assert!(d.alpha() < 0.01, "alpha={}", d.alpha());
    }

    #[test]
    fn gentle_cut_with_small_alpha() {
        let mut d = Dctcp::new(cfg());
        // Converge alpha low first.
        let now = drive(&mut d, 0, 300, 0.05);
        let before = d.cwnd();
        d.on_ack(&ack(now, 1000, 1000)); // congestion signal
        let after = d.cwnd();
        // Cut factor should be ~1 - alpha/2 ≈ 0.97, far from halving.
        assert!(after > before * 9 / 10, "before={before} after={after}");
        assert!(after < before);
    }

    #[test]
    fn cuts_at_most_once_per_window() {
        let mut d = Dctcp::new(cfg());
        let now = drive(&mut d, 0, 50, 0.2);
        let before = d.cwnd();
        d.on_ack(&ack(now, 1000, 1000));
        let after_first = d.cwnd();
        assert!(after_first < before);
        d.on_ack(&ack(now + 1000, 1000, 1000));
        assert_eq!(
            d.cwnd(),
            after_first,
            "second cut in same RTT must not apply"
        );
    }

    #[test]
    fn loss_halves_and_saturates_alpha() {
        let mut d = Dctcp::new(cfg());
        drive(&mut d, 0, 300, 0.0);
        assert!(d.alpha() < 0.01);
        let before = d.cwnd();
        d.on_fast_retransmit(0);
        assert!(
            (d.alpha() - 1.0).abs() < f64::EPSILON,
            "alpha={}",
            d.alpha()
        );
        assert_eq!(d.cwnd(), (before / 2).max(cfg().min_window()));
    }

    #[test]
    fn priority_beta_orders_cut_severity() {
        // Same alpha, different beta: lower beta cuts deeper.
        let mut cuts = Vec::new();
        for beta in [0.0, 0.25, 0.5, 0.75, 1.0] {
            let mut d = Dctcp::with_priority(cfg(), beta);
            let now = drive(&mut d, 0, 100, 0.4);
            let before = d.cwnd();
            d.on_ack(&ack(now, 1000, 1000));
            cuts.push((beta, d.cwnd() as f64 / before as f64));
        }
        for w in cuts.windows(2) {
            assert!(
                w[1].1 > w[0].1,
                "higher beta must retain more window: {cuts:?}"
            );
        }
    }

    #[test]
    fn beta_one_matches_dctcp_cut() {
        let mut d = Dctcp::new(cfg());
        d.alpha = 0.5;
        d.cwnd = 100_000;
        d.cut();
        // 1 - alpha/2 = 0.75
        assert_eq!(d.cwnd(), 75_000);
    }

    #[test]
    fn beta_zero_full_backoff() {
        let mut d = Dctcp::with_priority(cfg(), 0.0);
        d.alpha = 1.0;
        d.cwnd = 100_000;
        d.cut();
        // factor = 1 - alpha = 0 → floored at min window
        assert_eq!(d.cwnd(), cfg().min_window());
    }

    #[test]
    #[should_panic(expected = "beta")]
    fn rejects_out_of_range_beta() {
        let _ = Dctcp::with_priority(cfg(), 1.5);
    }
}
