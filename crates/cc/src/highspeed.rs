//! HighSpeed TCP (RFC 3649, Floyd), following Linux's `tcp_highspeed.c`.
//!
//! A loss-based algorithm whose additive-increase amount `a(w)` and
//! multiplicative-decrease factor `b(w)` depend on the current window: at
//! large windows it grows much faster and cuts much less than Reno. The
//! coefficients come from the RFC's lookup table, reproduced here exactly
//! as in the Linux source (window thresholds in segments).

use crate::{AckEvent, CcConfig, CongestionControl};
use acdc_stats::time::Nanos;

/// One row of the RFC 3649 response table: up to `cwnd` segments, add
/// `ai` segments per RTT, and on loss multiply by `1 − md` where the
/// `md` column stores `b(w)` in 1/128 units (as in Linux).
#[derive(Debug, Clone, Copy)]
struct Row {
    cwnd: u32,
    ai: u32,
    md_128: u32,
}

/// The Linux `hstcp_aimd_vals` table (73 entries, window in segments,
/// `md` in units of 1/128).
#[rustfmt::skip]
static AIMD_TABLE: [Row; 73] = [
    Row { cwnd: 38, ai: 1, md_128: 64 },      Row { cwnd: 118, ai: 2, md_128: 56 },
    Row { cwnd: 221, ai: 3, md_128: 51 },     Row { cwnd: 347, ai: 4, md_128: 48 },
    Row { cwnd: 495, ai: 5, md_128: 45 },     Row { cwnd: 663, ai: 6, md_128: 43 },
    Row { cwnd: 851, ai: 7, md_128: 42 },     Row { cwnd: 1058, ai: 8, md_128: 40 },
    Row { cwnd: 1284, ai: 9, md_128: 39 },    Row { cwnd: 1529, ai: 10, md_128: 38 },
    Row { cwnd: 1793, ai: 11, md_128: 37 },   Row { cwnd: 2076, ai: 12, md_128: 36 },
    Row { cwnd: 2378, ai: 13, md_128: 35 },   Row { cwnd: 2699, ai: 14, md_128: 34 },
    Row { cwnd: 3039, ai: 15, md_128: 34 },   Row { cwnd: 3399, ai: 16, md_128: 33 },
    Row { cwnd: 3778, ai: 17, md_128: 32 },   Row { cwnd: 4177, ai: 18, md_128: 32 },
    Row { cwnd: 4596, ai: 19, md_128: 31 },   Row { cwnd: 5036, ai: 20, md_128: 30 },
    Row { cwnd: 5497, ai: 21, md_128: 30 },   Row { cwnd: 5979, ai: 22, md_128: 29 },
    Row { cwnd: 6483, ai: 23, md_128: 29 },   Row { cwnd: 7009, ai: 24, md_128: 28 },
    Row { cwnd: 7558, ai: 25, md_128: 28 },   Row { cwnd: 8130, ai: 26, md_128: 28 },
    Row { cwnd: 8726, ai: 27, md_128: 27 },   Row { cwnd: 9346, ai: 28, md_128: 27 },
    Row { cwnd: 9991, ai: 29, md_128: 26 },   Row { cwnd: 10661, ai: 30, md_128: 26 },
    Row { cwnd: 11358, ai: 31, md_128: 26 },  Row { cwnd: 12082, ai: 32, md_128: 25 },
    Row { cwnd: 12834, ai: 33, md_128: 25 },  Row { cwnd: 13614, ai: 34, md_128: 25 },
    Row { cwnd: 14424, ai: 35, md_128: 24 },  Row { cwnd: 15265, ai: 36, md_128: 24 },
    Row { cwnd: 16137, ai: 37, md_128: 24 },  Row { cwnd: 17042, ai: 38, md_128: 23 },
    Row { cwnd: 17981, ai: 39, md_128: 23 },  Row { cwnd: 18955, ai: 40, md_128: 23 },
    Row { cwnd: 19965, ai: 41, md_128: 22 },  Row { cwnd: 21013, ai: 42, md_128: 22 },
    Row { cwnd: 22101, ai: 43, md_128: 22 },  Row { cwnd: 23230, ai: 44, md_128: 21 },
    Row { cwnd: 24402, ai: 45, md_128: 21 },  Row { cwnd: 25618, ai: 46, md_128: 21 },
    Row { cwnd: 26881, ai: 47, md_128: 21 },  Row { cwnd: 28193, ai: 48, md_128: 20 },
    Row { cwnd: 29557, ai: 49, md_128: 20 },  Row { cwnd: 30975, ai: 50, md_128: 20 },
    Row { cwnd: 32450, ai: 51, md_128: 19 },  Row { cwnd: 33986, ai: 52, md_128: 19 },
    Row { cwnd: 35586, ai: 53, md_128: 19 },  Row { cwnd: 37253, ai: 54, md_128: 19 },
    Row { cwnd: 38992, ai: 55, md_128: 18 },  Row { cwnd: 40808, ai: 56, md_128: 18 },
    Row { cwnd: 42707, ai: 57, md_128: 18 },  Row { cwnd: 44694, ai: 58, md_128: 18 },
    Row { cwnd: 46776, ai: 59, md_128: 17 },  Row { cwnd: 48961, ai: 60, md_128: 17 },
    Row { cwnd: 51258, ai: 61, md_128: 17 },  Row { cwnd: 53677, ai: 62, md_128: 17 },
    Row { cwnd: 56230, ai: 63, md_128: 16 },  Row { cwnd: 58932, ai: 64, md_128: 16 },
    Row { cwnd: 61799, ai: 65, md_128: 16 },  Row { cwnd: 64851, ai: 66, md_128: 16 },
    Row { cwnd: 68113, ai: 67, md_128: 15 },  Row { cwnd: 71617, ai: 68, md_128: 15 },
    Row { cwnd: 75401, ai: 69, md_128: 15 },  Row { cwnd: 79517, ai: 70, md_128: 15 },
    Row { cwnd: 84035, ai: 71, md_128: 14 },  Row { cwnd: 89053, ai: 72, md_128: 14 },
    Row { cwnd: 94717, ai: 73, md_128: 14 },
];

/// HighSpeed TCP congestion control.
#[derive(Debug, Clone)]
pub struct HighSpeed {
    cfg: CcConfig,
    cwnd: u64,
    ssthresh: u64,
    /// Index into [`AIMD_TABLE`] for the current window.
    idx: usize,
    acked_accum: u64,
}

impl HighSpeed {
    /// Create with the given configuration.
    pub fn new(cfg: CcConfig) -> HighSpeed {
        HighSpeed {
            cfg,
            cwnd: cfg.initial_window_bytes(),
            ssthresh: u64::MAX,
            idx: 0,
            acked_accum: 0,
        }
    }

    fn cwnd_segments(&self) -> u32 {
        (self.cwnd / u64::from(self.cfg.mss)).max(1) as u32
    }

    /// Slide the table index to match the current window (Linux keeps it
    /// monotone with small steps; we do the same).
    fn update_idx(&mut self) {
        let w = self.cwnd_segments();
        while self.idx < AIMD_TABLE.len() - 1 && w > AIMD_TABLE[self.idx].cwnd {
            self.idx += 1;
        }
        while self.idx > 0 && w <= AIMD_TABLE[self.idx - 1].cwnd {
            self.idx -= 1;
        }
    }

    /// Current additive-increase coefficient a(w), in segments per RTT.
    pub fn ai(&self) -> u32 {
        AIMD_TABLE[self.idx].ai
    }

    /// Current decrease factor b(w) as a fraction.
    pub fn md(&self) -> f64 {
        AIMD_TABLE[self.idx].md_128 as f64 / 128.0
    }
}

impl CongestionControl for HighSpeed {
    fn name(&self) -> &'static str {
        "highspeed"
    }

    fn cwnd(&self) -> u64 {
        self.cwnd
    }

    fn ssthresh(&self) -> u64 {
        self.ssthresh
    }

    fn on_ack(&mut self, ack: &AckEvent) {
        if ack.newly_acked == 0 {
            return;
        }
        let mss = u64::from(self.cfg.mss);
        if self.cwnd < self.ssthresh {
            self.cwnd += ack.newly_acked.min(2 * mss);
            self.update_idx();
            return;
        }
        self.update_idx();
        // cwnd += a(w)·mss per window of acked bytes, spread across ACKs.
        self.acked_accum += ack.newly_acked;
        let t = (self.cwnd / (u64::from(self.ai()) * mss)).max(1);
        if self.acked_accum >= t {
            self.cwnd += self.acked_accum / t;
            self.acked_accum %= t;
        }
    }

    fn on_fast_retransmit(&mut self, _now: Nanos) {
        self.update_idx();
        let cut = (self.cwnd as f64 * (1.0 - self.md())) as u64;
        self.cwnd = cut.max(self.cfg.min_window_bytes);
        self.ssthresh = self.cwnd;
        self.update_idx();
    }

    fn on_retransmit_timeout(&mut self, _now: Nanos) {
        self.update_idx();
        self.ssthresh =
            ((self.cwnd as f64 * (1.0 - self.md())) as u64).max(self.cfg.min_window_bytes);
        self.cwnd = u64::from(self.cfg.mss);
        self.idx = 0;
    }

    /// Layout: `[cwnd, ssthresh, idx, acked_accum]`.
    fn state_words(&self) -> Vec<u64> {
        vec![self.cwnd, self.ssthresh, self.idx as u64, self.acked_accum]
    }

    fn load_state_words(&mut self, words: &[u64]) -> bool {
        let [cwnd, ssthresh, idx, acked] = *words else {
            return false;
        };
        if idx as usize >= AIMD_TABLE.len() {
            return false;
        }
        self.cwnd = cwnd;
        self.ssthresh = ssthresh;
        self.idx = idx as usize;
        self.acked_accum = acked;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> CcConfig {
        CcConfig::host(1000)
    }

    #[test]
    fn table_is_monotone() {
        for w in AIMD_TABLE.windows(2) {
            assert!(w[1].cwnd > w[0].cwnd);
            assert!(w[1].ai >= w[0].ai);
            assert!(w[1].md_128 <= w[0].md_128);
        }
    }

    #[test]
    fn small_windows_behave_like_reno() {
        let mut h = HighSpeed::new(cfg());
        h.ssthresh = 0;
        h.cwnd = 20_000; // 20 segments < 38 → Reno region
        h.update_idx();
        assert_eq!(h.ai(), 1);
        assert!((h.md() - 0.5).abs() < 1e-9);
        let before = h.cwnd();
        h.on_fast_retransmit(0);
        assert_eq!(h.cwnd(), before / 2);
    }

    #[test]
    fn large_windows_grow_fast_and_cut_little() {
        let mut h = HighSpeed::new(cfg());
        h.ssthresh = 0;
        h.cwnd = 10_000_000; // 10k segments
        h.update_idx();
        assert!(h.ai() >= 28, "ai={}", h.ai());
        assert!(h.md() < 0.25, "md={}", h.md());
        let before = h.cwnd();
        h.on_fast_retransmit(0);
        assert!(h.cwnd() > before * 3 / 4);
    }

    #[test]
    fn growth_scales_with_window() {
        // Acking one full window grows cwnd by ~ai segments.
        let mut h = HighSpeed::new(cfg());
        h.ssthresh = 0;
        h.cwnd = 2_000_000; // 2000 segments → ai = 12
        h.update_idx();
        let ai = h.ai() as u64;
        let start = h.cwnd();
        let mut acked = 0;
        while acked < start {
            h.on_ack(&AckEvent::simple(0, 1000));
            acked += 1000;
        }
        let grown = h.cwnd() - start;
        assert!(
            grown >= (ai - 2) * 1000 && grown <= (ai + 2) * 1000,
            "grew {grown} want ~{}",
            ai * 1000
        );
    }

    #[test]
    fn idx_moves_both_ways() {
        let mut h = HighSpeed::new(cfg());
        h.cwnd = 50_000_000;
        h.update_idx();
        let high = h.idx;
        h.cwnd = 10_000;
        h.update_idx();
        assert!(h.idx < high);
        assert_eq!(h.idx, 0);
    }
}
