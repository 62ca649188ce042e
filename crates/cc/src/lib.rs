//! # acdc-cc — pluggable TCP congestion-control algorithms
//!
//! Faithful ports of the congestion-control algorithms the paper exercises:
//! TCP New Reno, CUBIC, Vegas, Illinois, HighSpeed and DCTCP, plus the
//! paper's priority-weighted DCTCP variant (§3.4, Equation 1).
//!
//! Both layers of the paper's central claim — congestion control is
//! portable across layers — hold an algorithm the same way: a [`CcKind`]
//! instantiated by value as an [`AnyCc`], under a [`Clamped`] ceiling.
//!
//! * **host TCP endpoints** (`acdc-tcp`) run it as the guest's native
//!   stack, with no ceiling unless the run sets a `snd_cwnd_clamp`;
//! * **the vSwitch** (`acdc-vswitch`) runs one per flow entry and
//!   enforces the resulting window via the receive-window rewrite.
//!
//! The algorithms react to ACKs, losses, delay and DCTCP's marked bytes.
//! Classic RFC 3168 ECN is not theirs to handle: the guest stack reacts
//! to an ECN echo like a loss, once per RTT, through
//! [`CongestionControl::on_fast_retransmit`], and signals CWR itself.
//!
//! All windows are kept in **bytes** (like Linux's `snd_cwnd * mss`
//! products); the AC/DC enforcement path specifically exploits byte
//! granularity — its floor can go below the 2-packet minimum a host stack
//! imposes, which is exactly the incast advantage Figure 19 shows.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clamp;
pub mod cubic;
pub mod dctcp;
pub mod highspeed;
pub mod illinois;
pub mod kind;
pub mod reno;
pub mod vegas;

pub use clamp::Clamped;
pub use cubic::Cubic;
pub use dctcp::Dctcp;
pub use highspeed::HighSpeed;
pub use illinois::Illinois;
pub use kind::{AnyCc, CcKind};
pub use reno::NewReno;
pub use vegas::Vegas;

use acdc_stats::time::Nanos;

/// Initial congestion window in segments (RFC 6928's 10), for host
/// stacks and the vSwitch alike.
pub const INITIAL_WINDOW_PKTS: u32 = 10;

/// Static configuration every algorithm instance is built with.
#[derive(Debug, Clone, Copy)]
pub struct CcConfig {
    /// Maximum segment size in bytes (1448 or 8948 in the paper's testbed).
    pub mss: u32,
    /// Floor for the congestion window, in **bytes**. Host stacks use
    /// `2 * mss` (the Linux lower bound the paper calls out); the AC/DC
    /// vSwitch path may use a smaller byte-granular floor.
    pub min_window_bytes: u64,
}

impl CcConfig {
    /// Config for a host stack with the given MSS (floor = 2 segments).
    pub fn host(mss: u32) -> CcConfig {
        CcConfig {
            mss,
            min_window_bytes: 2 * u64::from(mss),
        }
    }

    /// Config for the AC/DC vSwitch enforcement path: same initial window,
    /// but a byte-granular floor far below 2 segments (one tenth of a
    /// segment, bounded below by 1 byte). See Figure 19's discussion.
    pub fn vswitch(mss: u32) -> CcConfig {
        CcConfig {
            mss,
            min_window_bytes: (u64::from(mss) / 10).max(1),
        }
    }

    /// Initial window in bytes.
    pub fn initial_window_bytes(&self) -> u64 {
        u64::from(INITIAL_WINDOW_PKTS) * u64::from(self.mss)
    }
}

/// Everything an algorithm may want to know about one arriving ACK.
#[derive(Debug, Clone, Copy)]
pub struct AckEvent {
    /// Virtual time of the ACK's arrival.
    pub now: Nanos,
    /// Bytes newly acknowledged by this ACK (0 for a duplicate ACK).
    pub newly_acked: u64,
    /// Of `newly_acked`, bytes the receiver reported as CE-marked. Host
    /// stacks derive this from ECE echoes; the vSwitch from PACK options.
    pub marked: u64,
    /// An RTT sample attributable to this ACK, if one could be taken.
    pub rtt: Option<Nanos>,
    /// Bytes still in flight *after* processing this ACK.
    pub in_flight: u64,
    /// ECN echo flag as seen on the wire: DCTCP counts it as a
    /// congestion signal; the guest stack reacts to classic ECN itself.
    pub ece: bool,
}

impl AckEvent {
    /// A minimal ACK event for tests and simple callers.
    pub fn simple(now: Nanos, newly_acked: u64) -> AckEvent {
        AckEvent {
            now,
            newly_acked,
            marked: 0,
            rtt: None,
            in_flight: 0,
            ece: false,
        }
    }
}

/// A pluggable congestion-control algorithm.
///
/// Implementations keep all state internal and expose the current
/// congestion window in bytes. Callers translate windows into permission to
/// send (host stack) or into an enforced receive window (vSwitch).
pub trait CongestionControl: core::fmt::Debug {
    /// Short algorithm name, e.g. `"cubic"`.
    fn name(&self) -> &'static str;

    /// Current congestion window in bytes.
    fn cwnd(&self) -> u64;

    /// Current slow-start threshold in bytes.
    fn ssthresh(&self) -> u64;

    /// Process an ACK that acknowledged new data (or carried new ECN
    /// feedback). Duplicate-ACK-triggered loss goes through
    /// [`CongestionControl::on_retransmit_timeout`] /
    /// [`CongestionControl::on_fast_retransmit`] instead.
    fn on_ack(&mut self, ack: &AckEvent);

    /// A loss was detected via three duplicate ACKs (fast retransmit).
    fn on_fast_retransmit(&mut self, now: Nanos);

    /// The retransmission timer fired.
    fn on_retransmit_timeout(&mut self, now: Nanos);

    /// Does this algorithm take marked-byte ECN feedback (DCTCP)? A guest
    /// running any other algorithm reacts to classic ECN itself, when the
    /// connection negotiated it.
    fn wants_ecn(&self) -> bool {
        false
    }

    /// Is the algorithm currently in slow start?
    fn in_slow_start(&self) -> bool {
        self.cwnd() < self.ssthresh()
    }

    /// DCTCP-style marked-byte-fraction estimate quantized to units of
    /// 1e-6, if the algorithm maintains one. Integer units keep the value
    /// `Eq`-comparable for telemetry (`alpha-update` events) without
    /// floating-point equality.
    fn alpha_micros(&self) -> Option<u64> {
        None
    }

    /// Serialize the algorithm's *dynamic* state as a flat word list for
    /// checkpointing. Construction-time configuration ([`CcConfig`],
    /// priority weights, clamp ceilings) is deliberately excluded: a
    /// restore rebuilds the object through the same construction path and
    /// then loads these words, so the encoding only has to carry what
    /// evolves at runtime. Encoding conventions (documented per
    /// algorithm, stable within one checkpoint schema version): `u64`
    /// verbatim, `f64` via [`f64::to_bits`], `bool` as 0/1, `Option<T>`
    /// as a presence flag word followed by the value word(s), `u128` as
    /// two little-endian words. The default is stateless (empty).
    fn state_words(&self) -> Vec<u64> {
        Vec::new()
    }

    /// Restore state previously captured by
    /// [`CongestionControl::state_words`] on an identically configured
    /// instance. Returns `false` — leaving the receiver unchanged — when
    /// the word list does not match this algorithm's expected layout.
    /// The stateless default accepts only an empty list.
    fn load_state_words(&mut self, words: &[u64]) -> bool {
        words.is_empty()
    }
}

/// Append an `Option<u64>` to a state-word list: a presence flag word,
/// then the value word (0 when absent).
pub(crate) fn push_opt(words: &mut Vec<u64>, v: Option<u64>) {
    words.push(u64::from(v.is_some()));
    words.push(v.unwrap_or(0));
}

/// Decode the `[flag, value]` pair written by [`push_opt`].
pub(crate) fn read_opt(flag: u64, value: u64) -> Option<u64> {
    (flag != 0).then_some(value)
}

/// Shared helper: Reno-style additive increase used by several algorithms
/// ("tcp_cong_avoid" in the paper's Figure 5). Returns the new cwnd after
/// acking `acked` bytes with segment size `mss`.
pub(crate) fn reno_cong_avoid(cwnd: u64, ssthresh: u64, acked: u64, mss: u32) -> u64 {
    let mss = u64::from(mss);
    if cwnd < ssthresh {
        // Slow start: grow by the acknowledged bytes (ABC, L=1).
        cwnd + acked.min(mss * 2)
    } else {
        // Congestion avoidance: cwnd += mss*mss/cwnd per ACK (byte form of
        // "one segment per RTT"), at least 1 byte to keep making progress.
        cwnd + ((mss * mss) / cwnd.max(1)).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_config_floor_is_two_segments() {
        let c = CcConfig::host(1448);
        assert_eq!(c.min_window_bytes, 2896);
        assert_eq!(c.initial_window_bytes(), 14480);
    }

    #[test]
    fn vswitch_config_floor_is_sub_segment() {
        let c = CcConfig::vswitch(8948);
        assert!(c.min_window_bytes < u64::from(c.mss));
        assert!(c.min_window_bytes >= 1);
    }

    #[test]
    fn reno_cong_avoid_slow_start_doubles_per_rtt() {
        let mss = 1000u32;
        let mut cwnd = 10_000u64;
        // Acking a full window in slow start doubles it.
        let mut acked = 0;
        while acked < 10_000 {
            cwnd = reno_cong_avoid(cwnd, u64::MAX, 1000, mss);
            acked += 1000;
        }
        assert_eq!(cwnd, 20_000);
    }

    #[test]
    fn reno_cong_avoid_ca_grows_one_mss_per_window() {
        let mss = 1000u32;
        let start = 10_000u64;
        let mut cwnd = start;
        // Acking one full window in CA grows ~1 MSS.
        let acks = start / 1000;
        for _ in 0..acks {
            cwnd = reno_cong_avoid(cwnd, 1, 1000, mss);
        }
        assert!(cwnd >= start + 900 && cwnd <= start + 1100, "cwnd={cwnd}");
    }
}
