//! The pluggable vSwitch congestion-control seam (`VirtualCc`).
//!
//! AC/DC's core claim (§3.3) is that the vSwitch can enforce *any*
//! congestion control it computes — the enforcement plumbing (RWND
//! rewrite, policing, health ladder, PACK feedback) does not care how
//! the window was produced. This module is the seam that makes the
//! claim structural: the sender module hands every algorithm the same
//! deterministic per-ACK observation bundle ([`AckSignals`]) and reads
//! back one number ([`VirtualCc::cwnd`]). Everything the switch can
//! observe exactly — newly-acked bytes, the ECN-marked byte fraction
//! from PACK/FACK feedback, RTT samples, bytes in flight — arrives in
//! the bundle; an algorithm needing richer switch-side signals (e.g.
//! PowerTCP's bandwidth×queue gradient) extends the bundle rather than
//! reaching into the datapath.
//!
//! The first implementation, [`EcnFractionCc`], adapts the host-stack
//! [`CongestionControl`] algorithms (DCTCP by default) to the seam: the
//! marked-byte fraction of the feedback stream is exactly the signal
//! DCTCP's alpha estimator wants, so the adapter is a direct translation
//! with no behavioral change — the chaos-equivalence suites pin that.

use acdc_cc::{AckEvent, AnyCc, Clamped, CongestionControl};
use acdc_stats::time::Nanos;

use crate::entry::MAX_ENFORCED_WINDOW;

/// Everything the vSwitch can tell a virtual congestion-control
/// algorithm about one arriving ACK. All fields are derived
/// deterministically from connection tracking and PACK/FACK feedback —
/// same packet sequence, same signals, byte for byte.
#[derive(Debug, Clone, Copy)]
pub struct AckSignals {
    /// Virtual time of the ACK's arrival.
    pub now: Nanos,
    /// Bytes newly acknowledged by this ACK (0 for a duplicate ACK).
    pub newly_acked: u64,
    /// CE-marked bytes reported by the receiver-side feedback
    /// (PACK/FACK options) and consumed by this ACK.
    pub marked_bytes: u64,
    /// Total bytes covered by the same consumed feedback; with
    /// `marked_bytes` this is the exact ECN fraction the receiving
    /// vSwitch measured (§3.2).
    pub total_bytes: u64,
    /// An RTT sample attributable to this ACK (fresh probe completion,
    /// falling back to the entry's smoothed estimate).
    pub rtt: Option<Nanos>,
    /// Bytes still in flight *after* processing this ACK.
    pub in_flight: u64,
}

/// A congestion-control algorithm as the vSwitch sender module sees it:
/// fed per-ACK signal bundles, queried for one window.
///
/// Implementations keep all state internal. The datapath calls
/// [`VirtualCc::on_ack_signals`] only when an ACK made progress or
/// carried ECN feedback (`newly_acked > 0 || marked_bytes > 0`), and
/// routes loss inference through the two retransmit hooks, mirroring
/// the host-stack driving convention.
pub trait VirtualCc: Send + core::fmt::Debug {
    /// Short algorithm name for telemetry/flow dumps, e.g. `"dctcp"`.
    fn name(&self) -> &'static str;

    /// The window to enforce, in bytes.
    fn cwnd(&self) -> u64;

    /// Process one ACK's signal bundle.
    fn on_ack_signals(&mut self, sig: &AckSignals);

    /// Three duplicate ACKs were inferred (fast retransmit, §3.1).
    fn on_fast_retransmit(&mut self, now: Nanos);

    /// An inactivity timeout was inferred (stand-in for the guest RTO).
    fn on_retransmit_timeout(&mut self, now: Nanos);

    /// DCTCP-style marked-fraction estimate in 1e-6 units, if the
    /// algorithm maintains one (drives `alpha-update` telemetry).
    fn alpha_micros(&self) -> Option<u64> {
        None
    }

    /// Serialize the algorithm's dynamic state for checkpointing, in the
    /// flat word encoding of [`CongestionControl::state_words`]. The
    /// default is stateless.
    fn state_words(&self) -> Vec<u64> {
        Vec::new()
    }

    /// Restore state captured by [`VirtualCc::state_words`] from an
    /// identically configured instance; `false` (state unchanged) on a
    /// layout mismatch.
    fn load_state_words(&mut self, words: &[u64]) -> bool {
        words.is_empty()
    }
}

/// Adapts a host-stack [`CongestionControl`] algorithm to the
/// [`VirtualCc`] seam by presenting the feedback stream's ECN-marked
/// byte counts as the algorithm's ACK input — DCTCP-from-ECN-fraction,
/// the configuration the paper enforces by default. The reported window
/// is bounded by [`MAX_ENFORCED_WINDOW`], applied here.
#[derive(Debug)]
pub struct EcnFractionCc {
    /// The wrapped algorithm behind the window ceiling, held by value and
    /// inline, so a flow entry carries its algorithm in its own
    /// allocation. Private: the only write path is the trait's own event
    /// methods (component `vswitch.virtual-cc`).
    algo: Clamped<AnyCc>,
}

impl EcnFractionCc {
    /// Wrap `algo` for the vSwitch seam.
    pub fn new(algo: AnyCc) -> EcnFractionCc {
        EcnFractionCc {
            algo: Clamped::new(algo, MAX_ENFORCED_WINDOW),
        }
    }
}

impl VirtualCc for EcnFractionCc {
    fn name(&self) -> &'static str {
        self.algo.name()
    }

    fn cwnd(&self) -> u64 {
        self.algo.cwnd()
    }

    fn on_ack_signals(&mut self, sig: &AckSignals) {
        self.algo.on_ack(&AckEvent {
            now: sig.now,
            newly_acked: sig.newly_acked,
            marked: sig.marked_bytes,
            rtt: sig.rtt,
            in_flight: sig.in_flight,
            ece: sig.marked_bytes > 0,
        });
    }

    fn on_fast_retransmit(&mut self, now: Nanos) {
        self.algo.on_fast_retransmit(now);
    }

    fn on_retransmit_timeout(&mut self, now: Nanos) {
        self.algo.on_retransmit_timeout(now);
    }

    fn alpha_micros(&self) -> Option<u64> {
        self.algo.alpha_micros()
    }

    fn state_words(&self) -> Vec<u64> {
        self.algo.state_words()
    }

    fn load_state_words(&mut self, words: &[u64]) -> bool {
        self.algo.load_state_words(words)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acdc_cc::{CcConfig, CcKind};

    fn vcc(kind: CcKind) -> EcnFractionCc {
        EcnFractionCc::new(kind.instantiate(CcConfig::vswitch(1448)))
    }

    fn signals(now: Nanos, newly_acked: u64, marked: u64, total: u64) -> AckSignals {
        AckSignals {
            now,
            newly_acked,
            marked_bytes: marked,
            total_bytes: total,
            rtt: Some(100_000),
            in_flight: 0,
        }
    }

    #[test]
    fn adapter_forwards_identity_and_window() {
        let v = vcc(CcKind::Dctcp);
        assert_eq!(v.name(), "dctcp");
        assert_eq!(v.cwnd(), CcConfig::vswitch(1448).initial_window_bytes());
    }

    #[test]
    fn clean_acks_grow_exactly_like_the_wrapped_algorithm() {
        let mut v = vcc(CcKind::Dctcp);
        let mut reference = CcKind::Dctcp.build(CcConfig::vswitch(1448));
        for i in 0..32u64 {
            let now = i * 1_000_000;
            v.on_ack_signals(&signals(now, 1448, 0, 1448));
            reference.on_ack(&AckEvent {
                now,
                newly_acked: 1448,
                marked: 0,
                rtt: Some(100_000),
                in_flight: 0,
                ece: false,
            });
        }
        assert_eq!(v.cwnd(), reference.cwnd());
        assert_eq!(v.alpha_micros(), reference.alpha_micros());
    }

    #[test]
    fn marked_bytes_raise_alpha_and_cut_the_window() {
        let mut v = vcc(CcKind::Dctcp);
        // Grow first so a cut is observable.
        for i in 0..16u64 {
            v.on_ack_signals(&signals(i * 1_000_000, 14_480, 0, 14_480));
        }
        let grown = v.cwnd();
        for i in 16..64u64 {
            v.on_ack_signals(&signals(i * 1_000_000, 14_480, 14_480, 14_480));
        }
        assert!(v.cwnd() < grown, "fully-marked feedback must cut");
        assert!(v.alpha_micros().unwrap_or(0) > 0, "alpha must rise");
    }

    #[test]
    fn loss_events_reach_the_wrapped_algorithm() {
        let mut v = vcc(CcKind::Cubic);
        for i in 0..16u64 {
            v.on_ack_signals(&signals(i * 1_000_000, 14_480, 0, 14_480));
        }
        let before = v.cwnd();
        v.on_fast_retransmit(16_000_000);
        assert!(v.cwnd() < before, "fast retransmit must cut cubic");
        let after_frtx = v.cwnd();
        v.on_retransmit_timeout(17_000_000);
        assert!(v.cwnd() <= after_frtx, "timeout must not grow the window");
    }
}
