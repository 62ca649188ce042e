//! Algorithm selection by name: the knob an administrator (or a per-flow
//! policy, §3.4) turns.

use acdc_stats::time::Nanos;

use crate::{
    AckEvent, CcConfig, CongestionControl, Cubic, Dctcp, HighSpeed, Illinois, NewReno, Vegas,
};

/// The congestion-control algorithms available in this workspace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CcKind {
    /// TCP New Reno.
    Reno,
    /// CUBIC (Linux default).
    Cubic,
    /// TCP Vegas (delay-based).
    Vegas,
    /// TCP Illinois (delay-adaptive AIMD).
    Illinois,
    /// HighSpeed TCP (RFC 3649).
    HighSpeed,
    /// DCTCP.
    Dctcp,
    /// Priority-weighted DCTCP with the given β ∈ [0, 1] (§3.4, Eq. 1).
    DctcpPriority(f64),
}

impl CcKind {
    /// All plain variants (as exercised by Table 1 / Figure 1).
    pub const ALL: [CcKind; 6] = [
        CcKind::Cubic,
        CcKind::Illinois,
        CcKind::Reno,
        CcKind::Vegas,
        CcKind::HighSpeed,
        CcKind::Dctcp,
    ];

    /// Instantiate the algorithm with `cfg`, by value.
    pub fn instantiate(&self, cfg: CcConfig) -> AnyCc {
        match *self {
            CcKind::Reno => AnyCc::Reno(NewReno::new(cfg)),
            CcKind::Cubic => AnyCc::Cubic(Cubic::new(cfg)),
            CcKind::Vegas => AnyCc::Vegas(Vegas::new(cfg)),
            CcKind::Illinois => AnyCc::Illinois(Illinois::new(cfg)),
            CcKind::HighSpeed => AnyCc::HighSpeed(HighSpeed::new(cfg)),
            CcKind::Dctcp => AnyCc::Dctcp(Dctcp::new(cfg)),
            CcKind::DctcpPriority(beta) => AnyCc::Dctcp(Dctcp::with_priority(cfg, beta)),
        }
    }

    /// [`CcKind::instantiate`] behind a trait object. Only the benchmark
    /// harness's `cc.*_on_ack_ns` rows call it; the workspace holds its
    /// algorithms by value.
    pub fn build(&self, cfg: CcConfig) -> Box<dyn CongestionControl> {
        Box::new(self.instantiate(cfg))
    }

    /// Short name matching `CongestionControl::name` (priority DCTCP maps
    /// to `"dctcp"`, as it is the same module in the paper).
    pub fn name(&self) -> &'static str {
        match self {
            CcKind::Reno => "reno",
            CcKind::Cubic => "cubic",
            CcKind::Vegas => "vegas",
            CcKind::Illinois => "illinois",
            CcKind::HighSpeed => "highspeed",
            CcKind::Dctcp | CcKind::DctcpPriority(_) => "dctcp",
        }
    }
}

impl core::fmt::Display for CcKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CcKind::DctcpPriority(beta) => write!(f, "dctcp(β={beta})"),
            other => write!(f, "{}", other.name()),
        }
    }
}

/// One of the shipped algorithms, held by value ([`CcKind::instantiate`]).
/// Dispatch is a `match`, so a holder — the vSwitch's flow entry — keeps
/// its algorithm inline: no allocation of its own and no virtual call.
#[derive(Debug)]
pub enum AnyCc {
    /// TCP New Reno.
    Reno(NewReno),
    /// CUBIC.
    Cubic(Cubic),
    /// TCP Vegas.
    Vegas(Vegas),
    /// TCP Illinois.
    Illinois(Illinois),
    /// HighSpeed TCP.
    HighSpeed(HighSpeed),
    /// DCTCP, priority-weighted or not.
    Dctcp(Dctcp),
}

// No algorithm holds a field aligned above 8 B. Illinois's `u128` RTT sum
// once made `AnyCc` 16-aligned, which padded it to 128 B, `Clamped<AnyCc>`
// to 144 B and the vSwitch flow entry to 336 B; as two `u64` words it
// leaves them 8-aligned.
const _: () = assert!(core::mem::align_of::<AnyCc>() == 8);

/// `match` on an [`AnyCc`], binding the algorithm to `$cc` in every arm.
macro_rules! each {
    ($any:expr, $cc:ident => $body:expr) => {
        match $any {
            AnyCc::Reno($cc) => $body,
            AnyCc::Cubic($cc) => $body,
            AnyCc::Vegas($cc) => $body,
            AnyCc::Illinois($cc) => $body,
            AnyCc::HighSpeed($cc) => $body,
            AnyCc::Dctcp($cc) => $body,
        }
    };
}

impl CongestionControl for AnyCc {
    fn name(&self) -> &'static str {
        each!(self, cc => cc.name())
    }
    fn cwnd(&self) -> u64 {
        each!(self, cc => cc.cwnd())
    }
    fn ssthresh(&self) -> u64 {
        each!(self, cc => cc.ssthresh())
    }
    fn on_ack(&mut self, ack: &AckEvent) {
        each!(self, cc => cc.on_ack(ack))
    }
    fn on_fast_retransmit(&mut self, now: Nanos) {
        each!(self, cc => cc.on_fast_retransmit(now))
    }
    fn on_retransmit_timeout(&mut self, now: Nanos) {
        each!(self, cc => cc.on_retransmit_timeout(now))
    }
    fn wants_ecn(&self) -> bool {
        each!(self, cc => cc.wants_ecn())
    }
    fn alpha_micros(&self) -> Option<u64> {
        each!(self, cc => cc.alpha_micros())
    }
    fn state_words(&self) -> Vec<u64> {
        each!(self, cc => cc.state_words())
    }
    fn load_state_words(&mut self, words: &[u64]) -> bool {
        each!(self, cc => cc.load_state_words(words))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instantiate_produces_matching_names() {
        let cfg = CcConfig::host(1448);
        for kind in CcKind::ALL {
            let cc = kind.instantiate(cfg);
            assert_eq!(cc.name(), kind.name());
            assert_eq!(cc.cwnd(), cfg.initial_window_bytes());
        }
    }

    #[test]
    fn priority_variant_builds_dctcp() {
        let cc = CcKind::DctcpPriority(0.5).instantiate(CcConfig::host(1000));
        assert_eq!(cc.name(), "dctcp");
        assert!(cc.wants_ecn());
    }

    #[test]
    fn only_ecn_algorithms_want_ecn() {
        let cfg = CcConfig::host(1000);
        assert!(CcKind::Dctcp.instantiate(cfg).wants_ecn());
        assert!(!CcKind::Cubic.instantiate(cfg).wants_ecn());
        assert!(!CcKind::Vegas.instantiate(cfg).wants_ecn());
    }

    use crate::AckEvent;

    /// Classic ECN is the guest stack's to react to: an ECE flag on an
    /// ACK that reports no marked bytes moves no algorithm but DCTCP.
    #[test]
    fn only_dctcp_reads_the_ece_flag() {
        let cfg = CcConfig::host(1448);
        for kind in CcKind::ALL {
            let (mut plain, mut echoed) = (kind.instantiate(cfg), kind.instantiate(cfg));
            for i in 1..40u64 {
                let ack = AckEvent {
                    rtt: Some(100_000),
                    ..AckEvent::simple(i * 100_000, 1448)
                };
                plain.on_ack(&ack);
                echoed.on_ack(&AckEvent { ece: true, ..ack });
            }
            let moved = plain.state_words() != echoed.state_words();
            assert_eq!(moved, kind == CcKind::Dctcp, "{kind}");
        }
    }

    /// Exercise an instance through growth, marks and losses so every
    /// dynamic field moves off its initial value.
    fn churn(cc: &mut AnyCc) {
        for i in 0..40u64 {
            cc.on_ack(&AckEvent {
                now: i * 500_000,
                newly_acked: 1448,
                marked: if i % 7 == 0 { 1448 } else { 0 },
                rtt: Some(120_000 + i * 1_000),
                in_flight: 10_000,
                ece: i % 11 == 0,
            });
        }
        cc.on_fast_retransmit(25_000_000);
        for i in 40..60u64 {
            cc.on_ack(&AckEvent {
                now: i * 500_000,
                newly_acked: 1448,
                marked: 0,
                rtt: Some(110_000),
                in_flight: 5_000,
                ece: false,
            });
        }
    }

    #[test]
    fn state_words_round_trip_for_every_kind() {
        let cfg = CcConfig::vswitch(1448);
        let kinds = [
            CcKind::Reno,
            CcKind::Cubic,
            CcKind::Vegas,
            CcKind::Illinois,
            CcKind::HighSpeed,
            CcKind::Dctcp,
            CcKind::DctcpPriority(0.25),
        ];
        for kind in kinds {
            let mut a = kind.instantiate(cfg);
            churn(&mut a);
            let words = a.state_words();
            let mut b = kind.instantiate(cfg);
            assert!(b.load_state_words(&words), "{kind}: load must accept");
            assert_eq!(b.state_words(), words, "{kind}: words stable");
            assert_eq!(b.cwnd(), a.cwnd(), "{kind}: cwnd restored");
            assert_eq!(b.ssthresh(), a.ssthresh(), "{kind}: ssthresh");
            assert_eq!(b.alpha_micros(), a.alpha_micros(), "{kind}: alpha");
            // Future behaviour is byte-identical: drive both with the same
            // post-restore ACK schedule and compare windows.
            churn(&mut a);
            churn(&mut b);
            assert_eq!(b.cwnd(), a.cwnd(), "{kind}: continuation diverged");
            assert_eq!(b.state_words(), a.state_words(), "{kind}: state");
        }
    }

    #[test]
    fn load_rejects_wrong_length_and_leaves_state() {
        let cfg = CcConfig::vswitch(1448);
        for kind in CcKind::ALL {
            let mut cc = kind.instantiate(cfg);
            let before = cc.state_words();
            assert!(!cc.load_state_words(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15]));
            assert_eq!(cc.state_words(), before, "{kind}: reject is a no-op");
        }
    }
}
