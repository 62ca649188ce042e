//! Property-based tests: invariants every congestion-control algorithm must
//! hold under arbitrary event sequences.

use acdc_cc::{AckEvent, CcConfig, CcKind, CongestionControl, Dctcp};
use proptest::prelude::*;

/// One abstract congestion-control event.
#[derive(Debug, Clone, Copy)]
enum Ev {
    Ack {
        bytes: u32,
        marked: bool,
        rtt_us: u32,
    },
    Dup,
    FastRetransmit,
    Timeout,
}

fn arb_event() -> impl Strategy<Value = Ev> {
    prop_oneof![
        6 => (1u32..20000, any::<bool>(), 10u32..5000).prop_map(|(bytes, marked, rtt_us)| Ev::Ack { bytes, marked, rtt_us }),
        1 => Just(Ev::Dup),
        1 => Just(Ev::FastRetransmit),
        1 => Just(Ev::Timeout),
    ]
}

fn arb_kind() -> impl Strategy<Value = CcKind> {
    prop_oneof![
        Just(CcKind::Reno),
        Just(CcKind::Cubic),
        Just(CcKind::Vegas),
        Just(CcKind::Illinois),
        Just(CcKind::HighSpeed),
        Just(CcKind::Dctcp),
        (0.0f64..=1.0).prop_map(CcKind::DctcpPriority),
    ]
}

/// The window must stay in [1 byte, +bounded] and never hit zero, no
/// matter what sequence of ACKs/losses/timeouts arrives.
fn cwnd_bounded(kind: CcKind, events: &[Ev], mss: u32) {
    let cfg = CcConfig::host(mss);
    let mut cc = kind.instantiate(cfg);
    let mut now = 0u64;
    for ev in events {
        now += 50_000;
        match *ev {
            Ev::Ack {
                bytes,
                marked,
                rtt_us,
            } => {
                let b = u64::from(bytes);
                cc.on_ack(&AckEvent {
                    now,
                    newly_acked: b,
                    marked: if marked { b } else { 0 },
                    rtt: Some(u64::from(rtt_us) * 1_000),
                    in_flight: b,
                    ece: marked,
                });
            }
            Ev::Dup => cc.on_ack(&AckEvent::simple(now, 0)),
            Ev::FastRetransmit => cc.on_fast_retransmit(now),
            Ev::Timeout => cc.on_retransmit_timeout(now),
        }
        prop_assert!(cc.cwnd() >= 1, "{} cwnd hit zero", cc.name());
        // No algorithm should outgrow the theoretical max of initial +
        // all acked bytes times a small constant (slow start at most
        // doubles per window; our ABC caps growth at 2·acked).
        let total_acked: u64 = events
            .iter()
            .map(|e| match e {
                Ev::Ack { bytes, .. } => u64::from(*bytes),
                _ => 0,
            })
            .sum();
        prop_assert!(
            cc.cwnd() <= cfg.initial_window_bytes() + 3 * total_acked + u64::from(mss) * 16,
            "{} cwnd {} exploded",
            cc.name(),
            cc.cwnd()
        );
    }
}

/// DCTCP's alpha estimate stays within [0, 1].
fn alpha_bounded(events: &[Ev]) {
    let mut d = Dctcp::new(CcConfig::host(1448));
    let mut now = 0u64;
    for ev in events {
        now += 200_000;
        match *ev {
            Ev::Ack {
                bytes,
                marked,
                rtt_us,
            } => d.on_ack(&AckEvent {
                now,
                newly_acked: u64::from(bytes),
                marked: if marked { u64::from(bytes) } else { 0 },
                rtt: Some(u64::from(rtt_us) * 1_000),
                in_flight: 0,
                ece: false,
            }),
            Ev::Dup => {}
            Ev::FastRetransmit => d.on_fast_retransmit(now),
            Ev::Timeout => d.on_retransmit_timeout(now),
        }
        prop_assert!((0.0..=1.0).contains(&d.alpha()), "alpha={}", d.alpha());
    }
}

/// For a fixed alpha, the priority cut keeps more window at higher β.
fn priority_monotone(mut betas: Vec<f64>) {
    betas.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let cfg = CcConfig::host(1000);
    let mut previous: Option<u64> = None;
    for &beta in &betas {
        let mut d = Dctcp::with_priority(cfg, beta);
        // Converge alpha against a fixed marking pattern, identically
        // for every beta.
        let mut now = 0u64;
        for w in 0..60u64 {
            for i in 0..10u64 {
                let marked = if i < 3 { 1000 } else { 0 };
                d.on_ack(&AckEvent {
                    now,
                    newly_acked: 1000,
                    marked,
                    rtt: Some(100_000),
                    in_flight: 0,
                    ece: false,
                });
                now += 20_000;
            }
            now += 1_000_000 * (w % 2 + 1);
            d.on_ack(&AckEvent::simple(now, 0));
        }
        if let Some(prev) = previous {
            prop_assert!(
                d.cwnd() >= prev,
                "beta order violated: cwnd {} < {} at beta {beta}",
                d.cwnd(),
                prev
            );
        }
        previous = Some(d.cwnd());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn cwnd_never_zero_and_bounded(
        kind in arb_kind(),
        events in prop::collection::vec(arb_event(), 1..300),
        mss in prop_oneof![Just(1448u32), Just(8948u32)],
    ) {
        cwnd_bounded(kind, &events, mss);
    }

    #[test]
    fn dctcp_alpha_bounded(events in prop::collection::vec(arb_event(), 1..300)) {
        alpha_bounded(&events);
    }

    #[test]
    fn dctcp_priority_monotone_in_beta(betas in prop::collection::vec(0.0f64..=1.0, 2..6)) {
        priority_monotone(betas);
    }
}

proptest! {
    // nightly.yml runs these twins (`-- --ignored`).
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    #[ignore = "4096 cases; run with --ignored (nightly)"]
    fn cwnd_never_zero_and_bounded_4096(
        kind in arb_kind(),
        events in prop::collection::vec(arb_event(), 1..300),
        mss in prop_oneof![Just(1448u32), Just(8948u32)],
    ) {
        cwnd_bounded(kind, &events, mss);
    }

    #[test]
    #[ignore = "4096 cases; run with --ignored (nightly)"]
    fn dctcp_alpha_bounded_4096(events in prop::collection::vec(arb_event(), 1..300)) {
        alpha_bounded(&events);
    }

    #[test]
    #[ignore = "4096 cases; run with --ignored (nightly)"]
    fn dctcp_priority_monotone_in_beta_4096(
        betas in prop::collection::vec(0.0f64..=1.0, 2..6)
    ) {
        priority_monotone(betas);
    }
}
