//! Property-based tests for the TCP endpoint: under arbitrary loss and
//! marking patterns, transfers complete, byte accounting is exact, and
//! the state machine never panics.
//!
//! Fault injection rides on `acdc-faults` primitives: each a→b packet is
//! passed through a [`FaultProcess`] compiled from a scripted
//! [`FaultPlan`] (`drop_data_nth` / `mark_data_nth` / `drop_any_nth`).
//! The pipe itself stays hand-rolled because these properties need direct
//! control over arbitrary ISNs and per-endpoint configs, which the
//! netsim-level `FaultyLink` wrapper deliberately does not expose.

use std::collections::BTreeSet;

use acdc_cc::CcKind;
use acdc_faults::{Fate, FaultPlan, FaultProcess};
use acdc_packet::Segment;
use acdc_stats::time::{Nanos, MICROSECOND};
use acdc_tcp::{Endpoint, TcpConfig};
use proptest::prelude::*;

const A_IP: [u8; 4] = [10, 0, 0, 1];
const B_IP: [u8; 4] = [10, 0, 0, 2];

/// Minimal deterministic two-endpoint pipe with fault injection on the
/// a→b direction. Only the scripted fault classes these properties use
/// (drops and CE marks) are honored; the plans carry no random
/// components, so every [`FaultProcess::decide`] outcome is scripted.
fn run_transfer(
    cc: CcKind,
    bytes: u64,
    iss_a: u32,
    iss_b: u32,
    delay: Nanos,
    plan: &FaultPlan,
    deadline: Nanos,
) -> (Endpoint, Endpoint, Nanos) {
    let mut ca = TcpConfig::new(A_IP, 40_000, B_IP, 5_001, 1448, cc);
    ca.iss = iss_a;
    let mut cb = TcpConfig::new(B_IP, 5_001, A_IP, 40_000, 1448, cc);
    cb.iss = iss_b;
    let mut a = Endpoint::new_active(ca);
    let mut b = Endpoint::new_passive(cb);
    a.open(0);
    a.send(bytes);

    let mut wire: Vec<(Nanos, bool, Segment)> = Vec::new();
    let mut now: Nanos = 0;
    let mut faults = FaultProcess::new(plan, plan.seed, /*apply_scripts=*/ true);

    macro_rules! pump {
        () => {
            loop {
                let mut emitted = false;
                while let Some(seg) = a.poll_transmit(now) {
                    let mut seg = seg;
                    match faults.decide(now, seg.payload_len() > 0) {
                        Fate::Drop(_) => {
                            emitted = true;
                            continue;
                        }
                        Fate::Deliver(d) => {
                            if d.mark_ce && seg.ecn().is_ect() {
                                seg.mark_ce();
                            }
                        }
                    }
                    wire.push((now + delay, true, seg));
                    emitted = true;
                }
                while let Some(seg) = b.poll_transmit(now) {
                    wire.push((now + delay, false, seg));
                    emitted = true;
                }
                if !emitted {
                    break;
                }
            }
        };
    }

    pump!();
    loop {
        let wire_t = wire.iter().map(|w| w.0).min();
        let timer_t = [a.next_timer(), b.next_timer()].into_iter().flatten().min();
        let next = match (wire_t, timer_t) {
            (Some(w), Some(t)) => w.min(t),
            (Some(w), None) => w,
            (None, Some(t)) => t,
            (None, None) => break,
        };
        if next > deadline {
            break;
        }
        now = next;
        let mut due = Vec::new();
        let mut rest = Vec::new();
        for item in wire.drain(..) {
            if item.0 <= now {
                due.push(item);
            } else {
                rest.push(item);
            }
        }
        wire = rest;
        for (_, to_b, seg) in due {
            if to_b {
                b.on_segment(now, &seg);
            } else {
                a.on_segment(now, &seg);
            }
            pump!();
        }
        if a.next_timer().is_some_and(|t| t <= now) {
            a.on_timer(now);
        }
        if b.next_timer().is_some_and(|t| t <= now) {
            b.on_timer(now);
        }
        pump!();
    }
    (a, b, now)
}

fn arb_cc() -> impl Strategy<Value = CcKind> {
    prop_oneof![
        Just(CcKind::Reno),
        Just(CcKind::Cubic),
        Just(CcKind::Dctcp),
        Just(CcKind::Illinois),
        Just(CcKind::HighSpeed),
    ]
}

/// Any loss pattern is eventually repaired: all bytes delivered in order
/// and acknowledged, exactly once.
fn loss_repaired(cc: CcKind, bytes: u64, drops: BTreeSet<u64>, iss_a: u32, iss_b: u32) {
    let plan = FaultPlan::new(0).drop_data(drops);
    let (a, b, _) = run_transfer(
        cc,
        bytes,
        iss_a,
        iss_b,
        50 * MICROSECOND,
        &plan,
        20_000_000_000,
    );
    prop_assert_eq!(a.acked_bytes(), bytes, "sender fully acked");
    prop_assert_eq!(b.delivered_bytes(), bytes, "receiver delivered all");
}

/// CE marks never corrupt a DCTCP transfer — they only slow it.
fn marking_harmless(bytes: u64, marks: BTreeSet<u64>) {
    let plan = FaultPlan::new(0).mark_data(marks);
    let (a, b, _) = run_transfer(
        CcKind::Dctcp,
        bytes,
        7,
        11,
        50 * MICROSECOND,
        &plan,
        20_000_000_000,
    );
    prop_assert_eq!(a.acked_bytes(), bytes);
    prop_assert_eq!(b.delivered_bytes(), bytes);
}

/// Wraparound ISNs are handled for any starting point.
fn isn_pair_works(iss_a: u32, iss_b: u32) {
    let plan = FaultPlan::new(0).drop_data([5]);
    let bytes = 100_000;
    let (a, b, _) = run_transfer(
        CcKind::Cubic,
        bytes,
        iss_a,
        iss_b,
        20 * MICROSECOND,
        &plan,
        10_000_000_000,
    );
    prop_assert_eq!(a.acked_bytes(), bytes);
    prop_assert_eq!(b.delivered_bytes(), bytes);
}

/// Closing after arbitrary transfers reaches a closed state on both
/// sides (no FIN deadlocks), even with a lost packet.
fn close_terminates(bytes: u64, drop_one: Option<u64>) {
    let mut ca = TcpConfig::new(A_IP, 40_000, B_IP, 5_001, 1448, CcKind::Reno);
    ca.iss = 1;
    let mut cb = TcpConfig::new(B_IP, 5_001, A_IP, 40_000, 1448, CcKind::Reno);
    cb.iss = 2;
    let mut a = Endpoint::new_active(ca);
    let mut b = Endpoint::new_passive(cb);
    a.open(0);
    if bytes > 0 {
        a.send(bytes);
    }
    a.close();
    b.close();

    // Inline event loop (like run_transfer but with close already
    // requested on both sides). `drop_any` indexes *every* a→b
    // packet — handshake and FINs included — unlike `drop_data`.
    let plan = FaultPlan::new(0).drop_any(drop_one);
    let mut faults = FaultProcess::new(&plan, plan.seed, true);
    let mut wire: Vec<(Nanos, bool, Segment)> = Vec::new();
    let mut now: Nanos = 0;
    loop {
        let mut emitted = true;
        while emitted {
            emitted = false;
            while let Some(seg) = a.poll_transmit(now) {
                if matches!(faults.decide(now, seg.payload_len() > 0), Fate::Drop(_)) {
                    emitted = true;
                    continue;
                }
                wire.push((now + 10_000, true, seg));
                emitted = true;
            }
            while let Some(seg) = b.poll_transmit(now) {
                wire.push((now + 10_000, false, seg));
                emitted = true;
            }
        }
        let wt = wire.iter().map(|w| w.0).min();
        let tt = [a.next_timer(), b.next_timer()].into_iter().flatten().min();
        let next = match (wt, tt) {
            (Some(w), Some(t)) => w.min(t),
            (Some(w), None) => w,
            (None, Some(t)) => t,
            (None, None) => break,
        };
        if next > 30_000_000_000 {
            break;
        }
        now = next;
        let mut rest = Vec::new();
        for item in wire.drain(..) {
            if item.0 <= now {
                if item.1 {
                    b.on_segment(now, &item.2);
                } else {
                    a.on_segment(now, &item.2);
                }
            } else {
                rest.push(item);
            }
        }
        wire.extend(rest);
        if a.next_timer().is_some_and(|t| t <= now) {
            a.on_timer(now);
        }
        if b.next_timer().is_some_and(|t| t <= now) {
            b.on_timer(now);
        }
    }
    prop_assert!(a.is_closed(), "a stuck in {:?}", a.state());
    prop_assert!(b.is_closed(), "b stuck in {:?}", b.state());
    prop_assert_eq!(b.delivered_bytes(), bytes);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn transfer_completes_under_arbitrary_loss(
        cc in arb_cc(),
        bytes in 1u64..400_000,
        drops in prop::collection::btree_set(1u64..300, 0..20),
        iss_a in any::<u32>(),
        iss_b in any::<u32>(),
    ) {
        loss_repaired(cc, bytes, drops, iss_a, iss_b);
    }

    #[test]
    fn dctcp_completes_under_arbitrary_marking(
        bytes in 1u64..300_000,
        marks in prop::collection::btree_set(1u64..400, 0..60),
    ) {
        marking_harmless(bytes, marks);
    }

    #[test]
    fn any_isn_pair_works(iss_a in any::<u32>(), iss_b in any::<u32>()) {
        isn_pair_works(iss_a, iss_b);
    }

    #[test]
    fn close_always_terminates(
        bytes in 0u64..50_000,
        drop_one in prop::option::of(1u64..20),
    ) {
        close_terminates(bytes, drop_one);
    }
}

proptest! {
    // nightly.yml runs these twins (`-- --ignored`).
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    #[ignore = "4096 cases; run with --ignored (nightly)"]
    fn transfer_completes_under_arbitrary_loss_4096(
        cc in arb_cc(),
        bytes in 1u64..400_000,
        drops in prop::collection::btree_set(1u64..300, 0..20),
        iss_a in any::<u32>(),
        iss_b in any::<u32>(),
    ) {
        loss_repaired(cc, bytes, drops, iss_a, iss_b);
    }

    #[test]
    #[ignore = "4096 cases; run with --ignored (nightly)"]
    fn dctcp_completes_under_arbitrary_marking_4096(
        bytes in 1u64..300_000,
        marks in prop::collection::btree_set(1u64..400, 0..60),
    ) {
        marking_harmless(bytes, marks);
    }

    #[test]
    #[ignore = "4096 cases; run with --ignored (nightly)"]
    fn any_isn_pair_works_4096(iss_a in any::<u32>(), iss_b in any::<u32>()) {
        isn_pair_works(iss_a, iss_b);
    }

    #[test]
    #[ignore = "4096 cases; run with --ignored (nightly)"]
    fn close_always_terminates_4096(
        bytes in 0u64..50_000,
        drop_one in prop::option::of(1u64..20),
    ) {
        close_terminates(bytes, drop_one);
    }
}
