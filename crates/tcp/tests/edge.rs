//! Edge-case tests for the TCP endpoint, driven by direct segment
//! exchange (no simulator).

use std::collections::VecDeque;

use acdc_cc::{CcKind, CongestionControl};
use acdc_packet::tcp::option_kind;
use acdc_packet::{Ecn, Ipv4Repr, Segment, SeqNumber, TcpFlags, TcpRepr, PROTO_TCP};
use acdc_stats::time::{Nanos, MICROSECOND, MILLISECOND, SECOND};
use acdc_tcp::{Endpoint, TcpConfig, TcpState};

const A_IP: [u8; 4] = [10, 0, 0, 1];
const B_IP: [u8; 4] = [10, 0, 0, 2];

fn cfg_a(cc: CcKind) -> TcpConfig {
    let mut c = TcpConfig::new(A_IP, 40_000, B_IP, 5_001, 1448, cc);
    c.iss = 100;
    c
}

fn cfg_b(cc: CcKind) -> TcpConfig {
    let mut c = TcpConfig::new(B_IP, 5_001, A_IP, 40_000, 1448, cc);
    c.iss = 900_000;
    c
}

/// Exchange everything both endpoints currently want to send.
fn exchange(now: u64, a: &mut Endpoint, b: &mut Endpoint) {
    loop {
        let mut moved = false;
        while let Some(s) = a.poll_transmit(now) {
            b.on_segment(now, &s);
            moved = true;
        }
        while let Some(s) = b.poll_transmit(now) {
            a.on_segment(now, &s);
            moved = true;
        }
        if !moved {
            break;
        }
    }
}

fn established_pair(cc: CcKind) -> (Endpoint, Endpoint) {
    let mut a = Endpoint::new_active(cfg_a(cc));
    let mut b = Endpoint::new_passive(cfg_b(cc));
    a.open(0);
    exchange(0, &mut a, &mut b);
    assert!(a.is_established() && b.is_established());
    (a, b)
}

#[test]
fn rst_tears_down_immediately() {
    let (mut a, _b) = established_pair(CcKind::Cubic);
    let mut t = TcpRepr::new(5_001, 40_000);
    t.flags = TcpFlags::RST;
    t.seq = SeqNumber(900_001);
    let rst = Segment::new_tcp(
        Ipv4Repr {
            src_addr: B_IP,
            dst_addr: A_IP,
            protocol: PROTO_TCP,
            ecn: Ecn::NotEct,
            payload_len: 0,
            ttl: 64,
        },
        t,
        0,
    );
    a.on_segment(1_000, &rst);
    assert_eq!(a.state(), TcpState::Closed);
    assert!(
        a.poll_transmit(2_000).is_none(),
        "closed endpoints are quiet"
    );
}

#[test]
fn syn_is_retransmitted_with_backoff() {
    let mut a = Endpoint::new_active(cfg_a(CcKind::Reno));
    a.open(0);
    let s1 = a.poll_transmit(0).expect("first SYN");
    assert!(s1.tcp_flags().contains(TcpFlags::SYN));
    assert!(a.poll_transmit(0).is_none());

    // No SYN-ACK: the timer must re-arm with exponential backoff.
    let t1 = a.next_timer().expect("rto armed");
    a.on_timer(t1);
    let s2 = a.poll_transmit(t1).expect("retransmitted SYN");
    assert!(s2.tcp_flags().contains(TcpFlags::SYN));
    let t2 = a.next_timer().expect("rto re-armed");
    assert!(
        t2 - t1 > t1,
        "backoff must grow: first at {t1}, second after {}",
        t2 - t1
    );
}

#[test]
fn window_scale_is_clamped_to_14() {
    let mut a = Endpoint::new_active(cfg_a(CcKind::Cubic));
    let mut b = Endpoint::new_passive(cfg_b(CcKind::Cubic));
    a.open(0);
    let syn = a.poll_transmit(0).unwrap();
    // Tamper: the window-scale option's shift byte becomes an illegal 30.
    let mut bytes = syn.header_bytes().to_vec();
    let wscale = syn.try_meta().unwrap().wscale.unwrap();
    // Options start after the 20-byte IP and TCP headers.
    let ws = 40
        + bytes[40..]
            .windows(3)
            .position(|o| o == [option_kind::WS, 3, wscale])
            .expect("the SYN carries a window scale");
    bytes[ws + 2] = 30;
    let tampered = Segment::from_header_bytes(bytes, 0).expect("the tampered SYN reads back");
    assert_eq!(tampered.try_meta().unwrap().wscale, Some(30));
    b.on_segment(1, &tampered);
    // RFC 7323: receivers clamp the shift to 14.
    exchange(2, &mut a, &mut b);
    a.send(10_000);
    exchange(3, &mut a, &mut b);
    assert_eq!(b.delivered_bytes(), 10_000);
}

#[test]
fn delayed_ack_fires_on_timer() {
    let (mut a, mut b) = established_pair(CcKind::Cubic);
    a.send(100); // less than DELACK_SEGS segments
    while let Some(s) = a.poll_transmit(1_000) {
        b.on_segment(1_000, &s);
    }
    // b holds the ACK (1 small segment < delack threshold)...
    assert!(b.poll_transmit(1_000).is_none(), "ACK delayed");
    let t = b.next_timer().expect("delack timer armed");
    assert!(t <= 1_000 + 2 * MILLISECOND);
    b.on_timer(t);
    let ack = b.poll_transmit(t).expect("delayed ACK emitted");
    assert!(ack.is_pure_ack());
    a.on_segment(t + 10, &ack);
    assert_eq!(a.acked_bytes(), 100);
}

#[test]
fn stop_sending_truncates_cleanly() {
    let (mut a, mut b) = established_pair(CcKind::Cubic);
    a.send(1 << 30); // "unlimited"
                     // Move some of it.
    for round in 0..50u64 {
        exchange(10_000 + round * 100, &mut a, &mut b);
    }
    let delivered = b.delivered_bytes();
    assert!(delivered > 0);
    a.stop_sending();
    // Drain whatever remains in flight.
    for round in 0..50u64 {
        exchange(1_000_000 + round * 100, &mut a, &mut b);
    }
    let final_delivered = b.delivered_bytes();
    assert_eq!(a.acked_bytes(), final_delivered);
    // And nothing more ever comes.
    exchange(2_000_000, &mut a, &mut b);
    assert_eq!(b.delivered_bytes(), final_delivered);
}

#[test]
fn zero_window_blocks_sending() {
    let (mut a, mut b) = established_pair(CcKind::Cubic);
    a.send(100_000);
    // Fabricate an ACK advertising a zero window.
    let mut t = TcpRepr::new(5_001, 40_000);
    t.flags = TcpFlags::ACK;
    t.seq = SeqNumber(900_001);
    t.ack = SeqNumber(101); // acks nothing new (handshake only)
    t.window = 0;
    let zwin = Segment::new_tcp(
        Ipv4Repr {
            src_addr: B_IP,
            dst_addr: A_IP,
            protocol: PROTO_TCP,
            ecn: Ecn::NotEct,
            payload_len: 0,
            ttl: 64,
        },
        t,
        0,
    );
    a.on_segment(1_000, &zwin);
    assert_eq!(a.peer_rwnd(), 0);
    assert!(
        a.poll_transmit(1_001).is_none(),
        "no data may move into a zero window"
    );
    let _ = &mut b;
}

#[test]
fn duplicate_data_is_reacked_not_redelivered() {
    let (mut a, mut b) = established_pair(CcKind::Cubic);
    a.send(1448);
    let data = a.poll_transmit(100).expect("one segment");
    b.on_segment(200, &data);
    let first = b.delivered_bytes();
    // Deliver the exact same segment again (network duplication).
    b.on_segment(300, &data);
    assert_eq!(b.delivered_bytes(), first, "no double delivery");
    let ack = b.poll_transmit(300).expect("immediate re-ACK");
    assert!(ack.is_pure_ack());
}

#[test]
fn srtt_and_rto_converge_with_clean_samples() {
    let (mut a, mut b) = established_pair(CcKind::Reno);
    let mut now = 0u64;
    for _ in 0..50 {
        a.send(1448);
        while let Some(s) = a.poll_transmit(now) {
            b.on_segment(now + 200_000, &s); // 200 µs one way
        }
        now += 400_000;
        while let Some(s) = b.poll_transmit(now) {
            a.on_segment(now, &s);
        }
        now += 100_000;
    }
    let srtt = a.srtt().expect("samples taken");
    // Path RTT is 400 µs; delayed ACKs (single small segments) add up to
    // one driver round, so the estimate sits between the two.
    assert!(
        (300_000..=1_000_000).contains(&srtt),
        "srtt {srtt} should be ≈400–900 µs"
    );
    assert_eq!(a.rto(), 10 * MILLISECOND, "RTOmin floor binds");
    assert!(a.rto() < SECOND);
}

#[test]
fn zero_window_probe_recovers_from_lost_window_update() {
    let (mut a, mut b) = established_pair(CcKind::Cubic);
    a.send(100_000);
    // Peer slams the window shut.
    let mut t = TcpRepr::new(5_001, 40_000);
    t.flags = TcpFlags::ACK;
    t.seq = SeqNumber(900_001);
    t.ack = SeqNumber(101);
    t.window = 0;
    let ip = Ipv4Repr {
        src_addr: B_IP,
        dst_addr: A_IP,
        protocol: PROTO_TCP,
        ecn: Ecn::NotEct,
        payload_len: 0,
        ttl: 64,
    };
    a.on_segment(1_000, &Segment::new_tcp(ip, t.clone(), 0));
    assert_eq!(a.peer_rwnd(), 0);
    assert!(a.poll_transmit(1_001).is_none());

    // The persist timer must be armed and, on expiry, emit a 1-byte probe.
    let probe_at = a.next_timer().expect("persist timer armed");
    a.on_timer(probe_at);
    let probe = a.poll_transmit(probe_at).expect("window probe emitted");
    assert_eq!(probe.payload_len(), 1, "1-byte probe past the window");

    // The reopening ACK (the lost window update's retransmission) covers
    // the probe byte and reopens the window; data flows again.
    let mut reopen = t;
    reopen.ack = SeqNumber(102); // probe byte consumed
    reopen.window = 60_000;
    a.on_segment(probe_at + 1_000, &Segment::new_tcp(ip, reopen, 0));
    assert!(a.peer_rwnd() > 0);
    let next = a
        .poll_transmit(probe_at + 1_001)
        .expect("data resumes after reopen");
    assert!(next.payload_len() > 1);
    // Persist timer cancelled: the only timer left is the RTO.
    let _ = &mut b;
}

#[test]
fn persist_probe_backs_off_exponentially() {
    let (mut a, _b) = established_pair(CcKind::Cubic);
    a.send(50_000);
    let mut t = TcpRepr::new(5_001, 40_000);
    t.flags = TcpFlags::ACK;
    t.seq = SeqNumber(900_001);
    t.ack = SeqNumber(101);
    t.window = 0;
    let ip = Ipv4Repr {
        src_addr: B_IP,
        dst_addr: A_IP,
        protocol: PROTO_TCP,
        ecn: Ecn::NotEct,
        payload_len: 0,
        ttl: 64,
    };
    a.on_segment(1_000, &Segment::new_tcp(ip, t, 0));
    let t1 = a.next_timer().unwrap();
    a.on_timer(t1);
    let _probe1 = a.poll_transmit(t1);
    let t2 = a.next_timer().unwrap();
    a.on_timer(t2);
    let t3 = a.next_timer().unwrap();
    assert!(
        t3 - t2 > t2 - t1,
        "persist interval must back off: {} then {}",
        t2 - t1,
        t3 - t2
    );
}

/// Classic ECN (RFC 3168) on an ECN-negotiated connection. One CE-marked
/// data segment latches ECE at the receiver until CWR arrives, so
/// several ACKs echo it; the sender cuts by its algorithm's β on the
/// first of them only, and its next data segment carries CWR. CUBIC
/// paces its own cuts; Vegas does not, so it shows the endpoint's
/// once-per-RTT gate.
#[test]
fn classic_ecn_cuts_once_per_rtt_and_signals_cwr() {
    for (kind, beta) in [(CcKind::Cubic, 717.0 / 1024.0), (CcKind::Vegas, 0.5)] {
        classic_ecn_echo(kind, beta);
    }
}

fn classic_ecn_echo(kind: CcKind, beta: f64) {
    const DELAY: Nanos = 50 * MICROSECOND;
    const MARKED: u32 = 11;
    const BYTES: u64 = 1_000_000;
    let (mut ca, mut cb) = (cfg_a(kind), cfg_b(kind));
    ca.ecn = true;
    cb.ecn = true;
    let (mut a, mut b) = (Endpoint::new_active(ca), Endpoint::new_passive(cb));
    a.open(0);
    a.send(BYTES);

    // In flight, in arrival order: (arrival, towards b, segment). One
    // fixed delay keeps the queue sorted.
    let mut wire: VecDeque<(Nanos, bool, Segment)> = VecDeque::new();
    let mut now: Nanos = 0;
    let mut data_segs = 0;
    // (arrival, cwnd before, ssthresh after) of every ECE ACK the sender
    // took in.
    let mut echoes: Vec<(Nanos, u64, u64)> = Vec::new();
    let mut cwr_after_echo = None;
    while a.acked_bytes() < BYTES && now < SECOND {
        while let Some(mut s) = a.poll_transmit(now) {
            if s.payload_len() > 0 {
                data_segs += 1;
                if data_segs == MARKED {
                    assert!(s.ecn().is_ect(), "ECN-capable data");
                    s.mark_ce();
                }
                let cwr = s.tcp_flags().contains(TcpFlags::CWR);
                if echoes.is_empty() {
                    assert!(!cwr, "CWR before any echo");
                } else if cwr_after_echo.is_none() {
                    cwr_after_echo = Some(cwr);
                }
            }
            wire.push_back((now + DELAY, true, s));
        }
        while let Some(s) = b.poll_transmit(now) {
            wire.push_back((now + DELAY, false, s));
        }
        // One arrival at a time, so each ACK leaves as its segment lands;
        // timers fire when nothing arrives first.
        let timer = [a.next_timer(), b.next_timer()].into_iter().flatten().min();
        let arrival = wire.front().map(|w| w.0);
        if timer.is_some_and(|t| arrival.is_none_or(|w| t < w)) {
            now = timer.unwrap();
            for ep in [&mut a, &mut b] {
                if ep.next_timer().is_some_and(|t| t <= now) {
                    ep.on_timer(now);
                }
            }
            continue;
        }
        let (at, to_b, s) = wire
            .pop_front()
            .expect("the transfer has something pending");
        now = at;
        if to_b {
            b.on_segment(now, &s);
            continue;
        }
        let cwnd = a.cwnd();
        a.on_segment(now, &s);
        // An ECN-setup SYN-ACK carries ECE too; it is no echo.
        let flags = s.tcp_flags();
        if flags.contains(TcpFlags::ECE) && !flags.contains(TcpFlags::SYN) {
            echoes.push((now, cwnd, a.cc().ssthresh()));
        } else if echoes.is_empty() {
            assert_eq!(
                a.cc().ssthresh(),
                u64::MAX,
                "{kind}: no cut before the echo"
            );
        }
    }
    assert_eq!(b.delivered_bytes(), BYTES);

    let &(at, before, _) = echoes.first().expect("the CE mark is echoed");
    let cut_to = (before as f64 * beta) as u64;
    let srtt = a.srtt().expect("sampled");
    let same_rtt: Vec<_> = echoes.iter().filter(|e| e.0 < at + srtt).collect();
    assert!(
        same_rtt.len() > 1,
        "{kind}: the latch echoes more than once: {echoes:?}"
    );
    assert!(
        same_rtt.iter().all(|e| e.2 == cut_to),
        "{kind}: one cut by beta, from {before}, within the RTT: {echoes:?}"
    );
    assert_eq!(
        cwr_after_echo,
        Some(true),
        "{kind}: the next data segment carries CWR"
    );
}
