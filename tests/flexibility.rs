//! Integration tests for AC/DC's §3.3 "flexibility" features: the vSwitch
//! can fabricate TCP Window Updates and duplicate ACKs and a real guest
//! endpoint reacts to them as intended.

use acdc_cc::CcKind;
use acdc_core::{Scheme, Testbed};
use acdc_packet::FlowKey;
use acdc_stats::time::MILLISECOND;
use acdc_tcp::{Endpoint, TcpConfig};

/// A fabricated Window Update, delivered to the guest, changes the
/// guest's view of the peer window without any real ACK arriving.
#[test]
fn generated_window_update_moves_the_guest_window() {
    let mut tb = Testbed::dumbbell(2, Scheme::acdc(), 1500);
    let h = tb.add_bulk(0, 2, None, 0);
    let _competing = tb.add_bulk(1, 3, None, 0);
    tb.run_until(50 * MILLISECOND);

    let key: FlowKey = h.key;
    let update = tb
        .host_mut(0)
        .datapath()
        .make_window_update(&key)
        .expect("window update for tracked flow");
    assert!(update.is_pure_ack());
    assert!(update.verify_checksums());

    // Part 2: a standalone guest endpoint reacts to a fabricated window
    // update exactly as the paper intends.
    let mut ga = Endpoint::new_active(TcpConfig::new(
        [10, 0, 0, 1],
        40_000,
        [10, 0, 0, 9],
        5_001,
        1448,
        CcKind::Cubic,
    ));
    let mut gb = Endpoint::new_passive(TcpConfig::new(
        [10, 0, 0, 9],
        5_001,
        [10, 0, 0, 1],
        40_000,
        1448,
        CcKind::Cubic,
    ));
    ga.open(0);
    ga.send(1_000_000);
    // Minimal handshake by direct exchange.
    let syn = ga.poll_transmit(0).unwrap();
    gb.on_segment(1, &syn);
    let synack = gb.poll_transmit(1).unwrap();
    ga.on_segment(2, &synack);
    while let Some(s) = ga.poll_transmit(2) {
        gb.on_segment(3, &s);
    }
    let before = ga.peer_rwnd();
    // Build a window update for ga's flow: ACK current snd_una, tiny window.
    let mut wu = acdc_packet::TcpRepr::new(5_001, 40_000);
    wu.flags = acdc_packet::TcpFlags::ACK;
    wu.ack = acdc_packet::SeqNumber(ga.config().iss + 1 + ga.acked_bytes() as u32);
    wu.window = 3; // raw; scaled by gb's wscale (9) = 1536 bytes
    let wu = acdc_packet::Segment::new_tcp(
        acdc_packet::Ipv4Repr {
            src_addr: [10, 0, 0, 9],
            dst_addr: [10, 0, 0, 1],
            protocol: acdc_packet::PROTO_TCP,
            ecn: acdc_packet::Ecn::NotEct,
            payload_len: 0,
            ttl: 64,
        },
        wu,
        0,
    );
    ga.on_segment(10, &wu);
    assert_eq!(
        ga.peer_rwnd(),
        3 << 9,
        "window update applied (was {before})"
    );
}

/// Three vSwitch-fabricated duplicate ACKs trigger the guest's fast
/// retransmit — the mechanism the paper proposes for guests whose RTO is
/// much larger than the datacenter's (incast mitigation).
#[test]
fn generated_dup_acks_trigger_guest_fast_retransmit() {
    let mut ga = Endpoint::new_active(TcpConfig::new(
        [10, 0, 0, 1],
        40_000,
        [10, 0, 0, 9],
        5_001,
        1448,
        CcKind::Reno,
    ));
    let mut gb = Endpoint::new_passive(TcpConfig::new(
        [10, 0, 0, 9],
        5_001,
        [10, 0, 0, 1],
        40_000,
        1448,
        CcKind::Reno,
    ));
    ga.open(0);
    ga.send(200_000);
    let syn = ga.poll_transmit(0).unwrap();
    gb.on_segment(1, &syn);
    let synack = gb.poll_transmit(1).unwrap();
    ga.on_segment(2, &synack);
    // Send the initial window but deliver nothing (simulate loss of all).
    let mut sent = Vec::new();
    while let Some(s) = ga.poll_transmit(3) {
        sent.push(s);
    }
    assert!(
        sent.len() >= 4,
        "initial window should emit several segments"
    );
    let retx_before = ga.retransmitted_segments();

    // The vSwitch injects 3 duplicate ACKs for snd_una (iss+1).
    let mut dup = acdc_packet::TcpRepr::new(5_001, 40_000);
    dup.flags = acdc_packet::TcpFlags::ACK;
    dup.ack = acdc_packet::SeqNumber(ga.config().iss + 1);
    dup.window = 100;
    let ip = acdc_packet::Ipv4Repr {
        src_addr: [10, 0, 0, 9],
        dst_addr: [10, 0, 0, 1],
        protocol: acdc_packet::PROTO_TCP,
        ecn: acdc_packet::Ecn::NotEct,
        payload_len: 0,
        ttl: 64,
    };
    // First one sets the window baseline; three more are true duplicates.
    for i in 0..4 {
        let seg = acdc_packet::Segment::new_tcp(ip, dup.clone(), 0);
        ga.on_segment(1_000_000 + i, &seg);
    }
    // The guest must now retransmit the head segment without any timeout.
    let rtx = ga
        .poll_transmit(1_000_010)
        .expect("fast retransmit emitted");
    assert!(rtx.payload_len() > 0);
    assert_eq!(
        rtx.tcp().seq_number(),
        acdc_packet::SeqNumber(ga.config().iss + 1),
        "head of window retransmitted"
    );
    assert!(ga.retransmitted_segments() > retx_before);
    assert_eq!(ga.timeouts(), 0, "no RTO involved");
}

/// `make_dup_acks` produced by a real datapath parse back to the right
/// flow and acknowledge exactly `snd_una`.
#[test]
fn datapath_dup_acks_match_tracked_state() {
    let mut tb = Testbed::dumbbell(1, Scheme::acdc(), 1500);
    let h = tb.add_bulk(0, 1, Some(1_000_000), 0);
    tb.run_until(20 * MILLISECOND);
    let key: FlowKey = h.key;
    let dups = tb.host_mut(0).datapath().make_dup_acks(&key, 3);
    assert_eq!(dups.len(), 3);
    let snd_una = tb.host_mut(0).datapath().seq_view(&key).unwrap().snd_una;
    for d in &dups {
        assert_eq!(d.tcp().ack_number(), snd_una);
        assert_eq!(d.flow_key(), key.reverse());
        assert!(d.verify_checksums());
    }
}
