//! End-to-end tests of the AC/DC datapath: two vSwitches (host A = data
//! sender, host B = data receiver) processing hand-crafted packets, as in
//! Figure 3 of the paper.

use acdc_cc::{CcConfig, CcKind, CongestionControl};
use acdc_packet::{
    Ecn, FlowKey, Ipv4Repr, PackOption, PacketMeta, Segment, SeqNumber, TcpFlags, TcpOption,
    TcpRepr, PROTO_TCP,
};
use acdc_telemetry::{EventKind, EvictReason, Rung, NO_FLOW};
use acdc_vswitch::{
    AcdcConfig, AcdcDatapath, AdmissionPolicy, CcPolicy, DropReason, FlowEntry, HealthState,
    Verdict,
};
use std::rc::Rc;

const A: [u8; 4] = [10, 0, 0, 1];
const B: [u8; 4] = [10, 0, 0, 2];
const AP: u16 = 40_000;
const BP: u16 = 5_001;
const MTU: usize = 1_500;
const MSS: usize = 1_448;
const ISS_A: u32 = 1_000;
const ISS_B: u32 = 2_000_000;

/// `f` applied to `key`'s entry in `dp`, which must track it.
fn entry<R>(dp: &AcdcDatapath, key: &FlowKey, f: impl FnOnce(&mut FlowEntry) -> R) -> R {
    dp.table().with_entry(key, f).expect("flow tracked")
}

/// `dp`'s event digest.
fn digest(dp: &AcdcDatapath) -> u64 {
    dp.telemetry().recorder().digest()
}

/// `seg` through `dp`'s egress at `at`, which must forward it.
fn egress(dp: &AcdcDatapath, at: u64, seg: Segment) -> Segment {
    dp.egress(at, seg).forwarded().expect("egress forwards")
}

/// `seg` through `dp`'s ingress at `at`, which must forward it.
fn ingress(dp: &AcdcDatapath, at: u64, seg: Segment) -> Segment {
    dp.ingress(at, seg).forwarded().expect("ingress forwards")
}

/// `seg`'s headers read afresh, as the next hop would read them.
fn reread(seg: &Segment) -> PacketMeta {
    Segment::from_header_bytes(seg.header_bytes(), seg.payload_len())
        .expect("datapath output reads back")
        .meta()
}

fn ip(src: [u8; 4], dst: [u8; 4], ecn: Ecn) -> Ipv4Repr {
    Ipv4Repr {
        src_addr: src,
        dst_addr: dst,
        protocol: PROTO_TCP,
        ecn,
        payload_len: 0,
        ttl: 64,
    }
}

fn syn(ecn_capable: bool, wscale: u8) -> Segment {
    syn_on(AP, ecn_capable, wscale)
}

/// A SYN from A's guest at port `sport`.
fn syn_on(sport: u16, ecn_capable: bool, wscale: u8) -> Segment {
    let mut t = TcpRepr::new(sport, BP);
    t.seq = SeqNumber(ISS_A);
    t.flags = TcpFlags::SYN;
    if ecn_capable {
        t.flags |= TcpFlags::ECE | TcpFlags::CWR;
    }
    t.window = 65_000;
    t.options = vec![
        TcpOption::MaxSegmentSize(MSS as u16),
        TcpOption::WindowScale(wscale),
    ];
    Segment::new_tcp(ip(A, B, Ecn::NotEct), t, 0)
}

fn synack(ecn_capable: bool, wscale: u8) -> Segment {
    let mut t = TcpRepr::new(BP, AP);
    t.seq = SeqNumber(ISS_B);
    t.ack = SeqNumber(ISS_A + 1);
    t.flags = TcpFlags::SYN | TcpFlags::ACK;
    if ecn_capable {
        t.flags |= TcpFlags::ECE;
    }
    t.window = 65_000;
    t.options = vec![
        TcpOption::MaxSegmentSize(MSS as u16),
        TcpOption::WindowScale(wscale),
    ];
    Segment::new_tcp(ip(B, A, Ecn::NotEct), t, 0)
}

/// Data from A's guest: `off` bytes into the stream, `len` payload.
fn data(off: u32, len: usize, ecn: Ecn) -> Segment {
    data_on(AP, off, len, ecn)
}

/// [`data`] from A's guest at port `sport`.
fn data_on(sport: u16, off: u32, len: usize, ecn: Ecn) -> Segment {
    let mut t = TcpRepr::new(sport, BP);
    t.seq = SeqNumber(ISS_A + 1 + off);
    t.ack = SeqNumber(ISS_B + 1);
    t.flags = TcpFlags::ACK;
    t.window = 127; // raw, scaled by A's wscale
    Segment::new_tcp(ip(A, B, ecn), t, len)
}

/// ACK from B's guest covering `off` stream bytes, advertising `raw_wnd`.
fn ack(off: u32, raw_wnd: u16) -> Segment {
    from_b(off, raw_wnd, 0, None)
}

/// B's side on the wire: `len` bytes of data that acknowledge `off`
/// stream bytes under `raw_wnd`, with `pack` if given, whoever sent it.
fn from_b(off: u32, raw_wnd: u16, len: usize, pack: Option<PackOption>) -> Segment {
    let mut t = TcpRepr::new(BP, AP);
    t.seq = SeqNumber(ISS_B + 1);
    t.ack = SeqNumber(ISS_A + 1 + off);
    t.flags = TcpFlags::ACK;
    t.window = raw_wnd;
    t.options = pack.into_iter().map(TcpOption::Pack).collect();
    Segment::new_tcp(ip(B, A, Ecn::NotEct), t, len)
}

fn key_ab() -> FlowKey {
    FlowKey {
        src_ip: A,
        dst_ip: B,
        src_port: AP,
        dst_port: BP,
    }
}

/// Set up two datapaths and run the handshake through both.
fn rig(guest_ecn: bool) -> (AcdcDatapath, AcdcDatapath) {
    let dpa = AcdcDatapath::new(AcdcConfig::dctcp(MTU));
    let dpb = AcdcDatapath::new(AcdcConfig::dctcp(MTU));
    handshake(&dpa, &dpb, guest_ecn);
    (dpa, dpb)
}

fn handshake(dpa: &AcdcDatapath, dpb: &AcdcDatapath, guest_ecn: bool) {
    // A guest SYN → dpa egress → wire → dpb ingress → B guest.
    let s = egress(dpa, 0, syn(guest_ecn, 9));
    let s = ingress(dpb, 1_000, s);
    assert!(s.tcp_flags().contains(TcpFlags::SYN));
    // B guest SYNACK back.
    let sa = egress(dpb, 2_000, synack(guest_ecn, 9));
    let sa = ingress(dpa, 3_000, sa);
    assert!(sa.tcp_flags().contains(TcpFlags::ACK));
}

#[test]
fn handshake_creates_entries_and_records_wscale() {
    let (dpa, dpb) = rig(false);
    assert!(dpa.flows() >= 2, "two directions tracked");
    assert!(dpb.flows() >= 2);
    // ACKs for A→B data come from B, which advertised wscale 9.
    assert_eq!(entry(&dpa, &key_ab(), |e| e.rwnd().wscale()), 9);
    let view = dpa.seq_view(&key_ab()).expect("sequence state valid");
    assert_eq!(view.snd_una, SeqNumber(ISS_A + 1));
}

#[test]
fn egress_data_forced_ect_and_reserved_bit_reflects_guest() {
    // Non-ECN guest: packets leave NotEct, must become ECT0 + bit clear.
    let (dpa, _) = rig(false);
    let d = egress(&dpa, 10_000, data(0, MSS, Ecn::NotEct));
    assert_eq!(d.ecn(), Ecn::Ect0, "AC/DC forces ECT");
    assert!(!d.tcp().vm_ece());
    assert!(d.verify_checksums());

    // ECN guest: bit set.
    let (dpa, _) = rig(true);
    let d = egress(&dpa, 10_000, data(0, MSS, Ecn::Ect0));
    assert_eq!(d.ecn(), Ecn::Ect0);
    assert!(d.tcp().vm_ece());
    assert!(d.verify_checksums());
}

#[test]
fn receiver_module_strips_ce_and_counts() {
    let (dpa, dpb) = rig(false);
    let d = egress(&dpa, 10_000, data(0, MSS, Ecn::NotEct));
    let mut d = d;
    d.mark_ce(); // switch marks it
    let delivered = ingress(&dpb, 20_000, d);
    // Guest was not ECN-capable → delivered NotEct, reserved bits clear.
    assert_eq!(delivered.ecn(), Ecn::NotEct);
    assert!(!delivered.tcp().vm_ece());
    assert!(delivered.verify_checksums());
    let e = entry(&dpb, &key_ab(), |e| e.checkpoint_state());
    assert_eq!(e.feedback.rx_total, MSS as u64);
    assert_eq!(e.feedback.rx_marked, MSS as u64);
}

#[test]
fn ce_stripped_to_ect_for_ecn_guest() {
    let (dpa, dpb) = rig(true);
    let mut d = egress(&dpa, 10_000, data(0, MSS, Ecn::Ect0));
    d.mark_ce();
    let delivered = ingress(&dpb, 20_000, d);
    // Guest spoke ECN → restore ECT0 (hide only the CE mark).
    assert_eq!(delivered.ecn(), Ecn::Ect0);
    assert!(delivered.verify_checksums());
}

#[test]
fn ack_carries_pack_and_sender_consumes_it() {
    let (dpa, dpb) = rig(false);
    // Data A→B, marked in the network.
    let mut d = egress(&dpa, 10_000, data(0, MSS, Ecn::NotEct));
    d.mark_ce();
    ingress(&dpb, 20_000, d);

    // B guest ACKs; dpb egress must attach a PACK with the counts.
    let a = egress(&dpb, 21_000, ack(MSS as u32, 65_000));
    let pack = reread(&a).pack.expect("PACK attached");
    assert_eq!(pack.total_bytes, MSS as u32);
    assert_eq!(pack.marked_bytes, MSS as u32);
    assert!(a.verify_checksums());

    // dpa ingress: PACK stripped before the guest sees the ACK.
    let delivered = ingress(&dpa, 22_000, a);
    assert!(reread(&delivered).pack.is_none());
    assert!(delivered.verify_checksums());
    assert_eq!(dpa.counters().packs_received.get(), 1);
    // Connection tracking advanced.
    let view = dpa.seq_view(&key_ab()).unwrap();
    assert_eq!(view.snd_una, SeqNumber(ISS_A + 1 + MSS as u32));
}

#[test]
fn rwnd_rewritten_smaller_with_wscale() {
    let (dpa, dpb) = rig(false);
    let d = egress(&dpa, 10_000, data(0, MSS, Ecn::NotEct));
    ingress(&dpb, 20_000, d);
    let a = egress(&dpb, 21_000, ack(MSS as u32, 65_000));
    let delivered = ingress(&dpa, 22_000, a);

    let cwnd = entry(&dpa, &key_ab(), |e| e.cc().cwnd());
    let expect_raw = (cwnd >> 9).max(1) as u16;
    assert_eq!(delivered.tcp().window(), expect_raw);
    assert!(u64::from(delivered.tcp().window()) < 65_000);
    assert!(delivered.verify_checksums());
    assert!(dpa.counters().rwnd_rewrites.get() >= 1);
}

#[test]
fn rwnd_not_rewritten_when_guest_window_already_smaller() {
    let (dpa, dpb) = rig(false);
    let d = egress(&dpa, 10_000, data(0, MSS, Ecn::NotEct));
    ingress(&dpb, 20_000, d);
    // Guest advertises raw 2 (scaled: 1 KB) — far below cwnd.
    let a = egress(&dpb, 21_000, ack(MSS as u32, 2));
    let delivered = ingress(&dpa, 22_000, a);
    assert_eq!(delivered.tcp().window(), 2, "original smaller window kept");
}

#[test]
fn ece_feedback_hidden_from_guest() {
    let (dpa, dpb) = rig(true);
    let d = egress(&dpa, 10_000, data(0, MSS, Ecn::Ect0));
    ingress(&dpb, 20_000, d);
    // ACK with ECE set (guest B echoing a mark).
    let mut raw_ack = ack(MSS as u32, 65_000);
    raw_ack.set_tcp_flags(raw_ack.tcp_flags() | TcpFlags::ECE);
    let a = egress(&dpb, 21_000, raw_ack);
    let delivered = ingress(&dpa, 22_000, a);
    assert!(
        !delivered.tcp_flags().contains(TcpFlags::ECE),
        "ECE must be stripped so the guest does not also back off"
    );
    assert!(delivered.verify_checksums());
}

#[test]
fn pack_overflow_generates_fack() {
    let (dpa, dpb) = rig(false);
    let d = egress(&dpa, 10_000, data(0, MSS, Ecn::NotEct));
    ingress(&dpb, 20_000, d);

    // B sends a full-MTU data packet that also acks: no room for PACK.
    // Full-MTU frame: 20 B IP + 20 B TCP + 1460 B payload.
    let full = from_b(MSS as u32, 65_000, MTU - 40, None);
    assert_eq!(full.wire_len(), MTU);

    match dpb.egress(21_000, full) {
        Verdict::ForwardWithExtra(main, fack) => {
            assert!(reread(&main).pack.is_none());
            assert!(fack.tcp().is_fack());
            assert_eq!(fack.payload_len(), 0);
            let p = reread(&fack).pack.unwrap();
            assert_eq!(p.total_bytes, MSS as u32);
            assert!(p.marked_bytes <= p.total_bytes);
            assert!(fack.verify_checksums());

            // The FACK is absorbed at the sender side.
            match dpa.ingress(22_000, *fack) {
                Verdict::Drop(DropReason::FackConsumed) => {}
                v => panic!("expected FACK drop, got {v:?}"),
            }
        }
        v => panic!("expected FACK generation, got {v:?}"),
    }
}

#[test]
fn full_80_byte_header_sends_its_feedback_in_a_fack() {
    let (dpa, dpb) = rig(false);
    let d = egress(&dpa, 10_000, data(0, MSS, Ecn::NotEct));
    ingress(&dpb, 20_000, d);

    // B's guest acks the first segment with a header at the 80-byte
    // limit: 20 B IPv4, then a 60 B TCP header holding NOP NOP, three
    // SACK blocks (one MSS each, one MSS apart) and a PACK of its own
    // (1 448 bytes, none marked).
    #[rustfmt::skip]
    let bytes: [u8; 80] = [
        0x45, 0x00, 0x00, 0x50, 0x00, 0x00, 0x40, 0x00, 0x40, 0x06, // v4, 80 B, DF, TTL 64, TCP
        0x26, 0xa6, 10, 0, 0, 2, 10, 0, 0, 1,                       // checksum, B -> A
        0x13, 0x89, 0x9c, 0x40, 0x00, 0x1e, 0x84, 0x81,             // 5001 -> 40000, seq ISS_B + 1
        0x00, 0x00, 0x09, 0x91, 0xf0, 0x10, 0xfd, 0xe8,             // ack ISS_A + 1 + MSS, 60 B, ACK, 65 000
        0x59, 0xeb, 0x00, 0x00,                                     // checksum, urgent
        0x01, 0x01, 0x05, 0x1a,                                     // NOP NOP SACK, 3 blocks
        0x00, 0x00, 0x0f, 0x39, 0x00, 0x00, 0x14, 0xe1,
        0x00, 0x00, 0x1a, 0x89, 0x00, 0x00, 0x20, 0x31,
        0x00, 0x00, 0x25, 0xd9, 0x00, 0x00, 0x2b, 0x81,
        0xfd, 0x0c, 0xac, 0xdc, 0x00, 0x00, 0x05, 0xa8, 0x00, 0x00, 0x00, 0x00, // PACK
    ];
    let ack = Segment::from_header_bytes(bytes, 0).expect("80 bytes fit a segment");

    // The header is full, so the receiver module's PACK cannot ride on
    // it. The FACK, a payload-free copy whose only option is the
    // receiver module's PACK, carries the feedback instead.
    match dpb.egress(21_000, ack) {
        Verdict::ForwardWithExtra(main, fack) => {
            assert_eq!(main.header_bytes().len(), 80);
            assert!(main.verify_checksums());
            assert!(fack.tcp().is_fack());
            assert_eq!(fack.header_bytes().len(), 20 + 20 + PackOption::WIRE_LEN);
            let p = reread(&fack).pack.expect("the FACK carries a PACK");
            assert_eq!(p.total_bytes, MSS as u32);
            assert!(fack.verify_checksums());
            assert_eq!(dpb.counters().facks_sent.get(), 1);

            match dpa.ingress(22_000, *fack) {
                Verdict::Drop(DropReason::FackConsumed) => {}
                v => panic!("expected FACK drop, got {v:?}"),
            }
            let delivered = ingress(&dpa, 22_000, main);
            assert!(reread(&delivered).pack.is_none(), "PACK leaked");
            assert!(delivered.verify_checksums());
        }
        v => panic!("expected FACK generation, got {v:?}"),
    }
}

#[test]
fn a_full_sack_and_timestamp_ack_sends_its_feedback_in_a_fack() {
    let (dpa, dpb) = rig(false);
    let d = egress(&dpa, 10_000, data(0, MSS, Ecn::NotEct));
    ingress(&dpb, 20_000, d);

    // What Linux sends under loss with timestamps on: a 60 B TCP header
    // holding NOP NOP TS (123 456, 67 890) NOP NOP and three SACK blocks
    // (one MSS each, one MSS apart), and no PACK.
    #[rustfmt::skip]
    let bytes: [u8; 80] = [
        0x45, 0x00, 0x00, 0x50, 0x00, 0x00, 0x40, 0x00, 0x40, 0x06, // v4, 80 B, DF, TTL 64, TCP
        0x26, 0xa6, 10, 0, 0, 2, 10, 0, 0, 1,                       // checksum, B -> A
        0x13, 0x89, 0x9c, 0x40, 0x00, 0x1e, 0x84, 0x81,             // 5001 -> 40000, seq ISS_B + 1
        0x00, 0x00, 0x09, 0x91, 0xf0, 0x10, 0xfd, 0xe8,             // ack ISS_A + 1 + MSS, 60 B, ACK, 65 000
        0x14, 0xfd, 0x00, 0x00,                                     // checksum, urgent
        0x01, 0x01, 0x08, 0x0a,                                     // NOP NOP TS
        0x00, 0x01, 0xe2, 0x40, 0x00, 0x01, 0x09, 0x32,
        0x01, 0x01, 0x05, 0x1a,                                     // NOP NOP SACK, 3 blocks
        0x00, 0x00, 0x0f, 0x39, 0x00, 0x00, 0x14, 0xe1,
        0x00, 0x00, 0x1a, 0x89, 0x00, 0x00, 0x20, 0x31,
        0x00, 0x00, 0x25, 0xd9, 0x00, 0x00, 0x2b, 0x81,
    ];
    let ack = Segment::from_header_bytes(bytes, 0).expect("80 bytes fit a segment");
    assert!(ack.verify_checksums());

    match dpb.egress(21_000, ack) {
        Verdict::ForwardWithExtra(main, fack) => {
            assert_eq!(main.header_bytes()[20..], bytes[20..], "TCP header kept");
            assert!(main.verify_checksums());
            assert!(fack.tcp().is_fack());
            assert_eq!(
                reread(&fack).l4_header_len as usize,
                20 + PackOption::WIRE_LEN
            );
            let p = reread(&fack).pack.expect("the FACK carries a PACK");
            assert_eq!(p.total_bytes, MSS as u32);
            assert!(fack.verify_checksums());
            match dpa.ingress(22_000, *fack) {
                Verdict::Drop(DropReason::FackConsumed) => {}
                v => panic!("expected FACK drop, got {v:?}"),
            }
        }
        v => panic!("expected FACK generation, got {v:?}"),
    }
    assert_eq!(dpb.counters().facks_sent.get(), 1);
    assert_eq!(dpb.counters().feedback_dropped.get(), 0);
}

#[test]
fn policing_drops_nonconforming_flow() {
    let mut cfg = AcdcConfig::dctcp(MTU);
    cfg.police_slack_bytes = Some(3 * MSS as u64);
    let dpa = AcdcDatapath::new(cfg);
    let dpb = AcdcDatapath::new(AcdcConfig::dctcp(MTU));
    handshake(&dpa, &dpb, false);

    // Initial vSwitch cwnd = 10 MSS; slack 3 MSS → anything past 13 MSS
    // outstanding must be dropped.
    let mut dropped = 0;
    for i in 0..20u32 {
        match dpa.egress(
            10_000 + u64::from(i),
            data(i * MSS as u32, MSS, Ecn::NotEct),
        ) {
            Verdict::Drop(DropReason::Policed) => dropped += 1,
            Verdict::Forward(_) => {}
            v => panic!("unexpected {v:?}"),
        }
    }
    assert_eq!(dropped, 7, "20 sent, 13 allowed");
    let stats = dpa.flow_stats();
    let flow = stats.iter().find(|s| s.key == key_ab()).unwrap();
    assert_eq!(flow.policed, 7);
}

#[test]
fn log_only_mode_computes_but_does_not_rewrite() {
    let mut cfg = AcdcConfig::dctcp(MTU);
    cfg.log_only = true;
    cfg.trace_windows = true;
    let dpa = AcdcDatapath::new(cfg);
    let dpb = AcdcDatapath::new(AcdcConfig::dctcp(MTU));
    handshake(&dpa, &dpb, false);

    let d = egress(&dpa, 10_000, data(0, MSS, Ecn::NotEct));
    ingress(&dpb, 20_000, d);
    let a = egress(&dpb, 21_000, ack(MSS as u32, 65_000));
    let delivered = ingress(&dpa, 22_000, a);
    assert_eq!(delivered.tcp().window(), 65_000, "log-only: untouched");

    let (target, traced) = entry(&dpa, &key_ab(), |e| {
        (e.rwnd().target(), e.rwnd().trace().unwrap().len())
    });
    assert!(target > 0);
    assert!(traced == 1);
}

#[test]
fn dupacks_trigger_inferred_fast_retransmit() {
    let (dpa, dpb) = rig(false);
    for i in 0..5u32 {
        let d = egress(
            &dpa,
            10_000 + u64::from(i),
            data(i * MSS as u32, MSS, Ecn::NotEct),
        );
        ingress(&dpb, 11_000 + u64::from(i), d);
    }
    // First ACK advances; then three duplicates.
    let a = egress(&dpb, 21_000, ack(MSS as u32, 65_000));
    ingress(&dpa, 22_000, a);
    let cwnd_before = entry(&dpa, &key_ab(), |e| e.cc().cwnd());
    for i in 0..3 {
        let a = egress(&dpb, 23_000 + i, ack(MSS as u32, 65_000));
        ingress(&dpa, 24_000 + i, a);
    }
    assert_eq!(dpa.counters().inferred_fast_rtx.get(), 1);
    assert!(
        entry(&dpa, &key_ab(), |e| e.cc().cwnd()) < cwnd_before,
        "window cut on 3 dupacks"
    );
}

#[test]
fn disabled_datapath_is_passthrough() {
    let dp = AcdcDatapath::new(AcdcConfig::disabled(MTU));
    let before = data(0, MSS, Ecn::NotEct);
    let bytes_before = before.header_bytes().to_vec();
    let out = egress(&dp, 0, before);
    assert_eq!(out.header_bytes(), &bytes_before[..]);
    assert_eq!(dp.flows(), 0);
    let out = ingress(&dp, 0, out);
    assert_eq!(out.header_bytes(), &bytes_before[..]);
}

#[test]
fn per_flow_policy_assigns_different_algorithms() {
    let mut cfg = AcdcConfig::dctcp(MTU);
    // Destinations outside 10/8 are WAN-bound and get CUBIC.
    cfg.policy = CcPolicy::Custom(Rc::new(|k: &FlowKey| {
        if k.dst_ip[0] == 10 {
            CcKind::Dctcp
        } else {
            CcKind::Cubic
        }
    }));
    let dp = AcdcDatapath::new(cfg);
    // Intra-DC data flow.
    dp.egress(0, data(0, MSS, Ecn::NotEct));
    assert_eq!(entry(&dp, &key_ab(), |e| e.cc().name()), "dctcp");

    // WAN-bound flow.
    let mut t = TcpRepr::new(AP, 443);
    t.seq = SeqNumber(77);
    t.flags = TcpFlags::ACK;
    let wan = Segment::new_tcp(ip(A, [93, 184, 216, 34], Ecn::NotEct), t, MSS);
    let wan_key = wan.flow_key();
    dp.egress(0, wan);
    assert_eq!(entry(&dp, &wan_key, |e| e.cc().name()), "cubic");
}

#[test]
fn fin_marks_closing_and_gc_collects() {
    let (dpa, _dpb) = rig(false);
    let flows_before = dpa.flows();
    let fin = TcpFlags::ACK | TcpFlags::FIN;
    dpa.egress(50_000, control(true, ISS_A + 1, ISS_B + 1, fin));
    let collected = dpa.gc(60_000, u64::MAX);
    assert!(collected >= 1, "FIN-marked entry collected");
    assert!(dpa.flows() < flows_before);
}

/// The local guest closes, the remote answers with a FIN-ACK that carries
/// no payload, the guest ACKs it: both directions are closing and the
/// next sweep collects both.
#[test]
fn bare_fin_from_the_network_closes_its_entry() {
    let (dpa, _dpb) = rig(false);
    assert_eq!(dpa.flows(), 2);
    let fin_ack = TcpFlags::ACK | TcpFlags::FIN;
    dpa.egress(50_000, control(true, ISS_A + 1, ISS_B + 1, fin_ack));
    dpa.ingress(51_000, control(false, ISS_B + 1, ISS_A + 2, fin_ack));
    dpa.egress(52_000, control(true, ISS_A + 2, ISS_B + 2, TcpFlags::ACK));

    let closing: Vec<_> = dpa
        .flow_stats()
        .iter()
        .map(|s| (s.key, s.closing))
        .collect();
    assert_eq!(closing.len(), 2);
    assert!(closing.iter().all(|&(_, c)| c), "{closing:?}");
    assert_eq!(dpa.gc(60_000, u64::MAX), 2);
    assert_eq!(dpa.flows(), 0);
    // The datapath records each collected key once, at the sweep's time.
    let mut evicted: Vec<_> = dpa
        .telemetry()
        .recorder()
        .events()
        .into_iter()
        .filter(|e| {
            e.kind
                == EventKind::FlowEvicted {
                    reason: EvictReason::Gc,
                }
        })
        .map(|e| (e.at, e.flow))
        .collect();
    evicted.sort();
    let mut want = [(60_000, key_ab()), (60_000, key_ab().reverse())];
    want.sort();
    assert_eq!(evicted, want);
}

/// A payload-free control segment, from A's guest or from B's.
fn control(from_a: bool, seq: u32, ack: u32, flags: TcpFlags) -> Segment {
    let (src, dst, sport, dport) = if from_a {
        (A, B, AP, BP)
    } else {
        (B, A, BP, AP)
    };
    let mut t = TcpRepr::new(sport, dport);
    (t.seq, t.ack, t.flags) = (SeqNumber(seq), SeqNumber(ack), flags);
    t.window = 65_000;
    Segment::new_tcp(ip(src, dst, Ecn::NotEct), t, 0)
}

/// A connection ends through `close` and a new one reuses its 4-tuple
/// before the next sweep. Its handshake starts each closing entry afresh,
/// so the sweep keeps all four entries, the new scale is learned, and the
/// next ACK is rewritten under it.
fn reuse_after_close(close: impl Fn(&AcdcDatapath, &AcdcDatapath)) {
    let (dpa, dpb) = rig(false);
    close(&dpa, &dpb);
    for dp in [&dpa, &dpb] {
        let stats = dp.flow_stats();
        assert_eq!(stats.len(), 2);
        assert!(stats.iter().all(|s| s.closing), "{stats:?}");
    }

    // The new connection, within one sweep of the close; B now
    // advertises scale 7.
    let s = egress(&dpa, 100_000, syn(false, 9));
    ingress(&dpb, 101_000, s);
    let sa = egress(&dpb, 102_000, synack(false, 7));
    ingress(&dpa, 103_000, sa);
    assert_eq!(dpa.gc(110_000, u64::MAX), 0);
    assert_eq!(dpb.gc(110_000, u64::MAX), 0);
    assert_eq!((dpa.flows(), dpb.flows()), (2, 2));
    assert!(entry(&dpa, &key_ab(), |e| e.rwnd().learned()));
    assert_eq!(entry(&dpa, &key_ab(), |e| e.rwnd().wscale()), 7);

    let d = egress(&dpa, 120_000, data(0, MSS, Ecn::NotEct));
    ingress(&dpb, 121_000, d);
    let rewrites = dpa.counters().rwnd_rewrites.get();
    let a = egress(&dpb, 122_000, ack(MSS as u32, 65_000));
    let delivered = ingress(&dpa, 123_000, a);
    let cwnd = entry(&dpa, &key_ab(), |e| e.cc().cwnd());
    assert_eq!(delivered.tcp().window(), (cwnd >> 7).max(1) as u16);
    assert_eq!(dpa.counters().rwnd_rewrites.get(), rewrites + 1);
    assert_eq!(dpa.counters().unscaled_rwnd_skips.get(), 0);
}

#[test]
fn syn_after_rst_on_the_same_tuple_is_a_new_enforced_connection() {
    reuse_after_close(|dpa, dpb| {
        let rst = control(true, ISS_A + 1, 0, TcpFlags::RST);
        let rst = egress(dpa, 50_000, rst);
        ingress(dpb, 51_000, rst);
    });
}

#[test]
fn syn_after_fins_on_the_same_tuple_is_a_new_enforced_connection() {
    reuse_after_close(|dpa, dpb| {
        let fin_ack = TcpFlags::ACK | TcpFlags::FIN;
        let wire = |from_a: bool, at: u64, seg: Segment| {
            let (tx, rx) = if from_a { (dpa, dpb) } else { (dpb, dpa) };
            let seg = egress(tx, at, seg);
            ingress(rx, at + 1_000, seg);
        };
        wire(true, 50_000, control(true, ISS_A + 1, ISS_B + 1, fin_ack));
        wire(false, 60_000, control(false, ISS_B + 1, ISS_A + 2, fin_ack));
        wire(
            true,
            70_000,
            control(true, ISS_A + 2, ISS_B + 2, TcpFlags::ACK),
        );
    });
}

/// `connections()` counts records: two entries of one connection are
/// one, and so is a connection with one direction left, or a key that is
/// its own reverse.
#[test]
fn connections_count_records_not_directions() {
    let (dpa, _dpb) = rig(false);
    assert_eq!((dpa.flows(), dpa.connections()), (2, 1));

    // Half-closed: A's FIN is collected, B's direction stays.
    let fin = TcpFlags::ACK | TcpFlags::FIN;
    dpa.egress(50_000, control(true, ISS_A + 1, ISS_B + 1, fin));
    assert_eq!(dpa.gc(60_000, u64::MAX), 1);
    let left: Vec<FlowKey> = dpa.flow_stats().iter().map(|s| s.key).collect();
    assert_eq!(left, [key_ab().reverse()]);
    assert_eq!((dpa.flows(), dpa.connections()), (1, 1));

    // Source = destination: one entry, lent as both directions.
    let dp = AcdcDatapath::new(AcdcConfig::dctcp(MTU));
    let mut t = TcpRepr::new(AP, AP);
    t.seq = SeqNumber(ISS_A);
    t.flags = TcpFlags::SYN;
    t.window = 65_000;
    egress(&dp, 0, Segment::new_tcp(ip(A, A, Ecn::NotEct), t, 0));
    let own = FlowKey {
        src_ip: A,
        dst_ip: A,
        src_port: AP,
        dst_port: AP,
    };
    assert_eq!(own.reverse(), own);
    assert_eq!((dp.flows(), dp.connections()), (1, 1));
}

#[test]
fn window_update_generation() {
    let (dpa, dpb) = rig(false);
    let d = egress(&dpa, 10_000, data(0, MSS, Ecn::NotEct));
    ingress(&dpb, 20_000, d);
    let wu = dpa.make_window_update(&key_ab()).expect("window update");
    assert!(wu.is_pure_ack());
    assert_eq!(wu.flow_key(), key_ab().reverse());
    let raw = (entry(&dpa, &key_ab(), |e| e.cc().cwnd()) >> 9).max(1) as u16;
    assert_eq!(wu.tcp().window(), raw);
    assert!(wu.verify_checksums());
}

#[test]
fn dup_ack_generation() {
    let (dpa, dpb) = rig(false);
    let d = egress(&dpa, 10_000, data(0, MSS, Ecn::NotEct));
    ingress(&dpb, 20_000, d);
    let dups = dpa.make_dup_acks(&key_ab(), 3);
    assert_eq!(dups.len(), 3);
    for dup in &dups {
        assert!(dup.is_pure_ack());
        assert_eq!(dup.tcp().ack_number(), SeqNumber(ISS_A + 1));
        assert!(dup.verify_checksums());
    }
}

#[test]
fn inactivity_tick_infers_timeout() {
    let (dpa, dpb) = rig(false);
    // Send data that never gets acked.
    let d = egress(&dpa, 10_000, data(0, MSS, Ecn::NotEct));
    ingress(&dpb, 11_000, d);
    let cwnd_before = entry(&dpa, &key_ab(), |e| e.cc().cwnd());
    // 50 ms later (RTOmin floor is 10 ms) the tick must infer a timeout.
    dpa.tick(50_000_000);
    assert_eq!(dpa.counters().inferred_timeouts.get(), 1);
    assert!(entry(&dpa, &key_ab(), |e| e.cc().cwnd()) < cwnd_before);
    // A second immediate tick must not double-fire.
    dpa.tick(50_000_001);
    assert_eq!(dpa.counters().inferred_timeouts.get(), 1);
}

#[test]
fn pack_feedback_drives_dctcp_cut() {
    let (dpa, dpb) = rig(false);
    // Establish some progress first so cwnd > floor.
    let mut off = 0u32;
    for i in 0..10 {
        let d = egress(&dpa, 10_000 + i, data(off, MSS, Ecn::NotEct));
        ingress(&dpb, 11_000 + i, d);
        off += MSS as u32;
        let a = egress(&dpb, 12_000 + i, ack(off, 65_000));
        ingress(&dpa, 13_000 + i, a);
    }
    let before = entry(&dpa, &key_ab(), |e| e.cc().cwnd());

    // Now a marked round: data CE-marked → PACK reports it → cut.
    let mut d = egress(&dpa, 50_000, data(off, MSS, Ecn::NotEct));
    d.mark_ce();
    ingress(&dpb, 51_000, d);
    off += MSS as u32;
    let a = egress(&dpb, 52_000, ack(off, 65_000));
    assert!(reread(&a).pack.unwrap().marked_bytes > 0);
    ingress(&dpa, 53_000, a);

    assert!(
        entry(&dpa, &key_ab(), |e| e.cc().cwnd()) < before,
        "marked feedback must shrink the enforced window"
    );
}

#[test]
fn pack_option_survives_only_between_vswitches() {
    // A PACK injected from outside (malformed/spoofed) still gets stripped
    // before reaching the guest.
    let (dpa, dpb) = rig(false);
    let d = egress(&dpa, 10_000, data(0, MSS, Ecn::NotEct));
    ingress(&dpb, 20_000, d);
    let pack = PackOption {
        total_bytes: 999,
        marked_bytes: 0,
    };
    let spoofed = from_b(MSS as u32, 65_000, 0, Some(pack));
    let delivered = ingress(&dpa, 30_000, spoofed);
    assert!(reread(&delivered).pack.is_none());
}

#[test]
fn spoofed_pack_with_more_marked_than_total_is_clamped() {
    // The PACK is wire input: a hostile peer can claim more marked bytes
    // than bytes. The sender module must neither trip its own counter
    // assertion on it nor hand the algorithm a fraction above one.
    let (dpa, dpb) = rig(false);
    let d = egress(&dpa, 10_000, data(0, MSS, Ecn::NotEct));
    ingress(&dpb, 20_000, d);
    let pack = PackOption {
        total_bytes: 10,
        marked_bytes: 4_000_000_000,
    };
    let spoofed = from_b(MSS as u32, 65_000, 0, Some(pack));
    let delivered = ingress(&dpa, 30_000, spoofed);
    assert!(reread(&delivered).pack.is_none(), "PACK stripped");
    assert!(delivered.verify_checksums());
    let alpha = entry(&dpa, &key_ab(), |e| e.cc().alpha_micros()).expect("DCTCP publishes alpha");
    assert!(alpha <= 1_000_000, "alpha {alpha}e-6 escaped [0, 1]");
}

#[test]
fn flow_stats_snapshot_reflects_activity() {
    let (dpa, dpb) = rig(false);
    let mut off = 0u32;
    for i in 0..5 {
        let mut d = egress(&dpa, 10_000 + i, data(off, MSS, Ecn::NotEct));
        if i % 2 == 0 {
            d.mark_ce();
        }
        ingress(&dpb, 11_000 + i, d);
        off += MSS as u32;
        let a = egress(&dpb, 12_000 + i, ack(off, 65_000));
        ingress(&dpa, 13_000 + i, a);
    }
    // Sender-side view: the enforced flow with its window and RTT.
    let stats = dpa.flow_stats();
    let fwd = stats
        .iter()
        .find(|s| s.key == key_ab())
        .expect("tracked flow");
    assert_eq!(fwd.cc_name, "dctcp");
    assert!(fwd.cwnd > 0);
    assert!(fwd.srtt.is_some(), "RTT sampled from ack clock");
    assert!(!fwd.closing);

    // Receiver-side view: lifetime byte accounting survives feedback
    // resets (the deltas are consumed by PACKs).
    let stats = dpb.flow_stats();
    let rx = stats
        .iter()
        .find(|s| s.key == key_ab())
        .expect("tracked flow at receiver");
    assert_eq!(rx.rx_total, 5 * MSS as u64);
    assert_eq!(rx.rx_marked, 3 * MSS as u64);
}

// ----------------------------------------------------------------------
// Overload safety: bounded admission, degradation ladder, restart
// ----------------------------------------------------------------------

fn counter(dp: &AcdcDatapath, name: &str) -> u64 {
    dp.telemetry()
        .registry()
        .value(&format!("acdc.{name}"))
        .expect("registered acdc.* counter")
}

#[test]
fn adopted_flow_stays_log_only_until_handshake() {
    let dpa = AcdcDatapath::new(AcdcConfig::dctcp(MTU));
    // No SYN observed: the entry is adopted from a data packet.
    egress(&dpa, 1_000, data(0, MSS, Ecn::NotEct));
    {
        assert!(dpa.seq_view(&key_ab()).is_some(), "sequence state adopted");
        assert!(
            !entry(&dpa, &key_ab(), |e| e.rwnd().learned()),
            "no handshake → scale unlearned"
        );
    }
    // This ACK would be rewritten (the initial DCTCP window is far below
    // 65 000 B) had the scale been learned; adopted flows are left alone.
    let a = ingress(&dpa, 2_000, ack(MSS as u32, 65_000));
    assert_eq!(a.tcp().window(), 65_000, "no rewrite with unlearned scale");
    assert!(counter(&dpa, "unscaled_rwnd_skips") >= 1);
    assert_eq!(counter(&dpa, "rwnd_rewrites"), 0);

    // A (retransmitted) handshake teaches the scale, restoring
    // enforcement for the same flow.
    egress(&dpa, 3_000, syn(false, 9));
    ingress(&dpa, 4_000, synack(false, 9));
    let a = ingress(&dpa, 5_000, ack(MSS as u32, 65_000));
    assert!(
        a.tcp().window() < 65_000,
        "rewrite active after handshake, got {}",
        a.tcp().window()
    );
    assert!(counter(&dpa, "rwnd_rewrites") >= 1);
}

#[test]
fn reset_drops_state_and_readopts_conservatively() {
    let (dpa, _dpb) = rig(false);
    assert!(dpa.flows() >= 2);
    let dropped = dpa.reset(50_000);
    assert!(dropped >= 2);
    assert_eq!(dpa.flows(), 0);
    assert_eq!(counter(&dpa, "datapath_resets"), 1);
    assert_eq!(dpa.health(), HealthState::Enforcing);
    assert_eq!(dpa.health_trace().len(), 1, "restart epoch recorded");

    // Mid-stream re-adoption from the next data packet...
    egress(&dpa, 60_000, data(0, MSS, Ecn::NotEct));
    assert!(dpa.flows() >= 1);
    // ...but the adopted flow is never enforced with the lost scale.
    let a = ingress(&dpa, 70_000, ack(MSS as u32, 65_000));
    assert_eq!(a.tcp().window(), 65_000);
    assert!(counter(&dpa, "unscaled_rwnd_skips") >= 1);
    assert_eq!(counter(&dpa, "rwnd_rewrites"), 0);
}

#[test]
fn capacity_exhaustion_walks_the_degradation_ladder() {
    let cfg = AcdcConfig {
        max_flows: Some(4),
        admission: AdmissionPolicy::RejectNew,
        ..AcdcConfig::dctcp(MTU)
    };
    let dpa = AcdcDatapath::new(cfg);
    // Flow 1 handshake: 2 entries, 50 % occupancy → still enforcing.
    egress(&dpa, 0, syn_on(41_000, false, 9));
    assert_eq!(dpa.health(), HealthState::Enforcing);
    // Flow 2: 4 entries, 100 % ≥ the 90 % watermark → log-only.
    egress(&dpa, 1_000, syn_on(41_001, false, 9));
    assert_eq!(dpa.flows(), 4);
    assert_eq!(dpa.health(), HealthState::LogOnly);
    // Flow 3: the table is full — rejected; drop to pass-through.
    egress(&dpa, 2_000, syn_on(41_002, false, 9));
    assert_eq!(dpa.flows(), 4);
    assert_eq!(dpa.health(), HealthState::PassThrough);
    assert!(counter(&dpa, "admission_rejects") >= 1);
    assert_eq!(counter(&dpa, "health_demotions"), 2);
    // Unadmitted traffic is forwarded untouched — no forced ECT.
    let d = egress(&dpa, 3_000, data_on(41_002, 0, MSS, Ecn::NotEct));
    assert_eq!(d.ecn(), Ecn::NotEct, "pass-through leaves the wire alone");
    assert!(counter(&dpa, "overload_passthrough") >= 1);
}

#[test]
fn evict_oldest_idle_admits_new_flows_at_capacity() {
    let cfg = AcdcConfig {
        max_flows: Some(2),
        admission: AdmissionPolicy::EvictOldestIdle,
        ..AcdcConfig::dctcp(MTU)
    };
    let dpa = AcdcDatapath::new(cfg);
    egress(&dpa, 0, syn_on(41_000, false, 9));
    egress(&dpa, 1_000, syn_on(41_001, false, 9));
    assert_eq!(dpa.flows(), 2, "capacity never exceeded");
    assert!(counter(&dpa, "capacity_evictions") >= 2);
    assert_eq!(counter(&dpa, "admission_rejects"), 0);
    assert_ne!(dpa.health(), HealthState::PassThrough);
}

/// The events `dp` records while `f` runs, with their flows, in order.
fn events_of(dp: &AcdcDatapath, f: impl FnOnce()) -> Vec<(FlowKey, EventKind)> {
    let before = dp.telemetry().recorder().events().len();
    f();
    let events = dp.telemetry().recorder().events().into_iter();
    events.skip(before).map(|e| (e.flow, e.kind)).collect()
}

/// Fill `dp`'s table with entries idle since t = 0, straight through the
/// table, so the ladder does not move.
#[allow(clippy::disallowed_methods)] // past the admission path on purpose
fn fill(dp: &AcdcDatapath, ports: &[u16]) {
    for &p in ports {
        let k = FlowKey {
            src_port: p,
            ..key_ab()
        };
        let e = || FlowEntry::new(CcKind::Dctcp, CcConfig::vswitch(MSS as u32), 0);
        assert!(dp.table().get_or_create(k, e).created());
    }
}

#[test]
fn the_busiest_packets_fill_the_event_buffer() {
    // The datapath hands a call's events out through a fixed buffer: the
    // two packets that produce the most must fit it, in order.
    let (ab, ba) = (key_ab(), key_ab().reverse());
    let at_the_watermark = AcdcConfig {
        max_flows: Some(2),
        admission: AdmissionPolicy::EvictOldestIdle,
        ..AcdcConfig::dctcp(MTU)
    };
    let created = |k| {
        [
            (
                k,
                EventKind::FlowEvicted {
                    reason: EvictReason::Capacity,
                },
            ),
            (k, EventKind::FlowCreated),
        ]
    };
    let demoted = (
        NO_FLOW,
        EventKind::HealthTransition {
            from: Rung::Enforcing,
            to: Rung::LogOnly,
        },
    );

    // An egress SYN: two evictions, two creations and the demotion the
    // first creation makes.
    let dp = AcdcDatapath::new(at_the_watermark.clone());
    fill(&dp, &[1, 2]);
    let got = events_of(&dp, || drop(dp.egress(1_000, syn(false, 9))));
    let want = [&created(ba)[..], &[demoted], &created(ab)[..]].concat();
    assert_eq!(got, want);

    // An ingress data segment: an eviction, a creation and the demotion,
    // then the two CC events of the ACK it carries for the stalled data
    // direction, an inferred timeout and, from its marked PACK, an alpha
    // update.
    let dp = AcdcDatapath::new(at_the_watermark.clone());
    dp.egress(1_000, data(0, MSS, Ecn::NotEct));
    fill(&dp, &[1]);
    assert_eq!(dp.health(), HealthState::Enforcing);
    let pack = PackOption {
        total_bytes: MSS as u32,
        marked_bytes: MSS as u32,
    };
    let seg = from_b(0, 65_000, MSS, Some(pack));
    let got = events_of(&dp, || drop(dp.ingress(50_000_000, seg)));
    assert_eq!(got[..3], [&created(ba)[..], &[demoted]].concat()[..]);
    let kind = std::mem::discriminant::<EventKind>;
    let cc: Vec<_> = got[3..].iter().map(|(k, e)| (*k, kind(e))).collect();
    let rto = kind(&EventKind::RtoFired { cwnd: 0 });
    let update = kind(&EventKind::AlphaUpdate { alpha_micros: 0 });
    assert_eq!(cc, [(ab, rto), (ab, update)], "{got:?}");
}

#[test]
fn ladder_recovers_with_hysteresis_after_gc() {
    // One maintenance interval evaluates the ladder once, whether it is
    // driven by `gc` alone or, as the host drives it, by `tick` then `gc`
    // at the same instant.
    type Maintain = fn(&AcdcDatapath, u64);
    let drivers: [(&str, Maintain); 2] = [
        ("gc only", |dp, now| {
            dp.gc(now, 1);
        }),
        ("tick then gc", |dp, now| {
            dp.tick(now);
            dp.gc(now, 1);
        }),
    ];
    for (driver, maintain) in drivers {
        let cfg = AcdcConfig {
            max_flows: Some(4),
            admission: AdmissionPolicy::RejectNew,
            ..AcdcConfig::dctcp(MTU)
        };
        let dpa = AcdcDatapath::new(cfg);
        for p in 0..3u16 {
            egress(&dpa, u64::from(p), syn_on(41_000 + p, false, 9));
        }
        assert_eq!(dpa.health(), HealthState::PassThrough, "{driver}");
        // All guests close; the entries become collectable.
        for s in dpa.flow_stats() {
            entry(&dpa, &s.key, |e| {
                let mut closed = e.checkpoint_state();
                closed.life.closing = true;
                assert!(e.restore_state(&closed));
            });
        }
        // First interval: occupancy drops to zero, but the reject is
        // still "recent" — the overload flag covers the interval up to
        // this check.
        maintain(&dpa, 10_000);
        assert_eq!(dpa.flows(), 0, "{driver}");
        assert_eq!(dpa.health(), HealthState::PassThrough, "{driver}");
        // Clean intervals then promote one rung at a time, never two.
        maintain(&dpa, 20_000);
        assert_eq!(dpa.health(), HealthState::LogOnly, "{driver}");
        maintain(&dpa, 30_000);
        assert_eq!(dpa.health(), HealthState::Enforcing, "{driver}");
        assert_eq!(counter(&dpa, "health_promotions"), 2, "{driver}");
        assert!(counter(&dpa, "gc_evictions") >= 4, "{driver}");
    }
}

// ----------------------------------------------------------------------
// Checkpoint / restore (DESIGN.md §14)
// ----------------------------------------------------------------------

#[test]
fn checkpoint_restore_continues_byte_identically() {
    // Drive real traffic — handshake, data, a CE-marked round — so the
    // checkpoint carries learned scales, CC state and feedback counters.
    let (dpa, dpb) = rig(false);
    let mut off = 0u32;
    for i in 0..6 {
        let mut d = egress(&dpa, 10_000 + i, data(off, MSS, Ecn::NotEct));
        if i % 3 == 0 {
            d.mark_ce();
        }
        ingress(&dpb, 11_000 + i, d);
        off += MSS as u32;
        let a = egress(&dpb, 12_000 + i, ack(off, 65_000));
        ingress(&dpa, 13_000 + i, a);
    }

    let ckpt = dpa.checkpoint(20_000, &[]);
    assert!(ckpt.flows.len() >= 2, "both directions captured");

    // Serialize → parse → restore into a same-config fresh datapath.
    let json = ckpt.to_json();
    let parsed = acdc_vswitch::DatapathCheckpoint::from_json(&json).unwrap();
    let fresh = AcdcDatapath::new(AcdcConfig::dctcp(MTU));
    assert_eq!(fresh.restore(&parsed).unwrap(), ckpt.flows.len());

    // Re-checkpointing the restored datapath reproduces the original
    // document byte for byte — state, counters, health, epoch, recorder.
    assert_eq!(fresh.checkpoint(20_000, &[]).to_json(), json);

    // Both datapaths now process the *same* next packet identically.
    let a1 = ingress(&dpa, 30_000, ack(off, 65_000));
    let a2 = ingress(&fresh, 30_000, ack(off, 65_000));
    assert_eq!(a1.header_bytes(), a2.header_bytes());
    let snapshot = dpa.telemetry().registry().snapshot_all();
    assert_eq!(snapshot, fresh.telemetry().registry().snapshot_all());
    assert_eq!(dpa.seq_view(&key_ab()), fresh.seq_view(&key_ab()));
    acdc_telemetry::golden(
        "vswitch.checkpoint_restore_continues",
        &[digest(&dpa), digest(&dpb), digest(&fresh)],
        &(json, a1.header_bytes(), snapshot),
    );
}

#[test]
fn sweep_events_after_restore_match_the_uninterrupted_run() {
    // 48 connections, opened in descending port order. Restore re-creates
    // entries in ascending key order, so entries whose probes collide sit
    // in other buckets than in the original table; the events a sweep
    // records must not follow them.
    let ports: Vec<u16> = (1_024..1_072).collect();
    let dp = AcdcDatapath::new(AcdcConfig::dctcp(MTU));
    for (i, &p) in ports.iter().rev().enumerate() {
        let now = 1_000 * i as u64;
        egress(&dp, now, syn_on(p, false, 9));
        let mut sa = TcpRepr::new(BP, p);
        sa.seq = SeqNumber(ISS_B);
        sa.ack = SeqNumber(ISS_A + 1);
        sa.flags = TcpFlags::SYN | TcpFlags::ACK;
        sa.window = 65_000;
        sa.options = vec![TcpOption::WindowScale(9)];
        ingress(
            &dp,
            now + 100,
            Segment::new_tcp(ip(B, A, Ecn::NotEct), sa, 0),
        );
        // Data that is never acked: every connection's timeout fires.
        egress(&dp, now + 200, data_on(p, 0, MSS, Ecn::NotEct));
        if i % 2 == 0 {
            // Half close, so the sweep below collects them.
            let mut fin = TcpRepr::new(p, BP);
            fin.seq = SeqNumber(ISS_A + 1 + MSS as u32);
            fin.ack = SeqNumber(ISS_B + 1);
            fin.flags = TcpFlags::ACK | TcpFlags::FIN;
            dp.egress(now + 300, Segment::new_tcp(ip(A, B, Ecn::NotEct), fin, 0));
        }
    }
    let next_seq = dp.telemetry().recorder().total_recorded();
    let fresh = AcdcDatapath::new(AcdcConfig::dctcp(MTU));
    fresh.restore(&dp.checkpoint(1_000_000, &[])).unwrap();

    let sweep = |d: &AcdcDatapath| {
        d.tick(50_000_000);
        d.gc(50_000_000, 30_000_000_000);
        let events = d.telemetry().recorder().events();
        events
            .into_iter()
            .filter(|e| e.seq >= next_seq)
            .collect::<Vec<_>>()
    };
    let (run, restored) = (sweep(&dp), sweep(&fresh));
    let count = |f: fn(&EventKind) -> bool| run.iter().filter(|e| f(&e.kind)).count();
    assert!(count(|k| matches!(k, EventKind::RtoFired { .. })) >= 24);
    assert!(count(|k| matches!(k, EventKind::FlowEvicted { .. })) >= 24);
    assert_eq!(run, restored, "sweep events diverged after restore");
    acdc_telemetry::golden(
        "vswitch.sweep_events_after_restore",
        &[digest(&dp), digest(&fresh)],
        &run,
    );
}

#[test]
fn restore_rejects_cc_policy_mismatch() {
    let (dpa, _dpb) = rig(false);
    egress(&dpa, 10_000, data(0, MSS, Ecn::NotEct));
    let ckpt = dpa.checkpoint(20_000, &[]);
    let mut cfg = AcdcConfig::dctcp(MTU);
    cfg.policy = CcPolicy::Uniform(CcKind::Cubic);
    let wrong = AcdcDatapath::new(cfg);
    let err = wrong.restore(&ckpt).unwrap_err();
    assert!(err.contains("dctcp"), "names the mismatched CC: {err}");
}

#[test]
fn restore_rejects_rx_pending_that_disagrees_with_rx_total() {
    // Capture writes `rx_pending` as `rx_total > 0`, so a document where
    // the two disagree is one no datapath wrote.
    let (dpa, dpb) = rig(false);
    let d = egress(&dpa, 10_000, data(0, MSS, Ecn::NotEct));
    ingress(&dpb, 11_000, d);
    let good = dpb.checkpoint(20_000, &[]);
    let pending = |f: &acdc_vswitch::FlowCheckpoint| f.rx_pending;
    assert_eq!(good.flows.iter().filter(|f| pending(f)).count(), 1);
    assert!(good.flows.iter().any(|f| !pending(f)));
    AcdcDatapath::new(AcdcConfig::dctcp(MTU))
        .restore(&good)
        .expect("a captured document restores");
    // Either way round: a pending flag without bytes, bytes without one.
    for i in 0..good.flows.len() {
        let mut bad = good.clone();
        bad.flows[i].rx_pending = !bad.flows[i].rx_pending;
        let err = AcdcDatapath::new(AcdcConfig::dctcp(MTU))
            .restore(&bad)
            .unwrap_err();
        assert!(err.contains("rx_pending"), "{err}");
    }
}

#[test]
fn restore_preserves_unlearned_scale_semantics() {
    // A mid-stream adopted flow (no handshake seen) must stay log-only
    // across a checkpoint/restore cycle — restoring never invents a
    // window scale.
    let dpa = AcdcDatapath::new(AcdcConfig::dctcp(MTU));
    egress(&dpa, 1_000, data(0, MSS, Ecn::NotEct));
    let ckpt = dpa.checkpoint(2_000, &[]);
    let fresh = AcdcDatapath::new(AcdcConfig::dctcp(MTU));
    fresh.restore(&ckpt).unwrap();
    {
        assert!(
            !entry(&fresh, &key_ab(), |e| e.rwnd().learned()),
            "scale still unlearned"
        );
    }
    let a = ingress(&fresh, 3_000, ack(MSS as u32, 65_000));
    assert_eq!(a.tcp().window(), 65_000, "no rewrite after restore");
    assert!(counter(&fresh, "unscaled_rwnd_skips") >= 1);
    assert_eq!(counter(&fresh, "rwnd_rewrites"), 0);
}

#[test]
fn restore_stamps_gc_epoch_and_shields_flows() {
    const T: u64 = 35_000_000_000;
    let (dpa, _dpb) = rig(false);
    let mut ckpt = dpa.checkpoint(T, &[]);
    ckpt.gc_epoch = T;
    let fresh = AcdcDatapath::new(AcdcConfig::dctcp(MTU));
    fresh.restore(&ckpt).unwrap();
    assert_eq!(fresh.checkpoint(T, &[]).gc_epoch, T);
    // Entries carry handshake-era activity times (~0 ns), but the epoch
    // shields them from the first sweep after restore.
    assert_eq!(fresh.gc(T + 1, 30_000_000_000), 0);
    assert!(fresh.flows() >= 2);
}

#[test]
fn reset_stamps_gc_epoch() {
    let dp = AcdcDatapath::new(AcdcConfig::dctcp(MTU));
    let epoch = |dp: &AcdcDatapath| dp.checkpoint(0, &[]).gc_epoch;
    assert_eq!(epoch(&dp), 0);
    dp.reset(7_000);
    assert_eq!(epoch(&dp), 7_000, "restart stamps the GC bookkeeping epoch");
}

#[test]
fn a_connection_to_itself_runs_both_roles_on_one_entry() {
    // A tenant can send segments whose source and destination, address
    // and port, are equal. Such a key is its own reverse: the entry a
    // data segment updates is the one its ACK then updates, in both
    // directions. Nothing may panic, and the entry ends where the
    // one-entry-per-direction table left it.
    const S: [u8; 4] = [10, 0, 0, 9];
    const P: u16 = 7_000;
    let seg = |seq: u32, ack: u32, flags: TcpFlags, len: usize, ecn: Ecn| {
        let mut t = TcpRepr::new(P, P);
        t.seq = SeqNumber(ISS_A + seq);
        t.ack = SeqNumber(ISS_A + ack);
        t.flags = flags;
        t.window = 1_000;
        if flags.contains(TcpFlags::SYN) {
            t.options = vec![TcpOption::WindowScale(7)];
        }
        Segment::new_tcp(ip(S, S, ecn), t, len)
    };
    let own = FlowKey {
        src_ip: S,
        dst_ip: S,
        src_port: P,
        dst_port: P,
    };
    assert_eq!(own.reverse(), own);
    let dp = AcdcDatapath::new(AcdcConfig::dctcp(MTU));
    let syn = TcpFlags::SYN | TcpFlags::ECE | TcpFlags::CWR;
    dp.egress(0, seg(0, 0, syn, 0, Ecn::NotEct));
    dp.ingress(100, seg(0, 1, syn | TcpFlags::ACK, 0, Ecn::NotEct));
    let mss = MSS as u32;
    let mut now = 1_000;
    for round in 0..8u32 {
        let (sent, acked) = (1 + round * mss, 1 + round.saturating_sub(1) * mss);
        let ce = if round % 3 == 0 { Ecn::Ce } else { Ecn::Ect0 };
        for (flags, len, ecn) in [
            (TcpFlags::ACK, MSS, Ecn::NotEct),
            (TcpFlags::ACK, 0, Ecn::NotEct),
            (TcpFlags::ACK, 0, Ecn::NotEct),
        ] {
            now += 1_000;
            dp.egress(now, seg(sent, acked, flags, len, ecn));
            now += 1_000;
            dp.ingress(now, seg(sent, acked + mss, flags, len, ce));
        }
    }
    now += 1_000;
    dp.ingress(
        now,
        seg(
            1 + 8 * mss,
            1 + 8 * mss,
            TcpFlags::ACK | TcpFlags::FIN,
            0,
            Ecn::Ect0,
        ),
    );
    let stats = dp.flow_stats();
    assert_eq!(dp.flows(), 1);
    let s = &stats[0];
    assert_eq!(
        (s.key, s.cwnd, s.in_flight, s.srtt, s.rx_total, s.rx_marked),
        (own, 26_184, 0, Some(3_357), 11_584, 4_344)
    );
    assert!(s.closing, "the bare FIN closed it");
    let view = dp.seq_view(&own).expect("sequence state valid");
    assert_eq!(
        (view.snd_una, view.snd_nxt),
        (SeqNumber(12_585), SeqNumber(12_585))
    );
    let counters = ["packs_sent", "packs_received", "rwnd_rewrites"].map(|c| counter(&dp, c));
    assert_eq!(counters, [8, 0, 25]);
    now += 1_000;
    dp.egress(now, seg(1, 1, TcpFlags::RST, 0, Ecn::NotEct));
    assert_eq!(dp.gc(now, 30_000_000_000), 1);
    assert_eq!(dp.flows(), 0);
}
