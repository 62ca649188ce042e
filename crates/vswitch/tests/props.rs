//! Property-based tests for the AC/DC datapath: whatever packets fly
//! through it, invariants must hold.

use acdc_cc::CongestionControl;
use acdc_packet::{
    Ecn, FlowKey, Ipv4Repr, PacketMeta, Segment, SeqNumber, TcpFlags, TcpOption, TcpRepr, PROTO_TCP,
};
use acdc_vswitch::entry::MAX_ENFORCED_WINDOW;
use acdc_vswitch::{AcdcConfig, AcdcDatapath, Verdict};
use bytes::BytesMut;
use proptest::prelude::*;

const A: [u8; 4] = [10, 0, 0, 1];
const B: [u8; 4] = [10, 0, 0, 2];

/// `seg`'s headers read afresh, as the next hop would read them.
fn reread(seg: &Segment) -> PacketMeta {
    Segment::from_header_bytes(BytesMut::from(seg.header_bytes()), seg.payload_len())
        .expect("datapath output reads back")
        .try_meta()
        .expect("a read segment has its meta")
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

/// An abstract packet event for the generator.
#[derive(Debug, Clone, Copy)]
enum Ev {
    Syn {
        ecn: bool,
        wscale: u8,
    },
    DataOut {
        off: u32,
        len: u16,
        ce_in_net: bool,
    },
    AckIn {
        off: u32,
        wnd: u16,
        ece: bool,
    },
    FinOut {
        off: u32,
    },
    /// The guest at A resets the connection.
    Rst {
        off: u32,
    },
    /// A new handshake on the same 4-tuple: SYN from A, SYN-ACK from B.
    SynAgain {
        wscale: u8,
    },
}

fn arb_ev() -> impl Strategy<Value = Ev> {
    prop_oneof![
        1 => (any::<bool>(), 0u8..=14).prop_map(|(ecn, wscale)| Ev::Syn { ecn, wscale }),
        5 => (0u32..100_000, 1u16..9000, any::<bool>())
            .prop_map(|(off, len, ce_in_net)| Ev::DataOut { off, len, ce_in_net }),
        5 => (0u32..100_000, any::<u16>(), any::<bool>())
            .prop_map(|(off, wnd, ece)| Ev::AckIn { off, wnd, ece }),
        1 => (0u32..100_000).prop_map(|off| Ev::FinOut { off }),
        1 => (0u32..100_000).prop_map(|off| Ev::Rst { off }),
        1 => (0u8..=14).prop_map(|wscale| Ev::SynAgain { wscale }),
    ]
}

fn data_seg(off: u32, len: usize, ecn: Ecn) -> Segment {
    let mut t = TcpRepr::new(40_000, 5_001);
    t.seq = SeqNumber(1_001 + off);
    t.ack = SeqNumber(9_001);
    t.flags = TcpFlags::ACK;
    t.window = 500;
    Segment::new_tcp(ip(A, B, ecn), t, len)
}

fn ack_seg(off: u32, wnd: u16, ece: bool) -> Segment {
    let mut t = TcpRepr::new(5_001, 40_000);
    t.seq = SeqNumber(9_001);
    t.ack = SeqNumber(1_001 + off);
    t.flags = if ece {
        TcpFlags::ACK | TcpFlags::ECE
    } else {
        TcpFlags::ACK
    };
    t.window = wnd;
    Segment::new_tcp(ip(B, A, Ecn::NotEct), t, 0)
}

/// Every entry of `dp`, read through `checkpoint_state` (and the window
/// through `cc()`), holds the invariants the datapath's transitions
/// keep: an enforceable window, marked bytes never above their totals,
/// and send pointers in order.
fn check_entries(dp: &AcdcDatapath) {
    dp.table().for_each(|key, e| {
        let cwnd = e.cc().cwnd();
        assert!(
            (1..=MAX_ENFORCED_WINDOW).contains(&cwnd),
            "{key:?}: cwnd {cwnd} outside [1, {MAX_ENFORCED_WINDOW}]"
        );
        let s = e.checkpoint_state();
        let fb = s.feedback;
        assert!(fb.rx_marked <= fb.rx_total, "{key:?}: {fb:?}");
        assert!(
            fb.rx_marked_lifetime <= fb.rx_total_lifetime,
            "{key:?}: {fb:?}"
        );
        assert!(fb.fb_marked <= fb.fb_total, "{key:?}: {fb:?}");
        if s.seq.seq_valid {
            // `SeqNumber` differences are signed 32-bit: in [0, 2^31).
            assert!(s.seq.snd_nxt - s.seq.snd_una >= 0, "{key:?}: {:?}", s.seq);
        }
    });
}

/// A SYN from A, seq 1 000, with `wscale` (and ECN when `ecn`).
fn syn_seg(ecn: bool, wscale: u8) -> Segment {
    let mut t = TcpRepr::new(40_000, 5_001);
    t.seq = SeqNumber(1_000);
    t.flags = TcpFlags::SYN;
    if ecn {
        t.flags |= TcpFlags::ECE | TcpFlags::CWR;
    }
    t.options = vec![TcpOption::WindowScale(wscale)];
    Segment::new_tcp(ip(A, B, Ecn::NotEct), t, 0)
}

/// Drive `events` through sender host A and receiver host B, wired back
/// to back: nothing panics, every forwarded packet has valid checksums,
/// no AC/DC metadata (reserved bits, PACK options) leaks toward the
/// guest, and after every event both datapaths' entries pass
/// [`check_entries`].
fn random_traffic(events: &[Ev]) {
    let dpa = AcdcDatapath::new(AcdcConfig::dctcp(1500));
    let dpb = AcdcDatapath::new(AcdcConfig::dctcp(1500));
    let mut now = 0u64;
    for ev in events {
        now += 10_000;
        match *ev {
            Ev::Syn { ecn, wscale } => {
                if let Some(s) = dpa.egress(now, syn_seg(ecn, wscale)).forwarded() {
                    prop_assert!(s.verify_checksums());
                    let _ = dpb.ingress(now, s);
                }
            }
            Ev::DataOut {
                off,
                len,
                ce_in_net,
            } => {
                let seg = data_seg(off, usize::from(len), Ecn::NotEct);
                if let Some(mut s) = dpa.egress(now, seg).forwarded() {
                    prop_assert!(s.verify_checksums(), "egress checksum");
                    prop_assert!(s.ecn().is_ect(), "AC/DC must force ECT on data");
                    if ce_in_net {
                        s.mark_ce();
                    }
                    if let Some(d) = dpb.ingress(now, s).forwarded() {
                        prop_assert!(d.verify_checksums(), "ingress checksum");
                        prop_assert!(!d.tcp().vm_ece(), "reserved bit leaked");
                        prop_assert!(!d.tcp().is_fack(), "fack bit leaked");
                        prop_assert!(!d.ecn().is_ce(), "CE leaked to guest");
                    }
                }
            }
            Ev::AckIn { off, wnd, ece } => {
                // The ACK passes B's egress (may gain a PACK) then A's
                // ingress (must lose it again).
                let ack = ack_seg(off, wnd, ece);
                match dpb.egress(now, ack) {
                    Verdict::Forward(a) => {
                        prop_assert!(a.verify_checksums());
                        if let Some(d) = dpa.ingress(now, a).forwarded() {
                            prop_assert!(d.verify_checksums());
                            prop_assert!(reread(&d).pack.is_none(), "PACK leaked");
                            prop_assert!(!d.tcp_flags().contains(TcpFlags::ECE), "ECE leaked");
                            prop_assert!(d.tcp().window() <= wnd, "window may only shrink");
                        }
                    }
                    Verdict::ForwardWithExtra(a, fack) => {
                        prop_assert!(fack.tcp().is_fack());
                        prop_assert!(matches!(dpa.ingress(now, fack), Verdict::Drop(_)));
                        let _ = dpa.ingress(now, a);
                    }
                    Verdict::Drop(_) => {}
                }
            }
            Ev::FinOut { off } => {
                let mut t = TcpRepr::new(40_000, 5_001);
                t.seq = SeqNumber(1_001 + off);
                t.ack = SeqNumber(9_001);
                t.flags = TcpFlags::ACK | TcpFlags::FIN;
                let fin = Segment::new_tcp(ip(A, B, Ecn::NotEct), t, 0);
                if let Some(s) = dpa.egress(now, fin).forwarded() {
                    let _ = dpb.ingress(now, s);
                }
            }
            Ev::Rst { off } => {
                let mut t = TcpRepr::new(40_000, 5_001);
                t.seq = SeqNumber(1_001 + off);
                t.flags = TcpFlags::RST;
                let rst = Segment::new_tcp(ip(A, B, Ecn::NotEct), t, 0);
                if let Some(s) = dpa.egress(now, rst).forwarded() {
                    let _ = dpb.ingress(now, s);
                }
            }
            Ev::SynAgain { wscale } => {
                if let Some(s) = dpa.egress(now, syn_seg(false, wscale)).forwarded() {
                    let _ = dpb.ingress(now, s);
                }
                let mut t = TcpRepr::new(5_001, 40_000);
                t.seq = SeqNumber(9_000);
                t.ack = SeqNumber(1_001);
                t.flags = TcpFlags::SYN | TcpFlags::ACK;
                t.options = vec![TcpOption::WindowScale(wscale)];
                let syn_ack = Segment::new_tcp(ip(B, A, Ecn::NotEct), t, 0);
                if let Some(s) = dpb.egress(now, syn_ack).forwarded() {
                    let _ = dpa.ingress(now, s);
                }
            }
        }
        check_entries(&dpa);
        check_entries(&dpb);
    }
}

/// PACK conservation: the marked bytes the sender module accumulates
/// equal the CE-marked payload bytes the receiver module saw, for a
/// train of `(payload length, CE-marked in the network)` packets.
fn feedback_conserved(pkts: &[(u16, bool)]) {
    let dpa = AcdcDatapath::new(AcdcConfig::dctcp(9000));
    let dpb = AcdcDatapath::new(AcdcConfig::dctcp(9000));
    let mut now = 0;
    let mut off = 0u32;
    let mut marked_sent = 0u64;
    let mut total_sent = 0u64;
    let mut marked_reported = 0u64;
    let mut total_reported = 0u64;
    for &(len, ce) in pkts {
        now += 1_000;
        let seg = data_seg(off, usize::from(len), Ecn::NotEct);
        off += u32::from(len);
        let mut s = dpa.egress(now, seg).forwarded().unwrap();
        if ce {
            s.mark_ce();
            marked_sent += u64::from(len);
        }
        total_sent += u64::from(len);
        dpb.ingress(now, s).forwarded().unwrap();
        // The receiver guest acks; feedback rides along.
        let ack = ack_seg(off, 60_000, false);
        if let Some(a) = dpb.egress(now, ack).forwarded() {
            if let Some(p) = reread(&a).pack {
                total_reported += u64::from(p.total_bytes);
                marked_reported += u64::from(p.marked_bytes);
            }
            let _ = dpa.ingress(now, a);
        }
    }
    prop_assert_eq!(total_reported, total_sent);
    prop_assert_eq!(marked_reported, marked_sent);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// [`random_traffic`] over arbitrary event sequences.
    #[test]
    fn datapath_invariants_under_random_traffic(events in prop::collection::vec(arb_ev(), 1..120)) {
        random_traffic(&events);
    }

    /// [`feedback_conserved`] over arbitrary packet trains.
    #[test]
    fn feedback_conserves_marked_bytes(
        pkts in prop::collection::vec((1u16..9000, any::<bool>()), 1..40)
    ) {
        feedback_conserved(&pkts);
    }

    /// Flow-table garbage collection never loses live flows or keeps dead
    /// ones past the idle timeout.
    #[test]
    fn gc_respects_liveness(live in 1usize..40, dead in 1usize..40) {
        let dp = AcdcDatapath::new(AcdcConfig::dctcp(1500));
        for i in 0..(live + dead) {
            let mut t = TcpRepr::new(40_000 + i as u16, 5_001);
            t.seq = SeqNumber(1);
            t.flags = TcpFlags::ACK;
            let dst = [10, 9, (i >> 8) as u8, i as u8];
            let seg = Segment::new_tcp(ip(A, dst, Ecn::NotEct), t, 100);
            // Live flows touched late, dead flows only at t=0.
            let at = if i < live { 1_000_000_000 } else { 0 };
            let _ = dp.egress(at, seg);
        }
        let collected = dp.gc(1_000_000_001, 500_000_000);
        prop_assert_eq!(collected, dead);
        prop_assert_eq!(dp.flows(), live);
        let keys_left = {
            let mut v = Vec::new();
            dp.table().for_each(|k, _| v.push(*k));
            v
        };
        let all_live = keys_left.iter().all(|k: &FlowKey| {
            let i = (usize::from(k.src_port)) - 40_000;
            i < live
        });
        prop_assert!(all_live);
    }
}

proptest! {
    // nightly.yml runs these twins (`-- --ignored`).
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    #[ignore = "4096 cases; run with --ignored (nightly)"]
    fn datapath_invariants_under_random_traffic_4096(
        events in prop::collection::vec(arb_ev(), 1..120)
    ) {
        random_traffic(&events);
    }

    #[test]
    #[ignore = "4096 cases; run with --ignored (nightly)"]
    fn feedback_conserves_marked_bytes_4096(
        pkts in prop::collection::vec((1u16..9000, any::<bool>()), 1..40)
    ) {
        feedback_conserved(&pkts);
    }
}
