//! Property tests for checkpoint/restore (DESIGN.md §14).
//!
//! Two layers, pinned over *arbitrary* states rather than the few
//! hand-picked ones in `datapath.rs`:
//!
//! 1. **Wire format**: serialize → parse → serialize is the identity on
//!    the bytes, and parse inverts serialize on the value, for any
//!    checkpoint a datapath can produce.
//! 2. **Restore**: restoring a checkpoint into a freshly constructed
//!    same-config datapath and re-checkpointing reproduces the original
//!    document byte-for-byte — whatever mix of handshaken, mid-stream
//!    adopted, half-closed and gc-surviving flows the table held.
//!
//! The flow-table states are grown through the real packet path (an op
//! sequence of handshakes, data, ACKs, FINs, ticks and GC sweeps), so
//! every reachable combination of learned/unlearned scale, CC state,
//! feedback accumulators and closing flags is fair game.
//!
//! Plus one size check: the reader is the restore path, so a table of
//! the size the soak advertises must parse back in linear time.

use acdc_packet::{Ecn, Ipv4Repr, Segment, SeqNumber, TcpFlags, TcpOption, TcpRepr, PROTO_TCP};
use acdc_vswitch::{AcdcConfig, AcdcDatapath, DatapathCheckpoint};
use proptest::prelude::*;

const MTU: usize = 1_500;
const GUEST: [u8; 4] = [10, 0, 0, 1];
const PEER: [u8; 4] = [10, 0, 0, 2];

#[derive(Debug, Clone, Copy)]
enum Op {
    /// SYN out + SYN-ACK in for the flow, learning `wscale`.
    Handshake { flow: u8, wscale: u8 },
    /// Guest data at stream offset `round * 1000`; `ce` marks the IP
    /// header CE on ingress of the matching ACK's direction.
    Data {
        flow: u8,
        round: u8,
        len: u16,
        ce: bool,
    },
    /// Peer ACK covering `round * 1000` stream bytes.
    Ack { flow: u8, round: u8, wnd: u16 },
    /// Guest FIN (half-close; entries become gc-eligible).
    Fin { flow: u8 },
    /// Maintenance tick (inferred timeouts).
    Tick,
    /// GC sweep with a short idle timeout.
    Gc,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (0u8..12, 0u8..15).prop_map(|(flow, wscale)| Op::Handshake { flow, wscale }),
        4 => (0u8..12, 0u8..6, 1u16..1400, any::<bool>())
            .prop_map(|(flow, round, len, ce)| Op::Data { flow, round, len, ce }),
        4 => (0u8..12, 0u8..6, 0u16..2000).prop_map(|(flow, round, wnd)| Op::Ack {
            flow,
            round,
            wnd
        }),
        1 => (0u8..12).prop_map(|flow| Op::Fin { flow }),
        1 => Just(Op::Tick),
        1 => Just(Op::Gc),
    ]
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

fn iss(flow: u8) -> u32 {
    10_000 + 100_000 * u32::from(flow)
}

/// SYN out + SYN-ACK in for the connection `GUEST:sport` → `peer:80`,
/// both negotiating ECN and learning `wscale`.
fn handshake(dp: &AcdcDatapath, now: u64, peer: [u8; 4], sport: u16, iss: u32, wscale: u8) {
    let options = vec![
        TcpOption::MaxSegmentSize(1_448),
        TcpOption::WindowScale(wscale),
    ];
    let mut syn = TcpRepr::new(sport, 80);
    syn.seq = SeqNumber(iss);
    syn.flags = TcpFlags::SYN | TcpFlags::ECE | TcpFlags::CWR;
    syn.window = 65_000;
    syn.options = options.clone();
    let _ = dp.egress(now, Segment::new_tcp(ip(GUEST, peer, Ecn::NotEct), syn, 0));
    let mut sa = TcpRepr::new(80, sport);
    sa.seq = SeqNumber(1);
    sa.ack = SeqNumber(iss + 1);
    sa.flags = TcpFlags::SYN | TcpFlags::ACK | TcpFlags::ECE;
    sa.window = 65_000;
    sa.options = options;
    let _ = dp.ingress(now, Segment::new_tcp(ip(peer, GUEST, Ecn::NotEct), sa, 0));
}

/// Apply `ops` to a fresh datapath through the real packet path,
/// advancing virtual time per op; returns the datapath.
fn grow(ops: &[Op]) -> AcdcDatapath {
    let dp = AcdcDatapath::new(AcdcConfig::dctcp(MTU));
    let mut now = 0u64;
    for op in ops {
        now += 500_000;
        match *op {
            Op::Handshake { flow, wscale } => {
                handshake(&dp, now, PEER, 40_000 + u16::from(flow), iss(flow), wscale);
            }
            Op::Data {
                flow,
                round,
                len,
                ce,
            } => {
                let mut t = TcpRepr::new(40_000 + u16::from(flow), 80);
                t.seq = SeqNumber(iss(flow) + 1 + 1_000 * u32::from(round));
                t.ack = SeqNumber(1);
                t.flags = TcpFlags::ACK;
                t.window = 512;
                let ecn = if ce { Ecn::Ce } else { Ecn::Ect0 };
                let _ = dp.egress(now, Segment::new_tcp(ip(GUEST, PEER, ecn), t, len as usize));
            }
            Op::Ack { flow, round, wnd } => {
                let mut t = TcpRepr::new(80, 40_000 + u16::from(flow));
                t.seq = SeqNumber(1);
                t.ack = SeqNumber(iss(flow) + 1 + 1_000 * u32::from(round));
                t.flags = TcpFlags::ACK;
                t.window = wnd;
                let _ = dp.ingress(now, Segment::new_tcp(ip(PEER, GUEST, Ecn::NotEct), t, 0));
            }
            Op::Fin { flow } => {
                let mut t = TcpRepr::new(40_000 + u16::from(flow), 80);
                t.seq = SeqNumber(iss(flow) + 50_000);
                t.ack = SeqNumber(1);
                t.flags = TcpFlags::FIN | TcpFlags::ACK;
                t.window = 512;
                let _ = dp.egress(now, Segment::new_tcp(ip(GUEST, PEER, Ecn::NotEct), t, 0));
            }
            Op::Tick => dp.tick(now),
            Op::Gc => {
                dp.gc(now, 2_000_000);
            }
        }
    }
    dp
}

/// Restore fidelity: restoring through the serialized form into a fresh
/// same-config datapath and re-checkpointing reproduces the original
/// document byte-for-byte.
fn check_restore_round_trip(ops: &[Op]) {
    let dp = grow(ops);
    let at = 1_000_000_000u64;
    let json = dp.checkpoint(at, &[]).to_json();
    let parsed = DatapathCheckpoint::from_json(&json).expect("parses");

    let fresh = AcdcDatapath::new(AcdcConfig::dctcp(MTU));
    let restored = fresh.restore(&parsed).expect("restore must succeed");
    assert_eq!(restored, parsed.flows.len());
    assert_eq!(
        fresh.checkpoint(at, &[]).to_json(),
        json,
        "restored datapath must re-checkpoint to the same bytes"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Wire-format identity: for any reachable datapath state,
    /// serialize → parse inverts on the value and parse → serialize
    /// inverts on the bytes.
    #[test]
    fn checkpoint_json_round_trip_is_identity(
        ops in prop::collection::vec(op_strategy(), 1..60),
        at in 1u64..u64::MAX / 2,
    ) {
        let dp = grow(&ops);
        let ckpt = dp.checkpoint(at, &[]);
        let json = ckpt.to_json();
        let parsed = DatapathCheckpoint::from_json(&json)
            .expect("own serialization must parse");
        prop_assert_eq!(&parsed, &ckpt, "parse must invert serialize");
        prop_assert_eq!(parsed.to_json(), json, "re-serialization must be byte-identical");
    }

    #[test]
    fn restore_then_recheckpoint_is_byte_identical(
        ops in prop::collection::vec(op_strategy(), 1..60),
    ) {
        check_restore_round_trip(&ops);
    }
}

proptest! {
    // nightly.yml runs this twin (`-- --ignored`).
    #![proptest_config(ProptestConfig::with_cases(4096))]
    #[test]
    #[ignore = "4096 cases; run with --ignored (nightly)"]
    fn restore_then_recheckpoint_is_byte_identical_4096(
        ops in prop::collection::vec(op_strategy(), 1..60),
    ) {
        check_restore_round_trip(&ops);
    }
}

/// A 10 000-entry table round-trips byte-identically, fast enough for the
/// ordinary debug test run: the reader must not do work per character
/// that grows with the document. Every string feature the format has
/// rides along: a multi-byte scalar and each of the four escapes.
#[test]
fn ten_thousand_flow_round_trip_is_identity() {
    const CONNS: u32 = 5_000;
    let dp = AcdcDatapath::new(AcdcConfig::dctcp(MTU));
    for c in 0..CONNS {
        // One connection per remote address: 10.1.x.y.
        let peer = [10, 1, (c >> 8) as u8, c as u8];
        handshake(&dp, 1, peer, 40_000, c, 7);
    }
    let mut ckpt = dp.checkpoint(3, &[]);
    assert_eq!(ckpt.flows.len(), 2 * CONNS as usize);
    ckpt.hub
        .metrics
        .push(("tëst.\"quoted\"\\slash\nline\ttab→\r\u{1}".to_string(), 7));

    let json = ckpt.to_json();
    assert!(json.contains(r#"["tëst.\"quoted\"\\slash\nline\ttab→\u000d\u0001",7]"#));
    let parsed = DatapathCheckpoint::from_json(&json).expect("own serialization must parse");
    assert_eq!(parsed, ckpt, "parse must invert serialize");
    assert_eq!(
        parsed.to_json(),
        json,
        "re-serialization must be byte-identical"
    );
    acdc_telemetry::golden(
        "vswitch.ten_thousand_flow_round_trip",
        &[dp.telemetry().recorder().digest()],
        &json,
    );
}
