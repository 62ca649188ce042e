//! Pool-reuse coherence: a `Segment` built on a recycled buffer must be
//! byte-for-byte and meta-for-meta identical to one built on a fresh
//! allocation. The pool may only ever change *which allocation* backs a
//! segment — never its contents, its `PacketMeta`, or its
//! checksums — no matter what the buffer's previous owner did to it
//! (window rewrites, ECN patches, PACK growth, reserved-bit edits)
//! before dropping it back onto the free list.

use acdc_packet::{Ecn, Ipv4Repr, PackOption, Segment, SeqNumber, TcpFlags, TcpRepr, PROTO_TCP};
use bytes::BytesMut;
use proptest::prelude::*;

/// One in-place mutation a previous owner might have applied before the
/// buffer was recycled (a subset of the datapath's maintained mutators —
/// enough to dirty every region of the buffer, including growing it via
/// PACK insertion).
#[derive(Debug, Clone)]
enum Mutation {
    RewriteWindow(u16),
    SetEcn(Ecn),
    SetTcpFlags(u8),
    SetReserved(bool, bool),
    AppendPack(u32, u32),
    StripPack,
}

fn arb_ecn() -> impl Strategy<Value = Ecn> {
    prop_oneof![
        Just(Ecn::NotEct),
        Just(Ecn::Ect0),
        Just(Ecn::Ect1),
        Just(Ecn::Ce)
    ]
}

fn arb_mutation() -> impl Strategy<Value = Mutation> {
    prop_oneof![
        any::<u16>().prop_map(Mutation::RewriteWindow),
        arb_ecn().prop_map(Mutation::SetEcn),
        any::<u8>().prop_map(Mutation::SetTcpFlags),
        (any::<bool>(), any::<bool>()).prop_map(|(v, f)| Mutation::SetReserved(v, f)),
        (any::<u32>(), any::<u32>()).prop_map(|(t, m)| Mutation::AppendPack(t, m)),
        Just(Mutation::StripPack),
    ]
}

/// A previous-owner lifecycle: build, dirty, drop (which recycles the
/// backing buffer into the global pool).
#[derive(Debug, Clone)]
struct Churn {
    flags: u8,
    window: u16,
    ecn: Ecn,
    payload_len: u16,
    seq: u32,
    mutations: Vec<Mutation>,
}

fn arb_churn() -> impl Strategy<Value = Churn> {
    (
        any::<u8>(),
        any::<u16>(),
        arb_ecn(),
        0u16..3000,
        any::<u32>(),
        prop::collection::vec(arb_mutation(), 0..8),
    )
        .prop_map(|(flags, window, ecn, payload_len, seq, mutations)| Churn {
            flags,
            window,
            ecn,
            payload_len,
            seq,
            mutations,
        })
}

fn build(c: &Churn) -> Segment {
    let ip = Ipv4Repr {
        src_addr: [10, 0, 0, 2],
        dst_addr: [10, 0, 0, 7],
        protocol: PROTO_TCP,
        ecn: c.ecn,
        payload_len: 0, // overwritten by new_tcp
        ttl: 64,
    };
    let mut tcp = TcpRepr::new(33_000, 5_001);
    tcp.seq = SeqNumber(c.seq);
    tcp.ack = SeqNumber(c.seq ^ 0xdead_beef);
    tcp.flags = TcpFlags::from_bits(c.flags);
    tcp.window = c.window;
    Segment::new_tcp(ip, tcp, usize::from(c.payload_len))
}

fn dirty(seg: &mut Segment, m: &Mutation) {
    match *m {
        Mutation::RewriteWindow(w) => seg.rewrite_window(w),
        Mutation::SetEcn(e) => seg.set_ecn(e),
        Mutation::SetTcpFlags(f) => seg.set_tcp_flags(TcpFlags::from_bits(f)),
        Mutation::SetReserved(v, f) => seg.set_reserved(v, f),
        Mutation::AppendPack(total, marked) => {
            let _ = seg.append_pack_in_place(PackOption {
                total_bytes: total,
                marked_bytes: marked,
            });
        }
        Mutation::StripPack => {
            let _ = seg.strip_pack_in_place();
        }
    }
}

/// Every coherence fact a rebuilt segment must satisfy, compared against
/// the reference built before any pool churn.
fn assert_coherent(reference: &Segment, rebuilt: &Segment) {
    assert_eq!(
        rebuilt.header_bytes(),
        reference.header_bytes(),
        "recycled backing storage leaked stale bytes"
    );
    assert_eq!(rebuilt.payload_len(), reference.payload_len());
    let meta = rebuilt.try_meta().expect("a segment has its meta");
    let fresh = Segment::from_header_bytes(
        BytesMut::from(rebuilt.header_bytes()),
        rebuilt.payload_len(),
    )
    .expect("rebuilt headers read back")
    .try_meta()
    .expect("a read segment has its meta");
    assert_eq!(
        meta, fresh,
        "meta on a recycled buffer disagrees with its bytes"
    );
    assert_eq!(meta, reference.try_meta().expect("a segment has its meta"));
    assert!(rebuilt.verify_checksums());
}

/// Interleave previous-owner lifecycles (build → mutate → drop, each
/// drop feeding the global free list) with rebuilds of a probe segment.
/// However dirty the recycled buffers are, the probe must come out
/// identical to the copy built before any churn.
fn check_recycled_segments(probe: &Churn, churns: &[Churn]) {
    let reference = build(probe);
    for c in churns {
        let mut seg = build(c);
        // Dirty every region.
        for m in &c.mutations {
            dirty(&mut seg, m);
        }
        drop(seg); // backing buffer returns to the global pool
        let rebuilt = build(probe);
        assert_coherent(&reference, &rebuilt);
        // The clone path rents from the pool too.
        assert_coherent(&reference, &rebuilt.clone());
    }
}

proptest! {
    #[test]
    fn recycled_segments_never_leak_stale_state(
        probe in arb_churn(),
        churns in prop::collection::vec(arb_churn(), 1..16),
    ) {
        check_recycled_segments(&probe, &churns);
    }
}

proptest! {
    // The vendored proptest runs 64 cases by default; nightly.yml runs
    // this twin (`-- --ignored`).
    #![proptest_config(ProptestConfig::with_cases(4096))]
    #[test]
    #[ignore = "4096 cases; run with --ignored (nightly)"]
    fn recycled_segments_never_leak_stale_state_4096(
        probe in arb_churn(),
        churns in prop::collection::vec(arb_churn(), 1..16),
    ) {
        check_recycled_segments(&probe, &churns);
    }
}
