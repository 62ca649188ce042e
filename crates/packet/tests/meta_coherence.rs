//! Meta-coherence properties: after *any* sequence of in-place mutations
//! (RWND rewrite, ECN patch, flag/reserved-bit edits, PACK insert/strip),
//! the cached `PacketMeta` and the incrementally-maintained checksums must
//! equal what a from-scratch re-parse / checksum recompute of the same
//! bytes produces. This is the contract DESIGN.md §9 calls "maintained
//! mutators": bytes, checksum, and meta move together or not at all.

use acdc_packet::{
    Ecn, Ipv4Repr, PackOption, PacketMeta, Segment, SeqNumber, TcpFlags, TcpOption, TcpPacket,
    TcpRepr, PROTO_TCP,
};
use proptest::prelude::*;

/// One in-place mutation, as the datapath would issue it.
#[derive(Debug, Clone)]
enum Mutation {
    RewriteWindow(u16),
    SetEcn(Ecn),
    MarkCe,
    SetTcpFlags(u8),
    ClearEce,
    SetReserved(bool, bool),
    ClearReserved,
    AppendPack(u32, u32),
    StripPack,
    SetVirtualPayloadLen(u16),
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
        Just(Mutation::MarkCe),
        any::<u8>().prop_map(Mutation::SetTcpFlags),
        Just(Mutation::ClearEce),
        (any::<bool>(), any::<bool>()).prop_map(|(v, f)| Mutation::SetReserved(v, f)),
        Just(Mutation::ClearReserved),
        (any::<u32>(), any::<u32>()).prop_map(|(t, m)| Mutation::AppendPack(t, m)),
        Just(Mutation::StripPack),
        (0u16..3000).prop_map(Mutation::SetVirtualPayloadLen),
    ]
}

fn arb_base_options() -> impl Strategy<Value = Vec<TcpOption>> {
    prop::collection::vec(
        prop_oneof![
            Just(TcpOption::NoOperation),
            any::<u16>().prop_map(TcpOption::MaxSegmentSize),
            (0u8..=14).prop_map(TcpOption::WindowScale),
            Just(TcpOption::SackPermitted),
            (any::<u32>(), any::<u32>()).prop_map(|(a, b)| TcpOption::Timestamps(a, b)),
        ],
        0..3,
    )
}

fn base_segment(
    flags: u8,
    window: u16,
    ecn: Ecn,
    options: Vec<TcpOption>,
    payload_len: u16,
) -> Segment {
    let ip = Ipv4Repr {
        src_addr: [10, 0, 0, 1],
        dst_addr: [10, 0, 0, 9],
        protocol: PROTO_TCP,
        ecn,
        payload_len: 0, // overwritten by new_tcp
        ttl: 64,
    };
    let mut tcp = TcpRepr::new(40_000, 5_001);
    tcp.seq = SeqNumber(123_456);
    tcp.ack = SeqNumber(654_321);
    tcp.flags = TcpFlags::from_bits(flags);
    tcp.window = window;
    tcp.options = options;
    Segment::new_tcp(ip, tcp, usize::from(payload_len))
}

fn apply(seg: &mut Segment, m: &Mutation) {
    match *m {
        Mutation::RewriteWindow(w) => seg.rewrite_window(w),
        Mutation::SetEcn(e) => seg.set_ecn(e),
        Mutation::MarkCe => seg.mark_ce(),
        Mutation::SetTcpFlags(f) => seg.set_tcp_flags(TcpFlags::from_bits(f)),
        Mutation::ClearEce => seg.clear_tcp_flags(TcpFlags::ECE),
        Mutation::SetReserved(v, f) => seg.set_reserved(v, f),
        Mutation::ClearReserved => seg.clear_reserved(),
        Mutation::AppendPack(total, marked) => {
            // May be refused (already present / no room); refusal must
            // leave the segment untouched, which the final coherence
            // assertions cover.
            let _ = seg.append_pack_in_place(PackOption {
                total_bytes: total,
                marked_bytes: marked,
            });
        }
        Mutation::StripPack => {
            let _ = seg.strip_pack_in_place();
        }
        Mutation::SetVirtualPayloadLen(n) => seg.set_virtual_payload_len(usize::from(n)),
    }
}

/// The from-scratch view of a segment's bytes: a fresh parse and a full
/// (non-incremental) checksum recompute.
fn recomputed_checksums(seg: &Segment) -> (u16, u16) {
    let mut bytes = seg.header_bytes().to_vec();
    let ihl = {
        let ip = acdc_packet::Ipv4Packet::new_checked(&bytes[..]).expect("valid ip");
        ip.header_len()
    };
    let (src, dst) = {
        let ip = acdc_packet::Ipv4Packet::new_unchecked(&bytes[..]);
        (ip.src_addr(), ip.dst_addr())
    };
    {
        let mut ip = acdc_packet::Ipv4Packet::new_unchecked(&mut bytes[..]);
        ip.fill_checksum();
    }
    {
        let mut tcp = TcpPacket::new_unchecked(&mut bytes[ihl..]);
        tcp.fill_checksum(src, dst, seg.payload_len());
    }
    let ip_ck = acdc_packet::Ipv4Packet::new_unchecked(&bytes[..]).header_checksum();
    let tcp_ck = TcpPacket::new_unchecked(&bytes[ihl..]).checksum();
    (ip_ck, tcp_ck)
}

/// Any mutator sequence over a warm segment: the cache stays warm and
/// equal to a fresh parse, the patched checksums equal a full recompute.
fn check_mutation_sequence(
    flags: u8,
    window: u16,
    ecn: Ecn,
    options: Vec<TcpOption>,
    payload_len: u16,
    mutations: &[Mutation],
) {
    let mut seg = base_segment(flags, window, ecn, options, payload_len);
    // What NIC checksum verification sees first.
    assert!(seg.verify_checksums());
    assert!(seg.meta_is_cached());

    for m in mutations {
        apply(&mut seg, m);
    }

    // Maintained mutators never invalidate the cache...
    assert!(seg.meta_is_cached());
    // ...and the cached meta equals a from-scratch parse of the bytes.
    let cached = seg.try_meta().expect("mutated segment parses");
    let fresh = PacketMeta::parse(seg.header_bytes()).expect("fresh parse");
    assert_eq!(cached, fresh);

    // The incrementally-patched checksums equal a full recompute.
    let (ip_ck, tcp_ck) = recomputed_checksums(&seg);
    assert_eq!(seg.ip().header_checksum(), ip_ck);
    assert_eq!(seg.tcp().checksum(), tcp_ck);
    assert!(seg.verify_checksums());
}

/// With no pre-existing options there is no EOL padding to convert, so
/// strip is an exact inverse of append.
fn check_append_then_strip(window: u16, payload_len: u16, total: u32, marked: u32) {
    let mut seg = base_segment(TcpFlags::ACK.bits(), window, Ecn::Ect0, vec![], payload_len);
    assert!(seg.verify_checksums());
    let before = seg.header_bytes().to_vec();
    let pack = PackOption {
        total_bytes: total,
        marked_bytes: marked,
    };
    assert!(seg.append_pack_in_place(pack));
    assert_eq!(seg.try_meta().expect("parses").pack, Some(pack));
    assert!(seg.strip_pack_in_place());
    assert_eq!(seg.header_bytes(), &before[..]);
    assert!(seg.verify_checksums());
}

proptest! {
    #[test]
    fn mutation_sequences_keep_meta_and_checksums_coherent(
        flags in any::<u8>(),
        window in any::<u16>(),
        ecn in arb_ecn(),
        options in arb_base_options(),
        payload_len in 0u16..3000,
        mutations in prop::collection::vec(arb_mutation(), 0..12),
    ) {
        check_mutation_sequence(flags, window, ecn, options, payload_len, &mutations);
    }

    #[test]
    fn append_then_strip_restores_original_bytes(
        window in any::<u16>(),
        payload_len in 0u16..3000,
        total in any::<u32>(),
        marked in any::<u32>(),
    ) {
        check_append_then_strip(window, payload_len, total, marked);
    }
}

proptest! {
    // The vendored proptest runs 64 cases by default; nightly.yml runs
    // these twins (`-- --ignored`).
    #![proptest_config(ProptestConfig::with_cases(4096))]
    #[test]
    #[ignore = "4096 cases; run with --ignored (nightly)"]
    fn mutation_sequences_keep_meta_and_checksums_coherent_4096(
        flags in any::<u8>(),
        window in any::<u16>(),
        ecn in arb_ecn(),
        options in arb_base_options(),
        payload_len in 0u16..3000,
        mutations in prop::collection::vec(arb_mutation(), 0..12),
    ) {
        check_mutation_sequence(flags, window, ecn, options, payload_len, &mutations);
    }

    #[test]
    #[ignore = "4096 cases; run with --ignored (nightly)"]
    fn append_then_strip_restores_original_bytes_4096(
        window in any::<u16>(),
        payload_len in 0u16..3000,
        total in any::<u32>(),
        marked in any::<u32>(),
    ) {
        check_append_then_strip(window, payload_len, total, marked);
    }
}
