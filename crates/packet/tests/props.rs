//! Property-based tests for the wire formats.

use acdc_packet::{
    checksum, Ecn, FlowKey, Ipv4Repr, PackOption, PacketMeta, Segment, SeqNumber, TcpFlags,
    TcpOption, TcpRepr, PROTO_TCP,
};
use proptest::prelude::*;

fn arb_ecn() -> impl Strategy<Value = Ecn> {
    prop_oneof![
        Just(Ecn::NotEct),
        Just(Ecn::Ect0),
        Just(Ecn::Ect1),
        Just(Ecn::Ce)
    ]
}

fn arb_flags() -> impl Strategy<Value = TcpFlags> {
    any::<u8>().prop_map(TcpFlags::from_bits)
}

/// Up to two options of any kind, then at most one PACK.
fn arb_options() -> impl Strategy<Value = Vec<TcpOption>> {
    let pack = (any::<u32>(), any::<u32>()).prop_map(|(t, m)| {
        TcpOption::Pack(PackOption {
            total_bytes: t,
            marked_bytes: m,
        })
    });
    (
        prop::collection::vec(
            prop_oneof![
                Just(TcpOption::NoOperation),
                any::<u16>().prop_map(TcpOption::MaxSegmentSize),
                (0u8..=14).prop_map(TcpOption::WindowScale),
                Just(TcpOption::SackPermitted),
                (any::<u32>(), any::<u32>()).prop_map(|(a, b)| TcpOption::Timestamps(a, b)),
            ],
            0..3,
        ),
        prop::option::of(pack),
    )
        .prop_map(|(mut options, pack)| {
            options.extend(pack);
            options
        })
}

fn arb_tcp_repr() -> impl Strategy<Value = TcpRepr> {
    (
        (any::<u16>(), any::<u16>(), any::<u32>(), any::<u32>()),
        arb_flags(),
        any::<u16>(),
        arb_options(),
        (any::<bool>(), any::<bool>()),
    )
        .prop_map(
            |((src_port, dst_port, seq, ack), flags, window, options, (vm_ece, fack))| TcpRepr {
                src_port,
                dst_port,
                seq: SeqNumber(seq),
                ack: SeqNumber(ack),
                flags,
                window,
                options,
                vm_ece,
                fack,
            },
        )
}

fn ip_repr(src_addr: [u8; 4], dst_addr: [u8; 4], ecn: Ecn) -> Ipv4Repr {
    Ipv4Repr {
        src_addr,
        dst_addr,
        protocol: PROTO_TCP,
        ecn,
        payload_len: 0, // overwritten by the constructors
        ttl: Ipv4Repr::DEFAULT_TTL,
    }
}

/// A segment's header bytes read afresh, as off a wire.
fn reread(seg: &Segment) -> PacketMeta {
    Segment::from_header_bytes(seg.header_bytes(), seg.payload_len())
        .expect("a segment's own headers read back")
        .meta()
}

/// Headers as the stacks emit them: TCP with any options.
fn arb_emitted() -> impl Strategy<Value = Vec<u8>> {
    (any::<[u8; 4]>(), arb_ecn(), arb_tcp_repr()).prop_map(|(dst, ecn, tcp)| {
        let ip = ip_repr([10, 0, 0, 1], dst, ecn);
        Segment::new_tcp(ip, tcp, 0).header_bytes().to_vec()
    })
}

/// What a trace or a fault might hand the datapath: arbitrary bytes, or
/// emitted headers with one byte overwritten, one dropped off the end or
/// one added.
fn arb_wire_bytes() -> impl Strategy<Value = Vec<u8>> {
    let edited = (arb_emitted(), any::<usize>(), any::<u8>(), 0u8..3).prop_map(
        |(mut bytes, at, byte, edit)| {
            match edit {
                0 => {
                    let i = at % bytes.len();
                    bytes[i] = byte;
                }
                1 => {
                    bytes.pop();
                }
                _ => bytes.push(byte),
            }
            bytes
        },
    );
    prop_oneof![1 => prop::collection::vec(any::<u8>(), 0..80), 3 => edited]
}

/// Whatever `from_header_bytes` accepts survives every datapath edit
/// without a panic, and its meta says what a fresh read of its bytes
/// says after each one.
fn check_wire_bytes(bytes: &[u8], payload_len: usize) {
    let Ok(mut seg) = Segment::from_header_bytes(bytes, payload_len) else {
        return;
    };
    let _ = seg.verify_checksums();
    let meta = |s: &Segment| s.meta();
    assert_eq!(meta(&seg), reread(&seg), "as read");
    let _ = seg.append_pack_in_place(PackOption {
        total_bytes: 9,
        marked_bytes: 3,
    });
    assert_eq!(meta(&seg), reread(&seg), "after a PACK append");
    let _ = seg.strip_pack_in_place();
    assert_eq!(meta(&seg), reread(&seg), "after a PACK strip");
    seg.set_virtual_payload_len(0);
    assert_eq!(meta(&seg), reread(&seg), "as a fake ACK");
    let _ = seg.verify_checksums();
}

/// Keys over a few addresses and ports, so that equal addresses, equal
/// ports and keys that are their own reverse all turn up.
fn arb_flow_key() -> impl Strategy<Value = FlowKey> {
    let ip = || (0u8..3, 0u8..3).prop_map(|(a, b)| [10, a, 0, b]);
    let port = || prop_oneof![0u16..3, any::<u16>()];
    (ip(), ip(), port(), port()).prop_map(|(src_ip, dst_ip, src_port, dst_port)| FlowKey {
        src_ip,
        dst_ip,
        src_port,
        dst_port,
    })
}

proptest! {
    #[test]
    fn canonical_is_the_smaller_direction(k in arb_flow_key()) {
        let r = k.reverse();
        prop_assert_eq!(k.canonical(), r.canonical());
        prop_assert_eq!(k.canonical(), k.min(r));
        prop_assert_eq!(k.direction(), k.cmp(&r));
    }

    #[test]
    fn checksum_of_buffer_with_its_checksum_appended_verifies(data in prop::collection::vec(any::<u8>(), 0..128)) {
        // Only meaningful for even-length buffers: appending the checksum to
        // an odd-length buffer shifts word alignment.
        prop_assume!(data.len() % 2 == 0);
        let c = checksum::checksum(&data);
        let mut full = data.clone();
        full.extend_from_slice(&c.to_be_bytes());
        let folded = checksum::fold(checksum::sum_words(0, &full));
        prop_assert_eq!(folded, 0xffff);
    }

    #[test]
    fn incremental_adjust_equals_recompute(data in prop::collection::vec(any::<u8>(), 4..64), new_word: u16) {
        prop_assume!(data.len() % 2 == 0);
        let before = checksum::checksum(&data);
        let old_word = u16::from_be_bytes([data[0], data[1]]);
        let mut changed = data.clone();
        changed[0..2].copy_from_slice(&new_word.to_be_bytes());
        let full = checksum::checksum(&changed);
        let incr = checksum::checksum_adjust(before, old_word, new_word);
        // The two are equal as one's-complement values (0x0000 == 0xffff).
        let norm = |c: u16| if c == 0xffff { 0 } else { c };
        prop_assert_eq!(norm(full), norm(incr));
    }

    #[test]
    fn seq_ordering_is_antisymmetric(a: u32, b: u32) {
        let (sa, sb) = (SeqNumber(a), SeqNumber(b));
        let d = sb - sa;
        prop_assume!(d != i32::MIN && d != 0);
        prop_assert_eq!(sa < sb, sb > sa);
        prop_assert_eq!(sa > sb, sb < sa);
    }

    #[test]
    fn seq_addition_preserves_order_within_window(a: u32, delta in 1u32..1_000_000) {
        let s = SeqNumber(a);
        prop_assert!(s + delta > s);
        prop_assert_eq!((s + delta) - s, delta as i32);
    }

    #[test]
    fn seq_wraparound_add_crosses_boundary(near_end in 0u32..1_000, delta in 1u32..1_000_000) {
        // Start close enough to 2^32 that the addition wraps.
        let s = SeqNumber(u32::MAX - near_end);
        prop_assume!(delta > near_end);
        let t = s + delta;
        prop_assert_eq!(t.raw(), delta - near_end - 1, "wrapped raw value");
        // Serial-number ordering must still see the successor as greater.
        prop_assert!(t > s);
        prop_assert_eq!(t - s, delta as i32);
    }

    #[test]
    fn seq_add_then_sub_round_trips(a: u32, delta in 0u32..=i32::MAX as u32) {
        let s = SeqNumber(a);
        prop_assert_eq!((s + delta) - delta, s);
        prop_assert_eq!((s + delta).distance(s), delta as i32);
    }

    #[test]
    fn seq_in_range_tracks_wrapped_windows(a: u32, len in 1u32..1_000_000, off in 0u32..1_000_000) {
        // [lo, hi) windows behave identically whether or not they straddle
        // the 2^32 boundary.
        let lo = SeqNumber(a);
        let hi = lo + len;
        let probe = lo + off.min(len.saturating_sub(1));
        prop_assert!(probe.in_range(lo, hi));
        prop_assert!(!hi.in_range(lo, hi), "hi is exclusive");
        prop_assert!(!(lo - 1u32).in_range(lo, hi), "below lo is out");
    }

    #[test]
    fn seq_max_min_agree_with_ordering(a: u32, b: u32) {
        let (sa, sb) = (SeqNumber(a), SeqNumber(b));
        prop_assume!((sb - sa) != i32::MIN); // antipodal pair: order undefined
        let hi = sa.max(sb);
        let lo = sa.min(sb);
        prop_assert!(hi >= lo);
        prop_assert!(hi == sa || hi == sb);
        prop_assert!(lo == sa || lo == sb);
        prop_assert_eq!(hi.distance(lo), (sa - sb).abs());
    }

    #[test]
    fn rwnd_scaling_bounds(bytes in 0u64..(1u64 << 40), wscale in 0u8..=14) {
        let raw = acdc_packet::scale_rwnd(bytes, wscale);
        let back = acdc_packet::unscale_rwnd(raw, wscale);
        // Never over-advertise, and round down by less than one granule
        // (unless the 16-bit field saturated).
        prop_assert!(back <= bytes);
        if raw < u16::MAX {
            prop_assert!(bytes - back < (1u64 << wscale));
        }
        // The enforcement variant only ever differs by lifting 0 to 1.
        let nz = acdc_packet::scale_rwnd_nonzero(bytes, wscale);
        prop_assert!(nz >= 1);
        prop_assert_eq!(nz, raw.max(1));
    }

    #[test]
    fn emit_then_read_round_trip(
        src: [u8; 4], dst: [u8; 4], ecn in arb_ecn(),
        tcp in arb_tcp_repr(), payload_len in 0usize..9000,
    ) {
        let seg = Segment::new_tcp(ip_repr(src, dst, ecn), tcp.clone(), payload_len);
        prop_assert!(seg.verify_checksums());
        prop_assert_eq!(seg.ip().total_len() as usize, seg.wire_len());
        let m = reread(&seg);
        prop_assert_eq!(seg.meta(), m);
        prop_assert_eq!(
            m.flow,
            FlowKey { src_ip: src, dst_ip: dst, src_port: tcp.src_port, dst_port: tcp.dst_port }
        );
        prop_assert_eq!((seg.ip().protocol(), m.ecn, seg.ip().header_len()), (PROTO_TCP, ecn, 20));
        prop_assert_eq!(usize::from(m.l4_header_len), tcp.header_len());
        prop_assert_eq!((m.seq, m.ack, m.flags, m.window), (tcp.seq, tcp.ack, tcp.flags, tcp.window));
        prop_assert_eq!((m.vm_ece, m.fack), (tcp.vm_ece, tcp.fack));
        // The walk keeps the last of each option it reads.
        let (mut mss, mut wscale, mut pack) = (None, None, None);
        for o in &tcp.options {
            match *o {
                TcpOption::MaxSegmentSize(v) => mss = Some(v),
                TcpOption::WindowScale(v) => wscale = Some(v),
                TcpOption::Pack(p) => pack = Some(p),
                _ => {}
            }
        }
        prop_assert_eq!((m.mss, m.wscale, m.pack), (mss, wscale, pack));
    }

    #[test]
    fn window_rewrite_then_ce_mark_keeps_segment_valid(
        window: u16, new_window: u16, payload in 0usize..9000,
    ) {
        let ip = Ipv4Repr {
            src_addr: [10, 1, 0, 1], dst_addr: [10, 1, 0, 2],
            protocol: PROTO_TCP, ecn: Ecn::Ect0, payload_len: 0, ttl: 64,
        };
        let mut tcp = TcpRepr::new(1000, 2000);
        tcp.flags = TcpFlags::ACK;
        tcp.window = window;
        let mut seg = Segment::new_tcp(ip, tcp, payload);
        seg.rewrite_window(new_window);
        seg.mark_ce();
        prop_assert_eq!(seg.tcp().window(), new_window);
        prop_assert_eq!(seg.ecn(), Ecn::Ce);
        prop_assert!(seg.verify_checksums());
        prop_assert_eq!(seg.meta(), reread(&seg));
    }

    #[test]
    fn pack_option_round_trip(total: u32, marked: u32) {
        let p = PackOption { total_bytes: total, marked_bytes: marked };
        let mut buf = [0u8; PackOption::WIRE_LEN];
        p.emit(&mut buf);
        prop_assert_eq!(PackOption::parse(&buf).unwrap(), p);
        let f = p.fraction();
        prop_assert!((0.0..=f64::from(u32::MAX)).contains(&f));
        if marked <= total {
            prop_assert!(f <= 1.0);
        }
    }

    #[test]
    fn wire_bytes_never_panic_and_read_back_as_held(
        bytes in arb_wire_bytes(), payload_len in 0usize..9000,
    ) {
        check_wire_bytes(&bytes, payload_len);
    }
}

proptest! {
    // The vendored proptest runs 64 cases by default; nightly.yml runs
    // this twin (`-- --ignored`).
    #![proptest_config(ProptestConfig::with_cases(4096))]
    #[test]
    #[ignore = "4096 cases; run with --ignored (nightly)"]
    fn wire_bytes_never_panic_and_read_back_as_held_4096(
        bytes in arb_wire_bytes(), payload_len in 0usize..9000,
    ) {
        check_wire_bytes(&bytes, payload_len);
    }
}
