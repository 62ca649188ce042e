//! Property-based tests for the wire formats.

use acdc_packet::{
    checksum, Ecn, FlowKey, Ipv4Packet, Ipv4Repr, PackOption, Segment, SeqNumber, TcpFlags,
    TcpOption, TcpPacket, TcpRepr, PROTO_TCP,
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

fn arb_options() -> impl Strategy<Value = Vec<TcpOption>> {
    prop::collection::vec(
        prop_oneof![
            Just(TcpOption::NoOperation),
            any::<u16>().prop_map(TcpOption::MaxSegmentSize),
            (0u8..=14).prop_map(TcpOption::WindowScale),
            Just(TcpOption::SackPermitted),
            (any::<u32>(), any::<u32>()).prop_map(|(a, b)| TcpOption::Timestamps(a, b)),
            (any::<u32>(), any::<u32>()).prop_map(|(t, m)| TcpOption::Pack(PackOption {
                total_bytes: t,
                marked_bytes: m,
            })),
        ],
        0..3,
    )
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
    fn ipv4_emit_parse_round_trip(
        src: [u8; 4], dst: [u8; 4], ecn in arb_ecn(),
        payload_len in 0usize..9000, ttl in 1u8..=255,
    ) {
        let repr = Ipv4Repr { src_addr: src, dst_addr: dst, protocol: PROTO_TCP, ecn, payload_len, ttl };
        let mut buf = vec![0u8; repr.header_len()];
        let mut pkt = Ipv4Packet::new_unchecked(&mut buf[..]);
        repr.emit(&mut pkt);
        let pkt = Ipv4Packet::new_checked(&buf[..]).unwrap();
        prop_assert!(pkt.verify_checksum());
        prop_assert_eq!(Ipv4Repr::parse(&pkt).unwrap(), repr);
    }

    #[test]
    fn tcp_emit_parse_round_trip(
        src_port: u16, dst_port: u16, seq: u32, ack: u32,
        flags in arb_flags(), window: u16, options in arb_options(),
        vm_ece: bool, fack: bool,
    ) {
        let repr = TcpRepr {
            src_port, dst_port,
            seq: SeqNumber(seq), ack: SeqNumber(ack),
            flags, window, options, vm_ece, fack,
        };
        let mut buf = vec![0u8; repr.header_len()];
        let mut pkt = TcpPacket::new_unchecked(&mut buf[..]);
        repr.emit(&mut pkt);
        pkt.fill_checksum([1, 2, 3, 4], [5, 6, 7, 8], 0);
        let pkt = TcpPacket::new_checked(&buf[..]).unwrap();
        prop_assert!(pkt.verify_checksum([1, 2, 3, 4], [5, 6, 7, 8], 0));
        let parsed = TcpRepr::parse(&pkt).unwrap();
        // Emitted options may gain trailing padding, but the parsed list of
        // non-padding options must match what we put in.
        let strip = |v: &[TcpOption]| v.iter().copied()
            .filter(|o| !matches!(o, TcpOption::NoOperation | TcpOption::EndOfList))
            .collect::<Vec<_>>();
        prop_assert_eq!(strip(&parsed.options), strip(&repr.options));
        prop_assert_eq!(parsed.src_port, repr.src_port);
        prop_assert_eq!(parsed.seq, repr.seq);
        prop_assert_eq!(parsed.ack, repr.ack);
        prop_assert_eq!(parsed.flags, repr.flags);
        prop_assert_eq!(parsed.window, repr.window);
        prop_assert_eq!(parsed.vm_ece, repr.vm_ece);
        prop_assert_eq!(parsed.fack, repr.fack);
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
        seg.tcp_mut().set_window_update_checksum(new_window);
        seg.mark_ce();
        prop_assert_eq!(seg.tcp().window(), new_window);
        prop_assert_eq!(seg.ecn(), Ecn::Ce);
        prop_assert!(seg.verify_checksums());
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
    fn truncated_buffers_never_panic(data in prop::collection::vec(any::<u8>(), 0..64)) {
        // Parsing arbitrary bytes must return Err, never panic.
        let _ = Ipv4Packet::new_checked(&data[..]).map(|p| {
            let _ = Ipv4Repr::parse(&p);
        });
        let _ = TcpPacket::new_checked(&data[..]).map(|p| {
            let _ = TcpRepr::parse(&p);
            let _ = p.options_iter().count();
        });
    }
}
