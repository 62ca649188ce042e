//! [`PacketMeta`]: header metadata extracted by a single parse.
//!
//! Every layer of the simulated hot path — netsim delivery, fault
//! injection, the NIC demux, both AC/DC vSwitch modules, and the guest
//! endpoint — needs some subset of the same header fields: the 5-tuple,
//! TCP flags, sequence/ack numbers, the advertised window, ECN
//! codepoints, and a handful of option values. Re-deriving them from the
//! raw bytes at each layer is exactly the per-packet overhead the paper's
//! §4.4 feasibility argument says the enforcement layer cannot afford.
//!
//! `PacketMeta` is what is *read* off a segment's headers; the `Repr`s are
//! what is emitted. Every [`Segment`](crate::Segment) holds one from birth
//! — built from the `Repr`s by `new_tcp` / `new_udp`, or by this module's
//! single forward pass over the IPv4 + L4 header (one walk of the TCP
//! options region included) when `Segment::from_header_bytes` reads wire
//! bytes — and keeps it coherent across the in-place mutators (window
//! rewrite, ECN patch, PACK insertion/removal), so downstream consumers
//! read fields and nothing parses again.

use crate::pack::PackOption;
use crate::segment::FlowKey;
use crate::tcp::option_kind;
use crate::{
    Error, Ipv4Packet, Result, SeqNumber, TcpFlags, TcpPacket, UdpPacket, PROTO_TCP, PROTO_UDP,
};

/// Header metadata for one segment: emitted with it or read off its bytes
/// once.
///
/// For UDP segments the TCP-specific fields hold zero/empty defaults;
/// `protocol` disambiguates. All fields are plain values (`Copy`) so the
/// whole struct lives in registers/cache once built.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketMeta {
    /// The 5-tuple-minus-protocol flow key of this direction.
    pub flow: FlowKey,
    /// IP protocol number ([`PROTO_TCP`] or [`PROTO_UDP`]).
    pub protocol: u8,
    /// ECN codepoint from the IP header.
    pub ecn: crate::Ecn,
    /// IPv4 header length in bytes.
    pub ip_header_len: u8,
    /// L4 (TCP or UDP) header length in bytes.
    pub l4_header_len: u8,
    /// TCP flag bits (empty for UDP).
    pub flags: TcpFlags,
    /// TCP sequence number (zero for UDP).
    pub seq: SeqNumber,
    /// TCP acknowledgement number (zero for UDP).
    pub ack: SeqNumber,
    /// Raw advertised window (zero for UDP).
    pub window: u16,
    /// AC/DC reserved bit: guest stack is ECN-capable.
    pub vm_ece: bool,
    /// AC/DC reserved bit: this is a fabricated fake ACK.
    pub fack: bool,
    /// Absolute byte offset (from the start of the IP header) of the PACK
    /// option's kind byte, when present. Lets the strip path remove the
    /// option without re-walking the options region.
    pub pack_off: Option<u16>,
    /// The parsed PACK feedback option, when present.
    pub pack: Option<PackOption>,
    /// Window-scale shift from a WS option (SYN packets).
    pub wscale: Option<u8>,
    /// Maximum segment size from an MSS option (SYN packets).
    pub mss: Option<u16>,
}

impl PacketMeta {
    /// Parse header metadata out of serialized IPv4 + L4 header bytes —
    /// exactly one IP header and one TCP or UDP header, nothing after.
    ///
    /// The only parse there is, reached through
    /// `Segment::from_header_bytes`: one validated pass over the IP
    /// header, one over the fixed TCP/UDP header, and one walk of the TCP
    /// options region capturing MSS, window scale, and PACK in the same
    /// sweep. Malformed input returns `Err`, and so does any IP fragment:
    /// a non-first fragment has no L4 header where one would be read, and
    /// a first one does not carry its whole datagram.
    pub(crate) fn parse(buf: &[u8]) -> Result<PacketMeta> {
        let ip = Ipv4Packet::new_checked(buf)?;
        if ip.is_fragment() {
            return Err(Error::Malformed);
        }
        let ihl = ip.header_len();
        match ip.protocol() {
            PROTO_TCP => {
                let tcp = TcpPacket::new_checked(&buf[ihl..])?;
                let thl = tcp.header_len();
                if buf.len() != ihl + thl {
                    return Err(Error::Malformed);
                }
                let mut meta = PacketMeta {
                    flow: FlowKey {
                        src_ip: ip.src_addr(),
                        dst_ip: ip.dst_addr(),
                        src_port: tcp.src_port(),
                        dst_port: tcp.dst_port(),
                    },
                    protocol: PROTO_TCP,
                    ecn: ip.ecn(),
                    ip_header_len: ihl as u8,
                    l4_header_len: thl as u8,
                    flags: tcp.flags(),
                    seq: tcp.seq_number(),
                    ack: tcp.ack_number(),
                    window: tcp.window(),
                    vm_ece: tcp.vm_ece(),
                    fack: tcp.is_fack(),
                    pack_off: None,
                    pack: None,
                    wscale: None,
                    mss: None,
                };
                walk_options(
                    tcp.options(),
                    (ihl + crate::tcp::HEADER_LEN) as u16,
                    &mut meta,
                )?;
                Ok(meta)
            }
            PROTO_UDP => {
                let udp = UdpPacket::new_checked(&buf[ihl..])?;
                if buf.len() != ihl + crate::udp::HEADER_LEN {
                    return Err(Error::Malformed);
                }
                Ok(PacketMeta {
                    flow: FlowKey {
                        src_ip: ip.src_addr(),
                        dst_ip: ip.dst_addr(),
                        src_port: udp.src_port(),
                        dst_port: udp.dst_port(),
                    },
                    protocol: PROTO_UDP,
                    ecn: ip.ecn(),
                    ip_header_len: ihl as u8,
                    l4_header_len: crate::udp::HEADER_LEN as u8,
                    flags: TcpFlags::empty(),
                    seq: SeqNumber::ZERO,
                    ack: SeqNumber::ZERO,
                    window: 0,
                    vm_ece: false,
                    fack: false,
                    pack_off: None,
                    pack: None,
                    wscale: None,
                    mss: None,
                })
            }
            _ => Err(Error::Unsupported),
        }
    }

    /// Is this a TCP segment?
    pub fn is_tcp(&self) -> bool {
        self.protocol == PROTO_TCP
    }
}

/// One sweep over the options region, recording the values the simulator
/// consumes (MSS, window scale, PACK + its absolute offset). Stops at EOL
/// or the first malformed option, where `append_pack_in_place`'s walk
/// stops too. A second PACK is an error: the meta has room for one, and
/// stripping it would leave the other behind.
fn walk_options(opts: &[u8], base_off: u16, meta: &mut PacketMeta) -> Result<()> {
    let mut i = 0usize;
    while i < opts.len() {
        match opts[i] {
            option_kind::EOL => return Ok(()),
            option_kind::NOP => i += 1,
            kind => {
                if i + 1 >= opts.len() {
                    return Ok(());
                }
                let len = opts[i + 1] as usize;
                if len < 2 || i + len > opts.len() {
                    return Ok(());
                }
                let body = &opts[i..i + len];
                match (kind, len) {
                    (option_kind::MSS, 4) => {
                        meta.mss = Some(u16::from_be_bytes([body[2], body[3]]));
                    }
                    (option_kind::WS, 3) => meta.wscale = Some(body[2]),
                    (option_kind::EXPERIMENT, PackOption::WIRE_LEN_U8)
                        if PackOption::matches(body) =>
                    {
                        if meta.pack.is_some() {
                            return Err(Error::Malformed);
                        }
                        if let Ok(p) = PackOption::parse(body) {
                            meta.pack = Some(p);
                            meta.pack_off = Some(base_off + i as u16);
                        }
                    }
                    _ => {}
                }
                i += len;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Ecn, Ipv4Repr, Segment, TcpOption, TcpRepr, UdpRepr};

    fn ip_repr() -> Ipv4Repr {
        Ipv4Repr {
            src_addr: [10, 0, 0, 1],
            dst_addr: [10, 0, 0, 9],
            protocol: PROTO_TCP,
            ecn: Ecn::Ect0,
            payload_len: 0,
            ttl: 64,
        }
    }

    #[test]
    fn tcp_meta_captures_fixed_fields() {
        let mut r = TcpRepr::new(40_000, 5_001);
        r.seq = SeqNumber(1000);
        r.ack = SeqNumber(2000);
        r.flags = TcpFlags::ACK | TcpFlags::PSH;
        r.window = 777;
        r.vm_ece = true;
        let seg = Segment::new_tcp(ip_repr(), r, 100);
        let m = PacketMeta::parse(seg.header_bytes()).unwrap();
        assert!(m.is_tcp());
        assert_eq!(m.flow.src_port, 40_000);
        assert_eq!(m.flow.dst_port, 5_001);
        assert_eq!(m.seq, SeqNumber(1000));
        assert_eq!(m.ack, SeqNumber(2000));
        assert_eq!(m.flags, TcpFlags::ACK | TcpFlags::PSH);
        assert_eq!(m.window, 777);
        assert!(m.vm_ece);
        assert!(!m.fack);
        assert_eq!(m.ecn, Ecn::Ect0);
        assert_eq!(m.ip_header_len, 20);
        assert_eq!(m.l4_header_len, 20);
        assert_eq!(m.pack, None);
    }

    #[test]
    fn single_walk_captures_syn_options() {
        let mut r = TcpRepr::new(1, 2);
        r.flags = TcpFlags::SYN;
        r.options = vec![
            TcpOption::MaxSegmentSize(1448),
            TcpOption::WindowScale(9),
            TcpOption::SackPermitted,
        ];
        let seg = Segment::new_tcp(ip_repr(), r, 0);
        let m = PacketMeta::parse(seg.header_bytes()).unwrap();
        assert_eq!(m.mss, Some(1448));
        assert_eq!(m.wscale, Some(9));
    }

    #[test]
    fn pack_offset_points_at_kind_byte() {
        let pack = PackOption {
            total_bytes: 5_000,
            marked_bytes: 123,
        };
        let mut r = TcpRepr::new(1, 2);
        r.flags = TcpFlags::ACK;
        r.options = vec![TcpOption::Pack(pack)];
        let seg = Segment::new_tcp(ip_repr(), r, 0);
        let m = PacketMeta::parse(seg.header_bytes()).unwrap();
        assert_eq!(m.pack, Some(pack));
        let off = m.pack_off.unwrap() as usize;
        assert_eq!(seg.header_bytes()[off], option_kind::EXPERIMENT);
        assert_eq!(seg.header_bytes()[off + 1], PackOption::WIRE_LEN as u8);
    }

    #[test]
    fn udp_meta_has_empty_tcp_fields() {
        let udp = UdpRepr {
            src_port: 6000,
            dst_port: 7000,
            payload_len: 0,
        };
        let seg = Segment::new_udp(ip_repr(), udp, 64);
        let m = PacketMeta::parse(seg.header_bytes()).unwrap();
        assert!(!m.is_tcp());
        assert_eq!(m.flow.src_port, 6000);
        assert_eq!(m.flags, TcpFlags::empty());
        assert_eq!(m.window, 0);
    }

    #[test]
    fn rejects_unsupported_protocol() {
        let seg = Segment::new_tcp(ip_repr(), TcpRepr::new(1, 2), 0);
        let mut bytes = seg.header_bytes().to_vec();
        bytes[crate::ipv4::field::PROTOCOL] = 47;
        assert_eq!(PacketMeta::parse(&bytes).unwrap_err(), Error::Unsupported);
    }

    #[test]
    fn rejects_a_second_pack() {
        let mut r = TcpRepr::new(1, 2);
        r.options = vec![TcpOption::Pack(PackOption::default())];
        let seg = Segment::new_tcp(ip_repr(), r, 0);
        let mut bytes = seg.header_bytes().to_vec();
        assert!(PacketMeta::parse(&bytes).is_ok());
        // Repeat the option and grow the data offset over it.
        bytes.extend_from_slice(&seg.header_bytes()[40..]);
        bytes[20 + 12] = (((20 + 2 * PackOption::WIRE_LEN) / 4) << 4) as u8;
        assert_eq!(PacketMeta::parse(&bytes).unwrap_err(), Error::Malformed);
    }

    #[test]
    fn malformed_option_stops_the_walk() {
        let mut r = TcpRepr::new(1, 2);
        r.options = vec![TcpOption::Timestamps(1, 2), TcpOption::MaxSegmentSize(1448)];
        let seg = Segment::new_tcp(ip_repr(), r, 0);
        let mut bytes = seg.header_bytes().to_vec();
        assert_eq!(PacketMeta::parse(&bytes).unwrap().mss, Some(1448));
        // The Timestamps length now runs past the header: nothing after it
        // is read.
        bytes[40 + 1] = 40;
        assert_eq!(PacketMeta::parse(&bytes).unwrap().mss, None);
    }

    #[test]
    fn rejects_truncated_l4() {
        let seg = Segment::new_tcp(ip_repr(), TcpRepr::new(1, 2), 0);
        let short = &seg.header_bytes()[..30];
        assert_eq!(PacketMeta::parse(short).unwrap_err(), Error::Truncated);
    }
}
