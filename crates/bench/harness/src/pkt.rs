//! Hand-built segments for the datapath workloads and the unit-cost
//! loops. Every flow is one guest behind the measured vSwitch (`local`)
//! talking to one remote peer; both directions go through the public
//! `AcdcDatapath::{egress, ingress}` entry points.

use acdc_packet::{
    Ecn, FlowKey, Ipv4Repr, PackOption, Segment, SeqNumber, TcpFlags, TcpOption, TcpRepr, PROTO_TCP,
};

/// Payload of every data segment: the smallest standard MSS, where
/// per-packet cost dominates.
pub const PAYLOAD: usize = 1448;
const LOCAL_PORT: u16 = 40_000;
const REMOTE_PORT: u16 = 5_001;
const ISS_LOCAL: u32 = 1_000;
const ISS_REMOTE: u32 = 9_000;

/// Addresses of flow `i`: 24 bits of `i` spread over the low three
/// address bytes, so 100 000 flows need no port games.
pub fn addrs(i: usize) -> ([u8; 4], [u8; 4]) {
    let (a, b, c) = ((i >> 16) as u8, (i >> 8) as u8, i as u8);
    ([10, a, b, c], [11, a, b, c])
}

/// Key of flow `i` in the local → remote direction.
pub fn key_out(i: usize) -> FlowKey {
    let (l, r) = addrs(i);
    FlowKey {
        src_ip: l,
        dst_ip: r,
        src_port: LOCAL_PORT,
        dst_port: REMOTE_PORT,
    }
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

fn handshake_options() -> Vec<TcpOption> {
    vec![
        TcpOption::MaxSegmentSize(PAYLOAD as u16),
        TcpOption::WindowScale(9),
    ]
}

/// Which side of flow `i` a segment travels from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum From {
    Local,
    Remote,
}

/// One segment of flow `i`, travelling from `from`, with the ports,
/// addresses and initial sequence numbers of this module.
struct Hdr {
    i: usize,
    from: From,
    seq_off: u32,
    ack_off: u32,
    flags: TcpFlags,
    window: u16,
    ecn: Ecn,
    payload: usize,
}

impl Hdr {
    fn build(self, options: Vec<TcpOption>) -> Segment {
        let (l, r) = addrs(self.i);
        let (src, dst, sport, dport, iss, irs) = match self.from {
            From::Local => (l, r, LOCAL_PORT, REMOTE_PORT, ISS_LOCAL, ISS_REMOTE),
            From::Remote => (r, l, REMOTE_PORT, LOCAL_PORT, ISS_REMOTE, ISS_LOCAL),
        };
        let mut t = TcpRepr::new(sport, dport);
        t.seq = SeqNumber(iss) + self.seq_off;
        t.ack = SeqNumber(irs) + self.ack_off;
        t.flags = self.flags;
        t.window = self.window;
        t.options = options;
        Segment::new_tcp(ip(src, dst, self.ecn), t, self.payload)
    }
}

/// The SYN that opens flow `i` from `from`.
pub fn syn(i: usize, from: From) -> Segment {
    Hdr {
        i,
        from,
        seq_off: 0,
        ack_off: 0,
        flags: TcpFlags::SYN,
        window: 65_000,
        ecn: Ecn::NotEct,
        payload: 0,
    }
    .build(handshake_options())
}

/// The SYN-ACK answering it, from `from`.
pub fn syn_ack(i: usize, from: From) -> Segment {
    Hdr {
        i,
        from,
        seq_off: 0,
        ack_off: 1,
        flags: TcpFlags::SYN | TcpFlags::ACK,
        window: 65_000,
        ecn: Ecn::NotEct,
        payload: 0,
    }
    .build(handshake_options())
}

/// Data segment number `round` of flow `i`, sent by `from`. `ce` marks
/// it as a congested switch would.
pub fn data(i: usize, from: From, round: u32, ce: bool) -> Segment {
    Hdr {
        i,
        from,
        seq_off: 1 + round * PAYLOAD as u32,
        ack_off: 1,
        flags: TcpFlags::ACK,
        window: 1_000,
        ecn: if ce { Ecn::Ce } else { Ecn::Ect0 },
        payload: PAYLOAD,
    }
    .build(Vec::new())
}

/// The ACK, sent by `from`, for the peer's data segment number `round`.
/// `pack` rides along as the receiver-side vSwitch would have attached it.
pub fn ack(i: usize, from: From, round: u32, pack: Option<PackOption>) -> Segment {
    Hdr {
        i,
        from,
        seq_off: 1,
        ack_off: 1 + (round + 1) * PAYLOAD as u32,
        flags: TcpFlags::ACK,
        window: 60_000,
        ecn: Ecn::NotEct,
        payload: 0,
    }
    .build(pack.map(TcpOption::Pack).into_iter().collect())
}

/// The local guest's FIN after `sent` data segments: payload-free, so the
/// sender module marks the flow closing.
pub fn fin_local(i: usize, sent: u32) -> Segment {
    Hdr {
        i,
        from: From::Local,
        seq_off: 1 + sent * PAYLOAD as u32,
        ack_off: 1,
        flags: TcpFlags::FIN | TcpFlags::ACK,
        window: 1_000,
        ecn: Ecn::NotEct,
        payload: 0,
    }
    .build(Vec::new())
}

/// Bytes the remote peer sends with its FIN. The receiver module accounts
/// only packets that carry a payload, and it is there that it sees the
/// FIN: a bare FIN-ACK would leave the reverse entry to the idle sweep.
pub const FIN_REPLY_BYTES: usize = 64;

/// The remote peer's reply to that FIN: a last few bytes, FIN set,
/// acknowledging the local FIN.
pub fn fin_remote(i: usize, local_sent: u32) -> Segment {
    Hdr {
        i,
        from: From::Remote,
        seq_off: 1,
        ack_off: 1 + local_sent * PAYLOAD as u32 + 1,
        flags: TcpFlags::FIN | TcpFlags::ACK,
        window: 60_000,
        ecn: Ecn::Ect0,
        payload: FIN_REPLY_BYTES,
    }
    .build(Vec::new())
}

/// The local guest's final ACK of the remote FIN.
pub fn last_ack(i: usize, local_sent: u32) -> Segment {
    Hdr {
        i,
        from: From::Local,
        seq_off: 1 + local_sent * PAYLOAD as u32 + 1,
        ack_off: 1 + FIN_REPLY_BYTES as u32 + 1,
        flags: TcpFlags::ACK,
        window: 1_000,
        ecn: Ecn::NotEct,
        payload: 0,
    }
    .build(Vec::new())
}

/// Where the local sender's `snd_una`/`snd_nxt` stand after `rounds`
/// acknowledged data segments.
pub fn local_seq_after(rounds: u32) -> SeqNumber {
    SeqNumber(ISS_LOCAL) + (1 + rounds * PAYLOAD as u32)
}
