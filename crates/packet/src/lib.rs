//! # acdc-packet — wire formats for the AC/DC TCP reproduction
//!
//! This crate provides byte-level representations of the packet formats the
//! AC/DC datapath manipulates: IPv4, TCP (including options), UDP, ECN
//! codepoints, and the AC/DC-specific **PACK** (piggy-backed ACK) TCP option
//! that carries ECN feedback between the receiver-side and sender-side
//! vSwitch modules.
//!
//! Three kinds of type, one job each:
//!
//! * `XRepr` — what to *emit*: the header a stack wants to send, written
//!   into a buffer by `Segment::new_tcp` / `new_udp`;
//! * [`PacketMeta`] — what is *read*: every header field the hot path
//!   consumes, held by each segment from birth and kept coherent by its
//!   in-place mutators. Wire bytes are read in one place,
//!   [`Segment::from_header_bytes`];
//! * `XPacket<T>` — a zero-copy *view* over a byte buffer with the getters
//!   and setters the emitters, the parse and the mutators are built from.
//!
//! The simulator carries [`Segment`]s: real serialized IPv4+TCP header bytes
//! plus a *virtual* payload length. Checksums are computed as if the payload
//! were all zero bytes, which keeps them end-to-end verifiable without
//! allocating bulk payloads (zero bytes contribute nothing to the Internet
//! checksum beyond the pseudo-header length).
//!
//! Nothing in this crate depends on the simulator; it is equally usable to
//! read and build real packet headers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checksum;
pub mod ecn;
pub mod flow_index;
pub mod ipv4;
pub mod meta;
pub mod pack;
pub mod pool;
pub mod segment;
pub mod seq;
pub mod tcp;
pub mod udp;
pub mod window;

pub use checksum::{checksum, checksum_adjust, pseudo_header_sum};
pub use ecn::Ecn;
pub use flow_index::FlowIndex;
pub use ipv4::{Ipv4Packet, Ipv4Repr, PROTO_TCP, PROTO_UDP};
pub use meta::PacketMeta;
pub use pack::PackOption;
pub use pool::{PoolStats, SegmentPool};
pub use segment::{mix64, FlowKey, Segment};
pub use seq::{SeqNumber, SeqView};
pub use tcp::{TcpFlags, TcpOption, TcpPacket, TcpRepr};
pub use udp::{UdpPacket, UdpRepr};
pub use window::{scale_rwnd, scale_rwnd_nonzero, unscale_rwnd, MAX_WSCALE};

/// Errors produced when parsing malformed packets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Error {
    /// The buffer is shorter than the fixed header.
    Truncated,
    /// A length/offset field is inconsistent with the buffer.
    Malformed,
    /// An unsupported protocol or version number was found.
    Unsupported,
}

impl core::fmt::Display for Error {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Error::Truncated => write!(f, "packet truncated"),
            Error::Malformed => write!(f, "packet malformed"),
            Error::Unsupported => write!(f, "unsupported protocol"),
        }
    }
}

impl std::error::Error for Error {}

/// Convenience alias for parse results.
pub type Result<T> = core::result::Result<T, Error>;
