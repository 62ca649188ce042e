//! IPv4 header view and representation.
//!
//! The AC/DC datapath rewrites two things in the IP header: the ECN bits
//! (forcing ECT on egress, stripping CE on ingress) and, consequently, the
//! header checksum. Both operations are exposed here, including the
//! incremental checksum patch used on the fast path.

use crate::checksum::{checksum, checksum_adjust};
use crate::{Ecn, Error, Result};

/// IP protocol number for TCP.
pub const PROTO_TCP: u8 = 6;

/// Length of the fixed IPv4 header (we do not emit IP options).
pub const HEADER_LEN: usize = 20;

pub(crate) mod field {
    pub(crate) const VER_IHL: usize = 0;
    pub(crate) const DSCP_ECN: usize = 1;
    pub(crate) const LENGTH: core::ops::Range<usize> = 2..4;
    pub(crate) const IDENT: core::ops::Range<usize> = 4..6;
    pub(crate) const FLG_OFF: core::ops::Range<usize> = 6..8;
    pub(crate) const TTL: usize = 8;
    pub(crate) const PROTOCOL: usize = 9;
    pub(crate) const CHECKSUM: core::ops::Range<usize> = 10..12;
    pub(crate) const SRC_ADDR: core::ops::Range<usize> = 12..16;
    pub(crate) const DST_ADDR: core::ops::Range<usize> = 16..20;
}

/// A read/write view of an IPv4 packet over any byte container.
#[derive(Debug, Clone)]
pub struct Ipv4Packet<T: AsRef<[u8]>> {
    buffer: T,
}

impl<T: AsRef<[u8]>> Ipv4Packet<T> {
    /// Wrap a buffer without validating it.
    pub fn new_unchecked(buffer: T) -> Ipv4Packet<T> {
        Ipv4Packet { buffer }
    }

    /// Wrap a buffer, validating version, header length and total length.
    pub fn new_checked(buffer: T) -> Result<Ipv4Packet<T>> {
        let pkt = Ipv4Packet::new_unchecked(buffer);
        pkt.check()?;
        Ok(pkt)
    }

    fn check(&self) -> Result<()> {
        let data = self.buffer.as_ref();
        if data.len() < HEADER_LEN {
            return Err(Error::Truncated);
        }
        if self.version() != 4 {
            return Err(Error::Unsupported);
        }
        let ihl = self.header_len();
        if ihl < HEADER_LEN || data.len() < ihl {
            return Err(Error::Malformed);
        }
        if (self.total_len() as usize) < ihl {
            return Err(Error::Malformed);
        }
        Ok(())
    }

    /// IP version field (always 4 for valid packets).
    pub fn version(&self) -> u8 {
        self.buffer.as_ref()[field::VER_IHL] >> 4
    }

    /// Header length in bytes (IHL * 4).
    pub fn header_len(&self) -> usize {
        usize::from(self.buffer.as_ref()[field::VER_IHL] & 0xf) * 4
    }

    /// The ECN codepoint.
    pub fn ecn(&self) -> Ecn {
        Ecn::from_bits(self.buffer.as_ref()[field::DSCP_ECN])
    }

    /// Total packet length (header + payload) in bytes.
    pub fn total_len(&self) -> u16 {
        u16::from_be_bytes(self.buffer.as_ref()[field::LENGTH].try_into().unwrap())
    }

    /// The More Fragments flag.
    pub(crate) fn more_fragments(&self) -> bool {
        self.buffer.as_ref()[field::FLG_OFF.start] & 0x20 != 0
    }

    /// The fragment offset, in 8-byte units.
    pub(crate) fn frag_offset(&self) -> u16 {
        u16::from_be_bytes(self.buffer.as_ref()[field::FLG_OFF].try_into().unwrap()) & 0x1fff
    }

    /// Is this one piece of a fragmented datagram — MF set, or a non-zero
    /// offset? Only the first piece carries the L4 header, and none
    /// carries the whole datagram. Don't Fragment is not a fragment.
    pub(crate) fn is_fragment(&self) -> bool {
        self.more_fragments() || self.frag_offset() != 0
    }

    /// L4 protocol number.
    pub fn protocol(&self) -> u8 {
        self.buffer.as_ref()[field::PROTOCOL]
    }

    /// Header checksum field.
    pub fn header_checksum(&self) -> u16 {
        u16::from_be_bytes(self.buffer.as_ref()[field::CHECKSUM].try_into().unwrap())
    }

    /// Source address.
    pub fn src_addr(&self) -> [u8; 4] {
        self.buffer.as_ref()[field::SRC_ADDR].try_into().unwrap()
    }

    /// Destination address.
    pub fn dst_addr(&self) -> [u8; 4] {
        self.buffer.as_ref()[field::DST_ADDR].try_into().unwrap()
    }

    /// Does the stored header checksum verify?
    pub fn verify_checksum(&self) -> bool {
        let hdr = &self.buffer.as_ref()[..self.header_len()];
        checksum(hdr) == 0 || crate::checksum::fold(crate::checksum::sum_words(0, hdr)) == 0xffff
    }
}

impl<T: AsRef<[u8]> + AsMut<[u8]>> Ipv4Packet<T> {
    /// Set version and header length (IHL in bytes; must be multiple of 4).
    pub fn set_ver_ihl(&mut self, header_len: usize) {
        debug_assert_eq!(header_len % 4, 0);
        self.buffer.as_mut()[field::VER_IHL] = 0x40 | ((header_len / 4) as u8 & 0xf);
    }

    /// Set the DSCP bits, preserving ECN.
    pub fn set_dscp(&mut self, dscp: u8) {
        let b = &mut self.buffer.as_mut()[field::DSCP_ECN];
        *b = (dscp << 2) | (*b & 0b11);
    }

    /// Set the ECN codepoint, preserving DSCP. Does *not* fix the checksum;
    /// callers use [`Ipv4Packet::set_ecn_update_checksum`] on the fast path
    /// or [`Ipv4Packet::fill_checksum`] after bulk edits.
    pub fn set_ecn(&mut self, ecn: Ecn) {
        let b = &mut self.buffer.as_mut()[field::DSCP_ECN];
        *b = (*b & !0b11) | ecn.to_bits();
    }

    /// Set the ECN codepoint and incrementally patch the header checksum,
    /// the way the vSwitch datapath does it.
    pub fn set_ecn_update_checksum(&mut self, ecn: Ecn) {
        let data = self.buffer.as_mut();
        let old_word = u16::from_be_bytes([data[0], data[1]]);
        data[field::DSCP_ECN] = (data[field::DSCP_ECN] & !0b11) | ecn.to_bits();
        let new_word = u16::from_be_bytes([data[0], data[1]]);
        let old_ck = u16::from_be_bytes(data[field::CHECKSUM].try_into().unwrap());
        let new_ck = checksum_adjust(old_ck, old_word, new_word);
        data[field::CHECKSUM].copy_from_slice(&new_ck.to_be_bytes());
    }

    /// Set the total length field.
    pub fn set_total_len(&mut self, len: u16) {
        self.buffer.as_mut()[field::LENGTH].copy_from_slice(&len.to_be_bytes());
    }

    /// Set the total length field and incrementally patch the header
    /// checksum — used when a PACK option grows or shrinks the packet in
    /// place.
    pub fn set_total_len_update_checksum(&mut self, len: u16) {
        let data = self.buffer.as_mut();
        let old = u16::from_be_bytes(data[field::LENGTH].try_into().unwrap());
        data[field::LENGTH].copy_from_slice(&len.to_be_bytes());
        let old_ck = u16::from_be_bytes(data[field::CHECKSUM].try_into().unwrap());
        let new_ck = checksum_adjust(old_ck, old, len);
        data[field::CHECKSUM].copy_from_slice(&new_ck.to_be_bytes());
    }

    /// Set the identification field.
    pub fn set_ident(&mut self, id: u16) {
        self.buffer.as_mut()[field::IDENT].copy_from_slice(&id.to_be_bytes());
    }

    /// Clear flags/fragment offset (we never fragment).
    pub fn set_no_frag(&mut self) {
        // DF bit set, offset zero: datacenter MTUs are uniform.
        self.buffer.as_mut()[field::FLG_OFF].copy_from_slice(&0x4000u16.to_be_bytes());
    }

    /// Set TTL.
    pub fn set_ttl(&mut self, ttl: u8) {
        self.buffer.as_mut()[field::TTL] = ttl;
    }

    /// Set the L4 protocol number.
    pub fn set_protocol(&mut self, proto: u8) {
        self.buffer.as_mut()[field::PROTOCOL] = proto;
    }

    /// Set source address.
    pub fn set_src_addr(&mut self, addr: [u8; 4]) {
        self.buffer.as_mut()[field::SRC_ADDR].copy_from_slice(&addr);
    }

    /// Set destination address.
    pub fn set_dst_addr(&mut self, addr: [u8; 4]) {
        self.buffer.as_mut()[field::DST_ADDR].copy_from_slice(&addr);
    }

    /// Zero the checksum field and recompute it over the header.
    pub fn fill_checksum(&mut self) {
        let ihl = self.header_len();
        let data = self.buffer.as_mut();
        data[field::CHECKSUM].copy_from_slice(&[0, 0]);
        let ck = checksum(&data[..ihl]);
        data[field::CHECKSUM].copy_from_slice(&ck.to_be_bytes());
    }
}

/// The IPv4 header fields a stack sets when it emits a packet. Everything
/// not listed is emitted with fixed sane defaults.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ipv4Repr {
    /// Source address.
    pub src_addr: [u8; 4],
    /// Destination address.
    pub dst_addr: [u8; 4],
    /// L4 protocol number.
    pub protocol: u8,
    /// ECN codepoint.
    pub ecn: Ecn,
    /// L4 payload length in bytes.
    pub payload_len: usize,
    /// Time to live.
    pub ttl: u8,
}

impl Ipv4Repr {
    /// Default TTL used for emitted packets.
    pub const DEFAULT_TTL: u8 = 64;

    /// Emit into the front of `buffer` (which must be at least
    /// `header_len() + payload_len` bytes... only the header is written).
    pub fn emit<T: AsRef<[u8]> + AsMut<[u8]>>(&self, pkt: &mut Ipv4Packet<T>) {
        pkt.set_ver_ihl(HEADER_LEN);
        pkt.set_dscp(0);
        pkt.set_ecn(self.ecn);
        pkt.set_total_len((HEADER_LEN + self.payload_len) as u16);
        pkt.set_ident(0);
        pkt.set_no_frag();
        pkt.set_ttl(self.ttl);
        pkt.set_protocol(self.protocol);
        pkt.set_src_addr(self.src_addr);
        pkt.set_dst_addr(self.dst_addr);
        pkt.fill_checksum();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_repr() -> Ipv4Repr {
        Ipv4Repr {
            src_addr: [10, 0, 0, 1],
            dst_addr: [10, 0, 0, 2],
            protocol: PROTO_TCP,
            ecn: Ecn::Ect0,
            payload_len: 40,
            ttl: Ipv4Repr::DEFAULT_TTL,
        }
    }

    #[test]
    fn emit_then_read_fields() {
        let repr = sample_repr();
        let mut buf = [0u8; HEADER_LEN];
        let mut pkt = Ipv4Packet::new_unchecked(&mut buf[..]);
        repr.emit(&mut pkt);
        let pkt = Ipv4Packet::new_checked(&buf[..]).unwrap();
        assert!(pkt.verify_checksum());
        assert_eq!(
            (pkt.src_addr(), pkt.dst_addr(), pkt.protocol(), pkt.ecn()),
            (repr.src_addr, repr.dst_addr, repr.protocol, repr.ecn)
        );
        assert_eq!(usize::from(pkt.total_len()), HEADER_LEN + repr.payload_len);
        assert_eq!(buf[field::TTL], repr.ttl);
    }

    #[test]
    fn rejects_short_buffer() {
        assert_eq!(
            Ipv4Packet::new_checked(&[0u8; 10][..]).unwrap_err(),
            Error::Truncated
        );
    }

    #[test]
    fn rejects_wrong_version() {
        let mut buf = [0u8; HEADER_LEN];
        buf[0] = 0x65; // version 6
        assert_eq!(
            Ipv4Packet::new_checked(&buf[..]).unwrap_err(),
            Error::Unsupported
        );
    }

    #[test]
    fn rejects_total_len_below_header() {
        let repr = sample_repr();
        let mut buf = vec![0u8; HEADER_LEN + repr.payload_len];
        let mut pkt = Ipv4Packet::new_unchecked(&mut buf[..]);
        repr.emit(&mut pkt);
        pkt.set_total_len(10);
        assert_eq!(
            Ipv4Packet::new_checked(&buf[..]).unwrap_err(),
            Error::Malformed
        );
    }

    #[test]
    fn incremental_ecn_rewrite_keeps_checksum_valid() {
        let repr = sample_repr();
        let mut buf = vec![0u8; HEADER_LEN + repr.payload_len];
        let mut pkt = Ipv4Packet::new_unchecked(&mut buf[..]);
        repr.emit(&mut pkt);
        // Switch marks the packet: ECT0 -> CE.
        pkt.set_ecn_update_checksum(Ecn::Ce);
        let pkt = Ipv4Packet::new_checked(&buf[..]).unwrap();
        assert_eq!(pkt.ecn(), Ecn::Ce);
        assert!(pkt.verify_checksum());
        // Receiver module strips it back to NotEct for a non-ECN guest.
        let mut pkt = Ipv4Packet::new_unchecked(&mut buf[..]);
        pkt.set_ecn_update_checksum(Ecn::NotEct);
        let pkt = Ipv4Packet::new_checked(&buf[..]).unwrap();
        assert_eq!(pkt.ecn(), Ecn::NotEct);
        assert!(pkt.verify_checksum());
    }

    #[test]
    fn fragment_fields_read_apart_from_df() {
        let mut buf = [0u8; HEADER_LEN];
        sample_repr().emit(&mut Ipv4Packet::new_unchecked(&mut buf[..]));
        let pkt = Ipv4Packet::new_checked(&buf[..]).unwrap();
        // Our emitter sets DF alone.
        assert!(!pkt.more_fragments() && pkt.frag_offset() == 0 && !pkt.is_fragment());
        buf[field::FLG_OFF].copy_from_slice(&0x2000u16.to_be_bytes());
        let pkt = Ipv4Packet::new_checked(&buf[..]).unwrap();
        assert!((pkt.more_fragments(), pkt.frag_offset(), pkt.is_fragment()) == (true, 0, true));
        buf[field::FLG_OFF].copy_from_slice(&0x5fffu16.to_be_bytes());
        let pkt = Ipv4Packet::new_checked(&buf[..]).unwrap();
        assert!(
            (pkt.more_fragments(), pkt.frag_offset(), pkt.is_fragment()) == (false, 0x1fff, true)
        );
    }

    #[test]
    fn dscp_and_ecn_do_not_clobber_each_other() {
        let mut buf = [0u8; HEADER_LEN];
        let mut pkt = Ipv4Packet::new_unchecked(&mut buf[..]);
        pkt.set_dscp(0x2e); // EF
        pkt.set_ecn(Ecn::Ce);
        assert_eq!(pkt.ecn(), Ecn::Ce);
        assert_eq!(buf[field::DSCP_ECN] >> 2, 0x2e);
        let mut pkt = Ipv4Packet::new_unchecked(&mut buf[..]);
        pkt.set_dscp(0x00);
        assert_eq!(pkt.ecn(), Ecn::Ce);
    }
}
