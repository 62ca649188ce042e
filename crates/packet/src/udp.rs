//! UDP header view and representation.
//!
//! AC/DC's prototype only enforces congestion control for TCP (the paper
//! leaves DCTCP-friendly UDP tunnels as future work), but the vSwitch still
//! forwards UDP traffic, so the datapath needs to parse it far enough to
//! classify flows.

use crate::checksum::{fold, pseudo_header_sum, sum_words};
use crate::{Error, Result};

/// Length of the UDP header.
pub const HEADER_LEN: usize = 8;

mod field {
    pub(crate) const SRC_PORT: core::ops::Range<usize> = 0..2;
    pub(crate) const DST_PORT: core::ops::Range<usize> = 2..4;
    pub(crate) const LENGTH: core::ops::Range<usize> = 4..6;
    pub(crate) const CHECKSUM: core::ops::Range<usize> = 6..8;
}

/// A read/write view of a UDP datagram over any byte container.
#[derive(Debug, Clone)]
pub struct UdpPacket<T: AsRef<[u8]>> {
    buffer: T,
}

impl<T: AsRef<[u8]>> UdpPacket<T> {
    /// Wrap a buffer without validating it.
    pub fn new_unchecked(buffer: T) -> UdpPacket<T> {
        UdpPacket { buffer }
    }

    /// Wrap a buffer, validating the length field.
    pub fn new_checked(buffer: T) -> Result<UdpPacket<T>> {
        let pkt = UdpPacket::new_unchecked(buffer);
        pkt.check()?;
        Ok(pkt)
    }

    fn check(&self) -> Result<()> {
        let data = self.buffer.as_ref();
        if data.len() < HEADER_LEN {
            return Err(Error::Truncated);
        }
        if (self.length() as usize) < HEADER_LEN {
            return Err(Error::Malformed);
        }
        Ok(())
    }

    /// Source port.
    pub fn src_port(&self) -> u16 {
        u16::from_be_bytes(self.buffer.as_ref()[field::SRC_PORT].try_into().unwrap())
    }

    /// Destination port.
    pub fn dst_port(&self) -> u16 {
        u16::from_be_bytes(self.buffer.as_ref()[field::DST_PORT].try_into().unwrap())
    }

    /// The length field (header + payload).
    pub fn length(&self) -> u16 {
        u16::from_be_bytes(self.buffer.as_ref()[field::LENGTH].try_into().unwrap())
    }

    /// The checksum field.
    pub fn checksum(&self) -> u16 {
        u16::from_be_bytes(self.buffer.as_ref()[field::CHECKSUM].try_into().unwrap())
    }

    /// Verify the checksum with `virtual_payload_len` implicit zero bytes.
    pub fn verify_checksum(&self, src: [u8; 4], dst: [u8; 4], virtual_payload_len: usize) -> bool {
        if self.checksum() == 0 {
            return true; // checksum disabled
        }
        let data = self.buffer.as_ref();
        let l4_len = (data.len() + virtual_payload_len) as u32;
        let mut sum = pseudo_header_sum(src, dst, crate::PROTO_UDP, l4_len);
        sum = sum_words(sum, data);
        fold(sum) == 0xffff
    }
}

impl<T: AsRef<[u8]> + AsMut<[u8]>> UdpPacket<T> {
    /// Set source port.
    pub fn set_src_port(&mut self, port: u16) {
        self.buffer.as_mut()[field::SRC_PORT].copy_from_slice(&port.to_be_bytes());
    }

    /// Set destination port.
    pub fn set_dst_port(&mut self, port: u16) {
        self.buffer.as_mut()[field::DST_PORT].copy_from_slice(&port.to_be_bytes());
    }

    /// Set the length field.
    pub fn set_length(&mut self, len: u16) {
        self.buffer.as_mut()[field::LENGTH].copy_from_slice(&len.to_be_bytes());
    }

    /// Compute and fill the checksum with implicit zero payload bytes.
    pub fn fill_checksum(&mut self, src: [u8; 4], dst: [u8; 4], virtual_payload_len: usize) {
        self.buffer.as_mut()[field::CHECKSUM].copy_from_slice(&[0, 0]);
        let data = self.buffer.as_ref();
        let l4_len = (data.len() + virtual_payload_len) as u32;
        let mut sum = pseudo_header_sum(src, dst, crate::PROTO_UDP, l4_len);
        sum = sum_words(sum, data);
        let mut ck = !fold(sum);
        if ck == 0 {
            ck = 0xffff; // RFC 768: transmitted as all-ones
        }
        self.buffer.as_mut()[field::CHECKSUM].copy_from_slice(&ck.to_be_bytes());
    }
}

/// High-level representation of a UDP header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UdpRepr {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Payload length in bytes.
    pub payload_len: usize,
}

impl UdpRepr {
    /// Parse a representation from a packet view.
    pub fn parse<T: AsRef<[u8]>>(pkt: &UdpPacket<T>) -> Result<UdpRepr> {
        pkt.check()?;
        Ok(UdpRepr {
            src_port: pkt.src_port(),
            dst_port: pkt.dst_port(),
            payload_len: pkt.length() as usize - HEADER_LEN,
        })
    }

    /// Header length when emitted.
    pub fn header_len(&self) -> usize {
        HEADER_LEN
    }

    /// Emit into a view over at least `HEADER_LEN` bytes.
    pub fn emit<T: AsRef<[u8]> + AsMut<[u8]>>(&self, pkt: &mut UdpPacket<T>) {
        pkt.set_src_port(self.src_port);
        pkt.set_dst_port(self.dst_port);
        pkt.set_length((HEADER_LEN + self.payload_len) as u16);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_with_virtual_payload() {
        let repr = UdpRepr {
            src_port: 53,
            dst_port: 5353,
            payload_len: 512,
        };
        let mut buf = [0u8; HEADER_LEN];
        let mut pkt = UdpPacket::new_unchecked(&mut buf[..]);
        repr.emit(&mut pkt);
        pkt.fill_checksum([1, 2, 3, 4], [5, 6, 7, 8], 512);
        let pkt = UdpPacket::new_checked(&buf[..]).unwrap();
        assert!(pkt.verify_checksum([1, 2, 3, 4], [5, 6, 7, 8], 512));
        assert_eq!(UdpRepr::parse(&pkt).unwrap(), repr);
    }

    #[test]
    fn zero_checksum_means_disabled() {
        let mut buf = [0u8; HEADER_LEN];
        let mut pkt = UdpPacket::new_unchecked(&mut buf[..]);
        UdpRepr {
            src_port: 1,
            dst_port: 2,
            payload_len: 0,
        }
        .emit(&mut pkt);
        let pkt = UdpPacket::new_checked(&buf[..]).unwrap();
        assert!(pkt.verify_checksum([0, 0, 0, 0], [0, 0, 0, 0], 0));
    }

    #[test]
    fn rejects_bad_length_field() {
        let mut buf = [0u8; HEADER_LEN];
        buf[5] = 4; // length = 4 < 8
        assert_eq!(
            UdpPacket::new_checked(&buf[..]).unwrap_err(),
            Error::Malformed
        );
    }
}
