//! TCP header view, options, and representation.
//!
//! Besides the standard fields, two of the three TCP reserved bits are given
//! AC/DC-specific meanings, exactly as §3.2 of the paper describes using "a
//! reserved bit in the header":
//!
//! * `VM_ECE` — set by the sender-side AC/DC module on egress data packets
//!   when the *guest* stack was itself ECN-capable, so the receiver-side
//!   module knows whether to restore or strip ECN bits.
//! * `FACK` — marks a *fake ACK*: a feedback-only packet fabricated by the
//!   receiver-side module when piggy-backing the PACK option would push a
//!   real ACK past the MTU. The sender-side module consumes and drops it.
//!
//! The RWND rewrite — the enforcement mechanism of the whole paper — is
//! [`TcpPacket::set_window_update_checksum`]: a 2-byte in-place write plus an
//! RFC 1624 incremental checksum patch.

use crate::checksum::{checksum_adjust, fold, pseudo_header_sum, sum_words};
use crate::pack::PackOption;
use crate::{Error, Result, SeqNumber};

/// Length of the fixed TCP header, without options.
pub const HEADER_LEN: usize = 20;
/// Maximum TCP header length (data offset is 4 bits of 32-bit words).
pub const MAX_HEADER_LEN: usize = 60;

mod field {
    pub(crate) const SRC_PORT: core::ops::Range<usize> = 0..2;
    pub(crate) const DST_PORT: core::ops::Range<usize> = 2..4;
    pub(crate) const SEQ_NUM: core::ops::Range<usize> = 4..8;
    pub(crate) const ACK_NUM: core::ops::Range<usize> = 8..12;
    pub(crate) const OFF_RSVD: usize = 12;
    pub(crate) const FLAGS: usize = 13;
    pub(crate) const WINDOW: core::ops::Range<usize> = 14..16;
    pub(crate) const CHECKSUM: core::ops::Range<usize> = 16..18;
    pub(crate) const URGENT: core::ops::Range<usize> = 18..20;
}

// A tiny local stand-in for the `bitflags` crate (not in the sanctioned
// dependency set): generates a transparent wrapper with const flags,
// bit-ops and containment tests.
macro_rules! bitflags_lite {
    (
        $(#[$meta:meta])*
        pub struct $name:ident: $ty:ty {
            $($(#[$fmeta:meta])* const $flag:ident = $value:expr;)*
        }
    ) => {
        $(#[$meta])*
        #[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
        pub struct $name(pub $ty);

        impl $name {
            $($(#[$fmeta])* pub const $flag: $name = $name($value);)*

            /// The empty flag set.
            pub const fn empty() -> $name { $name(0) }
            /// Raw bits.
            pub const fn bits(self) -> $ty { self.0 }
            /// Construct from raw bits.
            pub const fn from_bits(bits: $ty) -> $name { $name(bits) }
            /// Does `self` contain every bit of `other`?
            pub const fn contains(self, other: $name) -> bool {
                self.0 & other.0 == other.0
            }
            /// Does `self` share any bit with `other`?
            pub const fn intersects(self, other: $name) -> bool {
                self.0 & other.0 != 0
            }
            /// Union.
            pub const fn union(self, other: $name) -> $name { $name(self.0 | other.0) }
            /// Set difference.
            pub const fn difference(self, other: $name) -> $name { $name(self.0 & !other.0) }
        }

        impl core::ops::BitOr for $name {
            type Output = $name;
            fn bitor(self, rhs: $name) -> $name { $name(self.0 | rhs.0) }
        }
        impl core::ops::BitOrAssign for $name {
            fn bitor_assign(&mut self, rhs: $name) { self.0 |= rhs.0; }
        }
        impl core::ops::BitAnd for $name {
            type Output = $name;
            fn bitand(self, rhs: $name) -> $name { $name(self.0 & rhs.0) }
        }
        impl core::ops::Not for $name {
            type Output = $name;
            fn not(self) -> $name { $name(!self.0) }
        }
        impl core::fmt::Debug for $name {
            fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
                let mut first = true;
                $(
                    if self.contains($name::$flag) {
                        if !first { write!(f, "|")?; }
                        write!(f, stringify!($flag))?;
                        first = false;
                    }
                )*
                if first { write!(f, "(none)")?; }
                Ok(())
            }
        }
    };
}

bitflags_lite! {
    /// The eight TCP flag bits of header byte 13.
    pub struct TcpFlags: u8 {
        /// Sender reduced its congestion window (ECN).
        const CWR = 0b1000_0000;
        /// ECN-Echo: receiver saw a CE mark (or SYN: ECN negotiation).
        const ECE = 0b0100_0000;
        /// Urgent pointer is significant (unused here).
        const URG = 0b0010_0000;
        /// Acknowledgement number is significant.
        const ACK = 0b0001_0000;
        /// Push.
        const PSH = 0b0000_1000;
        /// Reset the connection.
        const RST = 0b0000_0100;
        /// Synchronize sequence numbers.
        const SYN = 0b0000_0010;
        /// No more data from sender.
        const FIN = 0b0000_0001;
    }
}

/// Reserved-bit mask (byte 12, bit 2): guest stack is ECN-capable.
const RSVD_VM_ECE: u8 = 0b0000_0100;
/// Reserved-bit mask (byte 12, bit 1): this packet is an AC/DC fake ACK.
const RSVD_FACK: u8 = 0b0000_0010;

/// A read/write view of a TCP segment over any byte container.
///
/// The buffer starts at the TCP header (no IP header).
#[derive(Debug, Clone)]
pub struct TcpPacket<T: AsRef<[u8]>> {
    buffer: T,
}

impl<T: AsRef<[u8]>> TcpPacket<T> {
    /// Wrap a buffer without validating it.
    pub fn new_unchecked(buffer: T) -> TcpPacket<T> {
        TcpPacket { buffer }
    }

    /// Wrap a buffer, validating lengths and the data offset.
    pub fn new_checked(buffer: T) -> Result<TcpPacket<T>> {
        let pkt = TcpPacket::new_unchecked(buffer);
        pkt.check()?;
        Ok(pkt)
    }

    fn check(&self) -> Result<()> {
        let data = self.buffer.as_ref();
        if data.len() < HEADER_LEN {
            return Err(Error::Truncated);
        }
        let off = self.header_len();
        if !(HEADER_LEN..=MAX_HEADER_LEN).contains(&off) || data.len() < off {
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

    /// Sequence number.
    pub fn seq_number(&self) -> SeqNumber {
        SeqNumber(u32::from_be_bytes(
            self.buffer.as_ref()[field::SEQ_NUM].try_into().unwrap(),
        ))
    }

    /// Acknowledgement number.
    pub fn ack_number(&self) -> SeqNumber {
        SeqNumber(u32::from_be_bytes(
            self.buffer.as_ref()[field::ACK_NUM].try_into().unwrap(),
        ))
    }

    /// Header length in bytes (data offset * 4).
    pub fn header_len(&self) -> usize {
        usize::from(self.buffer.as_ref()[field::OFF_RSVD] >> 4) * 4
    }

    /// The flag byte.
    pub fn flags(&self) -> TcpFlags {
        TcpFlags::from_bits(self.buffer.as_ref()[field::FLAGS])
    }

    /// Is the AC/DC "guest is ECN-capable" reserved bit set?
    pub fn vm_ece(&self) -> bool {
        self.buffer.as_ref()[field::OFF_RSVD] & RSVD_VM_ECE != 0
    }

    /// Is this packet an AC/DC fake ACK?
    pub fn is_fack(&self) -> bool {
        self.buffer.as_ref()[field::OFF_RSVD] & RSVD_FACK != 0
    }

    /// The advertised receive window (unscaled, as on the wire).
    pub fn window(&self) -> u16 {
        u16::from_be_bytes(self.buffer.as_ref()[field::WINDOW].try_into().unwrap())
    }

    /// The checksum field.
    pub fn checksum(&self) -> u16 {
        u16::from_be_bytes(self.buffer.as_ref()[field::CHECKSUM].try_into().unwrap())
    }

    /// The raw options bytes (between the fixed header and the payload).
    pub fn options(&self) -> &[u8] {
        &self.buffer.as_ref()[HEADER_LEN..self.header_len()]
    }

    /// Verify the TCP checksum assuming a payload of `payload_len` zero
    /// bytes beyond what the buffer holds (see crate docs on virtual
    /// payloads). For fully materialized packets pass `0`.
    pub fn verify_checksum(&self, src: [u8; 4], dst: [u8; 4], virtual_payload_len: usize) -> bool {
        let data = self.buffer.as_ref();
        let l4_len = (data.len() + virtual_payload_len) as u32;
        let mut sum = pseudo_header_sum(src, dst, crate::PROTO_TCP, l4_len);
        sum = sum_words(sum, data);
        fold(sum) == 0xffff
    }
}

impl<T: AsRef<[u8]> + AsMut<[u8]>> TcpPacket<T> {
    /// Set source port.
    pub fn set_src_port(&mut self, port: u16) {
        self.buffer.as_mut()[field::SRC_PORT].copy_from_slice(&port.to_be_bytes());
    }

    /// Set destination port.
    pub fn set_dst_port(&mut self, port: u16) {
        self.buffer.as_mut()[field::DST_PORT].copy_from_slice(&port.to_be_bytes());
    }

    /// Set sequence number.
    pub fn set_seq_number(&mut self, seq: SeqNumber) {
        self.buffer.as_mut()[field::SEQ_NUM].copy_from_slice(&seq.raw().to_be_bytes());
    }

    /// Set acknowledgement number.
    pub fn set_ack_number(&mut self, ack: SeqNumber) {
        self.buffer.as_mut()[field::ACK_NUM].copy_from_slice(&ack.raw().to_be_bytes());
    }

    /// Set the header length (bytes; must be a multiple of 4), preserving
    /// the reserved bits.
    pub fn set_header_len(&mut self, len: usize) {
        debug_assert_eq!(len % 4, 0);
        let b = &mut self.buffer.as_mut()[field::OFF_RSVD];
        *b = (*b & 0x0f) | (((len / 4) as u8) << 4);
    }

    /// Set or clear the AC/DC "guest is ECN-capable" reserved bit.
    pub fn set_vm_ece(&mut self, on: bool) {
        let b = &mut self.buffer.as_mut()[field::OFF_RSVD];
        if on {
            *b |= RSVD_VM_ECE;
        } else {
            *b &= !RSVD_VM_ECE;
        }
    }

    /// Set or clear the fake-ACK reserved bit.
    pub fn set_fack(&mut self, on: bool) {
        let b = &mut self.buffer.as_mut()[field::OFF_RSVD];
        if on {
            *b |= RSVD_FACK;
        } else {
            *b &= !RSVD_FACK;
        }
    }

    /// Set the flag byte.
    pub fn set_flags(&mut self, flags: TcpFlags) {
        self.buffer.as_mut()[field::FLAGS] = flags.bits();
    }

    /// Set the advertised window (raw, unscaled).
    pub fn set_window(&mut self, window: u16) {
        self.buffer.as_mut()[field::WINDOW].copy_from_slice(&window.to_be_bytes());
    }

    /// Overwrite the advertised window *and* incrementally patch the TCP
    /// checksum — the AC/DC enforcement write (§3.3 / §4 of the paper).
    pub fn set_window_update_checksum(&mut self, window: u16) {
        let data = self.buffer.as_mut();
        let old = u16::from_be_bytes(data[field::WINDOW].try_into().unwrap());
        data[field::WINDOW].copy_from_slice(&window.to_be_bytes());
        let old_ck = u16::from_be_bytes(data[field::CHECKSUM].try_into().unwrap());
        let new_ck = checksum_adjust(old_ck, old, window);
        data[field::CHECKSUM].copy_from_slice(&new_ck.to_be_bytes());
    }

    /// Overwrite the flag byte and incrementally patch the checksum.
    pub fn set_flags_update_checksum(&mut self, flags: TcpFlags) {
        let data = self.buffer.as_mut();
        let old = u16::from_be_bytes([data[field::OFF_RSVD], data[field::FLAGS]]);
        data[field::FLAGS] = flags.bits();
        let new = u16::from_be_bytes([data[field::OFF_RSVD], data[field::FLAGS]]);
        let old_ck = u16::from_be_bytes(data[field::CHECKSUM].try_into().unwrap());
        let new_ck = checksum_adjust(old_ck, old, new);
        data[field::CHECKSUM].copy_from_slice(&new_ck.to_be_bytes());
    }

    /// Clear a flag bit and incrementally patch the checksum. Used by the
    /// sender module to strip ECE feedback before the guest sees it.
    pub fn clear_flags_update_checksum(&mut self, flags: TcpFlags) {
        let data = self.buffer.as_mut();
        let old = u16::from_be_bytes([data[field::OFF_RSVD], data[field::FLAGS]]);
        data[field::FLAGS] &= !flags.bits();
        let new = u16::from_be_bytes([data[field::OFF_RSVD], data[field::FLAGS]]);
        let old_ck = u16::from_be_bytes(data[field::CHECKSUM].try_into().unwrap());
        let new_ck = checksum_adjust(old_ck, old, new);
        data[field::CHECKSUM].copy_from_slice(&new_ck.to_be_bytes());
    }

    /// Set the AC/DC reserved-bit markers and incrementally patch the
    /// checksum (sender-module egress marking).
    pub fn set_reserved_update_checksum(&mut self, vm_ece: bool, fack: bool) {
        let data = self.buffer.as_mut();
        let old = u16::from_be_bytes([data[field::OFF_RSVD], data[field::FLAGS]]);
        if vm_ece {
            data[field::OFF_RSVD] |= RSVD_VM_ECE;
        } else {
            data[field::OFF_RSVD] &= !RSVD_VM_ECE;
        }
        if fack {
            data[field::OFF_RSVD] |= RSVD_FACK;
        } else {
            data[field::OFF_RSVD] &= !RSVD_FACK;
        }
        let new = u16::from_be_bytes([data[field::OFF_RSVD], data[field::FLAGS]]);
        let old_ck = u16::from_be_bytes(data[field::CHECKSUM].try_into().unwrap());
        let new_ck = checksum_adjust(old_ck, old, new);
        data[field::CHECKSUM].copy_from_slice(&new_ck.to_be_bytes());
    }

    /// Clear the reserved-bit markers and incrementally patch the checksum.
    /// Used so AC/DC metadata never leaks to guests or the wire beyond the
    /// peer vSwitch.
    pub fn clear_reserved_update_checksum(&mut self) {
        let data = self.buffer.as_mut();
        let old = u16::from_be_bytes([data[field::OFF_RSVD], data[field::FLAGS]]);
        data[field::OFF_RSVD] &= !(RSVD_VM_ECE | RSVD_FACK);
        let new = u16::from_be_bytes([data[field::OFF_RSVD], data[field::FLAGS]]);
        let old_ck = u16::from_be_bytes(data[field::CHECKSUM].try_into().unwrap());
        let new_ck = checksum_adjust(old_ck, old, new);
        data[field::CHECKSUM].copy_from_slice(&new_ck.to_be_bytes());
    }

    /// Set the checksum field.
    pub fn set_checksum(&mut self, ck: u16) {
        self.buffer.as_mut()[field::CHECKSUM].copy_from_slice(&ck.to_be_bytes());
    }

    /// Zero the urgent pointer.
    pub fn clear_urgent(&mut self) {
        self.buffer.as_mut()[field::URGENT].copy_from_slice(&[0, 0]);
    }

    /// Mutable access to the options region.
    pub fn options_mut(&mut self) -> &mut [u8] {
        let end = self.header_len();
        &mut self.buffer.as_mut()[HEADER_LEN..end]
    }

    /// Compute and fill the checksum, assuming `virtual_payload_len` zero
    /// payload bytes beyond the buffer.
    pub fn fill_checksum(&mut self, src: [u8; 4], dst: [u8; 4], virtual_payload_len: usize) {
        self.set_checksum(0);
        let data = self.buffer.as_ref();
        let l4_len = (data.len() + virtual_payload_len) as u32;
        let mut sum = pseudo_header_sum(src, dst, crate::PROTO_TCP, l4_len);
        sum = sum_words(sum, data);
        let ck = !fold(sum);
        self.set_checksum(ck);
    }
}

/// A TCP option to emit (the options the simulator's stacks send).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TcpOption {
    /// Padding.
    NoOperation,
    /// Maximum segment size (SYN only).
    MaxSegmentSize(u16),
    /// Window scale shift (SYN only, RFC 7323).
    WindowScale(u8),
    /// SACK permitted (SYN only).
    SackPermitted,
    /// Timestamps (value, echo reply).
    Timestamps(u32, u32),
    /// The AC/DC PACK feedback option.
    Pack(PackOption),
}

/// Option kind numbers.
pub mod option_kind {
    /// End of option list.
    pub const EOL: u8 = 0;
    /// No-operation (padding).
    pub const NOP: u8 = 1;
    /// Maximum segment size.
    pub const MSS: u8 = 2;
    /// Window scale.
    pub const WS: u8 = 3;
    /// SACK permitted.
    pub const SACK_PERM: u8 = 4;
    /// Timestamps.
    pub const TS: u8 = 8;
    /// RFC 6994 shared experimental option, used for PACK.
    pub const EXPERIMENT: u8 = 253;
}

impl TcpOption {
    /// Encoded length in bytes.
    pub fn wire_len(&self) -> usize {
        match self {
            TcpOption::NoOperation => 1,
            TcpOption::MaxSegmentSize(_) => 4,
            TcpOption::WindowScale(_) => 3,
            TcpOption::SackPermitted => 2,
            TcpOption::Timestamps(_, _) => 10,
            TcpOption::Pack(_) => PackOption::WIRE_LEN,
        }
    }

    /// Emit this option at the front of `buf`, returning the remainder.
    pub fn emit<'a>(&self, buf: &'a mut [u8]) -> &'a mut [u8] {
        let len = self.wire_len();
        assert!(buf.len() >= len, "option buffer too small");
        match *self {
            TcpOption::NoOperation => buf[0] = option_kind::NOP,
            TcpOption::MaxSegmentSize(mss) => {
                buf[0] = option_kind::MSS;
                buf[1] = 4;
                buf[2..4].copy_from_slice(&mss.to_be_bytes());
            }
            TcpOption::WindowScale(shift) => {
                buf[0] = option_kind::WS;
                buf[1] = 3;
                buf[2] = shift;
            }
            TcpOption::SackPermitted => {
                buf[0] = option_kind::SACK_PERM;
                buf[1] = 2;
            }
            TcpOption::Timestamps(val, ecr) => {
                buf[0] = option_kind::TS;
                buf[1] = 10;
                buf[2..6].copy_from_slice(&val.to_be_bytes());
                buf[6..10].copy_from_slice(&ecr.to_be_bytes());
            }
            TcpOption::Pack(ref p) => p.emit(&mut buf[..PackOption::WIRE_LEN]),
        }
        &mut buf[len..]
    }
}

/// A TCP header to emit: what a stack wants to send.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TcpRepr {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Sequence number.
    pub seq: SeqNumber,
    /// Acknowledgement number (meaningful when ACK flag set).
    pub ack: SeqNumber,
    /// Flag bits.
    pub flags: TcpFlags,
    /// Raw advertised window.
    pub window: u16,
    /// Options to carry (at most one `Pack`).
    pub options: Vec<TcpOption>,
    /// AC/DC reserved-bit: guest is ECN-capable.
    pub vm_ece: bool,
    /// AC/DC reserved-bit: fake ACK.
    pub fack: bool,
}

impl TcpRepr {
    /// A baseline segment with the given ports and no flags.
    pub fn new(src_port: u16, dst_port: u16) -> TcpRepr {
        TcpRepr {
            src_port,
            dst_port,
            seq: SeqNumber::ZERO,
            ack: SeqNumber::ZERO,
            flags: TcpFlags::empty(),
            window: 0,
            options: Vec::new(),
            vm_ece: false,
            fack: false,
        }
    }

    /// Bytes of options when emitted, padded to a multiple of 4.
    pub fn options_len(&self) -> usize {
        let raw: usize = self.options.iter().map(|o| o.wire_len()).sum();
        raw.div_ceil(4) * 4
    }

    /// Total header length when emitted.
    pub fn header_len(&self) -> usize {
        HEADER_LEN + self.options_len()
    }

    /// Emit into a buffer of at least `header_len()` bytes. The checksum is
    /// left zero; call [`TcpPacket::fill_checksum`] afterwards.
    pub fn emit<T: AsRef<[u8]> + AsMut<[u8]>>(&self, pkt: &mut TcpPacket<T>) {
        assert!(
            self.header_len() <= MAX_HEADER_LEN,
            "too many TCP options ({} bytes)",
            self.header_len()
        );
        pkt.set_src_port(self.src_port);
        pkt.set_dst_port(self.dst_port);
        pkt.set_seq_number(self.seq);
        pkt.set_ack_number(self.ack);
        // Order matters: header length shares a byte with the reserved bits.
        pkt.buffer.as_mut()[field::OFF_RSVD] = 0;
        pkt.set_header_len(self.header_len());
        pkt.set_vm_ece(self.vm_ece);
        pkt.set_fack(self.fack);
        pkt.set_flags(self.flags);
        pkt.set_window(self.window);
        pkt.set_checksum(0);
        pkt.clear_urgent();
        let mut opts = pkt.options_mut();
        for opt in &self.options {
            opts = opt.emit(opts);
        }
        // Pad with EOL/NOP to the 4-byte boundary.
        for b in opts.iter_mut() {
            *b = option_kind::EOL;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_repr() -> TcpRepr {
        TcpRepr {
            src_port: 4321,
            dst_port: 80,
            seq: SeqNumber(0x1234_5678),
            ack: SeqNumber(0x8765_4321),
            flags: TcpFlags::ACK | TcpFlags::PSH,
            window: 0xbeef,
            options: vec![
                TcpOption::NoOperation,
                TcpOption::NoOperation,
                TcpOption::Timestamps(111, 222),
            ],
            vm_ece: true,
            fack: false,
        }
    }

    fn emit(repr: &TcpRepr) -> Vec<u8> {
        let mut buf = vec![0u8; repr.header_len()];
        let mut pkt = TcpPacket::new_unchecked(&mut buf[..]);
        repr.emit(&mut pkt);
        pkt.fill_checksum([10, 0, 0, 1], [10, 0, 0, 2], 0);
        buf
    }

    #[test]
    fn window_rewrite_preserves_checksum_validity() {
        let repr = sample_repr();
        let mut buf = emit(&repr);
        let mut pkt = TcpPacket::new_unchecked(&mut buf[..]);
        pkt.set_window_update_checksum(77);
        let pkt = TcpPacket::new_checked(&buf[..]).unwrap();
        assert_eq!(pkt.window(), 77);
        assert!(pkt.verify_checksum([10, 0, 0, 1], [10, 0, 0, 2], 0));
    }

    #[test]
    fn clear_ece_preserves_checksum_validity() {
        let mut repr = sample_repr();
        repr.flags = TcpFlags::ACK | TcpFlags::ECE;
        let mut buf = emit(&repr);
        let mut pkt = TcpPacket::new_unchecked(&mut buf[..]);
        pkt.clear_flags_update_checksum(TcpFlags::ECE);
        let pkt = TcpPacket::new_checked(&buf[..]).unwrap();
        assert!(!pkt.flags().contains(TcpFlags::ECE));
        assert!(pkt.flags().contains(TcpFlags::ACK));
        assert!(pkt.verify_checksum([10, 0, 0, 1], [10, 0, 0, 2], 0));
    }

    #[test]
    fn clear_reserved_bits_preserves_checksum_validity() {
        let mut repr = sample_repr();
        repr.vm_ece = true;
        repr.fack = true;
        let mut buf = emit(&repr);
        let mut pkt = TcpPacket::new_unchecked(&mut buf[..]);
        assert!(pkt.vm_ece());
        assert!(pkt.is_fack());
        pkt.clear_reserved_update_checksum();
        let pkt = TcpPacket::new_checked(&buf[..]).unwrap();
        assert!(!pkt.vm_ece());
        assert!(!pkt.is_fack());
        assert!(pkt.verify_checksum([10, 0, 0, 1], [10, 0, 0, 2], 0));
    }

    #[test]
    fn virtual_payload_checksum() {
        let repr = sample_repr();
        let mut buf = vec![0u8; repr.header_len()];
        let mut pkt = TcpPacket::new_unchecked(&mut buf[..]);
        repr.emit(&mut pkt);
        pkt.fill_checksum([1, 1, 1, 1], [2, 2, 2, 2], 1448);
        let pkt = TcpPacket::new_checked(&buf[..]).unwrap();
        // Verifies when we claim the same virtual payload...
        assert!(pkt.verify_checksum([1, 1, 1, 1], [2, 2, 2, 2], 1448));
        // ...and fails when we do not (pseudo-header length differs).
        assert!(!pkt.verify_checksum([1, 1, 1, 1], [2, 2, 2, 2], 0));
    }

    #[test]
    fn header_len_bounds_checked() {
        let mut buf = [0u8; HEADER_LEN];
        buf[field::OFF_RSVD] = 0x30; // data offset 3 words = 12 bytes < 20
        assert_eq!(
            TcpPacket::new_checked(&buf[..]).unwrap_err(),
            Error::Malformed
        );
    }

    #[test]
    fn flags_debug_format() {
        let f = TcpFlags::SYN | TcpFlags::ACK;
        assert_eq!(format!("{f:?}"), "ACK|SYN");
        assert_eq!(format!("{:?}", TcpFlags::empty()), "(none)");
    }
}
