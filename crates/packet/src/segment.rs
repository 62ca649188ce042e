//! [`Segment`]: the unit of traffic carried by the simulator.
//!
//! A `Segment` owns the *real, serialized* IPv4 + TCP header bytes plus a
//! *virtual* payload length. Header-mangling code (the entire AC/DC
//! datapath) operates on genuine wire bytes — rewrite, incremental
//! checksum — while the simulator avoids allocating and copying bulk
//! payloads. Checksums treat the payload as zeros, so they stay end-to-end
//! verifiable (see crate docs).
//!
//! # The parse-once contract
//!
//! Each segment carries its [`PacketMeta`] — the full set of header fields
//! the hot path consumes — in a plain field, filled when the segment is
//! made: [`Segment::new_tcp`] builds it from the representations it
//! emits, and [`Segment::from_header_bytes`], the one place wire bytes are
//! read, keeps its validating parse. AC/DC enforces TCP only (§3.3), so a
//! segment is a TCP segment: the parse refuses every other protocol. The
//! in-place mutators below (window rewrite, ECN patch, flag/reserved-bit
//! edits, PACK insertion and removal) patch the bytes, the checksum *and*
//! the meta together, and there is no raw mutable view, so the meta always
//! says what the bytes say and every layer reads it through
//! [`Segment::try_meta`]. `Segment` is plain data: the header bytes
//! inline, no heap, no interior mutability, `Send + Sync` because its
//! fields are, and a hand-off between layers or threads copies the struct
//! and nothing else. See DESIGN.md §9.

use core::cmp::Ordering;

use crate::checksum::checksum_adjust;
use crate::tcp::option_kind;
use crate::{
    Ecn, Ipv4Packet, Ipv4Repr, PackOption, PacketMeta, Result, TcpFlags, TcpOption, TcpPacket,
    TcpRepr, PROTO_TCP,
};

/// A 5-tuple-minus-protocol flow key (the simulator is IPv4/TCP only; the
/// paper hashes on addresses, ports and VLAN — we have no VLANs).
///
/// This is the *one* flow identity used across the workspace: the vSwitch
/// flow table is keyed by it, the host NIC demuxes on it, and the workload
/// FCT bookkeeping labels samples with it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FlowKey {
    /// Source IPv4 address.
    pub src_ip: [u8; 4],
    /// Destination IPv4 address.
    pub dst_ip: [u8; 4],
    /// Source TCP port.
    pub src_port: u16,
    /// Destination TCP port.
    pub dst_port: u16,
}

impl FlowKey {
    /// The key of the reverse direction (ACKs of this flow).
    #[inline]
    pub fn reverse(&self) -> FlowKey {
        FlowKey {
            src_ip: self.dst_ip,
            dst_ip: self.src_ip,
            src_port: self.dst_port,
            dst_port: self.src_port,
        }
    }

    /// Which way this key runs along its connection: how it compares
    /// with its reverse under the derived `Ord`. `Less`: it names the
    /// connection ([`FlowKey::canonical`] is the key itself); `Greater`:
    /// it is the connection key's reverse; `Equal`: it is its own reverse
    /// (source and destination agree in address and port).
    ///
    /// One `u64` compare of the two `(address, port)` ends: `Ord` looks
    /// at `src_ip` first, then `dst_ip` (equal to the reverse's `src_ip`
    /// only when the addresses are), then the ports.
    #[inline]
    pub fn direction(&self) -> Ordering {
        let end =
            |ip: [u8; 4], port: u16| u64::from(u32::from_be_bytes(ip)) << 16 | u64::from(port);
        end(self.src_ip, self.src_port).cmp(&end(self.dst_ip, self.dst_port))
    }

    /// The connection this key belongs to, whichever direction it names:
    /// the smaller of the key and its reverse, so
    /// `k.canonical() == k.reverse().canonical()`. The vSwitch flow table
    /// files both directions under it and worker steering hashes it.
    #[inline]
    pub fn canonical(&self) -> FlowKey {
        if self.direction().is_gt() {
            self.reverse()
        } else {
            *self
        }
    }

    /// FNV-1a over the 12 key bytes: a deterministic hash, the same in
    /// every process, for what must replay — the flow table's sweep order
    /// and worker steering. It places nothing: a [`crate::FlowIndex`]
    /// places keys by a word-wise hash keyed by a per-process secret.
    #[inline]
    pub fn hash64(&self) -> u64 {
        const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01B3;
        let mut h = OFFSET_BASIS;
        let mut step = |b: u8| h = (h ^ u64::from(b)).wrapping_mul(PRIME);
        self.src_ip.iter().copied().for_each(&mut step);
        self.dst_ip.iter().copied().for_each(&mut step);
        self.src_port.to_be_bytes().into_iter().for_each(&mut step);
        self.dst_port.to_be_bytes().into_iter().for_each(&mut step);
        h
    }
}

/// MurmurHash3's 64-bit finalizer: full-avalanche mixing, so every input
/// bit reaches every output bit. [`FlowKey::hash64`] needs it wherever a
/// few of its bits index something: FNV-1a's low bit is the XOR of the
/// input bytes' low bits, and its high bits see the last bytes only
/// through one multiply.
#[inline]
pub fn mix64(mut x: u64) -> u64 {
    x ^= x >> 33;
    x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    x ^= x >> 33;
    x = x.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    x ^= x >> 33;
    x
}

impl core::fmt::Display for FlowKey {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "{}.{}.{}.{}:{} -> {}.{}.{}.{}:{}",
            self.src_ip[0],
            self.src_ip[1],
            self.src_ip[2],
            self.src_ip[3],
            self.src_port,
            self.dst_ip[0],
            self.dst_ip[1],
            self.dst_ip[2],
            self.dst_ip[3],
            self.dst_port
        )
    }
}

/// Where a segment's TCP header starts: its IPv4 header carries no
/// options ([`Segment::from_header_bytes`] refuses them).
const IHL: usize = crate::ipv4::HEADER_LEN;

/// The most header bytes a segment holds: the IPv4 header and a TCP header
/// at its 60-byte maximum.
pub const MAX_HEADER_LEN: usize = IHL + crate::tcp::MAX_HEADER_LEN;

/// A simulated packet: serialized headers + virtual payload length + the
/// header metadata they hold.
///
/// The header lives inline: `header[..header_len]` are the wire bytes,
/// and nothing reads past them. A clone is a copy of the struct.
#[derive(Debug, Clone)]
pub struct Segment {
    header: [u8; MAX_HEADER_LEN],
    header_len: u8,
    payload_len: usize,
    /// The parsed header: filled by every constructor, kept coherent by
    /// the maintained mutators.
    meta: PacketMeta,
}

// What a hand-off moves: the header bytes, two lengths and the meta.
// Every queue slot and every `Verdict` holds a segment by value, so its
// size is a per-packet copy. Measured on `dp_steady_1k` (2-vCPU Xeon,
// 8 s alternating pairs, FACK unboxed in both): a 120-byte array, with
// room for IPv4 options, ran at 1.15× the wall ns per packet of a pooled
// 88-byte segment; this 80-byte one at 1.09×.
const _: () = assert!(core::mem::size_of::<Segment>() <= 144);

impl Segment {
    /// Build a TCP segment. `ip.payload_len` is overwritten from the TCP
    /// header length plus `payload_len`; checksums are filled.
    pub fn new_tcp(ip: Ipv4Repr, tcp: TcpRepr, payload_len: usize) -> Segment {
        let tcp_hdr_len = tcp.header_len();
        let ip_repr = Ipv4Repr {
            protocol: PROTO_TCP,
            payload_len: tcp_hdr_len + payload_len,
            ..ip
        };
        let mut header = [0u8; MAX_HEADER_LEN];
        ip_repr.emit(&mut Ipv4Packet::new_unchecked(&mut header[..IHL]));
        {
            let mut tcpp = TcpPacket::new_unchecked(&mut header[IHL..IHL + tcp_hdr_len]);
            tcp.emit(&mut tcpp);
            tcpp.fill_checksum(ip_repr.src_addr, ip_repr.dst_addr, payload_len);
        }
        // The emitter already holds every field the meta wants, so a
        // locally built segment is never parsed at all.
        let meta = tcp_meta_from_reprs(&ip_repr, &tcp, tcp_hdr_len);
        Segment {
            header,
            header_len: (IHL + tcp_hdr_len) as u8,
            payload_len,
            meta,
        }
    }

    /// Reconstruct a segment from raw header bytes (e.g. off a trace) plus
    /// a virtual payload length: the one place wire bytes are read. The
    /// bytes must hold exactly one IPv4 header and one TCP header; the
    /// validating parse becomes the segment's meta and the bytes are
    /// copied in. Anything else returns `Err` — any other protocol, and an
    /// IPv4 header with options, `Err(Error::Unsupported)` — and callers
    /// drop and count, never panic.
    pub fn from_header_bytes(bytes: impl AsRef<[u8]>, payload_len: usize) -> Result<Segment> {
        let bytes = bytes.as_ref();
        let meta = PacketMeta::parse(bytes)?;
        // The parse admits a 20-byte IPv4 header and at most 60 bytes of
        // TCP header, so the bytes fit.
        let mut header = [0u8; MAX_HEADER_LEN];
        header[..bytes.len()].copy_from_slice(bytes);
        Ok(Segment {
            header,
            header_len: bytes.len() as u8,
            payload_len,
            meta,
        })
    }

    /// The header metadata: a copy of a field, on every call.
    ///
    /// It cannot fail — only [`Segment::from_header_bytes`] reads bytes,
    /// and it refuses what does not parse. The `Result` survives only
    /// because the benchmark harness is pinned to this signature.
    #[inline]
    pub fn try_meta(&self) -> Result<PacketMeta> {
        Ok(self.meta)
    }

    /// The serialized header bytes (IP + TCP, no payload).
    #[inline]
    pub fn header_bytes(&self) -> &[u8] {
        &self.header[..usize::from(self.header_len)]
    }

    /// The serialized header bytes, for the maintained mutators only.
    #[inline]
    fn buf(&mut self) -> &mut [u8] {
        &mut self.header[..usize::from(self.header_len)]
    }

    /// The TCP header, for the maintained mutators only.
    #[inline]
    fn tcp_mut(&mut self) -> TcpPacket<&mut [u8]> {
        TcpPacket::new_unchecked(&mut self.buf()[IHL..])
    }

    /// Virtual payload length in bytes.
    #[inline]
    pub fn payload_len(&self) -> usize {
        self.payload_len
    }

    /// Total length on the wire: headers + payload.
    #[inline]
    pub fn wire_len(&self) -> usize {
        usize::from(self.header_len) + self.payload_len
    }

    /// Immutable IP header view.
    #[inline]
    pub fn ip(&self) -> Ipv4Packet<&[u8]> {
        Ipv4Packet::new_unchecked(self.header_bytes())
    }

    /// Immutable TCP header view.
    #[inline]
    pub fn tcp(&self) -> TcpPacket<&[u8]> {
        TcpPacket::new_unchecked(&self.header_bytes()[IHL..])
    }

    /// The flow key of this segment's direction.
    pub fn flow_key(&self) -> FlowKey {
        self.meta.flow
    }

    /// ECN codepoint from the IP header.
    #[inline]
    pub fn ecn(&self) -> Ecn {
        self.meta.ecn
    }

    /// Set the ECN codepoint, incrementally patching the IP checksum and
    /// the meta.
    #[inline]
    pub fn set_ecn(&mut self, ecn: Ecn) {
        Ipv4Packet::new_unchecked(self.buf()).set_ecn_update_checksum(ecn);
        self.meta.ecn = ecn;
    }

    /// Mark this segment CE (what a WRED/ECN switch does), keeping the IP
    /// checksum valid.
    #[inline]
    pub fn mark_ce(&mut self) {
        self.set_ecn(Ecn::Ce);
    }

    /// TCP flags.
    #[inline]
    pub fn tcp_flags(&self) -> TcpFlags {
        self.meta.flags
    }

    /// Overwrite the advertised window — the AC/DC enforcement write
    /// (§3.3 / §4): a 2-byte patch plus RFC 1624 incremental checksum,
    /// with the meta updated in step.
    #[inline]
    pub fn rewrite_window(&mut self, window: u16) {
        self.tcp_mut().set_window_update_checksum(window);
        self.meta.window = window;
    }

    /// Overwrite the TCP flag byte, patching checksum and meta.
    #[inline]
    pub fn set_tcp_flags(&mut self, flags: TcpFlags) {
        self.tcp_mut().set_flags_update_checksum(flags);
        self.meta.flags = flags;
    }

    /// Clear TCP flag bits (e.g. stripping ECE before the guest sees it),
    /// patching checksum and meta.
    #[inline]
    pub fn clear_tcp_flags(&mut self, flags: TcpFlags) {
        self.tcp_mut().clear_flags_update_checksum(flags);
        self.meta.flags = self.meta.flags.difference(flags);
    }

    /// Set the AC/DC reserved-bit markers, patching checksum and meta.
    #[inline]
    pub fn set_reserved(&mut self, vm_ece: bool, fack: bool) {
        self.tcp_mut().set_reserved_update_checksum(vm_ece, fack);
        self.meta.vm_ece = vm_ece;
        self.meta.fack = fack;
    }

    /// Clear both AC/DC reserved-bit markers, patching checksum and meta.
    #[inline]
    pub fn clear_reserved(&mut self) {
        self.tcp_mut().clear_reserved_update_checksum();
        self.meta.vm_ece = false;
        self.meta.fack = false;
    }

    /// Flip the lowest bit of the raw TCP window *without* fixing the
    /// checksum — deliberate header damage for fault injection. The meta
    /// is kept in step with the (corrupted) bytes so classification after
    /// the fault still reads the truth.
    #[inline]
    pub fn corrupt_window_bit(&mut self) {
        let mut tcp = self.tcp_mut();
        let w = tcp.window() ^ 0x0001;
        tcp.set_window(w);
        self.meta.window = w;
    }

    /// Change the virtual payload length in place: patches the
    /// IP total length and both checksums incrementally. Used to turn a
    /// cloned data packet into a feedback-only fake ACK.
    #[inline]
    pub fn set_virtual_payload_len(&mut self, new_len: usize) {
        if new_len == self.payload_len {
            return;
        }
        let thl = usize::from(self.header_len) - IHL;
        Ipv4Packet::new_unchecked(self.buf())
            .set_total_len_update_checksum((IHL + thl + new_len) as u16);
        let old_l4 = (thl + self.payload_len) as u32;
        let new_l4 = (thl + new_len) as u32;
        let mut tcp = self.tcp_mut();
        let mut ck = tcp.checksum();
        ck = checksum_adjust(ck, (old_l4 >> 16) as u16, (new_l4 >> 16) as u16);
        ck = checksum_adjust(ck, old_l4 as u16, new_l4 as u16);
        tcp.set_checksum(ck);
        self.payload_len = new_len;
        // Meta carries no length-derived fields; nothing to patch.
    }

    /// Append a PACK feedback option to the TCP header in place: EOL
    /// padding is rewritten to NOP so the appended option stays reachable,
    /// the header grows by [`PackOption::WIRE_LEN`] bytes, and both
    /// checksums are patched incrementally (no re-emit, no allocation).
    /// Returns `false` — leaving the segment
    /// untouched — when the option does not fit, one is already present,
    /// or an option in the region is malformed.
    pub fn append_pack_in_place(&mut self, pack: PackOption) -> bool {
        let meta = self.meta;
        if meta.pack_off.is_some() {
            return false;
        }
        let thl = usize::from(meta.l4_header_len);
        if thl + PackOption::WIRE_LEN > crate::tcp::MAX_HEADER_LEN {
            return false;
        }
        let (opts_start, end) = (IHL + crate::tcp::HEADER_LEN, IHL + thl);
        let Some(pad_start) = options_padding_start(&self.header[opts_start..end]) else {
            return false;
        };
        let old_words = self.tcp_header_words();
        self.header[opts_start + pad_start..end].fill(option_kind::NOP);
        self.header_len += PackOption::WIRE_LEN as u8;
        pack.emit(&mut self.header[end..end + PackOption::WIRE_LEN]);
        let new_thl = thl + PackOption::WIRE_LEN;
        self.tcp_mut().set_header_len(new_thl);
        let total_len = (IHL + new_thl + self.payload_len) as u16;
        Ipv4Packet::new_unchecked(self.buf()).set_total_len_update_checksum(total_len);
        let new_words = self.tcp_header_words();
        self.adjust_tcp_checksum(
            &old_words,
            &new_words,
            (thl + self.payload_len) as u32,
            (new_thl + self.payload_len) as u32,
        );
        self.meta.l4_header_len = new_thl as u8;
        self.meta.pack_off = Some(end as u16);
        self.meta.pack = Some(pack);
        true
    }

    /// Remove the PACK option from the TCP header in place (the inverse of
    /// [`Segment::append_pack_in_place`]): later options/padding shift
    /// down, the header shrinks, checksums are patched incrementally.
    /// Returns `false` when no PACK option is present.
    pub fn strip_pack_in_place(&mut self) -> bool {
        let meta = self.meta;
        let Some(pack_off) = meta.pack_off else {
            return false;
        };
        let off = usize::from(pack_off);
        let thl = usize::from(meta.l4_header_len);
        debug_assert!(off + PackOption::WIRE_LEN <= IHL + thl);
        let old_words = self.tcp_header_words();
        self.header
            .copy_within(off + PackOption::WIRE_LEN..IHL + thl, off);
        self.header_len -= PackOption::WIRE_LEN as u8;
        let new_thl = thl - PackOption::WIRE_LEN;
        self.tcp_mut().set_header_len(new_thl);
        let total_len = (IHL + new_thl + self.payload_len) as u16;
        Ipv4Packet::new_unchecked(self.buf()).set_total_len_update_checksum(total_len);
        let new_words = self.tcp_header_words();
        self.adjust_tcp_checksum(
            &old_words,
            &new_words,
            (thl + self.payload_len) as u32,
            (new_thl + self.payload_len) as u32,
        );
        self.meta.l4_header_len = new_thl as u8;
        self.meta.pack_off = None;
        self.meta.pack = None;
        true
    }

    /// Drop every TCP option in place: the header shrinks to its fixed
    /// 20 bytes and both checksums are patched incrementally. A no-op on
    /// a header without options.
    pub fn drop_tcp_options_in_place(&mut self) {
        let thl = usize::from(self.meta.l4_header_len);
        let new_thl = crate::tcp::HEADER_LEN;
        if thl == new_thl {
            return;
        }
        let old_words = self.tcp_header_words();
        self.header_len = (IHL + new_thl) as u8;
        self.tcp_mut().set_header_len(new_thl);
        let total_len = (IHL + new_thl + self.payload_len) as u16;
        Ipv4Packet::new_unchecked(self.buf()).set_total_len_update_checksum(total_len);
        let new_words = self.tcp_header_words();
        self.adjust_tcp_checksum(
            &old_words,
            &new_words,
            (thl + self.payload_len) as u32,
            (new_thl + self.payload_len) as u32,
        );
        self.meta.l4_header_len = new_thl as u8;
        self.meta.pack_off = None;
        self.meta.pack = None;
        self.meta.wscale = None;
        self.meta.mss = None;
    }

    /// Snapshot the TCP header as 16-bit words (missing tail words read as
    /// zero — a zero word contributes nothing to the Internet checksum, so
    /// grown/shrunk headers diff cleanly against each other).
    fn tcp_header_words(&self) -> [u16; MAX_TCP_WORDS] {
        let mut words = [0u16; MAX_TCP_WORDS];
        let data = &self.header_bytes()[IHL..];
        for (i, w) in words.iter_mut().enumerate() {
            let off = i * 2;
            if off + 2 <= data.len() {
                *w = u16::from_be_bytes([data[off], data[off + 1]]);
            }
        }
        words
    }

    /// Fold the word-level diff of two header snapshots (plus a
    /// pseudo-header length change) into the TCP checksum, RFC 1624 style.
    fn adjust_tcp_checksum(
        &mut self,
        old: &[u16; MAX_TCP_WORDS],
        new: &[u16; MAX_TCP_WORDS],
        old_l4_len: u32,
        new_l4_len: u32,
    ) {
        // The checksum field itself (TCP bytes 16..18) is the output, not
        // an input, of the adjustment.
        const CHECKSUM_WORD: usize = 8;
        let mut tcp = self.tcp_mut();
        let mut ck = tcp.checksum();
        for (i, (o, n)) in old.iter().zip(new.iter()).enumerate() {
            if i != CHECKSUM_WORD && o != n {
                ck = checksum_adjust(ck, *o, *n);
            }
        }
        if old_l4_len != new_l4_len {
            ck = checksum_adjust(ck, (old_l4_len >> 16) as u16, (new_l4_len >> 16) as u16);
            ck = checksum_adjust(ck, old_l4_len as u16, new_l4_len as u16);
        }
        tcp.set_checksum(ck);
    }

    /// Is this a "pure ACK": no payload, no SYN/FIN/RST?
    #[inline]
    pub fn is_pure_ack(&self) -> bool {
        self.payload_len == 0
            && self.tcp_flags().contains(TcpFlags::ACK)
            && !self
                .tcp_flags()
                .intersects(TcpFlags::SYN | TcpFlags::FIN | TcpFlags::RST)
    }

    /// Verify both checksums (IP header and TCP with virtual payload).
    pub fn verify_checksums(&self) -> bool {
        let ip = self.ip();
        ip.verify_checksum()
            && self
                .tcp()
                .verify_checksum(ip.src_addr(), ip.dst_addr(), self.payload_len)
    }
}

/// Number of 16-bit words in a maximum-size TCP header.
const MAX_TCP_WORDS: usize = crate::tcp::MAX_HEADER_LEN / 2;

/// Build the meta of a freshly emitted TCP segment straight from the
/// representations — the emitter already knows every field, so a locally
/// built packet costs *zero* parses over its whole lifetime. Every
/// [`TcpOption`] emits a well-formed option the wire walk reads back as
/// itself; the round-trip proptests pin this to a fresh read of the
/// emitted bytes.
fn tcp_meta_from_reprs(ip: &Ipv4Repr, tcp: &TcpRepr, tcp_hdr_len: usize) -> PacketMeta {
    let mut meta = PacketMeta {
        flow: FlowKey {
            src_ip: ip.src_addr,
            dst_ip: ip.dst_addr,
            src_port: tcp.src_port,
            dst_port: tcp.dst_port,
        },
        ecn: ip.ecn,
        l4_header_len: tcp_hdr_len as u8,
        flags: tcp.flags,
        seq: tcp.seq,
        ack: tcp.ack,
        window: tcp.window,
        vm_ece: tcp.vm_ece,
        fack: tcp.fack,
        pack_off: None,
        pack: None,
        wscale: None,
        mss: None,
    };
    let mut off = (IHL + crate::tcp::HEADER_LEN) as u16;
    for opt in &tcp.options {
        match *opt {
            TcpOption::MaxSegmentSize(v) => meta.mss = Some(v),
            TcpOption::WindowScale(v) => meta.wscale = Some(v),
            TcpOption::Pack(p) => {
                debug_assert!(meta.pack.is_none(), "a header carries one PACK");
                meta.pack = Some(p);
                meta.pack_off = Some(off);
            }
            TcpOption::NoOperation | TcpOption::SackPermitted | TcpOption::Timestamps(..) => {}
        }
        off += opt.wire_len() as u16;
    }
    meta
}

/// Walk the options region; return the byte index where trailing padding
/// begins (the first terminating EOL, or `opts.len()` if options run to
/// the end), or `None` if an option is malformed — in which case bytes
/// appended past the walk's stopping point would be unreachable to any
/// parser and in-place insertion must be refused.
fn options_padding_start(opts: &[u8]) -> Option<usize> {
    let mut i = 0usize;
    while i < opts.len() {
        match opts[i] {
            option_kind::EOL => return Some(i),
            option_kind::NOP => i += 1,
            _ => {
                if i + 1 >= opts.len() {
                    return None;
                }
                let len = usize::from(opts[i + 1]);
                if len < 2 || i + len > opts.len() {
                    return None;
                }
                i += len;
            }
        }
    }
    Some(opts.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Error, SeqNumber};

    fn ip_repr() -> Ipv4Repr {
        Ipv4Repr {
            src_addr: [10, 0, 0, 1],
            dst_addr: [10, 0, 0, 9],
            protocol: PROTO_TCP,
            ecn: Ecn::Ect0,
            payload_len: 0, // overwritten by Segment::new_tcp
            ttl: 64,
        }
    }

    fn base_tcp() -> TcpRepr {
        let mut r = TcpRepr::new(40000, 5001);
        r.seq = SeqNumber(1000);
        r.ack = SeqNumber(2000);
        r.flags = TcpFlags::ACK;
        r.window = 1234;
        r
    }

    #[test]
    fn segment_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Segment>();
    }

    #[test]
    fn meta_survives_cross_thread_move() {
        let seg = Segment::new_tcp(ip_repr(), base_tcp(), 100);
        let meta = seg.try_meta().unwrap();
        let back = std::thread::spawn(move || seg).join().unwrap();
        assert_eq!(back.try_meta().unwrap(), meta);
    }

    #[test]
    fn construction_produces_consistent_lengths_and_checksums() {
        let seg = Segment::new_tcp(ip_repr(), base_tcp(), 1448);
        assert_eq!(seg.payload_len(), 1448);
        assert_eq!(seg.wire_len(), 20 + 20 + 1448);
        assert_eq!(seg.ip().total_len() as usize, seg.wire_len());
        assert!(seg.verify_checksums());
    }

    #[test]
    fn flow_key_and_reverse() {
        let seg = Segment::new_tcp(ip_repr(), base_tcp(), 0);
        let k = seg.flow_key();
        assert_eq!(k.src_port, 40000);
        assert_eq!(k.dst_port, 5001);
        let r = k.reverse();
        assert_eq!(r.src_ip, [10, 0, 0, 9]);
        assert_eq!(r.reverse(), k);
    }

    #[test]
    fn flow_key_hash_is_stable_and_direction_sensitive() {
        let seg = Segment::new_tcp(ip_repr(), base_tcp(), 0);
        let k = seg.flow_key();
        assert_eq!(k.hash64(), k.hash64());
        assert_ne!(k.hash64(), k.reverse().hash64());
    }

    #[test]
    fn constructors_prepopulate_meta() {
        // Locally built segments are born with their meta: the emitter is
        // the single "parse" of their lifetime.
        let seg = Segment::new_tcp(ip_repr(), base_tcp(), 100);
        let m = seg.try_meta().unwrap();
        assert_eq!(m.window, 1234);
        assert_eq!(m.seq, SeqNumber(1000));
        // The meta matches a from-scratch parse exactly.
        assert_eq!(m, PacketMeta::parse(seg.header_bytes()).unwrap());
        // Clones carry it.
        assert_eq!(seg.clone().try_meta(), Ok(m));
    }

    #[test]
    fn maintained_mutators_keep_meta_coherent() {
        let mut seg = Segment::new_tcp(ip_repr(), base_tcp(), 100);
        seg.try_meta().unwrap();
        seg.rewrite_window(99);
        seg.mark_ce();
        seg.set_reserved(true, false);
        let m = seg.try_meta().unwrap();
        assert_eq!(m.window, 99);
        assert_eq!(m.ecn, Ecn::Ce);
        assert!(m.vm_ece);
        // The meta matches a from-scratch parse and the checksums
        // are still valid.
        assert_eq!(m, PacketMeta::parse(seg.header_bytes()).unwrap());
        assert!(seg.verify_checksums());
    }

    #[test]
    fn ce_marking_keeps_ip_checksum_valid() {
        let mut seg = Segment::new_tcp(ip_repr(), base_tcp(), 100);
        assert_eq!(seg.ecn(), Ecn::Ect0);
        seg.mark_ce();
        assert_eq!(seg.ecn(), Ecn::Ce);
        assert!(seg.ip().verify_checksum());
    }

    #[test]
    fn pure_ack_classification() {
        let ack = Segment::new_tcp(ip_repr(), base_tcp(), 0);
        assert!(ack.is_pure_ack());

        let data = Segment::new_tcp(ip_repr(), base_tcp(), 10);
        assert!(!data.is_pure_ack());

        let mut syn = base_tcp();
        syn.flags = TcpFlags::SYN;
        let syn = Segment::new_tcp(ip_repr(), syn, 0);
        assert!(!syn.is_pure_ack());
    }

    #[test]
    fn append_and_strip_pack_in_place() {
        let pack = PackOption {
            total_bytes: 100_000,
            marked_bytes: 20_000,
        };
        let mut seg = Segment::new_tcp(ip_repr(), base_tcp(), 0);
        let before = seg.header_bytes().to_vec();
        assert!(seg.append_pack_in_place(pack));
        assert_eq!(
            seg.header_bytes().len(),
            before.len() + PackOption::WIRE_LEN
        );
        assert!(seg.verify_checksums());
        let m = seg.try_meta().unwrap();
        assert_eq!(m.pack, Some(pack));
        assert_eq!(m, PacketMeta::parse(seg.header_bytes()).unwrap());
        // A second append is refused.
        assert!(!seg.append_pack_in_place(pack));

        assert!(seg.strip_pack_in_place());
        assert_eq!(seg.header_bytes().len(), before.len());
        assert!(seg.verify_checksums());
        let m = seg.try_meta().unwrap();
        assert_eq!(m.pack, None);
        assert_eq!(m, PacketMeta::parse(seg.header_bytes()).unwrap());
        // Nothing left to strip.
        assert!(!seg.strip_pack_in_place());
    }

    #[test]
    fn append_pack_converts_eol_padding_to_nop() {
        // A Timestamps option emits 10 bytes, padded to 12 with EOL; the
        // appended PACK must stay reachable past that padding.
        let mut r = base_tcp();
        r.options = vec![crate::TcpOption::Timestamps(7, 8)];
        let mut seg = Segment::new_tcp(ip_repr(), r, 0);
        let pack = PackOption {
            total_bytes: 9,
            marked_bytes: 3,
        };
        assert!(seg.append_pack_in_place(pack));
        let opts = &seg.header_bytes()[40..];
        assert_eq!(opts[..2], [option_kind::TS, 10], "Timestamps kept");
        assert_eq!(opts[10..12], [option_kind::NOP; 2], "EOL became NOP");
        assert!(seg.verify_checksums());
        let m = seg.try_meta().unwrap();
        assert_eq!(m.pack, Some(pack));
        assert_eq!(m, PacketMeta::parse(seg.header_bytes()).unwrap());
    }

    #[test]
    fn append_pack_refuses_full_header() {
        let mut r = base_tcp();
        // 4 timestamps = 40 option bytes: a full 60-byte header with no
        // room for 12 more.
        r.options = vec![crate::TcpOption::Timestamps(1, 2); 4];
        let mut seg = Segment::new_tcp(ip_repr(), r, 0);
        let before = seg.header_bytes().to_vec();
        assert!(!seg.append_pack_in_place(PackOption::default()));
        assert_eq!(seg.header_bytes(), &before[..]);
        assert!(seg.verify_checksums());
    }

    #[test]
    fn dropping_options_leaves_the_fixed_header() {
        let mut r = base_tcp();
        r.options = vec![
            crate::TcpOption::MaxSegmentSize(1448),
            crate::TcpOption::WindowScale(7),
            crate::TcpOption::Pack(PackOption::default()),
        ];
        let mut seg = Segment::new_tcp(ip_repr(), r, 100);
        seg.drop_tcp_options_in_place();
        let bare = Segment::new_tcp(ip_repr(), base_tcp(), 100);
        assert_eq!(seg.header_bytes(), bare.header_bytes());
        assert_eq!(seg.try_meta(), bare.try_meta());
        assert!(seg.verify_checksums());
        seg.drop_tcp_options_in_place();
        assert_eq!(seg.header_bytes(), bare.header_bytes());
    }

    #[test]
    fn set_virtual_payload_len_keeps_checksums_valid() {
        let mut seg = Segment::new_tcp(ip_repr(), base_tcp(), 1448);
        seg.set_virtual_payload_len(0);
        assert_eq!(seg.payload_len(), 0);
        assert_eq!(seg.wire_len(), 40);
        assert_eq!(seg.ip().total_len(), 40);
        assert!(seg.verify_checksums());
    }

    #[test]
    fn corrupt_window_bit_breaks_checksum_but_not_meta() {
        let mut seg = Segment::new_tcp(ip_repr(), base_tcp(), 0);
        let w = seg.try_meta().unwrap().window;
        seg.corrupt_window_bit();
        assert!(!seg.verify_checksums());
        assert_eq!(seg.try_meta().unwrap().window, w ^ 1);
        assert_eq!(seg.tcp().window(), w ^ 1);
    }

    #[test]
    fn from_header_bytes_round_trip() {
        let seg = Segment::new_tcp(ip_repr(), base_tcp(), 777);
        let seg2 = Segment::from_header_bytes(seg.header_bytes(), 777).unwrap();
        assert_eq!(seg2.try_meta(), seg.try_meta());
        assert_eq!(seg2.wire_len(), seg.wire_len());
        assert_eq!(seg2.flow_key(), seg.flow_key());
        assert!(seg2.verify_checksums());
    }

    #[test]
    fn from_header_bytes_rejects_unknown_protocol() {
        let seg = Segment::new_tcp(ip_repr(), base_tcp(), 0);
        let mut gre = seg.header_bytes().to_vec();
        gre[crate::ipv4::field::PROTOCOL] = 47;
        // An RFC 768 datagram, 10.0.0.1:6000 -> 10.0.0.9:7000, no payload:
        // a well-formed IPv4 header (protocol 17, valid checksum) and the
        // 8-byte UDP header (length 8, checksum 0 = none). AC/DC enforces
        // TCP only, and the byte boundary refuses the rest.
        #[rustfmt::skip]
        let udp: [u8; 28] = [
            0x45, 0x00, 0x00, 0x1c, 0x00, 0x00, 0x40, 0x00, 0x40, 0x11, // v4, 28 B, DF, TTL 64, UDP
            0x26, 0xc8, 10, 0, 0, 1, 10, 0, 0, 9,                       // checksum, addresses
            0x17, 0x70, 0x1b, 0x58, 0x00, 0x08, 0x00, 0x00,             // ports, length, checksum
        ];
        assert!(Ipv4Packet::new_unchecked(&udp[..]).verify_checksum());
        for buf in [&gre[..], &udp[..]] {
            assert_eq!(
                Segment::from_header_bytes(buf, 0).unwrap_err(),
                Error::Unsupported
            );
        }
    }

    #[test]
    fn from_header_bytes_rejects_bytes_past_the_headers() {
        // A PACK appended in place goes at the end of the bytes, and the
        // meta puts it at the end of the TCP header: the two must agree.
        let seg = Segment::new_tcp(ip_repr(), base_tcp(), 0);
        let mut buf = seg.header_bytes().to_vec();
        buf.extend_from_slice(&[0xAA, 0xBB, 0xCC, 0xDD]);
        assert_eq!(
            Segment::from_header_bytes(buf, 0).unwrap_err(),
            Error::Malformed
        );
    }

    #[test]
    fn from_header_bytes_refuses_ipv4_options() {
        // RFC 791, IHL 6: a 24-byte IPv4 header whose option word is
        // NOP NOP NOP EOL, then a plain 20-byte ACK, 10.0.0.1:40000 ->
        // 10.0.0.9:5001. Both checksums hold; a segment has no room for
        // IPv4 options, and the boundary says so.
        #[rustfmt::skip]
        let ihl6: [u8; 44] = [
            0x46, 0x00, 0x00, 0x2c, 0x00, 0x00, 0x40, 0x00, 0x40, 0x06, // v4 IHL 6, 44 B, DF, TTL 64, TCP
            0x23, 0xc2, 10, 0, 0, 1, 10, 0, 0, 9,                       // checksum, addresses
            0x01, 0x01, 0x01, 0x00,                                     // options: NOP NOP NOP EOL
            0x9c, 0x40, 0x13, 0x89, 0x00, 0x00, 0x03, 0xe8,             // ports, seq 1000
            0x00, 0x00, 0x07, 0xd0, 0x50, 0x10, 0x04, 0xd2,             // ack 2000, 20 B, ACK, window
            0xdb, 0x77, 0x00, 0x00,                                     // checksum, urgent
        ];
        let ip = Ipv4Packet::new_unchecked(&ihl6[..]);
        assert!(ip.verify_checksum());
        assert!(TcpPacket::new_unchecked(&ihl6[24..]).verify_checksum(
            ip.src_addr(),
            ip.dst_addr(),
            0
        ));
        assert_eq!(
            Segment::from_header_bytes(ihl6, 0).unwrap_err(),
            Error::Unsupported
        );
    }

    #[test]
    fn from_header_bytes_takes_a_full_tcp_header_at_80_bytes() {
        // A 20-byte IPv4 header and a 60-byte TCP header filled the way a
        // stack fills it while it SACKs: NOP NOP Timestamps NOP NOP, then
        // three SACK blocks. 10.0.0.1:40000 -> 10.0.0.9:5001, ACK 2000.
        #[rustfmt::skip]
        let full: [u8; 80] = [
            0x45, 0x00, 0x00, 0x50, 0x00, 0x00, 0x40, 0x00, 0x40, 0x06, // v4, 80 B, DF, TTL 64, TCP
            0x26, 0x9f, 10, 0, 0, 1, 10, 0, 0, 9,                       // checksum, addresses
            0x9c, 0x40, 0x13, 0x89, 0x00, 0x00, 0x03, 0xe8,             // ports, seq 1000
            0x00, 0x00, 0x07, 0xd0, 0xf0, 0x10, 0x04, 0xd2,             // ack 2000, 60 B, ACK, window
            0xab, 0x31, 0x00, 0x00,                                     // checksum, urgent
            0x01, 0x01, 0x08, 0x0a, 0, 0, 0, 7, 0, 0, 0, 8,             // NOP NOP TS 7 8
            0x01, 0x01, 0x05, 0x1a,                                     // NOP NOP SACK, 3 blocks
            0, 0, 0x0b, 0xb8, 0, 0, 0x0f, 0xa0,                         // 3000..4000
            0, 0, 0x13, 0x88, 0, 0, 0x17, 0x70,                         // 5000..6000
            0, 0, 0x1b, 0x58, 0, 0, 0x1f, 0x40,                         // 7000..8000
        ];
        let mut seg = Segment::from_header_bytes(full, 0).unwrap();
        assert_eq!(seg.header_bytes(), &full[..]);
        assert_eq!(seg.header_bytes().len(), MAX_HEADER_LEN);
        assert!(seg.verify_checksums());
        let m = seg.try_meta().unwrap();
        assert_eq!(
            (m.l4_header_len, m.window, m.ack),
            (60, 1234, SeqNumber(2000))
        );
        // No room for a PACK: the append refuses and leaves it as it was.
        assert!(!seg.append_pack_in_place(PackOption::default()));
        assert_eq!(seg.header_bytes(), &full[..]);
    }

    /// `seg`'s header bytes with the IP flags/fragment-offset word set to
    /// `flg_off` and the header checksum refilled.
    fn with_frag_word(seg: &Segment, flg_off: u16) -> Vec<u8> {
        let mut buf = seg.header_bytes().to_vec();
        buf[crate::ipv4::field::FLG_OFF].copy_from_slice(&flg_off.to_be_bytes());
        Ipv4Packet::new_unchecked(&mut buf[..]).fill_checksum();
        buf
    }

    #[test]
    fn from_header_bytes_refuses_a_non_first_fragment() {
        // Offset 185 (1 480 bytes in), no MF: the last piece of a
        // datagram whose payload at this point happens to look like a
        // TCP header. Protocol 6 does not make it one.
        let seg = Segment::new_tcp(ip_repr(), base_tcp(), 0);
        assert!(Segment::from_header_bytes(seg.header_bytes(), 0).is_ok());
        assert_eq!(
            Segment::from_header_bytes(with_frag_word(&seg, 185), 0).unwrap_err(),
            Error::Malformed
        );
    }

    #[test]
    fn from_header_bytes_refuses_a_first_fragment() {
        // MF set, offset 0: the TCP header is real, the datagram is not
        // all here.
        let seg = Segment::new_tcp(ip_repr(), base_tcp(), 0);
        assert_eq!(
            Segment::from_header_bytes(with_frag_word(&seg, 0x2000), 0).unwrap_err(),
            Error::Malformed
        );
    }

    #[test]
    fn from_header_bytes_reads_df_and_no_flags() {
        // Our emitter sets DF alone (`set_no_frag`); a clear word is no
        // fragment either.
        let seg = Segment::new_tcp(ip_repr(), base_tcp(), 0);
        assert_eq!(
            seg.header_bytes()[crate::ipv4::field::FLG_OFF],
            0x4000u16.to_be_bytes()
        );
        for word in [0x4000, 0] {
            let read = Segment::from_header_bytes(with_frag_word(&seg, word), 0).unwrap();
            assert_eq!(read.try_meta(), seg.try_meta());
            assert!(read.verify_checksums());
        }
    }
}
