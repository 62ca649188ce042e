//! Internet checksum (RFC 1071) plus the incremental update rule (RFC 1624)
//! the AC/DC datapath uses when it rewrites the TCP receive window in place.

/// Accumulate 16-bit one's-complement words of `data` into `sum`.
///
/// The accumulator is kept as a `u32` and folded at the end; for the buffer
/// sizes seen in packet headers this cannot overflow.
pub fn sum_words(mut sum: u32, data: &[u8]) -> u32 {
    let mut chunks = data.chunks_exact(2);
    for w in chunks.by_ref() {
        sum += u32::from(u16::from_be_bytes([w[0], w[1]]));
    }
    if let [last] = chunks.remainder() {
        sum += u32::from(u16::from_be_bytes([*last, 0]));
    }
    sum
}

/// Fold a 32-bit accumulator to a 16-bit one's-complement sum.
pub fn fold(mut sum: u32) -> u16 {
    while sum > 0xffff {
        sum = (sum & 0xffff) + (sum >> 16);
    }
    sum as u16
}

/// Compute the Internet checksum of `data` (one's complement of the
/// one's-complement sum), ready to be written into a checksum field.
pub fn checksum(data: &[u8]) -> u16 {
    !fold(sum_words(0, data))
}

/// Compute the IPv4 pseudo-header contribution to the TCP checksum:
/// source address, destination address, protocol and TCP length.
pub fn pseudo_header_sum(src: [u8; 4], dst: [u8; 4], proto: u8, l4_len: u32) -> u32 {
    let mut sum = 0u32;
    sum = sum_words(sum, &src);
    sum = sum_words(sum, &dst);
    sum += u32::from(proto);
    sum += l4_len & 0xffff;
    sum += l4_len >> 16;
    sum
}

/// Incrementally adjust a checksum after a 16-bit field changed from
/// `old` to `new` (RFC 1624, eqn. 3: `HC' = ~(~HC + ~m + m')`).
///
/// This is how the AC/DC sender module patches the TCP checksum after
/// overwriting `RWND` without touching the rest of the packet.
pub fn checksum_adjust(cksum: u16, old: u16, new: u16) -> u16 {
    let sum = u32::from(!cksum) + u32::from(!old) + u32::from(new);
    !fold(sum)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_buffer_checksums_to_all_ones() {
        assert_eq!(checksum(&[]), 0xffff);
    }

    #[test]
    fn known_vector() {
        // Example from RFC 1071 §3: words 0x0001, 0xf203, 0xf4f5, 0xf6f7.
        let data = [0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        let sum = fold(sum_words(0, &data));
        assert_eq!(sum, 0xddf2);
        assert_eq!(checksum(&data), !0xddf2);
    }

    #[test]
    fn odd_length_pads_with_zero() {
        assert_eq!(checksum(&[0xab]), checksum(&[0xab, 0x00]));
    }

    #[test]
    fn verifying_a_packet_with_its_checksum_yields_zero_sum() {
        let mut data = vec![0x45, 0x00, 0x00, 0x28, 0x1c, 0x46, 0x40, 0x00, 0x40, 0x06];
        let c = checksum(&data);
        data.extend_from_slice(&c.to_be_bytes());
        assert_eq!(fold(sum_words(0, &data)), 0xffff);
    }

    #[test]
    fn incremental_update_matches_full_recompute() {
        let mut data = vec![
            0x12, 0x34, 0x56, 0x78, 0x9a, 0xbc, 0xde, 0xf0, 0x11, 0x22, 0x33, 0x44,
        ];
        let before = checksum(&data);
        // Change the 16-bit word at offset 8 from 0x1122 to 0x7777.
        data[8] = 0x77;
        data[9] = 0x77;
        let after_full = checksum(&data);
        let after_incr = checksum_adjust(before, 0x1122, 0x7777);
        assert_eq!(after_full, after_incr);
    }

    #[test]
    fn incremental_update_is_involutive() {
        let c = 0x1234u16;
        let c2 = checksum_adjust(c, 0xaaaa, 0x5555);
        let c3 = checksum_adjust(c2, 0x5555, 0xaaaa);
        assert_eq!(fold(u32::from(c3)), fold(u32::from(c)));
    }

    #[test]
    fn pseudo_header_large_length_carries() {
        // l4_len larger than 16 bits must fold its carry into the sum.
        let a = pseudo_header_sum([10, 0, 0, 1], [10, 0, 0, 2], 6, 0x1_0000);
        let b = pseudo_header_sum([10, 0, 0, 1], [10, 0, 0, 2], 6, 1);
        assert_eq!(fold(a), fold(b));
    }
}
