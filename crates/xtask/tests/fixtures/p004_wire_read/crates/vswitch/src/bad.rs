// Two shapes, both P004: a panic hung directly on a wire read — on the
// same line, and as rustfmt wraps it.

pub fn flow(buf: bytes::BytesMut) -> acdc_packet::FlowKey {
    acdc_packet::Segment::from_header_bytes(buf, 0).unwrap().flow_key()
}

pub fn read(buf: bytes::BytesMut, payload_len: usize) -> acdc_packet::Segment {
    acdc_packet::Segment::from_header_bytes(buf, payload_len)
        .expect("the NIC already verified this frame, so it must read")
}
