// Three shapes, all P004: a second parse of header bytes the cached
// PacketMeta already holds, and a panic hung directly on a wire-input
// parse — on the same line, and as rustfmt wraps it.

pub fn ack_number(seg: &acdc_packet::Segment) -> u32 {
    let Ok(t) = TcpRepr::parse(&seg.tcp()) else {
        return 0;
    };
    t.ack.0
}

pub fn flow(seg: &acdc_packet::Segment) -> acdc_packet::FlowKey {
    seg.try_meta().unwrap().flow
}

pub fn window(seg: &acdc_packet::Segment) -> u16 {
    seg.try_meta()
        .expect("the NIC already verified this frame, so it must parse")
        .window
}
