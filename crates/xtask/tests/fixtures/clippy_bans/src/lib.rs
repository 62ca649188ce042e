//! One use of each path `clippy.toml` bans, so each must fire once.

pub fn bans(seg: &acdc_packet::Segment, table: &acdc_vswitch::FlowTable, cc: acdc_cc::CcConfig) {
    let _ = std::time::Instant::now();
    let _ = std::time::SystemTime::now();
    let _ = 1u32.wrapping_add(2);
    let _ = 1u32.wrapping_sub(2);
    let _ = table.get_or_create(seg.flow_key(), || unreachable!());
    let _ = seg.try_meta();
    let _ = acdc_cc::CcKind::Dctcp.build(cc);
}

pub type Map = std::collections::HashMap<u8, u8>;
pub type Set = std::collections::HashSet<u8>;
pub type Heap = std::collections::BinaryHeap<u8>;
