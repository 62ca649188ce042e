//! Every violation here carries the inline escape hatch, so the lint pass
//! must come back clean.

// A wire-format checksum fold, not sequence arithmetic.
// acdc-lint: allow(P001)
pub fn fold(a: u32, b: u32) -> u32 { a.wrapping_add(b) }

pub fn fold3(a: u32, b: u32, c: u32) -> u32 {
    a.wrapping_add(b).wrapping_add(c) // acdc-lint: allow(P001)
}
