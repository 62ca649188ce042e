//! Every violation here carries the inline escape hatch, so the lint pass
//! must come back clean.

// A shift of a byte count that only shares the name, not a window.
// acdc-lint: allow(P002)
pub fn halve(buf_wscale: u64) -> u64 { buf_wscale >> 1 }

pub fn quarter(buf_wscale: u64) -> u64 {
    buf_wscale >> 2 // acdc-lint: allow(P002)
}
