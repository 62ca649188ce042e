//! Every violation here carries the inline escape hatch, so the lint pass
//! must come back clean.

// A reference model for a test-only comparison, never on the event path.
// acdc-lint: allow(D004)
use std::collections::BinaryHeap;

pub fn build() -> BinaryHeap<u64> { // acdc-lint: allow(D004)
    BinaryHeap::new() // acdc-lint: allow(D004)
}
