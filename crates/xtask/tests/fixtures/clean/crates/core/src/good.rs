//! A file that is completely clean: simulator time, seeded randomness, no
//! float equality. Mentions of a window-scale shift in comments or
//! strings must not fire.

use std::collections::BTreeMap;

pub struct Clock {
    now: u64,
}

pub fn tick(c: &mut Clock) -> u64 {
    // cwnd >> wscale would be wrong here — this comment must not trip P002.
    c.now += 1;
    c.now
}

pub fn routes() -> BTreeMap<u32, u32> {
    let s = "cwnd >> wscale in a string literal is fine";
    let mut m = BTreeMap::new();
    m.insert(s.len() as u32, 1);
    m
}
