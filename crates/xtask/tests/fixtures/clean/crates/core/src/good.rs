//! A file that is completely clean: simulator time, seeded randomness, no
//! float equality. Mentions of from_entropy or get_or_create in comments
//! or strings must not fire.

use std::collections::BTreeMap;

pub struct Clock {
    now: u64,
}

pub fn tick(c: &mut Clock) -> u64 {
    // SmallRng::from_entropy() would be wrong here — this comment must not trip D003.
    c.now += 1;
    c.now
}

pub fn routes() -> BTreeMap<u32, u32> {
    let s = "table.get_or_create in a string literal is fine";
    let mut m = BTreeMap::new();
    m.insert(s.len() as u32, 1);
    m
}
