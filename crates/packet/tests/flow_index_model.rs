//! Model test for `FlowIndex` against a `BTreeMap`: arbitrary sequences
//! of insert, find, remove, retain and clear over 24 keys. That many keys
//! in an array that starts at eight buckets and is kept at most half full
//! share probe paths, wrap around the array's end, grow it three times
//! and, after a retain that keeps few, shrink it again. After every
//! operation every live key is found with its value, no other key of the
//! universe is found, `len` is exact, a walk visits each live key once,
//! and the array is a power of two at least twice `len`.

use std::collections::BTreeMap;

use acdc_packet::flow_index::MIN_BUCKETS;
use acdc_packet::{FlowIndex, FlowKey};
use proptest::prelude::*;

const UNIVERSE: u8 = 24;

#[derive(Debug, Clone, Copy)]
enum Op {
    Insert(u8, u32),
    Find(u8),
    Remove(u8),
    /// Drop the keys whose bit is set; flip the low bit of the others'
    /// values.
    Retain(u32),
    Clear,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        8 => (0..UNIVERSE, any::<u32>()).prop_map(|(k, v)| Op::Insert(k, v)),
        2 => (0..UNIVERSE).prop_map(Op::Find),
        3 => (0..UNIVERSE).prop_map(Op::Remove),
        1 => any::<u32>().prop_map(Op::Retain),
        1 => Just(Op::Clear),
    ]
}

/// Key `i` of the universe: three hosts, eight ports each.
fn key(i: u8) -> FlowKey {
    FlowKey {
        src_ip: [10, 0, 0, 1 + i / 8],
        dst_ip: [10, 0, 0, 9],
        src_port: 40_000 + u16::from(i % 8),
        dst_port: 80,
    }
}

fn check(ix: &FlowIndex<u32>, model: &BTreeMap<u8, u32>) {
    assert_eq!(ix.len(), model.len(), "len is exact");
    for i in 0..UNIVERSE {
        assert_eq!(
            ix.get(&key(i)),
            model.get(&i),
            "key {i} as the model has it"
        );
        assert_eq!(ix.find(&key(i)).is_some(), model.contains_key(&i));
    }
    let mut walked: Vec<(FlowKey, u32)> = ix.iter().map(|(k, &v)| (*k, v)).collect();
    walked.sort_unstable();
    let mut want: Vec<(FlowKey, u32)> = model.iter().map(|(&i, &v)| (key(i), v)).collect();
    want.sort_unstable();
    assert_eq!(walked, want, "a walk visits each live key once");
    let cap = ix.buckets();
    assert!(
        cap == 0 || (cap.is_power_of_two() && cap >= MIN_BUCKETS && cap >= 2 * ix.len()),
        "{cap} buckets for {} keys",
        ix.len()
    );
}

fn run(ops: &[Op]) {
    let mut ix = FlowIndex::new();
    let mut model = BTreeMap::new();
    for &op in ops {
        match op {
            Op::Insert(i, v) => {
                let at = ix.insert(key(i), v);
                assert_eq!(
                    ix.find(&key(i)),
                    Some(at),
                    "insert returns the key's bucket"
                );
                model.insert(i, v);
            }
            Op::Find(i) => {
                assert_eq!(ix.find(&key(i)).is_some(), model.contains_key(&i));
            }
            Op::Remove(i) => {
                assert_eq!(ix.remove(&key(i)), model.remove(&i));
            }
            Op::Retain(mask) => {
                let gone = |k: &FlowKey| {
                    let i = (0..UNIVERSE)
                        .find(|&i| key(i) == *k)
                        .expect("a universe key");
                    (mask >> i) & 1 == 1
                };
                ix.retain(|k, v| {
                    *v ^= 1;
                    !gone(k)
                });
                model.retain(|&i, v| {
                    *v ^= 1;
                    !gone(&key(i))
                });
            }
            Op::Clear => {
                ix.clear();
                model.clear();
                assert_eq!(ix.buckets(), 0, "clear frees the array");
            }
        }
        check(&ix, &model);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]
    #[test]
    fn flow_index_matches_a_btreemap(ops in prop::collection::vec(op_strategy(), 1..200)) {
        run(&ops);
    }
}

proptest! {
    // Nightly runs this twin (`-- --ignored`).
    #![proptest_config(ProptestConfig::with_cases(4096))]
    #[test]
    #[ignore = "4096 cases; run with --ignored (nightly)"]
    fn flow_index_matches_a_btreemap_4096(
        ops in prop::collection::vec(op_strategy(), 1..200),
    ) {
        run(&ops);
    }
}

/// A flood grows the array three times and a sweep that keeps two keys
/// halves it twice, to the 16 buckets of which two are an eighth: the
/// sequences above may do neither.
#[test]
fn a_flood_then_a_sweep_grows_and_shrinks_the_array() {
    let mut ops: Vec<Op> = (0..UNIVERSE).map(|i| Op::Insert(i, u32::from(i))).collect();
    ops.push(Op::Retain(!0b11));
    run(&ops);
    let mut ix = FlowIndex::new();
    for i in 0..UNIVERSE {
        ix.insert(key(i), u32::from(i));
    }
    assert_eq!(ix.buckets(), 64);
    ix.retain(|k, _| *k == key(0) || *k == key(1));
    assert_eq!((ix.len(), ix.buckets()), (2, 16));
}
