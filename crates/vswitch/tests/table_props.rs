//! Property tests for `FlowTable`. Capacity invariants: under arbitrary
//! interleavings of create / remove / touch / gc the table never exceeds
//! its cap, its O(1) count always agrees with an actual enumeration, and
//! the whole op sequence is deterministic — same ops ⇒ same survivor set
//! and same admission outcomes, for both admission policies. The probing
//! index inside a shard: keys that all land in one shard, run against a
//! `BTreeMap` model, so clusters, wraparound, growth and backward-shift
//! removal all happen.

use std::collections::BTreeMap;
use std::sync::OnceLock;

use acdc_cc::{CcConfig, CcKind};
use acdc_packet::FlowKey;
use acdc_vswitch::{Admission, AdmissionPolicy, FlowEntry, FlowTable};
use proptest::prelude::*;

const CAP: usize = 8;

#[derive(Debug, Clone, Copy)]
enum Op {
    /// Look up or create the keyed flow, stamping `last_activity`.
    Create(u8, u16),
    /// Remove the keyed flow if present.
    Remove(u8),
    /// Touch the keyed flow's `last_activity` if present.
    Touch(u8, u16),
    /// Garbage-collect at the given time with a fixed idle timeout.
    Gc(u16),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0u8..32, 0u16..1000).prop_map(|(k, t)| Op::Create(k, t)),
        2 => (0u8..32).prop_map(Op::Remove),
        2 => (0u8..32, 0u16..1000).prop_map(|(k, t)| Op::Touch(k, t)),
        1 => (0u16..1000).prop_map(Op::Gc),
    ]
}

fn key(i: u8) -> FlowKey {
    FlowKey {
        src_ip: [10, 0, 0, 1],
        dst_ip: [10, 0, 0, 2],
        src_port: 40_000 + u16::from(i),
        dst_port: 80,
    }
}

fn entry(now: u64) -> FlowEntry {
    FlowEntry::new(CcKind::Dctcp, CcConfig::vswitch(1448), now)
}

/// Stamp `last_activity` as a packet at `now` would, through the entry's
/// public state image.
fn touch(e: &mut FlowEntry, now: u64) {
    let mut state = e.checkpoint_state();
    state.last_activity = now;
    assert!(e.restore_state(&state));
}

/// Run `ops` against a fresh bounded table, checking the capacity and
/// count invariants after every step. Returns (admission outcomes,
/// sorted survivor ports) for determinism comparison.
fn run_ops(policy: AdmissionPolicy, ops: &[Op]) -> (Vec<Admission>, Vec<u16>) {
    let t = FlowTable::bounded(CAP, policy);
    let mut admissions = Vec::new();
    for op in ops {
        match *op {
            Op::Create(k, now) => {
                let now = u64::from(now);
                let (_, adm) = t.with_entry_or_create(key(k), || entry(now), |e| touch(e, now));
                admissions.push(adm);
            }
            Op::Remove(k) => {
                t.remove(&key(k));
            }
            Op::Touch(k, now) => {
                t.with_entry(&key(k), |e| touch(e, u64::from(now)));
            }
            Op::Gc(now) => {
                t.gc(u64::from(now), 250);
            }
        }
        // Invariant 1: the cap is never exceeded, not even transiently
        // visible after any op.
        assert!(t.len() <= CAP, "len {} exceeds cap {CAP}", t.len());
        // Invariant 2: the O(1) count agrees with an enumeration.
        let mut enumerated = 0usize;
        t.for_each(|_, _| enumerated += 1);
        assert_eq!(t.len(), enumerated, "count drifted from shard contents");
    }
    let mut survivors = Vec::new();
    t.for_each(|k, _| survivors.push(k.src_port));
    survivors.sort_unstable();
    (admissions, survivors)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn bounded_table_invariants_reject_new(ops in prop::collection::vec(op_strategy(), 1..80)) {
        run_ops(AdmissionPolicy::RejectNew, &ops);
    }

    #[test]
    fn bounded_table_invariants_evict_oldest(ops in prop::collection::vec(op_strategy(), 1..80)) {
        run_ops(AdmissionPolicy::EvictOldestIdle, &ops);
    }

    /// Eviction determinism: replaying the same op sequence on a fresh
    /// table yields the same admission outcomes and the same survivor
    /// set, for both policies.
    #[test]
    fn same_ops_same_survivors(ops in prop::collection::vec(op_strategy(), 1..80)) {
        for policy in [AdmissionPolicy::RejectNew, AdmissionPolicy::EvictOldestIdle] {
            let a = run_ops(policy, &ops);
            let b = run_ops(policy, &ops);
            prop_assert_eq!(&a, &b, "replay diverged under {:?}", policy);
        }
    }

    /// RejectNew never evicts: once admitted, a flow survives until it is
    /// explicitly removed or gc'd — creates alone cannot displace it.
    #[test]
    fn reject_new_never_displaces(extra in prop::collection::vec(0u8..32, 1..40)) {
        let t = FlowTable::bounded(2, AdmissionPolicy::RejectNew);
        prop_assert_eq!(t.get_or_create(key(100), || entry(0)), Admission::Created);
        prop_assert_eq!(t.get_or_create(key(101), || entry(0)), Admission::Created);
        for k in extra {
            t.get_or_create(key(k), || entry(1));
        }
        prop_assert!(t.with_entry(&key(100), |_| ()).is_some());
        prop_assert!(t.with_entry(&key(101), |_| ()).is_some());
        prop_assert_eq!(t.len(), 2);
    }
}

/// Keys in the one-shard universe.
const CROWD: usize = 24;

#[derive(Debug, Clone, Copy)]
enum ShardOp {
    /// Look up or create the keyed flow, stamping `last_activity`.
    Create(u8, u16),
    /// Remove the keyed flow if present.
    Remove(u8),
    /// Garbage-collect at the given time with a fixed idle timeout.
    Gc(u16),
    /// Drop every entry.
    Clear,
}

fn shard_op_strategy() -> impl Strategy<Value = ShardOp> {
    let k = 0u8..CROWD as u8;
    prop_oneof![
        6 => (k.clone(), 0u16..1000).prop_map(|(k, t)| ShardOp::Create(k, t)),
        3 => k.prop_map(ShardOp::Remove),
        1 => (0u16..1000).prop_map(ShardOp::Gc),
        1 => Just(ShardOp::Clear),
    ]
}

/// `CROWD` keys that all map to one shard, found by searching ports.
fn crowd() -> &'static [FlowKey] {
    static CROWD_KEYS: OnceLock<Vec<FlowKey>> = OnceLock::new();
    CROWD_KEYS.get_or_init(|| {
        let shard = FlowTable::shard_of(&key(0));
        (0..=u16::MAX)
            .map(|p| FlowKey {
                src_port: p,
                ..key(0)
            })
            .filter(|k| FlowTable::shard_of(k) == shard)
            .take(CROWD)
            .collect()
    })
}

fn last_activity(t: &FlowTable, k: &FlowKey) -> Option<u64> {
    t.with_entry(k, |e| e.checkpoint_state().last_activity)
}

/// Run `ops` on a fresh unbounded table beside a `BTreeMap` model of
/// key → `last_activity`, checking after every step that membership,
/// values and `len` agree and that a walk visits each live key exactly
/// once. Returns every step's walk order.
fn run_shard_ops(ops: &[ShardOp]) -> Vec<Vec<u16>> {
    const IDLE: u64 = 250;
    let keys = crowd();
    let t = FlowTable::new();
    let mut model: BTreeMap<FlowKey, u64> = BTreeMap::new();
    let mut walks = Vec::new();
    for op in ops {
        match *op {
            ShardOp::Create(k, now) => {
                let (k, now) = (keys[usize::from(k)], u64::from(now));
                let (touched, adm) = t.with_entry_or_create(k, || entry(now), |e| touch(e, now));
                assert!(touched.is_some(), "unbounded");
                let expected = if model.insert(k, now).is_some() {
                    Admission::Existing
                } else {
                    Admission::Created
                };
                assert_eq!(adm, expected, "{k}");
            }
            ShardOp::Remove(k) => {
                let k = keys[usize::from(k)];
                assert_eq!(t.remove(&k), model.remove(&k).is_some(), "{k}");
            }
            ShardOp::Gc(now) => {
                let now = u64::from(now);
                let before = model.len();
                model.retain(|_, last| now.saturating_sub(*last) <= IDLE);
                assert_eq!(t.gc(now, IDLE), before - model.len());
            }
            ShardOp::Clear => {
                assert_eq!(t.clear(), model.len());
                model.clear();
            }
        }
        assert_eq!(t.len(), model.len());
        for k in keys {
            assert_eq!(last_activity(&t, k), model.get(k).copied(), "{k}");
        }
        let mut walk = Vec::new();
        t.for_each(|k, _| walk.push(*k));
        let mut sorted = walk.clone();
        sorted.sort_unstable();
        assert!(
            sorted.iter().eq(model.keys()),
            "walk {walk:?} is not the live set"
        );
        walks.push(walk.iter().map(|k| k.src_port).collect());
    }
    walks
}

fn check_shard_ops(ops: &[ShardOp]) {
    assert_eq!(
        run_shard_ops(ops),
        run_shard_ops(ops),
        "walk order diverged"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn one_shard_matches_model(ops in prop::collection::vec(shard_op_strategy(), 1..200)) {
        check_shard_ops(&ops);
    }
}

proptest! {
    // nightly.yml runs this twin (`-- --ignored`).
    #![proptest_config(ProptestConfig::with_cases(4096))]
    #[test]
    #[ignore = "4096 cases; run with --ignored (nightly)"]
    fn one_shard_matches_model_4096(ops in prop::collection::vec(shard_op_strategy(), 1..200)) {
        check_shard_ops(&ops);
    }
}
