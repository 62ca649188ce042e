//! Property tests for the flow table's state, `Flows`, each against a
//! `BTreeMap` model of directional key → `last_activity`. Both directions of a connection
//! share one record, so every op universe holds keys and their reverses:
//! creating, removing, evicting or collecting one direction must leave
//! the other as the model says, and a record must go with its last
//! direction (`connections()` equals the model's distinct connections).
//!
//! Capacity: under arbitrary interleavings of create / remove / touch /
//! gc a bounded table never exceeds its cap, admits and evicts exactly
//! the entry the model picks (oldest `last_activity`, smallest key on
//! ties), and replays — same ops ⇒ same survivors and admission outcomes
//! — for both admission policies. The probing index: two dozen
//! connections in a table whose first array has eight buckets, so
//! clusters, wraparound, growth, backward-shift removal and the gc shrink
//! all happen.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::OnceLock;

use acdc_cc::{CcConfig, CcKind};
use acdc_packet::FlowKey;
use proptest::prelude::*;

use crate::entry::FlowEntry;
use crate::table::{Admission, AdmissionPolicy, Flows};

const CAP: usize = 8;
const IDLE: u64 = 250;

/// What the table should hold: directional key → `last_activity`.
type Model = BTreeMap<FlowKey, u64>;

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

/// Sixteen connections, both ways: `i < 16` is connection `i`'s data
/// direction, `i ≥ 16` the reverse of connection `i − 16`.
fn key(i: u8) -> FlowKey {
    let k = FlowKey {
        src_ip: [10, 0, 0, 1],
        dst_ip: [10, 0, 0, 2],
        src_port: 40_000 + u16::from(i % 16),
        dst_port: 80,
    };
    if i < 16 {
        k
    } else {
        k.reverse()
    }
}

fn entry(now: u64) -> FlowEntry {
    FlowEntry::new(CcKind::Dctcp, CcConfig::vswitch(1448), now)
}

/// Stamp `last_activity` as a packet at `now` would, through the entry's
/// public state image.
fn touch(e: &mut FlowEntry, now: u64) {
    let mut state = e.checkpoint_state();
    state.life.last_activity = now;
    assert!(e.restore_state(&state));
}

/// Look up or create `k`'s flow, stamping `last_activity` unless the
/// gate refused it.
fn create(t: &mut Flows, k: FlowKey, now: u64) -> Admission {
    let (conn, adm) = t.connection_or_create(&k, || entry(now));
    if let Some(e) = conn.into_this() {
        touch(e, now);
    }
    adm
}

/// What a create of `k` at the cap should do under `policy`, applied to
/// the model.
fn model_create(model: &mut Model, policy: AdmissionPolicy, k: FlowKey, now: u64) -> Admission {
    if let Some(last) = model.get_mut(&k) {
        *last = now;
        return Admission::Existing;
    }
    let adm = if model.len() < CAP {
        Admission::Created
    } else if policy == AdmissionPolicy::RejectNew {
        return Admission::Rejected;
    } else {
        let victim = model
            .iter()
            .filter(|(v, _)| **v != k)
            .map(|(v, last)| (*last, *v))
            .min()
            .expect("a full table has another entry")
            .1;
        model.remove(&victim);
        Admission::CreatedAfterEviction
    };
    model.insert(k, now);
    adm
}

/// The model's collection at `now`: entries idle longer than [`IDLE`].
/// Returns how many went.
fn model_gc(model: &mut Model, now: u64) -> usize {
    let before = model.len();
    model.retain(|_, last| now.saturating_sub(*last) <= IDLE);
    before - model.len()
}

/// `t` holds exactly `model`: every key of `universe` (a superset of
/// the model's) looks up to the model's value, the count matches, so no
/// entry is held twice, and there is one record per live connection.
fn assert_matches(t: &mut Flows, model: &Model, universe: impl IntoIterator<Item = FlowKey>) {
    for k in universe {
        assert_eq!(last_activity(t, &k), model.get(&k).copied(), "{k}");
    }
    assert_eq!(t.len(), model.len(), "count drifted from the contents");
    let live: BTreeSet<FlowKey> = model.keys().map(FlowKey::canonical).collect();
    assert_eq!(t.connections(), live.len(), "a record outlived its entries");
}

/// Run `ops` against a fresh bounded table and the model, checking the
/// cap and [`assert_matches`] after every step. Returns (admission
/// outcomes, sorted survivors) for determinism comparison.
fn run_ops(policy: AdmissionPolicy, ops: &[Op]) -> (Vec<Admission>, Vec<FlowKey>) {
    let mut t = Flows::new(Some(CAP), policy);
    let mut model = Model::new();
    let mut admissions = Vec::new();
    for op in ops {
        match *op {
            Op::Create(k, now) => {
                let (k, now) = (key(k), u64::from(now));
                let adm = create(&mut t, k, now);
                assert_eq!(adm, model_create(&mut model, policy, k, now), "{k}");
                admissions.push(adm);
            }
            Op::Remove(k) => {
                let k = key(k);
                assert_eq!(t.remove(&k), model.remove(&k).is_some(), "{k}");
            }
            Op::Touch(k, now) => {
                let (k, now) = (key(k), u64::from(now));
                if let Some(e) = t.get(&k) {
                    touch(e, now);
                }
                if let Some(last) = model.get_mut(&k) {
                    *last = now;
                }
            }
            Op::Gc(now) => {
                let now = u64::from(now);
                assert_eq!(t.gc(now, IDLE).len(), model_gc(&mut model, now));
            }
        }
        // The cap is never exceeded, not even transiently visible after
        // any op.
        assert!(t.len() <= CAP, "len {} exceeds cap {CAP}", t.len());
        assert_matches(&mut t, &model, (0..32).map(key));
    }
    (admissions, model.into_keys().collect())
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
        let mut t = Flows::new(Some(2), AdmissionPolicy::RejectNew);
        let data = FlowKey {
            src_port: 41_000,
            ..key(0)
        };
        let ack = data.reverse();
        prop_assert_eq!(create(&mut t, data, 0), Admission::Created);
        prop_assert_eq!(create(&mut t, ack, 0), Admission::Created);
        for k in extra {
            create(&mut t, key(k), 1);
        }
        prop_assert!(t.get(&data).is_some());
        prop_assert!(t.get(&ack).is_some());
        prop_assert_eq!((t.len(), t.connections()), (2, 1));
    }
}

/// Connections in the probing-index universe; keys are twice as many.
const CROWD: usize = 24;

#[derive(Debug, Clone, Copy)]
enum IndexOp {
    /// Look up or create the keyed flow, stamping `last_activity`.
    Create(u8, u16),
    /// Remove the keyed flow if present.
    Remove(u8),
    /// Garbage-collect at the given time with a fixed idle timeout.
    Gc(u16),
    /// Drop every entry.
    Clear,
}

fn index_op_strategy() -> impl Strategy<Value = IndexOp> {
    let k = || 0u8..2 * CROWD as u8;
    prop_oneof![
        6 => (k(), 0u16..1000).prop_map(|(k, t)| IndexOp::Create(k, t)),
        3 => k().prop_map(IndexOp::Remove),
        1 => (0u16..1000).prop_map(IndexOp::Gc),
        1 => Just(IndexOp::Clear),
    ]
}

/// `CROWD` connections followed by their reverses. Any keys do: the
/// table holds them all in one array.
fn crowd() -> &'static [FlowKey] {
    static CROWD_KEYS: OnceLock<Vec<FlowKey>> = OnceLock::new();
    CROWD_KEYS.get_or_init(|| {
        let conns: Vec<FlowKey> = (0..CROWD as u16)
            .map(|p| FlowKey {
                src_port: p,
                ..key(0)
            })
            .collect();
        let reverses = conns.iter().map(FlowKey::reverse);
        conns.iter().copied().chain(reverses).collect()
    })
}

fn last_activity(t: &mut Flows, k: &FlowKey) -> Option<u64> {
    t.get(k).map(|e| e.life().last_activity)
}

/// Run `ops` on a fresh unbounded table beside the model, checking
/// [`assert_matches`] after every step.
fn check_index_ops(ops: &[IndexOp]) {
    let keys = crowd();
    let mut t = Flows::new(None, AdmissionPolicy::EvictOldestIdle);
    let mut model = Model::new();
    for op in ops {
        match *op {
            IndexOp::Create(k, now) => {
                let (k, now) = (keys[usize::from(k)], u64::from(now));
                let adm = create(&mut t, k, now);
                let expected = if model.insert(k, now).is_some() {
                    Admission::Existing
                } else {
                    Admission::Created
                };
                assert_eq!(adm, expected, "{k}");
            }
            IndexOp::Remove(k) => {
                let k = keys[usize::from(k)];
                assert_eq!(t.remove(&k), model.remove(&k).is_some(), "{k}");
            }
            IndexOp::Gc(now) => {
                let now = u64::from(now);
                assert_eq!(t.gc(now, IDLE).len(), model_gc(&mut model, now));
            }
            IndexOp::Clear => {
                assert_eq!(t.clear(), model.len());
                model.clear();
            }
        }
        assert_matches(&mut t, &model, keys.iter().copied());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn probing_index_matches_model(ops in prop::collection::vec(index_op_strategy(), 1..200)) {
        check_index_ops(&ops);
    }
}

proptest! {
    // nightly.yml runs this twin (`-- --ignored`).
    #![proptest_config(ProptestConfig::with_cases(4096))]
    #[test]
    #[ignore = "4096 cases; run with --ignored (nightly)"]
    fn probing_index_matches_model_4096(ops in prop::collection::vec(index_op_strategy(), 1..200)) {
        check_index_ops(&ops);
    }
}
