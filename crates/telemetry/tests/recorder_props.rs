//! Property tests for the flight recorder and registry: same plan + seed
//! ⇒ byte-identical JSONL dump; ring wraparound never reorders or
//! duplicates events, before or after `restore_counters`; every variant
//! and label packs into a ring slot and reads back; each label's JSON
//! line is pinned to its text; registered metric names are unique and
//! all appear in `snapshot_all()`.

use acdc_packet::FlowKey;
use acdc_stats::time::Nanos;
use acdc_telemetry::{
    CutCause, DropCause, Event, EventKind, EvictReason, FaultEffect, FlightRecorder,
    MetricsRegistry, Rung, NO_FLOW,
};
use proptest::prelude::*;

/// A synthetic event "plan": the deterministic function from (plan,
/// index) to event that stands in for the simulator's event stream.
#[derive(Debug, Clone)]
struct Plan {
    seed: u64,
    count: usize,
    capacity: usize,
}

/// The value of `all` that `x` picks.
fn pick<T: Copy>(all: &[T], x: u64) -> T {
    all[(x % all.len() as u64) as usize]
}

fn planned_event(plan: &Plan, i: usize) -> (Nanos, FlowKey, EventKind) {
    // A cheap splitmix-style draw keyed on (seed, i): deterministic,
    // portable, and varied enough to reach every variant and label.
    let mut x = plan.seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    let flow = FlowKey {
        src_ip: [10, 0, 0, (x % 250) as u8 + 1],
        dst_ip: [10, 0, 1, ((x >> 8) % 250) as u8 + 1],
        src_port: 40_000 + (x % 1_000) as u16,
        dst_port: 5_001,
    };
    // Independent bits for the variant, the labels and the payload.
    let (a, b, payload) = (x >> 8, x >> 24, x >> 40);
    let kind = match x % 10 {
        0 => EventKind::FlowCreated,
        1 => EventKind::FlowEvicted {
            reason: pick(EvictReason::ALL, a),
        },
        2 => EventKind::AdmissionRejected,
        3 => EventKind::AlphaUpdate {
            alpha_micros: payload % 1_000_001,
        },
        4 => EventKind::CwndCut {
            cause: pick(CutCause::ALL, a),
            cwnd: payload,
        },
        5 => EventKind::RtoFired { cwnd: payload },
        6 => EventKind::HealthTransition {
            from: pick(Rung::ALL, a),
            to: pick(Rung::ALL, b),
        },
        7 => EventKind::FaultInjected {
            effect: pick(FaultEffect::ALL, a),
        },
        8 => EventKind::PacketDropped {
            cause: pick(DropCause::ALL, a),
        },
        _ => EventKind::DatapathReset {
            flows_cleared: payload,
        },
    };
    ((i as Nanos) * 1_000, flow, kind)
}

fn run_plan(plan: &Plan) -> FlightRecorder {
    let rec = FlightRecorder::new(plan.capacity);
    for i in 0..plan.count {
        let (at, flow, kind) = planned_event(plan, i);
        rec.record(at, flow, kind);
    }
    rec
}

/// Same plan + seed ⇒ byte-identical JSONL dump.
fn dumps_identically(plan: &Plan) {
    let a = run_plan(plan).dump_jsonl();
    let b = run_plan(plan).dump_jsonl();
    prop_assert_eq!(a.as_bytes(), b.as_bytes());
}

/// Wraparound keeps exactly the newest `capacity` events, in record
/// order, with strictly increasing sequence numbers (no reorder, no
/// duplicate, no gap in the retained suffix).
fn wraparound_keeps_the_suffix(plan: &Plan) {
    let rec = run_plan(plan);
    let events = rec.events();

    let kept = plan.count.min(plan.capacity);
    prop_assert_eq!(events.len(), kept);
    prop_assert_eq!(rec.total_recorded(), plan.count as u64);
    prop_assert_eq!(rec.overwritten(), (plan.count - kept) as u64);

    // The retained window is the contiguous suffix of the stream.
    for (j, e) in events.iter().enumerate() {
        let expect_seq = (plan.count - kept + j) as u64;
        prop_assert_eq!(e.seq, expect_seq, "event {} out of order", j);
        let (at, flow, kind) = planned_event(plan, expect_seq as usize);
        prop_assert_eq!(e.at, at);
        prop_assert_eq!(e.flow, flow);
        prop_assert_eq!(e.kind, kind);
    }
}

/// A recorder restored to `(next_seq, overwritten)` mid-stream rebuilds
/// the `seq`s the uninterrupted stream would carry: the ring is emptied,
/// then holds the newest `capacity` events recorded since, numbered on
/// from `next_seq`.
fn restore_continues_the_numbering(plan: &Plan, before: usize, next_seq: u64, overwritten: u64) {
    let rec = FlightRecorder::new(plan.capacity);
    for i in 0..before {
        let (at, flow, kind) = planned_event(plan, i);
        rec.record(at, flow, kind);
    }
    rec.restore_counters(next_seq, overwritten);
    prop_assert!(rec.is_empty());
    for i in 0..plan.count {
        let (at, flow, kind) = planned_event(plan, i);
        rec.record(at, flow, kind);
    }
    let kept = plan.count.min(plan.capacity);
    prop_assert_eq!(rec.total_recorded(), next_seq + plan.count as u64);
    prop_assert_eq!(rec.overwritten(), overwritten + (plan.count - kept) as u64);
    let events = rec.events();
    prop_assert_eq!(events.len(), kept);
    for (j, e) in events.iter().enumerate() {
        let i = plan.count - kept + j;
        let (at, flow, kind) = planned_event(plan, i);
        let want = Event {
            seq: next_seq + i as u64,
            at,
            flow,
            kind,
        };
        prop_assert_eq!(*e, want);
    }
}

/// Every registered metric name is unique and appears in
/// `snapshot_all()`, sorted by name, with the value its handle reports.
fn names_unique_and_snapshotted(n_counters: usize, bumps: &[u64]) {
    let reg = MetricsRegistry::new();
    let counters: Vec<_> = (0..n_counters)
        .map(|i| (format!("c.m{i}"), reg.counter(format!("c.m{i}"))))
        .collect();
    for (i, b) in bumps.iter().enumerate() {
        if let Some((_, c)) = counters.get(i % counters.len().max(1)) {
            c.add(*b);
        }
    }

    let snap = reg.snapshot_all();
    prop_assert_eq!(snap.len(), counters.len());
    prop_assert!(
        snap.windows(2).all(|w| w[0].name < w[1].name),
        "names must be unique and sorted"
    );
    for (name, c) in &counters {
        let m = snap.iter().find(|m| &m.name == name);
        prop_assert!(m.is_some(), "{} missing from snapshot_all()", name);
        prop_assert_eq!(m.unwrap().value, c.get());
        prop_assert_eq!(reg.value(name), Some(c.get()));
    }
}

proptest! {
    /// [`dumps_identically`] over arbitrary plans.
    #[test]
    fn same_plan_and_seed_dumps_identically(
        seed in any::<u64>(),
        count in 0usize..600,
        capacity in 1usize..96,
    ) {
        dumps_identically(&Plan { seed, count, capacity });
    }

    /// [`wraparound_keeps_the_suffix`] over arbitrary plans.
    #[test]
    fn wraparound_never_reorders_or_duplicates(
        seed in any::<u64>(),
        count in 0usize..600,
        capacity in 1usize..96,
    ) {
        wraparound_keeps_the_suffix(&Plan { seed, count, capacity });
    }

    /// [`restore_continues_the_numbering`] over arbitrary plans.
    #[test]
    fn restore_counters_keeps_the_seqs(
        seed in any::<u64>(),
        count in 0usize..300,
        capacity in 1usize..96,
        before in 0usize..200,
        next_seq in 0u64..1 << 48,
        overwritten in 0u64..1 << 40,
    ) {
        restore_continues_the_numbering(&Plan { seed, count, capacity }, before, next_seq, overwritten);
    }

    /// [`names_unique_and_snapshotted`] over arbitrary registries.
    #[test]
    fn registered_names_are_unique_and_all_snapshot(
        n_counters in 0usize..48,
        bumps in proptest::collection::vec(0u64..1000, 0..24),
    ) {
        names_unique_and_snapshotted(n_counters, &bumps);
    }
}

proptest! {
    // nightly.yml runs these twins (`-- --ignored`).
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    #[ignore = "4096 cases; run with --ignored (nightly)"]
    fn same_plan_and_seed_dumps_identically_4096(
        seed in any::<u64>(),
        count in 0usize..600,
        capacity in 1usize..96,
    ) {
        dumps_identically(&Plan { seed, count, capacity });
    }

    #[test]
    #[ignore = "4096 cases; run with --ignored (nightly)"]
    fn wraparound_never_reorders_or_duplicates_4096(
        seed in any::<u64>(),
        count in 0usize..600,
        capacity in 1usize..96,
    ) {
        wraparound_keeps_the_suffix(&Plan { seed, count, capacity });
    }

    #[test]
    #[ignore = "4096 cases; run with --ignored (nightly)"]
    fn restore_counters_keeps_the_seqs_4096(
        seed in any::<u64>(),
        count in 0usize..300,
        capacity in 1usize..96,
        before in 0usize..200,
        next_seq in 0u64..1 << 48,
        overwritten in 0u64..1 << 40,
    ) {
        restore_continues_the_numbering(&Plan { seed, count, capacity }, before, next_seq, overwritten);
    }

    #[test]
    #[ignore = "4096 cases; run with --ignored (nightly)"]
    fn registered_names_are_unique_and_all_snapshot_4096(
        n_counters in 0usize..48,
        bumps in proptest::collection::vec(0u64..1000, 0..24),
    ) {
        names_unique_and_snapshotted(n_counters, &bumps);
    }
}

#[test]
fn dump_replays_through_recorder_events() {
    // The dump is a pure function of the recorded stream: rebuilding a
    // recorder from `events()` reproduces the dump byte-for-byte.
    let plan = Plan {
        seed: 0xACDC,
        count: 300,
        capacity: 64,
    };
    let rec = run_plan(&plan);
    let replay = FlightRecorder::new(plan.capacity);
    for e in run_plan(&plan).events() {
        replay.record(e.at, e.flow, e.kind);
    }
    // Seqs restart from 0 in the replay ring, so compare everything else.
    let a = rec.events();
    let b = replay.events();
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!((x.at, x.flow, x.kind), (y.at, y.flow, y.kind));
    }
    let _ = NO_FLOW; // taxonomy smoke: the shared zero key is exported
}

#[test]
fn the_plan_draws_every_variant_and_label() {
    // Payloads zeroed: what is left is the variant and its labels.
    let shape = |k: EventKind| match k {
        EventKind::AlphaUpdate { .. } => EventKind::AlphaUpdate { alpha_micros: 0 },
        EventKind::CwndCut { cause, .. } => EventKind::CwndCut { cause, cwnd: 0 },
        EventKind::RtoFired { .. } => EventKind::RtoFired { cwnd: 0 },
        EventKind::DatapathReset { .. } => EventKind::DatapathReset { flows_cleared: 0 },
        k => k,
    };
    let plan = Plan {
        seed: 0xACDC,
        count: 2_000,
        capacity: 1,
    };
    let mut seen: Vec<EventKind> = Vec::new();
    for i in 0..plan.count {
        let kind = shape(planned_event(&plan, i).2);
        if !seen.contains(&kind) {
            seen.push(kind);
        }
    }
    let labels = EvictReason::ALL.len()
        + CutCause::ALL.len()
        + Rung::ALL.len() * Rung::ALL.len()
        + FaultEffect::ALL.len()
        + DropCause::ALL.len();
    // Five variants without a label, one shape each.
    assert_eq!(seen.len(), 5 + labels, "{seen:?}");
}

/// Each label's JSON line, as the recorder has always written it.
#[test]
fn every_label_writes_its_literal_text() {
    use CutCause::*;
    use DropCause::*;
    use EvictReason::*;
    use FaultEffect::*;
    use Rung::*;
    let cases = [
        (
            EventKind::FlowEvicted { reason: Capacity },
            r#""kind":"flow-evicted","reason":"capacity""#,
        ),
        (
            EventKind::FlowEvicted { reason: Gc },
            r#""kind":"flow-evicted","reason":"gc""#,
        ),
        (
            EventKind::CwndCut {
                cause: FastRetransmit,
                cwnd: 2_896,
            },
            r#""kind":"cwnd-cut","cause":"fast-retransmit","cwnd":2896"#,
        ),
        (
            EventKind::HealthTransition {
                from: Enforcing,
                to: LogOnly,
            },
            r#""kind":"health-transition","from":"enforcing","to":"log-only""#,
        ),
        (
            EventKind::HealthTransition {
                from: LogOnly,
                to: PassThrough,
            },
            r#""kind":"health-transition","from":"log-only","to":"pass-through""#,
        ),
        (
            EventKind::HealthTransition {
                from: PassThrough,
                to: Enforcing,
            },
            r#""kind":"health-transition","from":"pass-through","to":"enforcing""#,
        ),
        (
            EventKind::FaultInjected { effect: DropRandom },
            r#""kind":"fault-injected","effect":"drop-random""#,
        ),
        (
            EventKind::FaultInjected {
                effect: DropScripted,
            },
            r#""kind":"fault-injected","effect":"drop-scripted""#,
        ),
        (
            EventKind::FaultInjected {
                effect: DropLinkDown,
            },
            r#""kind":"fault-injected","effect":"drop-link-down""#,
        ),
        (
            EventKind::FaultInjected { effect: Corrupt },
            r#""kind":"fault-injected","effect":"corrupt""#,
        ),
        (
            EventKind::FaultInjected { effect: Duplicate },
            r#""kind":"fault-injected","effect":"duplicate""#,
        ),
        (
            EventKind::FaultInjected { effect: Reorder },
            r#""kind":"fault-injected","effect":"reorder""#,
        ),
        (
            EventKind::FaultInjected { effect: Jitter },
            r#""kind":"fault-injected","effect":"jitter""#,
        ),
        (
            EventKind::FaultInjected { effect: CeMark },
            r#""kind":"fault-injected","effect":"ce-mark""#,
        ),
        (
            EventKind::PacketDropped { cause: Policed },
            r#""kind":"drop","cause":"policed""#,
        ),
        (
            EventKind::PacketDropped { cause: CorruptFcs },
            r#""kind":"drop","cause":"corrupt-fcs""#,
        ),
        (
            EventKind::PacketDropped { cause: QueueFull },
            r#""kind":"drop","cause":"queue-full""#,
        ),
        (
            EventKind::PacketDropped {
                cause: FaultInjected,
            },
            r#""kind":"drop","cause":"fault-injected""#,
        ),
    ];
    let rec = FlightRecorder::new(cases.len());
    for (kind, _) in cases {
        rec.record(7, NO_FLOW, kind);
    }
    let dump = rec.dump_jsonl();
    for (seq, ((_, text), line)) in cases.iter().zip(dump.lines()).enumerate() {
        assert_eq!(line, format!(r#"{{"seq":{seq},"at":7,"flow":"-",{text}}}"#));
    }
    assert_eq!(dump.lines().count(), cases.len());
}
