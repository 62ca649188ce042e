//! Property tests for the flight recorder and registry (ISSUE 5,
//! satellite 4): same plan + seed ⇒ byte-identical JSONL dump; ring
//! wraparound never reorders or duplicates events; registered metric
//! names are unique and all appear in `snapshot_all()`.

use acdc_packet::FlowKey;
use acdc_stats::time::Nanos;
use acdc_telemetry::{Counter, EventKind, FlightRecorder, MetricsRegistry, NO_FLOW};
use proptest::prelude::*;

/// A synthetic event "plan": the deterministic function from (plan,
/// index) to event that stands in for the simulator's event stream.
#[derive(Debug, Clone)]
struct Plan {
    seed: u64,
    count: usize,
    capacity: usize,
}

fn planned_event(plan: &Plan, i: usize) -> (Nanos, FlowKey, EventKind) {
    // A cheap splitmix-style draw keyed on (seed, i): deterministic,
    // portable, and varied enough to exercise every variant shape.
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
    let kind = match x % 6 {
        0 => EventKind::FlowCreated,
        1 => EventKind::PacketDropped {
            cause: "corrupt-fcs",
        },
        2 => EventKind::CwndCut {
            cause: "fast-retransmit",
            cwnd: x % 100_000,
        },
        3 => EventKind::RtoFired { cwnd: x % 100_000 },
        4 => EventKind::FaultInjected { effect: "corrupt" },
        _ => EventKind::AlphaUpdate {
            alpha_micros: x % 1_000_000,
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

proptest! {
    /// Same plan + seed ⇒ byte-identical JSONL dump.
    #[test]
    fn same_plan_and_seed_dumps_identically(
        seed in any::<u64>(),
        count in 0usize..600,
        capacity in 1usize..96,
    ) {
        let plan = Plan { seed, count, capacity };
        let a = run_plan(&plan).dump_jsonl();
        let b = run_plan(&plan).dump_jsonl();
        prop_assert_eq!(a.as_bytes(), b.as_bytes());
    }

    /// Wraparound keeps exactly the newest `capacity` events, in record
    /// order, with strictly increasing sequence numbers (no reorder, no
    /// duplicate, no gap in the retained suffix).
    #[test]
    fn wraparound_never_reorders_or_duplicates(
        seed in any::<u64>(),
        count in 0usize..600,
        capacity in 1usize..96,
    ) {
        let plan = Plan { seed, count, capacity };
        let rec = run_plan(&plan);
        let events = rec.events();

        let kept = count.min(capacity);
        prop_assert_eq!(events.len(), kept);
        prop_assert_eq!(rec.total_recorded(), count as u64);
        prop_assert_eq!(rec.overwritten(), (count - kept) as u64);

        // The retained window is the contiguous suffix of the stream.
        for (j, e) in events.iter().enumerate() {
            let expect_seq = (count - kept + j) as u64;
            prop_assert_eq!(e.seq, expect_seq, "event {} out of order", j);
            let (at, flow, kind) = planned_event(&plan, expect_seq as usize);
            prop_assert_eq!(e.at, at);
            prop_assert_eq!(e.flow, flow);
            prop_assert_eq!(e.kind, kind);
        }
    }

    /// Every registered metric name is unique and appears in
    /// `snapshot_all()`, sorted by name, with the value its handle reports.
    #[test]
    fn registered_names_are_unique_and_all_snapshot(
        n_counters in 0usize..24,
        n_adopted in 0usize..24,
        bumps in proptest::collection::vec(0u64..1000, 0..24),
    ) {
        let reg = MetricsRegistry::new();
        let mut counters: Vec<_> = (0..n_counters)
            .map(|i| (format!("c.m{i}"), reg.counter(format!("c.m{i}"))))
            .collect();
        for i in 0..n_adopted {
            let c = Counter::standalone();
            reg.adopt_counter(format!("a.m{i}"), &c);
            counters.push((format!("a.m{i}"), c));
        }
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
