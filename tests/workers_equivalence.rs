//! Worker-engine equivalence under chaos (DESIGN.md §12).
//!
//! The worker engine's contract is that worker count routes
//! *observability*, never *enforcement*: in dispatch mode the steered
//! worker processes each packet immediately in delivery order, so the
//! table-operation sequence is identical to the single-threaded path
//! for any N. This suite pins that down end to end by replaying a
//! `tests/chaos.rs` scenario — mixed loss, reordering, duplication,
//! corruption and jitter on the trunk — through hosts running the
//! engine at N ∈ {1, 2, 4} and comparing against the single-threaded
//! ground truth:
//!
//! * the simulation evolves identically (engine event count, acked
//!   bytes, retransmits, injected-fault tallies),
//! * the vSwitch-reconstructed `(snd_una, snd_nxt)` still equals the
//!   endpoint's wire-sequence ground truth,
//! * drop/health counters agree: the merged metric snapshot (main hub +
//!   worker hubs) is byte-identical to the legacy single-hub snapshot.

use acdc_core::{FlowHandle, Scheme, Testbed};
use acdc_faults::{FaultPlan, LinkFaultStats};
use acdc_packet::SeqView;
use acdc_stats::time::SECOND;

const BYTES: u64 = 400_000;

/// Everything the scenario observes, in one comparable bundle.
#[derive(Debug, PartialEq)]
struct Observed {
    acked: u64,
    retransmits: u64,
    engine_events: u64,
    fault: LinkFaultStats,
    ep_state: SeqView,
    sw_state: SeqView,
    /// Client-host vSwitch metrics in the `acdc-telemetry/v2` merged
    /// snapshot JSON: the legacy hub alone at N = 0, the main + worker
    /// hubs otherwise. Includes every drop and health counter plus the
    /// summed flight-recorder `dropped_events` tally.
    counters_json: String,
}

/// The mixed-fault chaos scenario of `tests/chaos.rs`, with the hosts'
/// datapaths driven through an `n`-worker engine (`n = 0` = legacy
/// single-threaded entry points).
fn run(workers: usize) -> Observed {
    let mut tb = Testbed::custom(Scheme::acdc(), 1500);
    tb.set_workers(workers);
    tb.set_trunk_fault(
        FaultPlan::new(0xACDC_0008)
            .with_iid_loss(0.01)
            .with_reorder(0.02, 100_000)
            .with_duplication(0.01)
            .with_corruption(0.01)
            .with_jitter(20_000),
    );
    tb.build_dumbbell(1);
    let h: FlowHandle = tb.add_bulk(0, 1, Some(BYTES), 0);
    tb.run_until(5 * SECOND);

    let acked = tb.acked_bytes(h);
    let ep = tb.client_endpoint(h);
    let ep_state = ep.seq_view();
    let retransmits = ep.retransmitted_segments();
    let engine_events = tb.net.events_processed();
    let fault = tb.trunk_fault_stats().expect("trunk was faulted");
    let host = tb.host_mut(h.client_host);
    let sw_state = host
        .datapath()
        .seq_view(&h.key)
        .expect("vSwitch must still track the flow");
    let counters_json = match host.worker_engine() {
        Some(engine) => engine.merged_snapshot_json(host.datapath(), 0),
        None => acdc_telemetry::merged_snapshot_json(&[host.telemetry().as_ref()], 0),
    };
    Observed {
        acked,
        retransmits,
        engine_events,
        fault,
        ep_state,
        sw_state,
        counters_json,
    }
}

#[test]
fn worker_dispatch_matches_single_threaded_ground_truth() {
    let legacy = run(0);
    assert_eq!(legacy.acked, BYTES, "baseline transfer must complete");
    assert_eq!(
        legacy.sw_state, legacy.ep_state,
        "baseline vSwitch state must match the endpoint"
    );
    assert_ne!(legacy.fault, LinkFaultStats::default());

    for n in [1usize, 2, 4] {
        let got = run(n);
        assert_eq!(
            got, legacy,
            "N={n} worker run diverged from single-threaded ground truth"
        );
    }
}

#[test]
fn worker_runs_replay_byte_identically() {
    let a = run(2);
    let b = run(2);
    assert_eq!(a, b, "same seed + same N must replay identically");
    assert_eq!(a.acked, BYTES);
}
