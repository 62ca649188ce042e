//! Chaos scenario suite: AC/DC invariants under injected faults.
//!
//! The paper's §3.1 claim is that the vSwitch reconstructs per-flow TCP
//! state (`snd_una`, `snd_nxt`, dup-ACKs, timeouts) purely from observed
//! packets. Each scenario here injects one fault class with `acdc-faults`
//! and asserts (a) the transfer still completes, and (b) the vSwitch's
//! reconstructed sequence state agrees with the endpoint's ground truth
//! after recovery.

use std::sync::Arc;

use acdc_core::{FlowHandle, Scheme, Testbed};
use acdc_faults::FaultPlan;
use acdc_stats::time::{MILLISECOND, SECOND};
use acdc_telemetry::{DropCause, EventKind, FaultEffect, Json, TraceGuard};
use acdc_workloads::{BulkSender, FctKind};

/// After quiescence, the client-side vSwitch's reconstructed
/// [`acdc_packet::SeqView`] must equal the endpoint's wire-sequence
/// ground truth, and everything sent must be acked.
fn assert_state_agreement(tb: &mut Testbed, h: FlowHandle) {
    let ep_view = tb.client_endpoint(h).seq_view();
    let sw_view = tb
        .host_mut(h.client_host)
        .datapath()
        .seq_view(&h.key)
        .expect("vSwitch must still track the flow");
    assert_eq!(
        sw_view.snd_una, ep_view.snd_una,
        "vSwitch snd_una diverged from endpoint ground truth"
    );
    assert_eq!(
        sw_view.snd_nxt, ep_view.snd_nxt,
        "vSwitch snd_nxt diverged from endpoint ground truth"
    );
}

#[test]
fn iid_loss_transfer_completes_with_state_agreement() {
    const BYTES: u64 = 500_000;
    let mut tb = Testbed::custom(Scheme::acdc(), 1500);
    tb.set_trunk_fault(FaultPlan::new(0xACDC_0001).with_iid_loss(0.02));
    tb.build_dumbbell(1);
    let h = tb.add_bulk(0, 1, Some(BYTES), 0);
    tb.run_until(3 * SECOND);
    assert_eq!(
        tb.acked_bytes(h),
        BYTES,
        "transfer must complete under loss"
    );
    let stats = tb.trunk_fault_stats().expect("trunk was faulted");
    assert!(stats.total().random_drops > 0, "loss must actually occur");
    assert_state_agreement(&mut tb, h);
    // The endpoint had to retransmit what the link ate.
    let rtx = tb.client_endpoint(h).retransmitted_segments();
    assert!(rtx > 0);
    tb.golden("chaos.iid_loss", &(stats, rtx));
}

#[test]
fn gilbert_elliott_bursts_drive_rto_backoff_and_recovery() {
    // Bad dwells of ~20 packets at 90% loss wipe out whole flights, so
    // dup-ACK recovery starves inside a burst and the endpoint must take
    // RTOs (with exponential backoff) — while the 10% survival rate lets
    // backoff probes eventually punch through and finish the transfer.
    const BYTES: u64 = 200_000;
    let mut tb = Testbed::custom(Scheme::acdc(), 1500);
    tb.set_trunk_fault(FaultPlan::new(0xACDC_0002).with_gilbert_elliott(0.01, 0.05, 0.0, 0.9));
    tb.build_dumbbell(1);
    let h = tb.add_bulk(0, 1, Some(BYTES), 0);
    tb.run_until(10 * SECOND);
    assert_eq!(tb.acked_bytes(h), BYTES, "must recover from loss bursts");
    let ep = tb.client_endpoint(h);
    assert!(ep.timeouts() > 0, "bursts must force RTOs");
    assert!(ep.retransmitted_segments() > 0);
    let stats = tb.trunk_fault_stats().unwrap();
    assert!(stats.total().random_drops > 0);
    assert_state_agreement(&mut tb, h);
    tb.golden("chaos.gilbert_elliott", &stats);
}

#[test]
fn reordering_triggers_dup_ack_machinery_but_not_data_loss() {
    // Hold ~3% of the sender's egress packets for 200 µs (≈ 160 packet
    // times at 10 GbE) — enough overtaking for triple dup-ACKs at the
    // receiver and spurious fast retransmits at the sender. The vSwitch
    // must see the same dup-ACK signal (§3.1's inferred fast retransmit).
    const BYTES: u64 = 1_000_000;
    let mut tb = Testbed::custom(Scheme::acdc(), 1500);
    tb.set_host_fault(0, FaultPlan::new(0xACDC_0003).with_reorder(0.03, 200_000));
    tb.build_dumbbell(1);
    let h = tb.add_bulk(0, 1, Some(BYTES), 0);
    tb.run_until(3 * SECOND);
    assert_eq!(tb.acked_bytes(h), BYTES);
    let stats = tb.host_fault_stats(0).expect("host link was faulted");
    assert!(stats.a_to_b.reordered > 0, "{stats:?}");
    assert_eq!(stats.total().total_drops(), 0, "reorder loses nothing");
    assert!(
        tb.client_endpoint(h).retransmitted_segments() > 0,
        "reordering must trigger (spurious) retransmits"
    );
    let inferred = tb.host_mut(0).datapath().counters().inferred_fast_rtx.get();
    assert!(
        inferred > 0,
        "vSwitch must infer fast retransmit from dup-ACKs"
    );
    assert_state_agreement(&mut tb, h);
    tb.golden("chaos.reordering", &stats);
}

#[test]
fn duplication_does_not_overcount_delivered_bytes() {
    const BYTES: u64 = 500_000;
    let mut tb = Testbed::custom(Scheme::acdc(), 1500);
    tb.set_trunk_fault(FaultPlan::new(0xACDC_0004).with_duplication(0.05));
    tb.build_dumbbell(1);
    let h = tb.add_bulk(0, 1, Some(BYTES), 0);
    tb.run_until(3 * SECOND);
    assert_eq!(tb.acked_bytes(h), BYTES, "acked exactly, never more");
    let server_delivered = tb.host_mut(h.server_host).endpoint(0).delivered_bytes();
    assert_eq!(
        server_delivered, BYTES,
        "duplicates must not inflate delivery"
    );
    let stats = tb.trunk_fault_stats().unwrap();
    assert!(stats.total().duplicated > 0, "{stats:?}");
    assert_state_agreement(&mut tb, h);
    tb.golden("chaos.duplication", &stats);
}

#[test]
fn corruption_is_dropped_at_the_nic_and_repaired_by_retransmission() {
    const BYTES: u64 = 300_000;

    // One run; returns the flight-recorder dumps so the caller can check
    // seed-replay byte-identity. The trunk's fault tap reports onto the
    // testbed's network hub; the resulting NIC drops land on each host's
    // own hub — together they tell the full story of every corrupted
    // frame: injected on the wire, then dead at a checksum check.
    fn run() -> (String, String, String) {
        let mut tb = Testbed::custom(Scheme::acdc(), 1500);
        tb.set_trunk_fault(FaultPlan::new(0xACDC_0005).with_corruption(0.02));
        tb.build_dumbbell(1);
        let _guard = TraceGuard::new("chaos_corruption")
            .watch("trunk", Arc::clone(tb.telemetry()))
            .watch("host0", Arc::clone(tb.host_mut(0).telemetry()))
            .watch("host1", Arc::clone(tb.host_mut(1).telemetry()));
        let h = tb.add_bulk(0, 1, Some(BYTES), 0);
        tb.run_until(3 * SECOND);
        assert_eq!(tb.acked_bytes(h), BYTES);
        let stats = tb.trunk_fault_stats().unwrap();
        assert!(stats.total().corrupted > 0, "{stats:?}");
        let fcs_drops = tb.host_mut(0).corrupt_drops() + tb.host_mut(1).corrupt_drops();
        assert_eq!(
            fcs_drops,
            stats.total().corrupted,
            "every corrupted frame must die at a NIC checksum check"
        );

        // Event-level attribution: each `fault-injected(corrupt)` event on
        // the trunk must pair with exactly one `drop(corrupt-fcs)` event
        // at a NIC, carrying the *same flow key* — not just equal totals.
        let mut injected: Vec<_> = tb
            .telemetry()
            .recorder()
            .events()
            .into_iter()
            .filter(|e| {
                e.kind
                    == EventKind::FaultInjected {
                        effect: FaultEffect::Corrupt,
                    }
            })
            .map(|e| e.flow)
            .collect();
        let mut dropped: Vec<_> = (0..2)
            .flat_map(|i| tb.host_mut(i).telemetry().recorder().events())
            .filter(|e| {
                e.kind
                    == EventKind::PacketDropped {
                        cause: DropCause::CorruptFcs,
                    }
            })
            .map(|e| e.flow)
            .collect();
        assert_eq!(injected.len() as u64, stats.total().corrupted);
        injected.sort();
        dropped.sort();
        assert_eq!(
            injected, dropped,
            "every injected corruption must surface as a NIC drop on the same flow"
        );
        for flow in &dropped {
            assert!(
                *flow == h.key || *flow == h.key.reverse(),
                "drops must belong to the one flow under test, got {flow:?}"
            );
        }

        assert_state_agreement(&mut tb, h);
        tb.golden("chaos.corruption", &stats);
        let trunk = tb.telemetry().recorder().dump_jsonl();
        let host0 = tb.host_mut(0).telemetry().recorder().dump_jsonl();
        let host1 = tb.host_mut(1).telemetry().recorder().dump_jsonl();
        (trunk, host0, host1)
    }

    let a = run();
    let b = run();
    assert_eq!(
        a, b,
        "same plan + seed must replay a byte-identical event history"
    );
    // Every dumped line is one JSON event object.
    for dump in [&a.0, &a.1, &a.2] {
        assert!(!dump.is_empty());
        for line in dump.lines() {
            let event = Json::parse(line).unwrap_or_else(|e| panic!("{e}: {line}"));
            event.field("kind").and_then(Json::str_).expect(line);
        }
    }
}

#[test]
fn link_flap_outage_recovers_via_rto() {
    // Trunk dies for 60 ms starting at 2 ms — mid-transfer, since 5 MB
    // needs ~4.3 ms at line rate. Recovery takes several RTO doublings
    // (min RTO 10 ms: probes at ~12, 32, 72 ms; the last lands after the
    // link is back), then the flow must pick up where it left off.
    const BYTES: u64 = 5_000_000;
    let mut tb = Testbed::custom(Scheme::acdc(), 1500);
    tb.set_trunk_fault(FaultPlan::new(0xACDC_0006).with_flap(2 * MILLISECOND, 62 * MILLISECOND));
    tb.build_dumbbell(1);
    let h = tb.add_bulk(0, 1, Some(BYTES), 0);
    tb.run_until(3 * SECOND);
    assert_eq!(tb.acked_bytes(h), BYTES, "must survive the outage");
    let ep = tb.client_endpoint(h);
    assert!(
        ep.timeouts() > 0,
        "a 60 ms outage must cost at least one RTO"
    );
    let stats = tb.trunk_fault_stats().unwrap();
    assert!(stats.total().flap_drops > 0, "{stats:?}");
    assert_state_agreement(&mut tb, h);
    tb.golden("chaos.link_flap", &stats);
}

#[test]
fn lost_facks_do_not_wedge_ecn_feedback() {
    // FACKs are only generated when a PACK cannot piggyback on the ACK,
    // i.e. when ACKs ride full-MTU data packets — so run *bidirectional*
    // bounded bulk on each connection. 1% random loss in both trunk
    // directions then eats some of those FACKs; the feedback loop must
    // keep flowing (PACKs keep arriving) and every transfer must still
    // complete.
    const BYTES: u64 = 300_000;
    let mut tb = Testbed::custom(Scheme::acdc(), 1500);
    // Low marking threshold (10 packets) so the loss-limited flows still
    // push the trunk queue into the marking region.
    tb.set_mark_threshold(15_000);
    tb.set_trunk_fault(FaultPlan::new(0xACDC_0007).with_iid_loss(0.01));
    tb.build_dumbbell(3);
    let flows: Vec<FlowHandle> = (0..3)
        .map(|i| {
            tb.add_flow(
                i,
                3 + i,
                Some(Box::new(BulkSender::new(BYTES, FctKind::Background))),
                Some(Box::new(BulkSender::new(BYTES, FctKind::Background))),
                0,
                Default::default(),
            )
        })
        .collect();
    tb.run_until(5 * SECOND);
    for &h in &flows {
        assert_eq!(tb.acked_bytes(h), BYTES, "{h:?}");
    }
    let mut facks = 0;
    let mut packs = 0;
    for host in 0..6 {
        let reg = tb.host_mut(host).telemetry().registry();
        facks += reg.value("acdc.facks_sent").unwrap();
        packs += reg.value("acdc.packs_received").unwrap();
    }
    assert!(facks > 0, "congestion must generate ECN feedback");
    assert!(packs > 0, "feedback must keep arriving despite lost FACKs");
    for &h in &flows {
        assert_state_agreement(&mut tb, h);
    }
    tb.golden("chaos.lost_facks", &(facks, packs));
}

/// The mixed-fault plan replayed: the same seed must give the same
/// simulation (fault tallies, acked bytes, retransmits, engine events)
/// and the same client-host vSwitch record — its `acdc-telemetry/v2`
/// snapshot and its flight recorder's events in order — with the
/// vSwitch's reconstructed sequence state equal to the endpoint's.
#[test]
fn same_seed_chaos_runs_are_byte_identical() {
    const BYTES: u64 = 400_000;
    fn run() -> (acdc_faults::LinkFaultStats, u64, u64, u64, String, String) {
        let mut tb = Testbed::custom(Scheme::acdc(), 1500);
        tb.set_trunk_fault(
            FaultPlan::new(0xACDC_0008)
                .with_iid_loss(0.01)
                .with_reorder(0.02, 100_000)
                .with_duplication(0.01)
                .with_corruption(0.01)
                .with_jitter(20_000),
        );
        tb.build_dumbbell(1);
        let h = tb.add_bulk(0, 1, Some(BYTES), 0);
        tb.run_until(5 * SECOND);
        let stats = tb.trunk_fault_stats().unwrap();
        let acked = tb.acked_bytes(h);
        let rtx = tb.client_endpoint(h).retransmitted_segments();
        let events = tb.net.events_processed();
        assert_state_agreement(&mut tb, h);
        let hub = tb.host_mut(h.client_host).telemetry();
        let (snapshot, dump) = (hub.snapshot_json(0), hub.recorder().dump_jsonl());
        tb.golden("chaos.mixed_replay", &(stats, acked, rtx));
        (stats, acked, rtx, events, snapshot, dump)
    }
    let a = run();
    let b = run();
    assert_eq!(a, b, "same seed + same plan must replay identically");
    assert_eq!(a.1, BYTES, "and the transfer must complete");
    assert_ne!(a.0, acdc_faults::LinkFaultStats::default());
}
