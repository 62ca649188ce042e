//! Overload chaos suite: the vSwitch under resource exhaustion and state
//! loss. The bounded flow table must never exceed its capacity, unadmitted
//! or orphaned flows must still complete (pass-through / log-only — the
//! guest's own congestion control always runs, §3.3's fail-safe), and all
//! of it must replay byte-identically under the same seed.

use acdc_core::{FlowHandle, Scheme, Testbed};
use acdc_faults::{FaultPlan, LinkFaultStats};
use acdc_stats::time::{MICROSECOND, MILLISECOND, SECOND};
use acdc_vswitch::{AdmissionPolicy, HealthState};

type Snap = Vec<acdc_telemetry::MetricValue>;

/// The datapath counter `acdc.<name>` out of a host's registry snapshot.
fn get(snap: &Snap, name: &str) -> u64 {
    let name = format!("acdc.{name}");
    snap.iter().find(|m| m.name == name).unwrap().value
}

/// SYN-flood the dumbbell: 1024 offered flows against 256-entry tables
/// with reject-new admission. Each sender host carries 256 connections
/// (two flow entries apiece, §4), so every datapath is offered ~2× its
/// capacity. Checkpoints assert no table ever exceeds capacity; the
/// deterministic state is returned for replay comparison.
fn run_syn_flood() -> (Vec<Snap>, LinkFaultStats, u64, u64) {
    const BYTES: u64 = 10_000;
    const FLOWS: usize = 1024; // 4× the table capacity in connections
    const CAP: usize = 256;
    const PAIRS: usize = 4;
    let mut tb = Testbed::custom(Scheme::acdc(), 1500);
    tb.acdc.max_flows = Some(CAP);
    tb.acdc.admission = AdmissionPolicy::RejectNew;
    tb.set_trunk_fault(FaultPlan::new(0xACDC_0401).with_iid_loss(0.001));
    tb.build_dumbbell(PAIRS);
    let flows: Vec<FlowHandle> = (0..FLOWS)
        .map(|i| {
            let pair = i % PAIRS;
            tb.add_bulk(
                pair,
                PAIRS + pair,
                Some(BYTES),
                (i as u64) * 25 * MICROSECOND,
            )
        })
        .collect();
    let mut t = 200 * MILLISECOND;
    while t <= 3 * SECOND {
        tb.run_until(t);
        for host in 0..2 * PAIRS {
            let n = tb.host_mut(host).datapath().flows();
            assert!(n <= CAP, "host {host} table at {n} > cap {CAP} (t={t})");
        }
        t += 200 * MILLISECOND;
    }
    // Every transfer completes: the admitted ones under (briefly)
    // enforced CC, the rejected ones untouched in pass-through.
    for &h in &flows {
        assert_eq!(tb.acked_bytes(h), BYTES, "{h:?} did not complete");
    }
    let snaps: Vec<Snap> = (0..2 * PAIRS)
        .map(|host| tb.host_mut(host).telemetry().registry().snapshot_all())
        .collect();
    let stats = tb.trunk_fault_stats().unwrap();
    let events = tb.net.events_processed();
    let total: u64 = flows.iter().map(|&h| tb.acked_bytes(h)).sum();
    tb.golden("overload.syn_flood", &(stats, total));
    (snaps, stats, events, total)
}

#[test]
fn syn_flood_exhaustion_stays_bounded_and_replays_identically() {
    let a = run_syn_flood();
    let b = run_syn_flood();

    for sender in &a.0[..4] {
        // 256 connections offered vs 256 entry slots: most handshakes
        // were turned away…
        assert!(get(sender, "admission_rejects") > 0, "{sender:?}");
        // …walking the ladder Enforcing → LogOnly (occupancy watermark)
        // → PassThrough (first reject), with the overload visible in
        // traffic.
        assert_eq!(get(sender, "health_demotions"), 2, "{sender:?}");
        assert!(get(sender, "overload_passthrough") > 0, "{sender:?}");
        // The capacity gate refused flows rather than evicting under
        // reject-new.
        assert_eq!(get(sender, "capacity_evictions"), 0);
    }
    assert_ne!(a.1, LinkFaultStats::default(), "loss must actually occur");

    // Same seed ⇒ byte-identical counters, fault stats and event count.
    assert_eq!(a, b, "same-seed overload runs must replay identically");
}

#[test]
fn flow_churn_under_tight_capacity_evicts_but_all_complete() {
    const BYTES: u64 = 20_000;
    const FLOWS: usize = 96;
    const CAP: usize = 32;
    let mut tb = Testbed::custom(Scheme::acdc(), 1500);
    tb.acdc.max_flows = Some(CAP);
    tb.acdc.admission = AdmissionPolicy::EvictOldestIdle;
    tb.build_dumbbell(1);
    let flows: Vec<FlowHandle> = (0..FLOWS)
        .map(|i| tb.add_bulk(0, 1, Some(BYTES), (i as u64) * 3 * MILLISECOND))
        .collect();
    let mut t = 20 * MILLISECOND;
    while t <= SECOND {
        tb.run_until(t);
        for host in 0..2 {
            let n = tb.host_mut(host).datapath().flows();
            assert!(n <= CAP, "host {host} table at {n} > cap {CAP} (t={t})");
        }
        t += 20 * MILLISECOND;
    }
    for &h in &flows {
        assert_eq!(tb.acked_bytes(h), BYTES, "{h:?} did not complete");
    }
    let c0 = tb.host_mut(0).telemetry().registry().snapshot_all();
    // 96 connections demand ~192 entries; room for 32 — older idle
    // entries must have been evicted to admit the newcomers, without a
    // single admission failing.
    assert!(get(&c0, "capacity_evictions") > 0, "{c0:?}");
    assert_eq!(get(&c0, "admission_rejects"), 0, "{c0:?}");
    // Eviction keeps admitting, so the ladder never falls to
    // pass-through.
    let health = tb.host_mut(0).datapath().health();
    assert_ne!(health, HealthState::PassThrough);
    tb.golden("overload.flow_churn", &health);
}

/// Reset the sender-side datapath mid-transfer. The orphaned flow is
/// re-adopted from data packets but never again enforced (its window
/// scale died with the old state); a fresh post-reset connection whose
/// handshake the reborn datapath observes is enforced normally.
fn run_reset() -> (Snap, Snap, LinkFaultStats, u64, u64) {
    const BYTES: u64 = 5_000_000;
    const BYTES2: u64 = 200_000;
    let mut tb = Testbed::custom(Scheme::acdc(), 1500);
    tb.set_trunk_fault(FaultPlan::new(0xACDC_0402).with_iid_loss(0.005));
    tb.build_dumbbell(1);
    let h = tb.add_bulk(0, 1, Some(BYTES), 0);
    let h2 = tb.add_bulk(0, 1, Some(BYTES2), 3 * MILLISECOND);
    tb.run_until(2 * MILLISECOND);
    let mid = tb.acked_bytes(h);
    assert!(
        mid > 0 && mid < BYTES,
        "reset must land mid-transfer (acked {mid})"
    );
    let dropped = tb.host_mut(0).datapath().reset(2 * MILLISECOND);
    assert!(dropped >= 2, "restart must discard live entries");
    assert_eq!(tb.host_mut(0).datapath().flows(), 0);

    tb.run_until(5 * SECOND);
    assert_eq!(tb.acked_bytes(h), BYTES, "transfer must survive the reset");
    assert_eq!(tb.acked_bytes(h2), BYTES2);

    // The orphaned flow was re-adopted…
    let c0 = tb.host_mut(0).telemetry().registry().snapshot_all();
    assert_eq!(get(&c0, "datapath_resets"), 1);
    {
        let dp = tb.host_mut(0).datapath();
        let learned = |key| dp.table().with_entry(key, |e| e.rwnd().learned());
        assert!(
            !learned(&h.key).expect("flow re-adopted"),
            "adopted entry must not claim a learned scale"
        );
        assert!(
            learned(&h2.key).expect("post-reset flow tracked"),
            "handshake observed → scale learned"
        );
        // The restart epoch is on the health trace.
        let trace = dp.health_trace();
        assert_eq!(
            trace.first(),
            Some(&(2 * MILLISECOND, HealthState::Enforcing))
        );
    }
    // …its ACKs were left alone (counter-verified: every would-be rewrite
    // on the unlearned scale was skipped instead)…
    assert!(get(&c0, "unscaled_rwnd_skips") > 0, "{c0:?}");
    // …while the post-reset handshake flow is enforced again.
    assert!(get(&c0, "rwnd_rewrites") > 0, "{c0:?}");

    // The adopted entry's reconstructed sequence state reconverges to the
    // endpoint's ground truth by quiescence.
    let ep_view = tb.client_endpoint(h).seq_view();
    let sw_view = tb
        .host_mut(0)
        .datapath()
        .seq_view(&h.key)
        .expect("adopted flow tracked");
    assert_eq!(sw_view, ep_view, "adopted send pointers must reconverge");

    let c1 = tb.host_mut(1).telemetry().registry().snapshot_all();
    let stats = tb.trunk_fault_stats().unwrap();
    let events = tb.net.events_processed();
    let acked = tb.acked_bytes(h) + tb.acked_bytes(h2);
    tb.golden("overload.reset", &(stats, acked));
    (c0, c1, stats, acked, events)
}

#[test]
fn datapath_reset_mid_transfer_readopts_and_replays_identically() {
    let a = run_reset();
    let b = run_reset();
    assert_ne!(a.2, LinkFaultStats::default(), "loss must actually occur");
    assert_eq!(a, b, "same-seed reset runs must replay identically");
}
