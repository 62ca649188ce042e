//! Cross-crate integration tests: the paper's core claims, asserted on
//! real simulation runs (packet bytes through vSwitch datapaths, switches
//! and TCP endpoints).

use acdc_cc::CcKind;
use acdc_core::{ConnTaps, Scheme, Testbed};
use acdc_stats::time::{MILLISECOND, SECOND};

/// AC/DC makes a CUBIC guest behave like DCTCP: same throughput class,
/// same (low) queueing latency class.
#[test]
fn acdc_tracks_dctcp_latency_and_throughput() {
    let mut results = Vec::new();
    for scheme in Testbed::compared_schemes() {
        let mut tb = Testbed::dumbbell(3, scheme, 9000);
        let flows: Vec<_> = (0..2).map(|i| tb.add_bulk(i, 3 + i, None, 0)).collect();
        let probe = tb.add_pingpong(2, 5, 64, MILLISECOND, 0);
        let tput: f64 = tb.goodput_gbps(&flows, 0, 400 * MILLISECOND).iter().sum();
        results.push((tput, tb.probe_rtt_ms(probe).median().unwrap()));
    }
    let (cubic_tput, cubic_rtt) = results[0];
    let (dctcp_tput, dctcp_rtt) = results[1];
    let (acdc_tput, acdc_rtt) = results[2];

    // All schemes saturate the trunk.
    for (t, _) in &results {
        assert!(*t > 8.0, "trunk should be ~saturated, got {t:.2}");
    }
    // CUBIC fills the buffer: its probe RTT is at least 10x DCTCP's.
    assert!(
        cubic_rtt > 10.0 * dctcp_rtt,
        "CUBIC {cubic_rtt:.3} ms vs DCTCP {dctcp_rtt:.3} ms"
    );
    // AC/DC tracks DCTCP latency within 2x (both are ~100 µs class).
    assert!(
        acdc_rtt < 2.0 * dctcp_rtt,
        "AC/DC {acdc_rtt:.3} ms vs DCTCP {dctcp_rtt:.3} ms"
    );
    let _ = (cubic_tput, dctcp_tput, acdc_tput);
}

/// The receive-window rewrite is visible to the guest: under AC/DC, the
/// peer window the guest sees is the DCTCP window, far below what the
/// receiver actually advertised.
#[test]
fn enforced_window_reaches_the_guest() {
    // Two flows share the trunk so ECN marks keep the enforced window
    // small (on an uncongested path AC/DC lets the flow run free).
    let mut tb = Testbed::dumbbell(2, Scheme::acdc(), 1500);
    let h = tb.add_bulk(0, 2, None, 0);
    let _competing = tb.add_bulk(1, 3, None, 0);
    tb.run_until(100 * MILLISECOND);
    let ep = tb.client_endpoint(h);
    let advertised = 4 * 1024 * 1024; // the receiver's rcv_buf
    assert!(
        ep.peer_rwnd() < advertised / 4,
        "guest should see the enforced window, saw {} B",
        ep.peer_rwnd()
    );
    let rewrites = tb.host_mut(0).datapath().counters().rwnd_rewrites.get();
    assert!(rewrites > 100, "rewrites = {rewrites}");
}

/// Policing (§3.3): a stack that ignores RWND gets its excess dropped at
/// the vSwitch and gains nothing.
#[test]
fn policing_contains_nonconforming_stack() {
    // Conforming guest for reference.
    let mut tb = Testbed::custom(Scheme::acdc(), 1500);
    tb.acdc.police_slack_bytes = Some(16 * 1448);
    tb.build_dumbbell(1);
    let good = tb.add_bulk(0, 1, None, 0);
    tb.run_until(100 * MILLISECOND);
    let good_bytes = tb.acked_bytes(good);
    let policed_good = tb.host_mut(0).datapath().counters().policed_drops.get();
    assert_eq!(policed_good, 0, "conforming flow must not be policed");

    // Non-conforming guest on a *congested* trunk: ECN marks keep the
    // enforced window small while the rogue stack keeps pushing.
    let mut tb = Testbed::custom(Scheme::acdc(), 1500);
    tb.acdc.police_slack_bytes = Some(16 * 1448);
    tb.build_dumbbell(2);
    let _competing = tb.add_bulk(0, 2, None, 0);
    // Low-level construction for the rogue flow (host 1 → host 3).
    let mut cfg = tb
        .scheme
        .tcp_config(tb.ip_of(1), 41_000, tb.ip_of(3), 5_001, 1500, 424_242);
    cfg.ignore_peer_rwnd = true;
    let scfg = tb
        .scheme
        .tcp_config(tb.ip_of(3), 5_001, tb.ip_of(1), 41_000, 1500, 212_121);
    tb.host_mut(1).add_connection(
        cfg,
        true,
        Some(0),
        Some(Box::new(acdc_workloads::BulkSender::unlimited())),
        ConnTaps::default(),
    );
    tb.host_mut(3)
        .add_connection(scfg, false, None, None, ConnTaps::default());
    tb.kick_host(1, 0);
    tb.run_until(200 * MILLISECOND);
    let policed = tb.host_mut(1).datapath().counters().policed_drops.get();
    assert!(policed > 0, "rogue flow must be policed");
    let _ = good_bytes;
}

/// Mixed guest stacks are unfair on plain OVS and fair under AC/DC.
#[test]
fn acdc_restores_fairness_across_stacks() {
    let stacks = [
        CcKind::Illinois,
        CcKind::Cubic,
        CcKind::Reno,
        CcKind::Vegas,
        CcKind::HighSpeed,
    ];
    let mut jains = Vec::new();
    for scheme in [
        Scheme::Plain {
            host_cc: CcKind::Cubic,
            ecn: false,
        },
        Scheme::acdc(),
    ] {
        let mut tb = Testbed::dumbbell(5, scheme, 9000);
        let flows: Vec<_> = stacks
            .iter()
            .enumerate()
            .map(|(i, &cc)| {
                tb.add_bulk_with_cc(
                    i,
                    5 + i,
                    cc,
                    false,
                    None,
                    i as u64 * 100_000,
                    ConnTaps::default(),
                    None,
                )
            })
            .collect();
        let tputs = tb.goodput_gbps(&flows, 100 * MILLISECOND, 500 * MILLISECOND);
        jains.push(acdc_stats::jain_index(&tputs).unwrap());
    }
    assert!(
        jains[0] < 0.85,
        "plain OVS should be unfair: {:.3}",
        jains[0]
    );
    assert!(jains[1] > 0.95, "AC/DC should be fair: {:.3}", jains[1]);
}

/// The ECN coexistence pathology (Figure 15) and AC/DC's fix.
#[test]
fn ecn_coexistence_fixed_by_acdc() {
    let share = |acdc: bool| {
        let scheme = if acdc { Scheme::acdc() } else { Scheme::Dctcp };
        let mut tb = Testbed::dumbbell(2, scheme, 9000);
        let cubic = tb.add_bulk_with_cc(
            0,
            2,
            CcKind::Cubic,
            false,
            None,
            0,
            ConnTaps::default(),
            None,
        );
        let dctcp = tb.add_bulk_with_cc(
            1,
            3,
            CcKind::Dctcp,
            true,
            None,
            0,
            ConnTaps::default(),
            None,
        );
        let g = tb.goodput_gbps(&[cubic, dctcp], 100 * MILLISECOND, 500 * MILLISECOND);
        g[0] / (g[0] + g[1])
    };
    let without = share(false);
    let with = share(true);
    assert!(
        without < 0.10,
        "CUBIC should starve without AC/DC: {without:.3}"
    );
    assert!(
        (0.35..=0.65).contains(&with),
        "CUBIC should get ~half under AC/DC: {with:.3}"
    );
}

/// Simulations are bit-for-bit deterministic.
#[test]
fn whole_stack_determinism() {
    fn run() -> Vec<u64> {
        let mut tb = Testbed::star(6, Scheme::acdc(), 1500);
        let flows: Vec<_> = (0..4)
            .map(|i| tb.add_bulk(i, 4, None, i as u64 * 10_000))
            .collect();
        let _probe = tb.add_pingpong(5, 4, 64, MILLISECOND, 0);
        tb.run_until(200 * MILLISECOND);
        flows.iter().map(|&h| tb.acked_bytes(h)).collect()
    }
    assert_eq!(run(), run());
}

/// Everything still holds at the small MTU.
#[test]
fn mtu_1500_end_to_end() {
    let mut tb = Testbed::dumbbell(2, Scheme::acdc(), 1500);
    let a = tb.add_bulk(0, 2, Some(10_000_000), 0);
    let b = tb.add_bulk(1, 3, Some(10_000_000), 0);
    tb.run_until(SECOND);
    assert_eq!(tb.acked_bytes(a), 10_000_000);
    assert_eq!(tb.acked_bytes(b), 10_000_000);
}
