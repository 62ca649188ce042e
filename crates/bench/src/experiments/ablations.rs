//! Ablations of AC/DC's design choices (beyond the paper's figures):
//!
//! 1. **window floor** — the paper credits AC/DC's incast RTT advantage to
//!    its *byte-granular* enforced window, which can fall below the Linux
//!    DCTCP 2-packet minimum (§5.2 / Figure 19 discussion). We re-run the
//!    47-sender incast with the floor forced to `2 × MSS` and watch the
//!    advantage disappear.
//! 2. **marking threshold K** — the latency/throughput knob shared with
//!    DCTCP: sweep `K` on the dumbbell and report both sides of the
//!    trade-off.
//! 3. **FACKs** — disable the dedicated feedback packet so feedback that
//!    cannot piggyback is lost; bidirectional full-MTU traffic then
//!    starves the congestion signal on one direction (§3.2's motivation
//!    for FACKs).
//! 4. **random loss** — sweep i.i.d. trunk loss (via `acdc-faults`) on
//!    the dumbbell and report how goodput degrades and how much of the
//!    repair work the vSwitch's reconstructed state sees (§3.1): guest
//!    retransmissions vs. vSwitch-inferred fast retransmits/timeouts.

use acdc_core::{Scheme, Testbed};
use acdc_faults::FaultPlan;
use acdc_stats::time::{MILLISECOND, SECOND};

use super::common::{mbps, mean, pctl, Opts, Report};

/// Incast RTT with the default byte floor vs a 2-MSS floor.
fn floor_ablation(rep: &mut Report, dur: u64) {
    rep.line("(1) enforced-window floor at 47-to-1 incast, 9 KB MTU:");
    rep.line("    floor            p50 RTT(ms)   p99.9 RTT(ms)   avg tput(Mbps)");
    for (label, floor) in [
        ("byte-granular", None),
        ("2 × MSS (DCTCP-like)", Some(2 * 8960u32)),
    ] {
        let mut tb = Testbed::custom(Scheme::acdc(), 9000);
        if let Some(f) = floor {
            tb.acdc.min_window_bytes = Some(f);
        }
        tb.build_star(49);
        let n = 47;
        let flows: Vec<_> = (0..n).map(|s| tb.add_bulk(s, n, None, 0)).collect();
        let probe = tb.add_pingpong(n + 1, n, 64, MILLISECOND, 0);
        let avg = mean(&mbps(tb.goodput_gbps(&flows, dur / 4, dur)));
        let mut rtt = tb.probe_rtt_ms(probe);
        rep.line(format!(
            "    {label:<18} {:>10.3} {:>14.3} {:>15.0}",
            pctl(&mut rtt, 50.0),
            pctl(&mut rtt, 99.9),
            avg
        ));
    }
    rep.line("    → the byte floor is what buys AC/DC its sub-DCTCP incast RTT");
}

/// Marking-threshold sweep on the dumbbell.
fn k_ablation(rep: &mut Report, dur: u64) {
    rep.line("(2) WRED/ECN threshold K on the 5-flow dumbbell (AC/DC, 9 KB MTU):");
    rep.line("    K(KB)   p50 RTT(µs)   mean tput(Gbps)");
    for k in [15_000u64, 30_000, 60_000, 90_000, 180_000, 360_000] {
        let mut tb = Testbed::custom(Scheme::acdc(), 9000);
        tb.set_mark_threshold(k);
        tb.build_dumbbell(6);
        let flows: Vec<_> = (0..5).map(|i| tb.add_bulk(i, 6 + i, None, 0)).collect();
        let probe = tb.add_pingpong(5, 11, 64, MILLISECOND / 2, 0);
        let gbps = mean(&tb.goodput_gbps(&flows, dur / 4, dur));
        let mut rtt = tb.probe_rtt_ms(probe);
        rep.line(format!(
            "    {:>5}   {:>11.0}   {:>15.2}",
            k / 1000,
            pctl(&mut rtt, 50.0) * 1000.0,
            gbps
        ));
    }
    rep.line("    → the DCTCP trade-off: small K = low RTT but (eventually) lost throughput");
}

/// FACK ablation on bidirectional full-MTU traffic.
fn fack_ablation(rep: &mut Report, dur: u64) {
    rep.line("(3) FACK generation under bidirectional bulk (full-MTU data+ACK packets):");
    rep.line("    facks      p50 RTT(ms)   facks_sent   feedback_dropped");
    for disable in [false, true] {
        let mut tb = Testbed::custom(Scheme::acdc(), 1500);
        tb.acdc.disable_fack = disable;
        tb.build_dumbbell(3);
        // Bidirectional *single connections*: both endpoints send bulk, so
        // every ACK rides a full-MTU data packet and PACKs cannot
        // piggyback — feedback must take FACKs.
        let mut flows = Vec::new();
        for i in 0..2 {
            let h = tb.add_flow(
                i,
                3 + i,
                Some(Box::new(acdc_workloads::BulkSender::unlimited())),
                Some(Box::new(acdc_workloads::BulkSender::unlimited())),
                0,
                Default::default(),
            );
            flows.push(h);
        }
        let probe = tb.add_pingpong(2, 5, 64, MILLISECOND, 0);
        tb.run_until(dur);
        let mut rtt = tb.probe_rtt_ms(probe);
        let (mut facks, mut dropped) = (0u64, 0u64);
        for i in 0..tb.host_count() {
            let reg = tb.host_mut(i).telemetry().registry();
            facks += reg.value("acdc.facks_sent").unwrap();
            dropped += reg.value("acdc.feedback_dropped").unwrap();
        }
        rep.line(format!(
            "    {:<8} {:>12.3} {:>12} {:>18}",
            if disable { "off" } else { "on" },
            pctl(&mut rtt, 50.0),
            facks,
            dropped
        ));
    }
    rep.line("    → without FACKs, lost feedback weakens the vSwitch's congestion signal");
}

/// Loss sweep: goodput + repair accounting under i.i.d. trunk loss.
fn loss_ablation(rep: &mut Report, dur: u64) {
    rep.line("(4) i.i.d. trunk loss sweep on the 3-flow dumbbell (AC/DC, 1500 B MTU):");
    rep.line("    loss(%)   mean goodput(Gbps)   guest rtx   inferred fast-rtx   inferred RTO");
    for p in [0.0f64, 0.001, 0.005, 0.01, 0.02, 0.05] {
        let mut tb = Testbed::custom(Scheme::acdc(), 1500);
        if p > 0.0 {
            tb.set_trunk_fault(FaultPlan::new(0xACDC_BE4C).with_iid_loss(p));
        }
        tb.build_dumbbell(3);
        let flows: Vec<_> = (0..3).map(|i| tb.add_bulk(i, 3 + i, None, 0)).collect();
        let gbps = mean(&tb.goodput_gbps(&flows, dur / 4, dur));
        let rtx: u64 = flows
            .iter()
            .map(|&h| tb.client_endpoint(h).retransmitted_segments())
            .sum();
        let (mut fast, mut rto) = (0u64, 0u64);
        for i in 0..tb.host_count() {
            let reg = tb.host_mut(i).telemetry().registry();
            fast += reg.value("acdc.inferred_fast_rtx").unwrap();
            rto += reg.value("acdc.inferred_timeouts").unwrap();
        }
        rep.line(format!(
            "    {:>7.1}   {:>18.2} {:>11} {:>19} {:>14}",
            p * 100.0,
            gbps,
            rtx,
            fast,
            rto
        ));
    }
    rep.line("    → the vSwitch keeps seeing the guest's repairs as loss climbs — §3.1's");
    rep.line("      reconstruction stays live exactly when congestion state matters most");
}

/// Run all ablations.
pub fn run(opts: &Opts) -> Report {
    let mut rep = Report::new(
        "ablations",
        "design-choice ablations (floor, K, FACK, loss)",
    );
    let dur = opts.dur(4 * SECOND, 400 * MILLISECOND);
    floor_ablation(&mut rep, dur);
    k_ablation(&mut rep, dur);
    fack_ablation(&mut rep, dur);
    loss_ablation(&mut rep, dur);
    rep
}
