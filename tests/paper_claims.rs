//! Fast regression guards on the paper's headline *comparative* claims,
//! at reduced scale so they run inside the normal test suite. The full
//! versions live behind `repro <id>`.

use acdc_core::{Scheme, Testbed};
use acdc_stats::time::MILLISECOND;
use acdc_workloads::apps::BulkSender;

fn incast_p50_rtt_ms(scheme: Scheme, floor_2mss: bool) -> f64 {
    let n = 12; // scaled-down fan-in
    let mut tb = Testbed::custom(scheme, 9000);
    if floor_2mss {
        tb.acdc.min_window_bytes = Some(2 * 8960);
    }
    tb.build_star(n + 2);
    let _flows: Vec<_> = (0..n).map(|s| tb.add_bulk(s, n, None, 0)).collect();
    let probe = tb.add_pingpong(n + 1, n, 64, MILLISECOND, 0);
    tb.run_until(250 * MILLISECOND);
    tb.probe_rtt_ms(probe).median().expect("probe samples")
}

/// Figure 19's ordering: AC/DC < DCTCP < CUBIC on incast RTT, with the
/// gap between AC/DC and DCTCP explained by the window floor.
#[test]
fn incast_rtt_ordering_and_floor_mechanism() {
    let cubic = incast_p50_rtt_ms(Scheme::Cubic, false);
    let dctcp = incast_p50_rtt_ms(Scheme::Dctcp, false);
    let acdc = incast_p50_rtt_ms(Scheme::acdc(), false);
    let acdc_2mss = incast_p50_rtt_ms(Scheme::acdc(), true);

    assert!(
        cubic > 5.0 * dctcp,
        "CUBIC ({cubic:.3} ms) must dwarf DCTCP ({dctcp:.3} ms)"
    );
    assert!(
        acdc < dctcp,
        "AC/DC ({acdc:.3} ms) must beat DCTCP ({dctcp:.3} ms) at this fan-in"
    );
    // The ablation: forcing DCTCP's 2-packet floor costs a measurable
    // share of the advantage even at this reduced fan-in (at 47 senders
    // the ratio is ~2.6×; see `repro ablations`).
    assert!(
        acdc_2mss > 1.25 * acdc,
        "2-MSS floor ({acdc_2mss:.3} ms) must cost latency vs byte floor ({acdc:.3} ms)"
    );
}

/// Equation 1: higher β must never earn less bandwidth (Figure 13).
#[test]
fn priority_betas_order_throughput() {
    use acdc_cc::CcKind;
    use acdc_vswitch::CcPolicy;
    use std::sync::Arc;

    let betas = [1.0f64, 0.5, 0.25];
    let mut tb = Testbed::custom(Scheme::acdc(), 9000);
    tb.acdc.policy = CcPolicy::Custom(Arc::new(move |key| {
        let idx = (key.src_ip[3] as usize).saturating_sub(1);
        CcKind::DctcpPriority(*[1.0f64, 0.5, 0.25].get(idx).unwrap_or(&1.0))
    }));
    tb.build_dumbbell(3);
    let flows: Vec<_> = (0..3).map(|i| tb.add_bulk(i, 3 + i, None, 0)).collect();
    let tputs = tb.goodput_gbps(&flows, 100 * MILLISECOND, 400 * MILLISECOND);
    assert!(
        tputs[0] > tputs[1] && tputs[1] > tputs[2],
        "β {betas:?} must order throughputs, got {tputs:?}"
    );
    assert!(
        tputs[0] > 1.3 * tputs[2],
        "the spread must be material: {tputs:?}"
    );
}

/// Figure 9's core claim at test scale: in log-only mode the vSwitch's
/// computed window tracks a native DCTCP guest's CWND closely.
#[test]
fn computed_window_tracks_native_dctcp() {
    use acdc_cc::CcKind;
    use acdc_core::ConnTaps;

    let mut tb = Testbed::custom(Scheme::acdc_with_host(CcKind::Dctcp), 1500);
    tb.acdc.log_only = true;
    tb.acdc.trace_windows = true;
    tb.build_dumbbell(2);
    let taps = ConnTaps { trace_cwnd: true };
    let h = tb.add_flow(0, 2, Some(Box::new(BulkSender::unlimited())), None, 0, taps);
    let _other = tb.add_bulk(1, 3, None, 0);
    tb.run_until(300 * MILLISECOND);

    let (_, trace) = tb.window_trace(h);
    assert!(trace.len() > 100, "enough samples: {}", trace.len());
    let mut errs = acdc_stats::Distribution::new();
    errs.extend(trace.iter().skip(20).filter_map(|s| s.relative_error()));
    let p50 = errs.median().unwrap();
    assert!(
        p50 < 0.15,
        "median relative window error {p50:.3} must stay under 15%"
    );
}
