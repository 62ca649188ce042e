//! **Figure 16** — the non-ECN flow's RTT in the coexistence scenario:
//! without AC/DC its packets are dropped at the marking threshold, so the
//! application sees RTO-sized latencies; AC/DC makes it ECN-capable at
//! the vSwitch and the tail collapses.

use acdc_cc::CcKind;
use acdc_core::{Scheme, Testbed};
use acdc_stats::time::MILLISECOND;

use super::common::{pctl, Opts, Report, SEC};
use super::fig02::cdf_points;

fn probe_rtts(acdc: bool, dur: u64) -> (acdc_stats::Distribution, u64) {
    let scheme = if acdc { Scheme::acdc() } else { Scheme::Dctcp };
    // Pairs: 0/3 = DCTCP elephant, 1/4 = CUBIC elephant, 2/5 = CUBIC probe.
    let mut tb = Testbed::dumbbell(3, scheme, 9000);
    let _d = tb.add_bulk_with_cc(0, 3, CcKind::Dctcp, true, None, 0, Default::default(), None);
    let _c = tb.add_bulk_with_cc(
        1,
        4,
        CcKind::Cubic,
        false,
        None,
        0,
        Default::default(),
        None,
    );
    // The probe is a non-ECN CUBIC connection: its pings suffer the WRED
    // drops of case (a).
    let probe = tb.add_pingpong_with_cc(2, 5, CcKind::Cubic, false, 64, MILLISECOND, 0);
    tb.run_until(dur);
    let retx = tb.client_endpoint(probe).retransmitted_segments();
    (tb.probe_rtt_ms(probe), retx)
}

/// Run the experiment.
pub fn run(opts: &Opts) -> Report {
    let mut rep = Report::new(
        "fig16",
        "CUBIC (non-ECN) RTT when competing with DCTCP, with and without AC/DC",
    );
    let dur = opts.dur(20 * SEC, 2 * SEC);
    for (label, acdc) in [("CUBIC w/o AC/DC", false), ("CUBIC w/ AC/DC", true)] {
        let (mut d, retx) = probe_rtts(acdc, dur);
        rep.line(format!(
            "{label}: p50 {:.3} ms, p99 {:.3} ms, p99.9 {:.3} ms, probe retransmissions {retx}",
            pctl(&mut d, 50.0),
            pctl(&mut d, 99.0),
            pctl(&mut d, 99.9),
        ));
        for (v, f) in cdf_points(&mut d) {
            rep.line(format!("    cdf {f:>5.3}: {v:>9.3} ms"));
        }
    }
    rep.line("paper shape: without AC/DC the tail reaches tens of ms (drops → retransmissions);");
    rep.line("with AC/DC the probe is ECT at the vSwitch, suffers no WRED drops, and stays fast");
    rep
}
