//! **§5.1 "Canonical topologies", second experiment** — the multi-hop,
//! multi-bottleneck parking lot of Figure 7b: every sender sits a
//! different number of switch hops from the receiver, so RTTs and loss
//! exposure differ per flow. The paper reports these numbers in text:
//!
//! * CUBIC: 2.48 Gbps avg, Jain 0.94;
//! * DCTCP and AC/DC: 2.45 Gbps avg, Jain 0.99;
//! * p50/p99.9 RTT: AC/DC 124 µs / 279 µs, DCTCP 136 µs / 301 µs,
//!   CUBIC 3.3 ms / 3.9 ms.
//!
//! (Topology note: we terminate all flows on one receiver NIC, so the
//! fair share is 10G/5 ≈ 2 Gbps rather than the paper's 2.45 — their
//! multi-NIC receiver admitted a higher aggregate. The fairness and RTT
//! comparisons are unaffected.)

use acdc_core::Testbed;
use acdc_stats::time::MILLISECOND;

use super::common::{mean, pctl, Opts, Report, SEC};

/// Run the experiment.
pub fn run(opts: &Opts) -> Report {
    let mut rep = Report::new(
        "parkinglot",
        "multi-hop multi-bottleneck parking lot (§5.1 text numbers)",
    );
    let dur = opts.dur(20 * SEC, 2 * SEC);
    rep.line("scheme                avg tput(Gbps)   jain    p50 RTT     p99.9 RTT");
    for scheme in Testbed::compared_schemes() {
        let name = scheme.name();
        // 5 senders along the chain; host 5 is the receiver on the last
        // switch; the probe also runs along the full chain.
        let mut tb = Testbed::parking_lot(5, scheme, 9000);
        let rx = 5;
        let flows: Vec<_> = (0..5)
            .map(|s| tb.add_bulk(s, rx, None, (s as u64) * 100_000))
            .collect();
        let probe = tb.add_pingpong(0, rx, 64, MILLISECOND / 2, 0);
        let tputs = tb.goodput_gbps(&flows, dur / 5, dur);
        let avg = mean(&tputs);
        let jain = acdc_stats::jain_index(&tputs).unwrap_or(0.0);
        let mut rtt = tb.probe_rtt_ms(probe);
        rep.line(format!(
            "{name:<22} {avg:>13.2} {jain:>7.3}   {:>7.0} µs {:>10.0} µs",
            pctl(&mut rtt, 50.0) * 1000.0,
            pctl(&mut rtt, 99.9) * 1000.0
        ));
    }
    rep.line("paper: CUBIC jain 0.94 & ms-scale RTT; DCTCP/AC-DC jain 0.99 &");
    rep.line("~130/~300 µs — AC/DC slightly below DCTCP on both percentiles");
    rep
}
