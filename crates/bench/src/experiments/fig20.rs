//! **Figure 20** — RTT when 47 of the 48 switch ports are congested:
//! group A's 46 NICs send 4 intra-group flows each plus a 46-to-1 incast
//! into B1, pressuring the dynamic shared-buffer allocator; the probe
//! (B2→B1) traverses the single most congested port.

use acdc_core::Testbed;
use acdc_stats::time::MILLISECOND;
use acdc_workloads::patterns::all_ports;

use super::common::{mbps, mean, pctl, Opts, Report, SEC};

/// Run the experiment.
pub fn run(opts: &Opts) -> Report {
    let mut rep = Report::new(
        "fig20",
        "TCP RTT when almost all switch ports are congested",
    );
    let dur = opts.dur(10 * SEC, 300 * MILLISECOND);
    let group_a = 46usize;
    rep.line(
        "scheme                p50(ms)   p95(ms)   p99(ms)  p99.9(ms)   avg tput(Mbps)   drops(%)",
    );
    for scheme in Testbed::compared_schemes() {
        let name = scheme.name();
        // Hosts: 0..45 group A, 46 = B1, 47 = B2.
        let mut tb = Testbed::star(48, scheme, 9000);
        let flows: Vec<_> = all_ports(group_a)
            .iter()
            .map(|t| tb.add_bulk(t.src, t.dst, None, t.start))
            .collect();
        let probe = tb.add_pingpong(47, 46, 64, MILLISECOND, 0);
        let avg = mean(&mbps(tb.goodput_gbps(&flows, dur / 4, dur)));
        let mut rtt = tb.probe_rtt_ms(probe);
        rep.line(format!(
            "{name:<22} {:>7.3} {:>9.3} {:>9.3} {:>9.3}   {:>13.0}   {:>8.3}",
            pctl(&mut rtt, 50.0),
            pctl(&mut rtt, 95.0),
            pctl(&mut rtt, 99.0),
            pctl(&mut rtt, 99.9),
            avg,
            tb.drop_rate() * 100.0
        ));
    }
    rep.line("paper: avg tputs 214/214/201 Mbps; CUBIC p99.9 very high (≈4% drops on the");
    rep.line("hottest port); DCTCP & AC/DC 0% drops and low tails");
    rep
}
