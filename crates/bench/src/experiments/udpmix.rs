//! **Extension experiment (beyond the paper)** — unmanaged UDP sharing a
//! fabric with AC/DC-enforced TCP.
//!
//! The paper's prototype "only supports TCP" and leaves DCTCP-friendly
//! UDP tunnels as future work (§3.3). This experiment quantifies the
//! status quo that motivates that future work: a 4 Gbps constant-bit-rate
//! UDP stream shares a 10 G receiver port with two enforced TCP flows.
//!
//! * On the CUBIC baseline (no marking) everyone fights over the buffer.
//! * On a marking fabric, non-ECT UDP meets the WRED drop ramp exactly
//!   like the non-ECN TCP of Figure 15 — it is progressively dropped
//!   while TCP rides the markings.
//! * If the UDP stream were tunnelled ECT (the future-work design), it is
//!   marked instead of dropped and keeps its offered rate; TCP cedes.

use acdc_core::{Scheme, Testbed};
use acdc_packet::Ecn;
use acdc_stats::time::MILLISECOND;

use super::common::{pctl, Opts, Report, SEC};

/// Run the experiment.
pub fn run(opts: &Opts) -> Report {
    let mut rep = Report::new(
        "udpmix",
        "extension: unmanaged UDP vs AC/DC TCP (the paper's future-work boundary)",
    );
    let dur = opts.dur(5 * SEC, SEC);
    rep.line("config                          tcp1+tcp2 (Gbps)   udp delivered (Gbps)   probe p99 (ms)   drops(%)");
    let cases: [(&str, Scheme, Ecn); 4] = [
        ("CUBIC fabric, UDP not-ECT", Scheme::Cubic, Ecn::NotEct),
        ("DCTCP fabric, UDP not-ECT", Scheme::Dctcp, Ecn::NotEct),
        ("AC/DC fabric, UDP not-ECT", Scheme::acdc(), Ecn::NotEct),
        ("AC/DC fabric, UDP as ECT tunnel", Scheme::acdc(), Ecn::Ect0),
    ];
    for (label, scheme, ecn) in cases {
        let mut tb = Testbed::star(4, scheme, 9000);
        let rx = 2;
        let t1 = tb.add_bulk(0, rx, None, 0);
        let t2 = tb.add_bulk(1, rx, None, 100_000);
        let udp_payload = 8_972; // full 9 KB wire datagrams
        tb.add_udp_source(0, rx, 4_000_000_000, udp_payload, ecn);
        let probe = tb.add_pingpong(3, rx, 64, MILLISECOND, 0);

        let warm = dur / 5;
        tb.run_until(warm);
        let udp_rx_warm = udp_delivered(&mut tb, rx);
        let tcp_gbps: f64 = tb.goodput_gbps(&[t1, t2], warm, dur).iter().sum();
        let w = (dur - warm) as f64;
        let udp_gbps =
            (udp_delivered(&mut tb, rx) - udp_rx_warm) as f64 * (udp_payload + 28) as f64 * 8.0 / w;
        let mut rtt = tb.probe_rtt_ms(probe);
        let drops = tb.drop_rate() * 100.0;
        rep.line(format!(
            "{label:<32} {tcp_gbps:>12.2} {udp_gbps:>20.2} {:>14.3} {:>9.3}",
            pctl(&mut rtt, 99.0),
            drops
        ));
    }
    rep.line("reading: on marking fabrics, non-ECT UDP pays the WRED drop ramp as a steady");
    rep.line("loss tax (ruinous for loss-sensitive apps) while enforced TCP rides markings");
    rep.line("losslessly; tunnelling the UDP as ECT — the paper's future-work design —");
    rep.line("removes UDP loss entirely at unchanged TCP behaviour");
    rep
}

/// UDP packets delivered to `host` (counted by its datapath passthrough).
fn udp_delivered(tb: &mut Testbed, host: usize) -> u64 {
    tb.host_mut(host)
        .datapath()
        .counters()
        .non_tcp_passthrough
        .get()
}
