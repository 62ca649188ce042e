//! **Figures 18/19** — many-to-one incast at 16/32/40/47 senders:
//! throughput + fairness (Fig 18), RTT percentiles + drop rate (Fig 19).
//!
//! The headline: AC/DC's byte-granular windows go *below* DCTCP's
//! 2-packet floor, so at 47 senders × 9 KB MTU it keeps queueing — and
//! hence RTT — even lower than native DCTCP (the paper's Fig 19a
//! curiosity).

use acdc_core::{Scheme, Testbed};
use acdc_stats::time::MILLISECOND;

use super::common::{mbps, mean, pctl, Opts, Report, SEC};

/// Sender counts swept (the paper's 16→47, bounded by 48 switch ports).
pub const SENDERS: [usize; 4] = [16, 32, 40, 47];

struct IncastOut {
    avg_mbps: f64,
    jain: f64,
    rtt_p50_ms: f64,
    rtt_p999_ms: f64,
    drop_pct: f64,
}

fn run_incast(scheme: Scheme, n: usize, dur: u64) -> IncastOut {
    // Hosts: 0..n senders, n = receiver, n+1 = probe client.
    let mut tb = Testbed::star(n + 2, scheme, 9000);
    let flows: Vec<_> = (0..n).map(|s| tb.add_bulk(s, n, None, 0)).collect();
    let probe = tb.add_pingpong(n + 1, n, 64, MILLISECOND, 0);
    let tputs = mbps(tb.goodput_gbps(&flows, dur / 4, dur));
    let mut rtt = tb.probe_rtt_ms(probe);
    IncastOut {
        avg_mbps: mean(&tputs),
        jain: acdc_stats::jain_index(&tputs).unwrap_or(0.0),
        rtt_p50_ms: pctl(&mut rtt, 50.0),
        rtt_p999_ms: pctl(&mut rtt, 99.9),
        drop_pct: tb.drop_rate() * 100.0,
    }
}

fn sweep(opts: &Opts) -> Vec<(String, usize, IncastOut)> {
    let dur = opts.dur(10 * SEC, 400 * MILLISECOND);
    let mut rows = Vec::new();
    for scheme in Testbed::compared_schemes() {
        for &n in &SENDERS {
            let out = run_incast(scheme.clone(), n, dur);
            rows.push((scheme.name(), n, out));
        }
    }
    rows
}

/// Figure 18: throughput + fairness.
pub fn run_fig18(opts: &Opts) -> Report {
    let mut rep = Report::new(
        "fig18",
        "many-to-one incast: average throughput and fairness",
    );
    rep.line("scheme                senders   avg tput (Mbps)   jain");
    for (name, n, out) in sweep(opts) {
        rep.line(format!(
            "{name:<22} {n:>6}   {:>14.0}   {:.3}",
            out.avg_mbps, out.jain
        ));
    }
    rep.line("paper shape: all schemes track fair-share (≈10G/n); DCTCP & AC/DC jain > 0.99");
    rep
}

/// Figure 19: RTT percentiles + drop rate.
pub fn run_fig19(opts: &Opts) -> Report {
    let mut rep = Report::new("fig19", "many-to-one incast: RTT and packet drop rate");
    rep.line("scheme                senders   p50 RTT (ms)   p99.9 RTT (ms)   drops (%)");
    for (name, n, out) in sweep(opts) {
        rep.line(format!(
            "{name:<22} {n:>6}   {:>11.3}   {:>13.3}   {:>8.3}",
            out.rtt_p50_ms, out.rtt_p999_ms, out.drop_pct
        ));
    }
    rep.line("paper shape: CUBIC RTT blows up with drops; DCTCP low but grows with senders");
    rep.line("(2-pkt cwnd floor × 9 KB segments); AC/DC lower still — its enforced window");
    rep.line("is byte-granular and can fall below 2 segments");
    rep
}
