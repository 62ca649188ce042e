//! **Figure 8** — RTT CDF on the dumbbell: CUBIC (default, no marking)
//! sits in the millisecond range because it fills the trunk buffer;
//! DCTCP keeps RTT near the base; AC/DC tracks DCTCP closely while the
//! guests still run CUBIC.
//!
//! The paper also reports the throughput sanity check: all three schemes
//! average ~1.98 Gbps per flow on the 5-pair dumbbell.

use acdc_core::Testbed;

use super::common::{pctl, run_dumbbell, DumbbellSpec, Opts, Report, SEC};
use super::fig02::cdf_points;

/// Run the experiment.
pub fn run(opts: &Opts) -> Report {
    let mut rep = Report::new("fig8", "RTT of schemes on the dumbbell topology");
    let dur = opts.dur(20 * SEC, 2 * SEC);
    for scheme in Testbed::compared_schemes() {
        let name = scheme.name();
        let mut out = run_dumbbell(&DumbbellSpec::five_pairs(scheme, 9000, dur));
        rep.line(format!(
            "{name}: mean flow tput {:.2} Gbps, jain {:.3}, drop rate {:.4}%",
            out.mean_gbps(),
            out.jain,
            out.drop_rate * 100.0
        ));
        rep.line(format!(
            "  RTT p50 {:.3} ms, p99 {:.3} ms, p99.9 {:.3} ms",
            pctl(&mut out.rtt_ms, 50.0),
            pctl(&mut out.rtt_ms, 99.0),
            pctl(&mut out.rtt_ms, 99.9)
        ));
        for (v, f) in cdf_points(&mut out.rtt_ms) {
            rep.line(format!("    cdf {f:>5.3}: {v:>8.3} ms"));
        }
    }
    rep.line("paper shape: AC/DC ≈ DCTCP (hundreds of µs); CUBIC an order of magnitude worse");
    rep
}
