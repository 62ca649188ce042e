//! **Figure 15** — the ECN coexistence problem and AC/DC's fix.
//!
//! (a) On a WRED/ECN fabric, a non-ECN CUBIC flow competing with an
//! ECN-capable DCTCP flow is starved: the switch *drops* its packets at
//! the very threshold where it only *marks* DCTCP's.
//! (b) Under AC/DC every flow is made ECN-capable at the vSwitch, and
//! the two flows share fairly.

use acdc_cc::CcKind;
use acdc_core::{ConnTaps, Scheme, Testbed};

use super::common::{Opts, Report, SEC};

/// Run one half; returns (cubic_gbps, dctcp_gbps, drop rate).
fn run_case(acdc: bool, dur: u64) -> (f64, f64, f64) {
    // WRED/ECN marking on in both cases (that *is* the hazard).
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
    let g = tb.goodput_gbps(&[cubic, dctcp], dur / 5, dur);
    (g[0], g[1], tb.drop_rate())
}

/// Run the experiment.
pub fn run(opts: &Opts) -> Report {
    let mut rep = Report::new(
        "fig15",
        "ECN vs non-ECN coexistence: starvation without AC/DC, fair with it",
    );
    let dur = opts.dur(20 * SEC, 2 * SEC);

    let (c, d, drops) = run_case(false, dur);
    rep.line(format!(
        "(a) default (marking on, no AC/DC): CUBIC {c:.2} Gbps vs DCTCP {d:.2} Gbps  (drop rate {:.3}%)",
        drops * 100.0
    ));
    rep.line(format!(
        "    CUBIC's share of the pair: {:.1}%",
        100.0 * c / (c + d)
    ));

    let (c2, d2, drops2) = run_case(true, dur);
    rep.line(format!(
        "(b) AC/DC: CUBIC-guest {c2:.2} Gbps vs DCTCP-guest {d2:.2} Gbps  (drop rate {:.3}%)",
        drops2 * 100.0
    ));
    rep.line(format!(
        "    CUBIC's share of the pair: {:.1}%",
        100.0 * c2 / (c2 + d2)
    ));
    rep.line("paper shape: (a) CUBIC gets little throughput; (b) both get ≈ fair share");
    rep
}
