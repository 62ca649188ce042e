//! **Figure 10** — who limits throughput when AC/DC runs under CUBIC?
//!
//! With the guest on CUBIC and AC/DC enforcing DCTCP, AC/DC hides ECN
//! and prevents most loss, so the guest's CWND keeps growing while the
//! enforced RWND stays small: AC/DC's window is the binding constraint
//! essentially all the time.

use acdc_core::Scheme;
use acdc_stats::time::{MILLISECOND, SECOND};

use super::common::{sparse_trace, traced_dumbbell, Opts, Report};

/// Run the experiment.
pub fn run(opts: &Opts) -> Report {
    let mut rep = Report::new(
        "fig10",
        "who limits throughput when AC/DC runs with CUBIC guests?",
    );
    let dur = opts.dur(5 * SECOND, 2 * SECOND);
    let (_, trace) = traced_dumbbell(Scheme::acdc(), false, dur);

    // How often is the AC/DC window the smaller (binding) one?
    let measured = &trace[trace.len().min(10)..];
    let binding = measured
        .iter()
        .filter(|s| (s.enforced_rwnd as f64) < s.guest_cwnd)
        .count();
    rep.line(format!(
        "AC/DC's RWND below the guest CWND in {:.1}% of {} samples",
        100.0 * binding as f64 / measured.len().max(1) as f64,
        measured.len()
    ));

    // Print the two windows at the start and 2 s in (paper's subfigures).
    for (label, from) in [("start of flow", 0u64), ("2 s into flow", 2 * SECOND)] {
        if from >= dur {
            break;
        }
        rep.line(format!("{label}: t(ms)  guest_cwnd(B)  acdc_rwnd(B)"));
        for s in sparse_trace(&trace, from) {
            rep.line(format!(
                "   {:>8.1}  {:>12.0}  {:>12}",
                s.at as f64 / MILLISECOND as f64,
                s.guest_cwnd,
                s.enforced_rwnd
            ));
        }
    }
    rep.line(
        "paper shape: CUBIC's CWND grows far above AC/DC's RWND — the vSwitch is the enforcer",
    );
    rep
}
