//! **Figure 9** — AC/DC's computed RWND tracks the native DCTCP CWND.
//!
//! The guests run DCTCP end-to-end; AC/DC runs in *log-only* mode
//! (windows computed and recorded, ACKs untouched), exactly the paper's
//! methodology of logging RWND instead of overwriting it and comparing
//! against `tcpprobe`'s CWND trace.

use acdc_cc::CcKind;
use acdc_core::Scheme;
use acdc_stats::time::{MILLISECOND, SECOND};

use super::common::{sparse_trace, traced_dumbbell, Opts, Report};

/// Run the experiment.
pub fn run(opts: &Opts) -> Report {
    let mut rep = Report::new("fig9", "AC/DC's RWND tracks DCTCP's CWND (log-only mode)");
    let dur = opts.dur(5 * SECOND, SECOND);
    let scheme = Scheme::acdc_with_host(CcKind::Dctcp);
    let (guest_samples, trace) = traced_dumbbell(scheme, true, dur);
    rep.line(format!(
        "guest cwnd samples: {guest_samples}, AC/DC computed-rwnd samples: {}",
        trace.len()
    ));

    let mut rel_err = acdc_stats::Distribution::new();
    rel_err.extend(trace.iter().skip(20).filter_map(|s| s.relative_error()));
    rep.line(format!(
        "relative |rwnd − cwnd| / cwnd: p50 {:.3}, p90 {:.3}, mean {:.3} ({} aligned samples)",
        rel_err.percentile(50.0).unwrap_or(f64::NAN),
        rel_err.percentile(90.0).unwrap_or(f64::NAN),
        rel_err.mean().unwrap_or(f64::NAN),
        rel_err.len()
    ));

    // A sparse joint trace like Figure 9a (first 100 ms).
    rep.line("t(ms)   guest_cwnd(B)   acdc_rwnd(B)   [first 100 ms]");
    for s in sparse_trace(&trace, 0) {
        rep.line(format!(
            "  {:>6.1}  {:>12.0}   {:>12}",
            s.at as f64 / MILLISECOND as f64,
            s.guest_cwnd,
            s.enforced_rwnd
        ));
    }
    rep.line("paper shape: the two windows move together (their Fig 9 overlays them)");
    rep
}
