//! **Figure 9** — AC/DC's computed RWND tracks the native DCTCP CWND.
//!
//! The guests run DCTCP end-to-end; AC/DC runs in *log-only* mode
//! (windows computed and recorded, ACKs untouched), exactly the paper's
//! methodology of logging RWND instead of overwriting it and comparing
//! against `tcpprobe`'s CWND trace.

use acdc_cc::CcKind;
use acdc_core::{ConnTaps, Scheme, Testbed};
use acdc_packet::FlowKey;
use acdc_stats::time::{MILLISECOND, SECOND};
use acdc_workloads::apps::BulkSender;

use super::common::{Opts, Report};

/// Run the experiment.
pub fn run(opts: &Opts) -> Report {
    let mut rep = Report::new("fig9", "AC/DC's RWND tracks DCTCP's CWND (log-only mode)");
    let dur = opts.dur(5 * SECOND, SECOND);
    let mtu = 1500; // the paper's trace is at 1.5 KB MTU

    let scheme = Scheme::Acdc {
        host_cc: CcKind::Dctcp,
        vswitch_cc: CcKind::Dctcp,
    };
    let mut tb = Testbed::dumbbell_with(5, scheme, mtu, |cfg| {
        cfg.log_only = true;
        cfg.trace_windows = true;
    });
    let taps = ConnTaps {
        trace_cwnd: true,
        ..ConnTaps::default()
    };
    let mut flows = Vec::new();
    for i in 0..5 {
        let t = if i == 0 { taps } else { ConnTaps::default() };
        flows.push(tb.add_flow(
            i,
            5 + i,
            Some(Box::new(BulkSender::unlimited())),
            None,
            0,
            t,
        ));
    }
    tb.run_until(dur);

    // Guest CWND trace of flow 0.
    let h = flows[0];
    let conn = tb.client_conn_index(h);
    let cwnd = tb
        .host_mut(h.client_host)
        .cwnd_trace(conn)
        .expect("cwnd trace enabled")
        .clone();

    // AC/DC's computed-window trace from the flow-table entry.
    let key: FlowKey = h.key;
    let rwnd = {
        let dp = tb.host_mut(h.client_host).datapath();
        let entry = dp.table().get(&key).expect("flow entry");
        let e = entry.lock();
        e.rwnd.trace().expect("window trace enabled").to_vec()
    };

    rep.line(format!(
        "guest cwnd samples: {}, AC/DC computed-rwnd samples: {}",
        cwnd.len(),
        rwnd.len()
    ));

    // Align: for each AC/DC sample, find the latest guest sample ≤ t.
    let mut rel_err = acdc_stats::Distribution::new();
    let mut gi = 0usize;
    let gs = cwnd.samples();
    for r in rwnd.iter().skip(20) {
        while gi + 1 < gs.len() && gs[gi + 1].at <= r.0 {
            gi += 1;
        }
        let g = gs[gi].value;
        if g > 0.0 {
            rel_err.add(((r.1 as f64) - g).abs() / g);
        }
    }
    rep.line(format!(
        "relative |rwnd − cwnd| / cwnd: p50 {:.3}, p90 {:.3}, mean {:.3} ({} aligned samples)",
        rel_err.percentile(50.0).unwrap_or(f64::NAN),
        rel_err.percentile(90.0).unwrap_or(f64::NAN),
        rel_err.mean().unwrap_or(f64::NAN),
        rel_err.len()
    ));

    // Print a sparse joint trace like Figure 9a (first 100 ms).
    rep.line("t(ms)   guest_cwnd(B)   acdc_rwnd(B)   [first 100 ms]");
    let mut next_print = 0u64;
    let mut gi = 0usize;
    for r in rwnd.iter() {
        if r.0 > 100 * MILLISECOND {
            break;
        }
        if r.0 >= next_print {
            while gi + 1 < gs.len() && gs[gi + 1].at <= r.0 {
                gi += 1;
            }
            rep.line(format!(
                "  {:>6.1}  {:>12.0}   {:>12}",
                r.0 as f64 / MILLISECOND as f64,
                gs[gi].value,
                r.1
            ));
            next_print = r.0 + 10 * MILLISECOND;
        }
    }
    rep.line("paper shape: the two windows move together (their Fig 9 overlays them)");
    rep
}
