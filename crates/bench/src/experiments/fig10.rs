//! **Figure 10** — who limits throughput when AC/DC runs under CUBIC?
//!
//! With the guest on CUBIC and AC/DC enforcing DCTCP, AC/DC hides ECN
//! and prevents most loss, so the guest's CWND keeps growing while the
//! enforced RWND stays small: AC/DC's window is the binding constraint
//! essentially all the time.

use acdc_core::{ConnTaps, Scheme, Testbed};
use acdc_packet::FlowKey;
use acdc_stats::time::{MILLISECOND, SECOND};
use acdc_workloads::apps::BulkSender;

use super::common::{Opts, Report};

/// Run the experiment.
pub fn run(opts: &Opts) -> Report {
    let mut rep = Report::new(
        "fig10",
        "who limits throughput when AC/DC runs with CUBIC guests?",
    );
    let dur = opts.dur(5 * SECOND, 2 * SECOND);
    let mtu = 1500;

    let mut tb = Testbed::dumbbell_with(5, Scheme::acdc(), mtu, |cfg| {
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

    let h = flows[0];
    let conn = tb.client_conn_index(h);
    let cwnd = tb
        .host_mut(h.client_host)
        .cwnd_trace(conn)
        .expect("cwnd trace")
        .clone();
    let key: FlowKey = h.key;
    let rwnd = {
        let dp = tb.host_mut(h.client_host).datapath();
        let entry = dp.table().get(&key).expect("flow entry");
        let e = entry.lock();
        e.rwnd.trace().expect("window trace").to_vec()
    };

    // How often is the AC/DC window the smaller (binding) one?
    let gs = cwnd.samples();
    let mut binding = 0usize;
    let mut total = 0usize;
    let mut gi = 0usize;
    for r in rwnd.iter().skip(10) {
        while gi + 1 < gs.len() && gs[gi + 1].at <= r.0 {
            gi += 1;
        }
        total += 1;
        if (r.1 as f64) < gs[gi].value {
            binding += 1;
        }
    }
    rep.line(format!(
        "AC/DC's RWND below the guest CWND in {:.1}% of {} samples",
        100.0 * binding as f64 / total.max(1) as f64,
        total
    ));

    // Print the two windows at the start and 2 s in (paper's subfigures).
    for (label, from) in [("start of flow", 0u64), ("2 s into flow", 2 * SECOND)] {
        if from >= dur {
            break;
        }
        rep.line(format!("{label}: t(ms)  guest_cwnd(B)  acdc_rwnd(B)"));
        let mut next_print = from;
        let mut gi = 0usize;
        for r in rwnd.iter() {
            if r.0 < from {
                continue;
            }
            if r.0 > from + 100 * MILLISECOND {
                break;
            }
            if r.0 >= next_print {
                while gi + 1 < gs.len() && gs[gi + 1].at <= r.0 {
                    gi += 1;
                }
                rep.line(format!(
                    "   {:>8.1}  {:>12.0}  {:>12}",
                    r.0 as f64 / MILLISECOND as f64,
                    gs[gi].value,
                    r.1
                ));
                next_print = r.0 + 10 * MILLISECOND;
            }
        }
    }
    rep.line(
        "paper shape: CUBIC's CWND grows far above AC/DC's RWND — the vSwitch is the enforcer",
    );
    rep
}
