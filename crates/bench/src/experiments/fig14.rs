//! **Figure 14** — convergence test: a new long-lived flow joins the
//! bottleneck every 30 s, then flows leave in reverse order. DCTCP and
//! AC/DC converge promptly to equal shares at every step; CUBIC does
//! not. (Paper: CUBIC drop rate 0.17%; DCTCP and AC/DC 0%.)
//!
//! Scaled default: 2 s steps instead of 30 s (each step still spans
//! thousands of RTTs, which is what convergence needs).

use acdc_core::{ConnTaps, Testbed};
use acdc_workloads::apps::BulkSender;
use acdc_workloads::patterns::convergence_schedule;

use super::common::{Opts, Report, SEC};

/// Run the experiment.
pub fn run(opts: &Opts) -> Report {
    let mut rep = Report::new("fig14", "convergence: flows added/removed on a schedule");
    let step = opts.dur(30 * SEC, 2 * SEC);
    let n = 5usize;
    let sched = convergence_schedule(n, step);
    let total = (2 * n as u64) * step;

    for scheme in Testbed::compared_schemes() {
        let name = scheme.name();
        let mut tb = Testbed::dumbbell(n, scheme, 9000);
        let mut flows = Vec::new();
        for (i, &(start, stop)) in sched.iter().enumerate() {
            let h = tb.add_flow(
                i,
                n + i,
                Some(Box::new(BulkSender::unlimited())),
                None,
                start,
                ConnTaps {
                    tput_bin: Some(step / 4),
                    ..ConnTaps::default()
                },
            );
            tb.set_flow_stop(h, stop);
            flows.push(h);
        }
        tb.run_until(total);

        rep.line(format!("{name}: per-interval mean tput (Gbps) per flow:"));
        let header: Vec<String> = (1..=n).map(|i| format!("   f{i}")).collect();
        rep.line(format!("    interval         active {}", header.join("")));
        // 2n-1 intervals: [k·step, (k+1)·step).
        let mut worst_jain: f64 = 1.0;
        for k in 0..(2 * n - 1) as u64 {
            let lo = k * step;
            let hi = lo + step;
            let mut row = Vec::new();
            let mut active = Vec::new();
            for (i, &h) in flows.iter().enumerate() {
                let conn = tb.client_conn_index(h);
                let bins = tb
                    .host_mut(h.client_host)
                    .tput(conn)
                    .unwrap()
                    .bins()
                    .clone();
                let vals: Vec<f64> = bins.window(lo + step / 8, hi).map(|s| s.value).collect();
                let mean = if vals.is_empty() {
                    0.0
                } else {
                    vals.iter().sum::<f64>() / vals.len() as f64
                };
                row.push(mean);
                let (start, stop) = sched[i];
                if start <= lo && stop >= hi {
                    active.push(mean);
                }
            }
            let jain = acdc_stats::jain_index(&active).unwrap_or(1.0);
            if active.len() > 1 {
                worst_jain = worst_jain.min(jain);
            }
            let cells: Vec<String> = row.iter().map(|v| format!("{v:>5.2}")).collect();
            rep.line(format!(
                "    [{:>4.1},{:>4.1})s      {}     {}  jain {:.3}",
                lo as f64 / SEC as f64,
                hi as f64 / SEC as f64,
                active.len(),
                cells.join(" "),
                jain
            ));
        }
        rep.line(format!(
            "  worst per-interval Jain index: {worst_jain:.3}; drop rate {:.4}%",
            tb.drop_rate() * 100.0
        ));
    }
    rep.line(
        "paper shape: DCTCP and AC/DC re-converge to equal shares each step; CUBIC is erratic",
    );
    rep
}
