//! **Figure 23** — trace-driven workloads: long-lived connections between
//! every pair of servers; message sizes sampled from the web-search and
//! data-mining CDFs; five concurrent generator apps per server. CDF of
//! mice (< 10 KB) FCTs per scheme.

use acdc_core::{Scheme, Testbed, TraceSender};
use acdc_stats::time::SECOND;
use acdc_workloads::{FctRecorder, FlowSizeDist};

use super::common::{pctl, Opts, Report, SERVERS};

/// Generator apps per server.
const APPS_PER_HOST: usize = 5;

/// Run one (scheme, distribution) cell and return mice FCTs.
fn run_trace(scheme: Scheme, dist: &FlowSizeDist, deadline: u64, seed: u64) -> FctRecorder {
    let n = SERVERS;
    let mut tb = Testbed::star(n, scheme, 9000);
    // Per host: `APPS_PER_HOST` generator apps, each owning one
    // connection to every other server.
    for i in 0..n {
        for a in 0..APPS_PER_HOST {
            let mut conns = Vec::new();
            for d in (0..n).filter(|&d| d != i) {
                let h = tb.add_flow(i, d, None, None, 0, Default::default());
                conns.push(tb.client_conn_index(h));
            }
            let app_seed = seed ^ ((i as u64) << 16) ^ (a as u64);
            // Stop issuing slightly before the deadline so in-flight
            // messages can drain.
            let stop = deadline - deadline / 10;
            tb.host_mut(i).add_multi_app(Box::new(TraceSender::new(
                conns,
                dist.clone(),
                app_seed,
                stop,
            )));
        }
    }
    tb.run_until(deadline);
    let mut fct = FctRecorder::new();
    for i in 0..n {
        for a in 0..APPS_PER_HOST {
            if let Some(f) = tb.host_mut(i).multi_app(a).and_then(|x| x.fct()) {
                fct.merge(f);
            }
        }
    }
    fct
}

/// Run the experiment.
pub fn run(opts: &Opts) -> Report {
    let mut rep = Report::new("fig23", "trace-driven workloads: mice (<10 KB) FCTs");
    let deadline = opts.dur(60 * SECOND, SECOND);
    for dist in [FlowSizeDist::web_search(), FlowSizeDist::data_mining()] {
        rep.line(format!("workload: {}", dist.name()));
        rep.line("  scheme                p50(ms)   p99(ms)  p99.9(ms)   n_mice");
        for scheme in Testbed::compared_schemes() {
            let name = scheme.name();
            let fct = run_trace(scheme, &dist, deadline, opts.seed);
            let mut mice = fct.distribution_ms_by_size(10_000);
            rep.line(format!(
                "  {name:<22} {:>7.3} {:>9.3} {:>9.3}   {:>6}",
                pctl(&mut mice, 50.0),
                pctl(&mut mice, 99.0),
                pctl(&mut mice, 99.9),
                mice.len()
            ));
        }
    }
    rep.line("paper shape: DCTCP/AC/DC cut mice p50 by ~72–77% and the p99.9 tail by");
    rep.line("36–55% — with AC/DC at least matching DCTCP");
    rep
}
