//! **Figure 14** — convergence test: a new long-lived flow joins the
//! bottleneck every 30 s, then flows leave in reverse order. DCTCP and
//! AC/DC converge promptly to equal shares at every step; CUBIC does
//! not. (Paper: CUBIC drop rate 0.17%; DCTCP and AC/DC 0%.)
//!
//! Scaled default: 2 s steps instead of 30 s (each step still spans
//! thousands of RTTs, which is what convergence needs).

use acdc_core::{FlowHandle, Testbed};
use acdc_stats::TimeSeries;
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
            let h = tb.add_bulk(i, n + i, None, start);
            tb.set_flow_stop(h, stop);
            flows.push(h);
        }
        let tputs = binned_gbps(&mut tb, &flows, step / 4, total);

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
            for (i, bins) in tputs.iter().enumerate() {
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

/// Runs `tb` to `end` and returns each flow's goodput in Gbps per `bin`
/// of acknowledged bytes, stamped at the bin's end. An ACK at a bin's
/// edge counts in the next bin, so the bytes of bin `k` are those
/// acknowledged by `(k + 1) · bin − 1`; `run_until` includes events at its
/// deadline. A flow's series runs through the bin holding its last ACK
/// and stops there; a flow that never acknowledged anything has none.
fn binned_gbps(tb: &mut Testbed, flows: &[FlowHandle], bin: u64, end: u64) -> Vec<TimeSeries> {
    let mut acked = vec![Vec::new(); flows.len()];
    for edge in (bin..=end).step_by(bin as usize) {
        tb.run_until(edge - 1);
        for (a, &h) in acked.iter_mut().zip(flows) {
            a.push(tb.acked_bytes(h));
        }
    }
    tb.run_until(end);
    let secs = bin as f64 / SEC as f64;
    flows
        .iter()
        .zip(acked)
        .map(|(&h, acked)| {
            let last = tb.acked_bytes(h);
            let mut bins = TimeSeries::new();
            let mut before = 0;
            for (k, &a) in acked.iter().enumerate() {
                if before == last {
                    // The previous bin held the last ACK.
                    break;
                }
                bins.push((k as u64 + 1) * bin, (a - before) as f64 * 8.0 / secs / 1e9);
                before = a;
            }
            bins
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use acdc_core::Scheme;
    use acdc_stats::time::MILLISECOND as MS;

    /// Two flows on a dumbbell: `early` sends from 0 and stops at 2.5 ms,
    /// `late` starts at 3.5 ms.
    fn rig() -> (Testbed, [FlowHandle; 2]) {
        let mut tb = Testbed::dumbbell(2, Scheme::Dctcp, 9000);
        let early = tb.add_bulk(0, 2, None, 0);
        tb.set_flow_stop(early, 2 * MS + MS / 2);
        let late = tb.add_bulk(1, 3, None, 3 * MS + MS / 2);
        (tb, [early, late])
    }

    /// 1 ms bins over 6 ms. Each reported bin holds, in Gbps, the bytes
    /// acknowledged between two edges; idle bins read zero while a later
    /// ACK exists; a series ends with the bin holding the flow's last ACK.
    #[test]
    fn bins_hold_the_bytes_acked_in_them() {
        let (bin, end) = (MS, 6 * MS);
        let (mut tb, flows) = rig();
        let series = binned_gbps(&mut tb, &flows, bin, end);

        // What each flow had acknowledged just before each bin edge, read
        // on a second run of the same (deterministic) testbed.
        let (mut probe, _) = rig();
        let mut upto = [Vec::new(), Vec::new()];
        for edge in (bin..=end).step_by(bin as usize) {
            probe.run_until(edge - 1);
            for (u, &h) in upto.iter_mut().zip(&flows) {
                u.push(probe.acked_bytes(h));
            }
        }

        let mut per_flow = Vec::new();
        for ((bins, upto), &h) in series.iter().zip(&upto).zip(&flows) {
            let stamps: Vec<u64> = bins.samples().iter().map(|s| s.at).collect();
            let n = stamps.len();
            assert_eq!(stamps, (1..=n as u64).map(|k| k * bin).collect::<Vec<_>>());
            let bytes: Vec<u64> = bins
                .samples()
                .iter()
                .map(|s| (s.value * 1e9 / 8.0 * bin as f64 / SEC as f64).round() as u64)
                .collect();
            let acked: Vec<u64> = upto[..n]
                .iter()
                .scan(0, |before, &a| Some(a - std::mem::replace(before, a)))
                .collect();
            assert_eq!(bytes, acked, "bin k holds the bytes acked in it");
            let last = tb.acked_bytes(h);
            assert_eq!(
                upto[n - 1],
                last,
                "the last reported bin holds the last ACK"
            );
            assert!(n == 1 || upto[n - 2] < last, "and no earlier bin does");
            per_flow.push(bytes);
        }
        let [early, late] = &per_flow[..] else {
            unreachable!()
        };
        assert_eq!(early.len(), 4, "early's last ACK lands in [3, 4) ms");
        assert!(early.iter().all(|&b| b > 0));
        assert_eq!(late.len(), 6, "late's last ACK lands in [5, 6) ms");
        assert_eq!(late[..3], [0, 0, 0], "idle bins before late starts");
        assert!(late[3..].iter().all(|&b| b > 0));
    }
}
