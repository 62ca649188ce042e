//! **Figure 1** — motivation: different congestion controls lead to
//! unfairness.
//!
//! (a) Five flows with five different stacks (CUBIC, Illinois, Reno,
//! Vegas, HighSpeed) on the Figure 7a dumbbell: the aggressive stacks
//! (Illinois, HighSpeed) crowd out the others.
//! (b) The same five flows all running CUBIC: roughly fair.
//!
//! Paper setup: 10 tests. Scaled default: 5 tests of 1 s each.

use acdc_cc::CcKind;
use acdc_core::Scheme;

use super::common::{fmt_tputs, mean, run_dumbbell, DumbbellSpec, Opts, Report, SEC};

/// The five stacks of Figure 1a, in the paper's legend order.
pub const STACKS: [CcKind; 5] = [
    CcKind::Illinois,
    CcKind::Cubic,
    CcKind::Reno,
    CcKind::Vegas,
    CcKind::HighSpeed,
];

/// Run the experiment.
pub fn run(opts: &Opts) -> Report {
    let mut rep = Report::new("fig1", "different congestion controls lead to unfairness");
    let runs = opts.runs(10, 5);
    let dur = opts.dur(20 * SEC, SEC);
    let scheme = Scheme::Plain {
        host_cc: CcKind::Cubic,
        ecn: false,
    };

    rep.line("(a) five different stacks (Gbps per flow):");
    rep.line(format!(
        "    test  {:>9} {:>9} {:>9} {:>9} {:>9}",
        "illinois", "cubic", "reno", "vegas", "highspeed"
    ));
    let mut agg_mixed: Vec<Vec<f64>> = vec![Vec::new(); 5];
    for t in 0..runs {
        let spec = DumbbellSpec {
            per_flow_cc: Some(STACKS.iter().map(|&cc| (cc, false)).collect()),
            probe: false,
            jitter: t as u64 + 1,
            ..DumbbellSpec::five_pairs(scheme.clone(), 9000, dur)
        };
        let out = run_dumbbell(&spec);
        rep.line(format!(
            "    {:>4}  {:>9.2} {:>9.2} {:>9.2} {:>9.2} {:>9.2}",
            t + 1,
            out.tputs_gbps[0],
            out.tputs_gbps[1],
            out.tputs_gbps[2],
            out.tputs_gbps[3],
            out.tputs_gbps[4]
        ));
        for (i, v) in out.tputs_gbps.iter().enumerate() {
            agg_mixed[i].push(*v);
        }
    }
    let means: Vec<f64> = agg_mixed.iter().map(|v| mean(v)).collect();
    rep.line(format!("    mean  {}", fmt_tputs(&means)));
    let aggressive = means[0].max(means[4]); // illinois, highspeed
    let meek = means[2].min(means[3]); // reno, vegas
    rep.line(format!(
        "    aggressive/meek ratio = {:.2} (paper: aggressive stacks dominate)",
        aggressive / meek.max(1e-9)
    ));

    rep.line("(b) all CUBIC (Gbps): max / min / mean / median per test:");
    for t in 0..runs {
        let spec = DumbbellSpec {
            probe: false,
            jitter: t as u64 + 1,
            ..DumbbellSpec::five_pairs(scheme.clone(), 9000, dur)
        };
        let out = run_dumbbell(&spec);
        rep.line(format!(
            "    test {:>2}: {}  (jain {:.3})",
            t + 1,
            out.spread(),
            out.jain
        ));
    }
    rep
}
