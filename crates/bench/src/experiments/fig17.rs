//! **Figure 17** — AC/DC restores fairness when guests run different
//! stacks: five different host stacks under AC/DC behave like five
//! native DCTCP flows (contrast with Figure 1a's chaos).

use acdc_core::Scheme;

use super::common::{run_dumbbell, DumbbellSpec, Opts, Report, SEC};
use super::fig01::STACKS;

/// Run the experiment.
pub fn run(opts: &Opts) -> Report {
    let mut rep = Report::new(
        "fig17",
        "AC/DC fairness with heterogeneous guest stacks (vs native all-DCTCP)",
    );
    let runs = opts.runs(10, 5);
    let dur = opts.dur(20 * SEC, SEC);
    let mixed = Some(STACKS.iter().map(|&cc| (cc, false)).collect::<Vec<_>>());
    for (header, scheme, per_flow_cc) in [
        ("(a) all native DCTCP", Scheme::Dctcp, None),
        (
            "(b) five different stacks under AC/DC",
            Scheme::acdc(),
            mixed,
        ),
    ] {
        rep.line(format!("{header} (Gbps): max / min / mean / median / jain"));
        for t in 0..runs {
            let out = run_dumbbell(&DumbbellSpec {
                per_flow_cc: per_flow_cc.clone(),
                probe: false,
                jitter: t as u64 + 1,
                ..DumbbellSpec::five_pairs(scheme.clone(), 9000, dur)
            });
            rep.line(format!(
                "    test {:>2}: {} / {:.3}",
                t + 1,
                out.spread(),
                out.jain
            ));
        }
    }
    rep.line("paper shape: (b) tracks (a) — AC/DC pins heterogeneous stacks to DCTCP fairness");
    rep
}
