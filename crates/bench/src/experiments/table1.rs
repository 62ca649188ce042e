//! **Table 1** — AC/DC works with many congestion-control variants: for
//! each guest stack, RTT percentiles, throughput and fairness match
//! native DCTCP once AC/DC enforces DCTCP in the vSwitch. Rows:
//!
//! * `CUBIC*`  — CUBIC + plain OVS, marking off (the baseline);
//! * `DCTCP*`  — DCTCP + plain OVS, marking on (the target);
//! * six guest stacks + AC/DC, marking on.

use acdc_cc::CcKind;
use acdc_core::Scheme;

use super::common::{mean, pctl, run_dumbbell, DumbbellSpec, Opts, Report, SEC};

/// Table rows: (label, scheme).
fn rows() -> Vec<(&'static str, Scheme)> {
    vec![
        (
            "CUBIC*",
            Scheme::Plain {
                host_cc: CcKind::Cubic,
                ecn: false,
            },
        ),
        ("DCTCP*", Scheme::Dctcp),
        ("CUBIC", Scheme::acdc_with_host(CcKind::Cubic)),
        ("Reno", Scheme::acdc_with_host(CcKind::Reno)),
        ("DCTCP", Scheme::acdc_with_host(CcKind::Dctcp)),
        ("Illinois", Scheme::acdc_with_host(CcKind::Illinois)),
        ("HighSpeed", Scheme::acdc_with_host(CcKind::HighSpeed)),
        ("Vegas", Scheme::acdc_with_host(CcKind::Vegas)),
    ]
}

/// Run the experiment.
pub fn run(opts: &Opts) -> Report {
    let mut rep = Report::new(
        "table1",
        "AC/DC with many CC variants: RTT / throughput / fairness, both MTUs",
    );
    let runs = opts.runs(10, 2);
    let dur = opts.dur(20 * SEC, SEC);
    for mtu in [1500usize, 9000] {
        rep.line(format!(
            "MTU {mtu}:  variant     p50 RTT(µs)  p99 RTT(µs)  avg tput(Gbps)  jain"
        ));
        for (label, scheme) in rows() {
            let mut p50s = Vec::new();
            let mut p99s = Vec::new();
            let mut tputs = Vec::new();
            let mut jains = Vec::new();
            for r in 0..runs {
                let mut out = run_dumbbell(&DumbbellSpec {
                    jitter: r as u64 + 1,
                    ..DumbbellSpec::five_pairs(scheme.clone(), mtu, dur)
                });
                p50s.push(pctl(&mut out.rtt_ms, 50.0) * 1_000.0);
                p99s.push(pctl(&mut out.rtt_ms, 99.0) * 1_000.0);
                tputs.push(out.mean_gbps());
                jains.push(out.jain);
            }
            rep.line(format!(
                "    {label:<12} {:>10.0} {:>12.0} {:>15.2}  {:.3}",
                mean(&p50s),
                mean(&p99s),
                mean(&tputs),
                mean(&jains)
            ));
        }
    }
    rep.line("paper shape: CUBIC* row has ms-scale RTTs and jain ~0.85–0.98; every");
    rep.line("AC/DC row tracks DCTCP*: low RTT, ≈1.9 Gbps per flow, jain 0.99");
    rep
}
