//! **Figure 13** — QoS via priority-weighted congestion control: AC/DC
//! runs Equation 1's DCTCP variant with per-flow β, and flows obtain
//! bandwidth ordered by (and roughly proportional to) their priorities.
//!
//! β values follow the paper's 4-point scale: `[2,2,2,2,2]/4` means all
//! flows at β = 0.5, `[4,4,4,0,0]/4` gives three flows β = 1 and two
//! β = 0, etc.

use std::rc::Rc;

use acdc_cc::CcKind;
use acdc_core::{Scheme, Testbed};
use acdc_vswitch::CcPolicy;

use super::common::{fmt_tputs, Opts, Report, SEC};

/// The β combinations of Figure 13, in quarters.
pub const COMBOS: [[u8; 5]; 6] = [
    [2, 2, 2, 2, 2],
    [2, 2, 1, 1, 1],
    [2, 2, 2, 1, 1],
    [3, 2, 2, 1, 1],
    [3, 3, 2, 2, 1],
    [4, 4, 4, 0, 0],
];

/// Run the experiment.
pub fn run(opts: &Opts) -> Report {
    let mut rep = Report::new(
        "fig13",
        "differentiated throughput via QoS-based congestion control (Eq. 1)",
    );
    let dur = opts.dur(10 * SEC, SEC);
    rep.line("betas (quarters)    per-flow tput (Gbps)");
    for combo in COMBOS {
        // β per sender, looked up by the sender's IP (senders are hosts
        // 0..5, whose addresses end .1...5).
        let betas = combo.map(|q| f64::from(q) / 4.0);
        let mut tb = Testbed::custom(Scheme::acdc(), 9000);
        tb.acdc.policy = CcPolicy::Custom(Rc::new(move |key| {
            let idx = (key.src_ip[3] as usize).saturating_sub(1);
            match betas.get(idx) {
                Some(&b) => CcKind::DctcpPriority(b),
                None => CcKind::Dctcp,
            }
        }));
        tb.build_dumbbell(5);
        let flows: Vec<_> = (0..5).map(|i| tb.add_bulk(i, 5 + i, None, 0)).collect();
        let tputs = tb.goodput_gbps(&flows, dur / 5, dur);
        rep.line(format!(
            "  [{},{},{},{},{}]/4   {}",
            combo[0],
            combo[1],
            combo[2],
            combo[3],
            combo[4],
            fmt_tputs(&tputs)
        ));
        // Sanity annotations matching the paper's claims.
        let mut ordered = true;
        for i in 0..4 {
            for j in (i + 1)..5 {
                if combo[i] > combo[j] && tputs[i] + 0.15 < tputs[j] {
                    ordered = false;
                }
            }
        }
        if !ordered {
            rep.line("      (priority ordering violated!)");
        }
    }
    rep.line("paper shape: equal β → equal shares; higher β → proportionally more bandwidth;");
    rep.line("β=0 flows back off to near-starvation (bounded below by the 1-MSS floor)");
    rep
}
