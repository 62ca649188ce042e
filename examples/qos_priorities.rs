//! Per-flow QoS via priority-weighted congestion control (§3.4, Eq. 1).
//!
//! ```text
//! cargo run --release --example qos_priorities -- 4 4 2 1
//! ```
//!
//! Starts one long-lived flow per β argument (on a 4-point scale, as in
//! Figure 13) through the AC/DC vSwitch, and shows the resulting
//! bandwidth differentiation — no rate limiters, no switch QoS classes,
//! just Equation 1 inside the vSwitch.

use std::rc::Rc;

use acdc_cc::CcKind;
use acdc_core::{Scheme, Testbed};
use acdc_stats::time::SECOND;
use acdc_vswitch::CcPolicy;

fn main() {
    let quarters: Vec<u8> = {
        let args: Vec<u8> = std::env::args()
            .skip(1)
            .map(|a| a.parse().expect("betas are integers 0..=4"))
            .collect();
        if args.is_empty() {
            vec![4, 3, 2, 1]
        } else {
            args
        }
    };
    assert!(quarters.iter().all(|&q| q <= 4), "betas are quarters 0..=4");
    let n = quarters.len();
    println!("per-flow priorities (β/4): {quarters:?}");

    // AC/DC with a custom policy: β looked up by the sender's address.
    let betas: Vec<f64> = quarters.iter().map(|&q| f64::from(q) / 4.0).collect();
    let mut tb = Testbed::custom(Scheme::acdc(), 9000);
    tb.acdc.policy = CcPolicy::Custom(Rc::new(move |key| {
        let idx = (key.src_ip[3] as usize).saturating_sub(1);
        betas
            .get(idx)
            .map(|&b| CcKind::DctcpPriority(b))
            .unwrap_or(CcKind::Dctcp)
    }));
    tb.build_dumbbell(n);

    let flows: Vec<_> = (0..n).map(|i| tb.add_bulk(i, n + i, None, 0)).collect();
    let dur = SECOND;
    let tputs = tb.goodput_gbps(&flows, dur / 5, dur);

    println!("{:<8} {:>6} {:>12}", "flow", "β/4", "tput (Gbps)");
    for (i, gbps) in tputs.into_iter().enumerate() {
        println!(
            "{:<8} {:>6} {:>12.2}",
            format!("f{}", i + 1),
            quarters[i],
            gbps
        );
    }
    println!("\nhigher β ⇒ gentler backoff to marks ⇒ proportionally more bandwidth");
}
