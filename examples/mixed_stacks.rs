//! The headline demo: five guests with five *different* TCP stacks share
//! one bottleneck — first on plain OVS (Figure 1's chaos), then under
//! AC/DC (Figure 17's fairness), without touching the guests.
//!
//! ```text
//! cargo run --release --example mixed_stacks
//! ```

use acdc_cc::CcKind;
use acdc_core::{ConnTaps, Scheme, Testbed};
use acdc_stats::time::SECOND;

const STACKS: [CcKind; 5] = [
    CcKind::Illinois,
    CcKind::Cubic,
    CcKind::Reno,
    CcKind::Vegas,
    CcKind::HighSpeed,
];

fn run(scheme: Scheme) -> Vec<f64> {
    let mut tb = Testbed::dumbbell(5, scheme, 9000);
    let flows: Vec<_> = STACKS
        .iter()
        .enumerate()
        .map(|(i, &cc)| {
            tb.add_bulk_with_cc(
                i,
                5 + i,
                cc,
                false,
                None,
                (i as u64) * 100_000,
                ConnTaps::default(),
                None,
            )
        })
        .collect();
    tb.goodput_gbps(&flows, SECOND / 5, SECOND)
}

fn main() {
    println!("five guests, five stacks, one 10 G bottleneck\n");
    let plain = run(Scheme::Plain {
        host_cc: CcKind::Cubic,
        ecn: false,
    });
    let acdc = run(Scheme::acdc());

    println!(
        "{:<12} {:>18} {:>18}",
        "guest stack", "plain OVS (Gbps)", "under AC/DC (Gbps)"
    );
    for (i, kind) in STACKS.iter().enumerate() {
        println!("{:<12} {:>18.2} {:>18.2}", kind.name(), plain[i], acdc[i]);
    }
    let j = |v: &[f64]| acdc_stats::jain_index(v).unwrap();
    println!(
        "\nJain fairness: plain {:.3} → AC/DC {:.3}",
        j(&plain),
        j(&acdc)
    );
    println!("the guests did not change — the vSwitch did.");
}
