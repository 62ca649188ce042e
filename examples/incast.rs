//! Incast: N senders hammer one receiver (Figures 18/19).
//!
//! ```text
//! cargo run --release --example incast -- [senders]
//! ```
//!
//! Compares the three schemes at the given fan-in (default 32) and prints
//! throughput, fairness, RTT and drop rate — including the paper's
//! observation that AC/DC beats even native DCTCP on RTT because its
//! byte-granular windows can drop below DCTCP's 2-packet floor.

use acdc_core::Testbed;
use acdc_stats::time::{MILLISECOND, SECOND};

fn main() {
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(32);
    if !(2..=47).contains(&n) {
        eprintln!("error: senders must be in 2..=47 (got {n})");
        std::process::exit(2);
    }
    println!("incast: {n} senders → 1 receiver, 9 KB MTU, 10 GbE");
    println!(
        "{:<22} {:>12} {:>8} {:>12} {:>14} {:>10}",
        "scheme", "avg Mbps", "jain", "p50 RTT", "p99.9 RTT", "drops"
    );

    for scheme in Testbed::compared_schemes() {
        let name = scheme.name();
        // Hosts 0..n = senders, n = receiver, n+1 = RTT probe.
        let mut tb = Testbed::star(n + 2, scheme, 9000);
        let flows: Vec<_> = (0..n).map(|s| tb.add_bulk(s, n, None, 0)).collect();
        let probe = tb.add_pingpong(n + 1, n, 64, MILLISECOND, 0);

        let dur = SECOND / 2;
        let tputs: Vec<f64> = tb
            .goodput_gbps(&flows, dur / 4, dur)
            .iter()
            .map(|g| g * 1000.0)
            .collect();
        let avg = tputs.iter().sum::<f64>() / tputs.len() as f64;
        let jain = acdc_stats::jain_index(&tputs).unwrap();

        let mut rtt = tb.probe_rtt_ms(probe);
        println!(
            "{name:<22} {avg:>12.0} {jain:>8.3} {:>9.3} ms {:>11.3} ms {:>9.3}%",
            rtt.percentile(50.0).unwrap_or(f64::NAN),
            rtt.percentile(99.9).unwrap_or(f64::NAN),
            tb.drop_rate() * 100.0
        );
    }
    println!(
        "\nfair share would be {:.0} Mbps per flow",
        10_000.0 / n as f64
    );
}
