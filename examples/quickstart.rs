//! Quickstart: put AC/DC under a CUBIC guest and watch the vSwitch
//! enforce DCTCP.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! Builds a two-pair dumbbell (Figure 7a, shrunk), runs a 50 MB transfer
//! from a CUBIC guest with AC/DC enabled, and prints what the datapath
//! did: flows tracked, PACK feedback exchanged, receive-window rewrites,
//! and the throughput/latency the guest observed.

use acdc_cc::CongestionControl;
use acdc_core::{Scheme, Testbed};
use acdc_stats::time::{MILLISECOND, SECOND};

fn main() {
    // The paper's three configurations, one line each:
    //   Scheme::Cubic  — host CUBIC, plain OVS, no switch marking
    //   Scheme::Dctcp  — host DCTCP, plain OVS, WRED/ECN marking
    //   Scheme::acdc() — host CUBIC, AC/DC enforcing DCTCP in the vSwitch
    let scheme = Scheme::acdc();
    println!("scheme: {}", scheme.name());

    // 2 sender/receiver pairs over a shared 10 G trunk, 9 KB MTU.
    let mut tb = Testbed::dumbbell(2, scheme, 9000);

    // A 50 MB transfer from host 0 to host 2, plus an RTT probe on the
    // second pair so we can see the queueing the transfer causes.
    let flow = tb.add_bulk(0, 2, Some(50 << 20), 0);
    let probe = tb.add_pingpong(1, 3, 64, MILLISECOND, 0);

    // Run one virtual second.
    tb.run_until(SECOND);

    // What did the guest see?
    let fct = tb.fct_of(flow);
    let sample = fct.samples()[0];
    println!(
        "transfer: {} MB in {:.1} ms = {:.2} Gbps",
        sample.bytes >> 20,
        sample.fct() as f64 / MILLISECOND as f64,
        sample.bytes as f64 * 8.0 / sample.fct() as f64
    );

    let mut d = tb.probe_rtt_ms(probe);
    println!(
        "probe RTT while the transfer ran: p50 {:.0} µs, p99 {:.0} µs",
        d.percentile(50.0).unwrap() * 1000.0,
        d.percentile(99.0).unwrap() * 1000.0
    );

    // What did the vSwitch do? (§3 of the paper, in counters.)
    let dp = tb.host_mut(0).datapath();
    let c = dp.counters();
    println!("AC/DC datapath at the sender host:");
    println!("  flows tracked:        {}", dp.flows());
    println!("  PACK feedback rx:     {}", c.packs_received.get());
    println!("  RWND rewrites:        {}", c.rwnd_rewrites.get());
    println!("  inferred fast rtx:    {}", c.inferred_fast_rtx.get());
    println!("  inferred timeouts:    {}", c.inferred_timeouts.get());

    // The administrator's view: what the vSwitch knows about each flow.
    println!("per-flow view (vSwitch flow table):");
    for f in tb.host_mut(0).datapath().flow_stats() {
        println!(
            "  {} cc={} cwnd={}B in_flight={}B srtt={:?} rx={}B marked={}B",
            f.key, f.cc_name, f.cwnd, f.in_flight, f.srtt, f.rx_total, f.rx_marked
        );
    }

    // The enforced window is what the guest saw as its peer's RWND.
    let ep = tb.client_endpoint(flow);
    println!(
        "guest stack: {} | cwnd {} B | enforced (peer) window {} B",
        ep.cc().name(),
        ep.cwnd(),
        ep.peer_rwnd()
    );
    println!("note: the guest runs CUBIC, yet the flow behaved like DCTCP — that is AC/DC.");
}
