//! RTO exponential backoff and recovery under sustained Gilbert-Elliott
//! loss on a single flow.
//!
//! Complements `tests/chaos.rs`: instead of only checking the end state,
//! this samples the endpoint *during* the loss episode and asserts the
//! backoff exponent actually climbs (the armed timeout is
//! `rto << backoff`, so backoff ≥ 2 means the timeout at least
//! quadrupled) and then resets once ACKs flow again.

use acdc_core::{Scheme, Testbed};
use acdc_faults::FaultPlan;
use acdc_stats::time::MILLISECOND;

#[test]
fn sustained_ge_loss_drives_exponential_backoff_then_recovery() {
    const BYTES: u64 = 150_000;
    let mut tb = Testbed::custom(Scheme::acdc(), 1500);
    // Mean bad dwells of ~20 packets at 90% loss: whole flights die,
    // dup-ACK recovery starves, and consecutive unrepaired RTOs must
    // back off exponentially until a probe survives the burst.
    tb.set_trunk_fault(FaultPlan::new(0xACDC_0009).with_gilbert_elliott(0.02, 0.05, 0.0, 0.9));
    tb.build_dumbbell(1);
    let h = tb.add_bulk(0, 1, Some(BYTES), 0);

    // Step the simulation and watch the backoff ladder climb.
    let mut max_backoff = 0;
    let mut done_at = None;
    for step in 1..=20_000u64 {
        tb.run_until(step * MILLISECOND);
        max_backoff = max_backoff.max(tb.client_endpoint(h).rto_backoff());
        if tb.acked_bytes(h) == BYTES {
            done_at = Some(step);
            break;
        }
    }
    assert!(done_at.is_some(), "transfer must finish despite the bursts");
    assert!(
        max_backoff >= 2,
        "consecutive RTOs must climb the exponential ladder (saw {max_backoff})"
    );

    let ep = tb.client_endpoint(h);
    assert!(ep.timeouts() >= 2, "saw only {} timeouts", ep.timeouts());
    assert!(
        ep.retransmitted_segments() >= ep.timeouts(),
        "each timeout retransmits at least one segment"
    );
    // Recovery: forward ACK progress must have reset the exponent.
    assert_eq!(ep.rto_backoff(), 0, "backoff must reset after recovery");

    // The client-side vSwitch watches the same packets and must have
    // inferred the timeouts from its reconstructed state (§3.1).
    let inferred = tb.host_mut(0).datapath().counters().inferred_timeouts.get();
    assert!(
        inferred > 0,
        "vSwitch must infer RTOs from the packet stream"
    );

    // And its sequence state must agree with the endpoint ground truth.
    let ep_view = tb.client_endpoint(h).seq_view();
    let sw_view = tb
        .host_mut(h.client_host)
        .datapath()
        .seq_view(&h.key)
        .expect("vSwitch must still track the flow");
    assert_eq!(sw_view, ep_view);
}
