//! [`FaultyLink`]: a [`Node`] interposed on a netsim link that applies one
//! [`FaultProcess`] per direction.
//!
//! Wire it in with
//! [`Network::connect_interposed`](acdc_netsim::Network::connect_interposed):
//!
//! ```
//! use acdc_faults::{FaultPlan, FaultyLink};
//! use acdc_netsim::{LinkSpec, Network};
//!
//! let mut net = Network::new();
//! let a = net.reserve_node();
//! let b = net.reserve_node();
//! let plan = FaultPlan::new(1).with_iid_loss(0.01);
//! let (_pa, _pb, _tap) = net.connect_interposed(a, b, LinkSpec::ten_gbe(1_500), |ta, tb| {
//!     Box::new(FaultyLink::new(&plan, ta, tb))
//! });
//! ```

use std::any::Any;
use std::collections::BTreeMap;

use acdc_netsim::{Ctx, Node, PortDropClass, PortId};
use acdc_packet::{FlowKey, Segment};
use acdc_stats::time::Nanos;
use acdc_telemetry::{EventKind, NO_FLOW};

use crate::plan::FaultPlan;
use crate::process::{DropCause, Fate, FaultProcess, FaultStats};

/// Per-direction counters of a [`FaultyLink`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkFaultStats {
    /// Faults applied to traffic entering on port A (heading to B).
    pub a_to_b: FaultStats,
    /// Faults applied to traffic entering on port B (heading to A).
    pub b_to_a: FaultStats,
}

impl LinkFaultStats {
    /// Both directions combined.
    pub fn total(&self) -> FaultStats {
        self.a_to_b.merged(&self.b_to_a)
    }
}

/// Seed salt so the two directions draw from distinct RNG streams even
/// though they share one plan seed.
const B_TO_A_SALT: u64 = 0x9E37_79B9_7F4A_7C15;

/// A transparent-unless-faulty interposer node. Direction A→B runs the
/// plan's scripted `*_nth` sets; both directions run the random processes
/// on independent streams derived from `plan.seed`. Every fault it
/// applies is recorded on the network's hub as a `fault-injected` event
/// carrying the victim packet's flow key.
pub struct FaultyLink {
    port_a: PortId,
    port_b: PortId,
    ab: FaultProcess,
    ba: FaultProcess,
    /// Held packets (reorder/jitter), keyed by timer token.
    pending: BTreeMap<u64, (PortId, Segment)>,
    next_token: u64,
}

impl FaultyLink {
    /// Build the interposer for the tap ports returned by
    /// `connect_interposed` (`port_a` faces node A, `port_b` faces B).
    pub fn new(plan: &FaultPlan, port_a: PortId, port_b: PortId) -> FaultyLink {
        FaultyLink {
            port_a,
            port_b,
            ab: FaultProcess::new(plan, plan.seed, true),
            ba: FaultProcess::new(plan, plan.seed ^ B_TO_A_SALT, false),
            pending: BTreeMap::new(),
            next_token: 0,
        }
    }

    /// Counters for both directions.
    pub fn stats(&self) -> LinkFaultStats {
        LinkFaultStats {
            a_to_b: self.ab.stats(),
            b_to_a: self.ba.stats(),
        }
    }

    /// The tap port facing node B (carries the attribution for A→B fault
    /// drops in [`PortCounters`](acdc_netsim::PortCounters)).
    pub fn port_facing_b(&self) -> PortId {
        self.port_b
    }

    fn send(&mut self, ctx: &mut Ctx<'_>, out: PortId, seg: Segment, delay: Nanos) {
        if delay == 0 {
            ctx.enqueue(out, seg);
        } else {
            let token = self.next_token;
            self.next_token += 1;
            self.pending.insert(token, (out, seg));
            ctx.set_timer(delay, token);
        }
    }
}

/// The flow `seg` belongs to, or [`NO_FLOW`] when it does not parse.
fn flow_of(seg: &Segment) -> FlowKey {
    seg.try_meta().map(|m| m.flow).unwrap_or(NO_FLOW)
}

/// Record on the network's hub that `effect` was applied to `seg`.
fn trace(ctx: &Ctx<'_>, seg: &Segment, effect: &'static str) {
    ctx.record(flow_of(seg), EventKind::FaultInjected { effect });
}

impl Node for FaultyLink {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, port: PortId, mut seg: Segment) {
        let (proc_, out) = if port == self.port_a {
            (&mut self.ab, self.port_b)
        } else {
            (&mut self.ba, self.port_a)
        };
        let is_data = seg.payload_len() > 0;
        match proc_.decide(ctx.now(), is_data) {
            Fate::Drop(cause) => {
                let effect = match cause {
                    DropCause::Random => "drop-random",
                    DropCause::Scripted => "drop-scripted",
                    DropCause::LinkDown => "drop-link-down",
                };
                trace(ctx, &seg, effect);
                ctx.count_drop_for(out, PortDropClass::FaultInjected, flow_of(&seg));
            }
            Fate::Deliver(d) => {
                if d.corrupt {
                    // Damage the header so the receiver's checksum check
                    // fails while the packet still parses: one raw window
                    // bit, checksum left stale, cached meta kept in step.
                    trace(ctx, &seg, "corrupt");
                    seg.corrupt_window_bit();
                }
                if d.mark_ce && seg.ecn().is_ect() {
                    trace(ctx, &seg, "ce-mark");
                    seg.mark_ce();
                }
                if d.reordered {
                    trace(ctx, &seg, "reorder");
                } else if d.delay > 0 {
                    trace(ctx, &seg, "jitter");
                }
                if d.duplicate {
                    // The copy goes out immediately, ahead of a held
                    // original.
                    trace(ctx, &seg, "duplicate");
                    self.send(ctx, out, seg.clone(), 0);
                }
                self.send(ctx, out, seg, d.delay);
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if let Some((out, seg)) = self.pending.remove(&token) {
            ctx.enqueue(out, seg);
        }
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}
