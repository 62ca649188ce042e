//! The AC/DC datapath: per-packet processing at the vSwitch.
//!
//! The host wires it between the guest stack and the NIC:
//!
//! ```text
//!   VM egress  ──►  AcdcDatapath::egress   ──►  NIC / network
//!   VM ingress ◄──  AcdcDatapath::ingress  ◄──  NIC / network
//! ```
//!
//! Both directions of every connection pass through, so the same object
//! plays the paper's *sender module* (for flows this host originates) and
//! *receiver module* (for flows it terminates).

use std::rc::Rc;

use acdc_packet::{FlowKey, Segment};
use acdc_stats::time::{Nanos, SECOND};
use acdc_telemetry::{Counter, EventKind, EvictReason, MetricsRegistry, Telemetry};

use crate::checkpoint::{DatapathCheckpoint, HubCheckpoint};
use crate::health::HealthState;
use crate::policy::CcPolicy;
use crate::state::{Core, Cx, Events};
use crate::table::{AdmissionPolicy, FlowTable};

/// Datapath configuration.
#[derive(Debug, Clone)]
pub struct AcdcConfig {
    /// Master switch: `false` makes both directions pass packets through
    /// untouched (the plain-OVS baseline).
    pub enabled: bool,
    /// MTU in bytes: a PACK that would push a packet past this travels in
    /// a dedicated FACK instead (§3.2). Congestion windows are sized in
    /// segments of `mtu − 40`.
    pub mtu: usize,
    /// Per-flow congestion-control assignment.
    pub policy: CcPolicy,
    /// Policing (§3.3): drop egress data beyond
    /// `snd_una + cwnd + slack` when set. `None` disables the policer.
    pub police_slack_bytes: Option<u64>,
    /// Compute windows but do not rewrite them (Figure 9's measurement
    /// mode: RWND is logged and compared against the guest's CWND).
    pub log_only: bool,
    /// Record a `(time, window)` trace in each flow entry.
    pub trace_windows: bool,
    /// Administrative upper bound on the enforced window in bytes — the
    /// §3.4 per-flow bandwidth cap ("bounding RWND", Figure 6b).
    pub max_rwnd_bytes: Option<u64>,
    /// Override the floor of the enforced window (bytes). Default is the
    /// byte-granular sub-segment floor that gives AC/DC its incast edge
    /// over DCTCP's 2-packet minimum (Figure 19); the ablation harness
    /// sets `2 × MSS` here to quantify that choice.
    pub min_window_bytes: Option<u32>,
    /// Ablation: never emit dedicated FACK packets — feedback that cannot
    /// piggyback is dropped. Quantifies what the FACK mechanism buys on
    /// bidirectional traffic (§3.2).
    pub disable_fack: bool,
    /// Hard cap on tracked flow entries (`None` = unbounded). The paper
    /// sizes per-flow state for tens of thousands of connections (§4);
    /// a bounded table makes exhaustion an explicit, tested regime.
    pub max_flows: Option<usize>,
    /// What to do when a new flow arrives with the table at `max_flows`.
    pub admission: AdmissionPolicy,
    /// Idle timeout for the periodic flow-table garbage collection driven
    /// from the host's maintenance tick.
    pub gc_idle_timeout: Nanos,
}

impl AcdcConfig {
    /// The paper's deployment defaults: AC/DC on, DCTCP in the vSwitch.
    pub fn dctcp(mtu: usize) -> AcdcConfig {
        AcdcConfig {
            enabled: true,
            mtu,
            policy: CcPolicy::dctcp(),
            police_slack_bytes: None,
            log_only: false,
            trace_windows: false,
            max_rwnd_bytes: None,
            min_window_bytes: None,
            disable_fack: false,
            max_flows: None,
            admission: AdmissionPolicy::EvictOldestIdle,
            gc_idle_timeout: 30 * SECOND,
        }
    }

    /// Baseline: plain OVS (datapath disabled).
    pub fn disabled(mtu: usize) -> AcdcConfig {
        AcdcConfig {
            enabled: false,
            ..AcdcConfig::dctcp(mtu)
        }
    }
}

/// Datapath decision for one packet.
#[derive(Debug)]
pub enum Verdict {
    /// Forward the (possibly rewritten) packet.
    Forward(Segment),
    /// Forward the packet and also emit a generated FACK. The FACK is
    /// boxed so that the common verdicts do not carry its room.
    ForwardWithExtra(Segment, Box<Segment>),
    /// Consume the packet.
    Drop(DropReason),
}

// A verdict is one segment, the FACK's box and a tag. With the FACK held
// inline it was twice a segment's size, and moving that through every
// `egress` / `ingress` return cost `dp_steady_1k` 9 % in wall ns per
// packet (2-vCPU Xeon, 8 s alternating pairs); no workload there makes a
// FACK at all.
const _: () = assert!(core::mem::size_of::<Verdict>() <= core::mem::size_of::<Segment>() + 16);

impl Verdict {
    /// The forwarded packet, if any (test helper).
    pub fn forwarded(self) -> Option<Segment> {
        match self {
            Verdict::Forward(s) | Verdict::ForwardWithExtra(s, _) => Some(s),
            Verdict::Drop(_) => None,
        }
    }
}

/// Why a packet was consumed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropReason {
    /// The policer caught a flow exceeding its enforced window (§3.3).
    Policed,
    /// A FACK reached the sender module and was absorbed after its
    /// feedback was logged (§3.2).
    FackConsumed,
}

/// Datapath event counters. Every field is a [`Counter`] handle into the
/// datapath's [`MetricsRegistry`] (registered under `acdc.<name>`), so
/// the same cells are readable through `snapshot_all()`.
#[derive(Debug)]
pub struct AcdcCounters {
    /// PACK options piggy-backed onto ACKs.
    pub packs_sent: Counter,
    /// Dedicated FACK packets generated.
    pub facks_sent: Counter,
    /// PACK options consumed and stripped at the sender module.
    pub packs_received: Counter,
    /// Receive windows rewritten on ACKs.
    pub rwnd_rewrites: Counter,
    /// Packets dropped by the policer.
    pub policed_drops: Counter,
    /// Timeouts inferred from inactivity.
    pub inferred_timeouts: Counter,
    /// Fast retransmits inferred from duplicate ACKs.
    pub inferred_fast_rtx: Counter,
    /// Feedback lost because FACKs were disabled (ablation only).
    pub feedback_dropped: Counter,
    /// Always zero: every segment is TCP, so nothing bypasses the
    /// datapath for its protocol. Registered still because every harness
    /// fingerprint and `Testbed::golden` line folds each `acdc.*` counter;
    /// it leaves with `malformed_drops` in ROADMAP item 1.
    pub non_tcp_passthrough: Counter,
    /// Always zero: every segment carries the meta it was made with, so
    /// nothing is dropped for failing to parse. Registered still, as
    /// `non_tcp_passthrough` is.
    pub malformed_drops: Counter,
    /// Entries collected by the periodic idle/closed garbage collection.
    pub gc_evictions: Counter,
    /// Entries evicted to admit new flows at capacity (evict-oldest-idle).
    pub capacity_evictions: Counter,
    /// New flows refused at the capacity gate (reject-new, or eviction
    /// found no victim); their packets are forwarded untouched.
    pub admission_rejects: Counter,
    /// Packets forwarded untouched because the datapath was in the
    /// `PassThrough` health state.
    pub overload_passthrough: Counter,
    /// RWND rewrites skipped because the flow's window scale was never
    /// learned from a handshake (mid-stream adoption stays log-only).
    pub unscaled_rwnd_skips: Counter,
    /// Health-ladder demotions (toward less intervention).
    pub health_demotions: Counter,
    /// Health-ladder promotions (recovery toward enforcement).
    pub health_promotions: Counter,
    /// Datapath restarts (`AcdcDatapath::reset`).
    pub datapath_resets: Counter,
}

impl AcdcCounters {
    /// Register every counter in `reg` under the `acdc.` prefix.
    fn register(reg: &MetricsRegistry) -> AcdcCounters {
        let c = |name: &str| reg.counter(format!("acdc.{name}"));
        AcdcCounters {
            packs_sent: c("packs_sent"),
            facks_sent: c("facks_sent"),
            packs_received: c("packs_received"),
            rwnd_rewrites: c("rwnd_rewrites"),
            policed_drops: c("policed_drops"),
            inferred_timeouts: c("inferred_timeouts"),
            inferred_fast_rtx: c("inferred_fast_rtx"),
            feedback_dropped: c("feedback_dropped"),
            non_tcp_passthrough: c("non_tcp_passthrough"),
            malformed_drops: c("malformed_drops"),
            gc_evictions: c("gc_evictions"),
            capacity_evictions: c("capacity_evictions"),
            admission_rejects: c("admission_rejects"),
            overload_passthrough: c("overload_passthrough"),
            unscaled_rwnd_skips: c("unscaled_rwnd_skips"),
            health_demotions: c("health_demotions"),
            health_promotions: c("health_promotions"),
            datapath_resets: c("datapath_resets"),
        }
    }
}

/// A per-flow statistics snapshot (see [`AcdcDatapath::flow_stats`]).
#[derive(Debug, Clone)]
pub struct FlowStat {
    /// The flow's 5-tuple key (data direction).
    pub key: FlowKey,
    /// Enforced algorithm name.
    pub cc_name: &'static str,
    /// Current enforced window, bytes.
    pub cwnd: u64,
    /// Bytes tracked as in flight.
    pub in_flight: u64,
    /// Smoothed RTT estimate, if sampled.
    pub srtt: Option<Nanos>,
    /// Lifetime bytes received for this flow at this host.
    pub rx_total: u64,
    /// Lifetime CE-marked bytes received.
    pub rx_marked: u64,
    /// Packets policed away.
    pub policed: u64,
    /// Awaiting garbage collection.
    pub closing: bool,
}

/// The AC/DC datapath instance of one host's vSwitch: the boundary
/// around its core (`crate::state`). Each call borrows the table's core
/// once, runs one `&mut` function on it, ends the borrow, and then
/// records the events the core handed back, in the order it produced
/// them.
///
/// A datapath has one owner and one thread (DESIGN.md §12): it is not
/// `Sync`, so no thread can share one. The bound a thread over `&dp`
/// would need does not hold:
///
/// ```compile_fail
/// use acdc_vswitch::{AcdcConfig, AcdcDatapath};
/// fn shared_across_threads<T: Sync>(_: &T) {}
/// let dp = AcdcDatapath::new(AcdcConfig::dctcp(1500));
/// shared_across_threads(&dp);
/// ```
///
/// The same check on a value read out of the datapath compiles:
///
/// ```
/// use acdc_vswitch::{AcdcConfig, AcdcDatapath};
/// fn shared_across_threads<T: Sync>(_: &T) {}
/// let dp = AcdcDatapath::new(AcdcConfig::dctcp(1500));
/// shared_across_threads(&dp.flows());
/// ```
pub struct AcdcDatapath {
    cfg: AcdcConfig,
    /// The flow table, whose core is the whole of what the datapath
    /// mutates: flow records, health ladder, overload flag.
    table: FlowTable,
    /// This datapath's observability domain (flight recorder +
    /// registry): every count and event of every packet lands here.
    telemetry: Rc<Telemetry>,
    /// The `acdc.*` counters, registered in `telemetry`'s registry.
    counters: AcdcCounters,
}

impl AcdcDatapath {
    /// Create a datapath with the given configuration.
    pub fn new(cfg: AcdcConfig) -> AcdcDatapath {
        let telemetry = Telemetry::with_default_capacity();
        let counters = AcdcCounters::register(telemetry.registry());
        let table = match cfg.max_flows {
            Some(cap) => FlowTable::bounded(cap, cfg.admission),
            None => FlowTable::new(),
        };
        AcdcDatapath {
            cfg,
            table,
            telemetry,
            counters,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &AcdcConfig {
        &self.cfg
    }

    /// Event counters.
    pub fn counters(&self) -> &AcdcCounters {
        &self.counters
    }

    /// This datapath's telemetry hub (event recorder + metrics registry).
    /// The owning host shares it for NIC-level events.
    pub fn telemetry(&self) -> &Rc<Telemetry> {
        &self.telemetry
    }

    /// The flow table (inspection; used by experiment probes).
    pub fn table(&self) -> &FlowTable {
        &self.table
    }

    /// Number of tracked flows, one per direction.
    pub fn flows(&self) -> usize {
        self.table.len()
    }

    /// Number of tracked connections (O(1)): one per record, whether it
    /// holds both directions or one — a half-closed connection, or a key
    /// that is its own reverse.
    pub fn connections(&self) -> usize {
        self.table.run((), |core, ()| core.flows.connections())
    }

    /// Current rung of the degradation ladder.
    pub fn health(&self) -> HealthState {
        self.table.run((), |core, ()| core.health.state)
    }

    /// Time-stamped health transition trace (restart epochs included).
    pub fn health_trace(&self) -> Vec<(Nanos, HealthState)> {
        self.table.run((), |core, ()| core.health.trace.clone())
    }

    /// The outbox of a call at virtual time `now`.
    fn outbox(&self, now: Nanos) -> Outbox<'_> {
        Outbox {
            hub: &self.telemetry,
            cx: Cx {
                cfg: &self.cfg,
                counters: &self.counters,
                now,
                events: Events::new(),
            },
        }
    }

    /// Simulate a vSwitch restart: drop all connection-tracking state and
    /// return to `Enforcing`, marking a restart epoch in the health trace.
    /// In-flight connections are re-adopted from subsequent data packets —
    /// conservatively: a flow whose handshake was lost stays log-only
    /// until a new SYN teaches its window scale. Returns the number of
    /// entries dropped.
    pub fn reset(&self, now: Nanos) -> usize {
        let mut out = self.outbox(now);
        self.table.run(&mut out.cx, Core::reset)
    }

    // ------------------------------------------------------------------
    // Checkpoint / restore (DESIGN.md §14)
    // ------------------------------------------------------------------

    /// Capture the datapath's full dynamic state at virtual time `at`.
    /// `hubs` must be empty; it is there only for the benchmark harness,
    /// which calls `checkpoint(at, &[])`.
    pub fn checkpoint(&self, at: Nanos, hubs: &[&Telemetry]) -> DatapathCheckpoint {
        debug_assert!(hubs.is_empty(), "a datapath has one telemetry hub");
        let hub = HubCheckpoint::capture(&self.telemetry);
        self.table
            .run((at, hub), |core, (at, hub)| core.checkpoint(at, hub))
    }

    /// Restore `ckpt` into this datapath — normally a freshly constructed
    /// one of the *same configuration*; any existing flow state is
    /// dropped first. Rebuilds every flow through the regular admission
    /// path (so policy assignment re-runs and must reproduce each flow's
    /// checkpointed CC algorithm), restores the health ladder and its
    /// trace verbatim, stamps the GC epoch, and applies the hub's metric
    /// values and recorder bookkeeping.
    ///
    /// Errors (configuration/checkpoint mismatch) leave the datapath in a
    /// partially restored state: discard it and restore into a fresh one.
    /// Returns the number of flows restored.
    pub fn restore(&self, ckpt: &DatapathCheckpoint) -> Result<usize, String> {
        let flows = self.table.run((&self.cfg, ckpt), |core, (cfg, ckpt)| {
            core.restore(cfg, ckpt)
        })?;
        ckpt.hub.apply(&self.telemetry)?;
        Ok(flows)
    }

    // ------------------------------------------------------------------
    // Packets
    // ------------------------------------------------------------------

    /// Process a packet leaving the guest toward the network.
    pub fn egress(&self, now: Nanos, seg: Segment) -> Verdict {
        // The plain-OVS baseline forwards without borrowing the core.
        if !self.cfg.enabled {
            return Verdict::Forward(seg);
        }
        let mut out = self.outbox(now);
        self.table
            .run((&mut out.cx, seg), |core, (cx, seg)| core.egress(cx, seg))
    }

    /// Process a packet arriving from the network toward the guest.
    pub fn ingress(&self, now: Nanos, seg: Segment) -> Verdict {
        if !self.cfg.enabled {
            return Verdict::Forward(seg);
        }
        let mut out = self.outbox(now);
        self.table
            .run((&mut out.cx, seg), |core, (cx, seg)| core.ingress(cx, seg))
    }

    // ------------------------------------------------------------------
    // Maintenance & flexibility features (§3.3)
    // ------------------------------------------------------------------

    /// Periodic tick: infer timeouts for flows whose ACK clock stopped
    /// entirely (no ingress packet will trigger the check).
    pub fn tick(&self, now: Nanos) {
        let mut out = self.outbox(now);
        let fired = self.table.run(&mut out.cx, Core::tick);
        for (key, cwnd) in fired {
            self.telemetry
                .record(now, key, EventKind::RtoFired { cwnd });
        }
    }

    /// Garbage-collect closed/idle entries (paired with FIN tracking).
    /// Driven from the host's 10 ms maintenance tick, after [`Self::tick`];
    /// also the one place the health ladder is evaluated, once per
    /// maintenance interval, right after occupancy receded.
    pub fn gc(&self, now: Nanos, idle_timeout: Nanos) -> usize {
        let mut out = self.outbox(now);
        let collected = self
            .table
            .run((&mut out.cx, idle_timeout), |core, (cx, idle)| {
                core.gc(cx, idle)
            });
        let n = collected.len();
        for key in collected {
            self.telemetry.record(
                now,
                key,
                EventKind::FlowEvicted {
                    reason: EvictReason::Gc,
                },
            );
        }
        // The ladder's move, if any, after the evictions that made it.
        drop(out);
        n
    }

    /// Per-flow statistics for every tracked entry, in key order — the
    /// operator-visibility view an administrator gets from the vSwitch
    /// (which flows it is enforcing, at what windows, with how much
    /// congestion feedback).
    ///
    /// Streamed, not copied: one call sorts the keys tracked now, and
    /// each stat is read in its own call as it is yielded, so no borrow
    /// of the core is held across the caller's code. A key removed
    /// between two yields is skipped; one created after the first is
    /// not visited.
    pub fn flow_stats(&self) -> impl Iterator<Item = FlowStat> + '_ {
        let keys = self.table.run((), |core, ()| core.flow_keys());
        keys.into_iter()
            .filter_map(move |key| self.table.run(&key, Core::flow_stat))
    }

    /// The passively reconstructed send pointers for `key`'s data sender,
    /// if the flow is tracked and its sequence state is valid (paper
    /// §3.1), as a [`acdc_packet::SeqView`] — the same currency
    /// `Endpoint::seq_view` exposes for its ground truth. The chaos suite
    /// compares the two after fault recovery.
    pub fn seq_view(&self, key: &FlowKey) -> Option<acdc_packet::SeqView> {
        self.table.run(key, Core::seq_view)
    }

    /// Generate a TCP Window Update for the data sender of `key` without
    /// waiting for an ACK (§3.3 flexibility): a pure ACK, receiver→sender,
    /// carrying the currently enforced window.
    ///
    /// This packet is meant to be *delivered to the local guest* (the data
    /// sender behind this vSwitch).
    pub fn make_window_update(&self, key: &FlowKey) -> Option<Segment> {
        self.table.run(key, Core::make_window_update)
    }

    /// Generate `n` duplicate ACKs for the data sender of `key` to trigger
    /// its fast retransmit earlier than its (possibly long) RTO (§3.3,
    /// incast mitigation).
    pub fn make_dup_acks(&self, key: &FlowKey, n: usize) -> Vec<Segment> {
        self.table
            .run((key, n), |core, (key, n)| core.make_dup_acks(key, n))
    }
}

/// One call's events on their way out: the call's context, whose events
/// are recorded into the hub, in the order the core produced them, when
/// the outbox drops. A call makes its outbox first and lends its `Cx` to
/// [`FlowTable::run`], so the outbox outlives the borrow: the events are
/// recorded after the core is released. Recording on drop also lets a
/// verdict go straight to the caller rather than wait, copied aside, for
/// the recording.
struct Outbox<'a> {
    hub: &'a Telemetry,
    cx: Cx<'a>,
}

impl Drop for Outbox<'_> {
    fn drop(&mut self) {
        for &(flow, kind) in self.cx.events.iter() {
            self.hub.record(self.cx.now, flow, kind);
        }
    }
}
