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

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use acdc_cc::{CcConfig, CongestionControl};
use acdc_packet::{Ecn, Ipv4Repr, PackOption, PacketMeta, Segment, TcpFlags, TcpRepr};
use acdc_stats::time::{Nanos, SECOND};
use acdc_telemetry::{Counter, EventKind, MetricsRegistry, Telemetry, NO_FLOW};

use crate::entry::{Enforcement, FlowEntry, Policed};
use crate::health::{HealthCell, HealthState, LOG_ONLY_PCT, LOG_RECOVER_PCT, PASS_RECOVER_PCT};
use crate::policy::CcPolicy;
use crate::rwnd::RwndAction;
use crate::table::{Admission, AdmissionPolicy, FlowTable};

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
    pub min_window_bytes: Option<u64>,
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
    /// Forward the packet and also emit a generated FACK.
    ForwardWithExtra(Segment, Segment),
    /// Consume the packet.
    Drop(DropReason),
}

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
    /// The headers failed the single fallible parse; wire input never
    /// panics the datapath (it is dropped and counted instead).
    Malformed,
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
    /// Non-TCP (UDP) packets forwarded untouched.
    pub non_tcp_passthrough: Counter,
    /// Malformed frames dropped by the fallible parse.
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
    pub key: acdc_packet::FlowKey,
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

/// The AC/DC datapath instance of one host's vSwitch.
pub struct AcdcDatapath {
    cfg: AcdcConfig,
    table: FlowTable,
    health: HealthCell,
    /// Any admission reject since the last maintenance check? Promotion
    /// requires a clean interval, not just receded occupancy.
    overload_seen: AtomicBool,
    /// This datapath's observability domain (flight recorder +
    /// registry): every count and event of every packet lands here,
    /// whichever thread processed it.
    telemetry: Arc<Telemetry>,
    /// The `acdc.*` counters, registered in `telemetry`'s registry.
    counters: AcdcCounters,
}

impl AcdcDatapath {
    /// Create a datapath with the given configuration.
    pub fn new(cfg: AcdcConfig) -> AcdcDatapath {
        let telemetry = Telemetry::with_default_capacity();
        let counters = AcdcCounters::register(telemetry.registry());
        let mut table = match cfg.max_flows {
            Some(cap) => FlowTable::bounded(cap, cfg.admission),
            None => FlowTable::new(),
        };
        table.set_telemetry(Arc::clone(&telemetry));
        AcdcDatapath {
            cfg,
            table,
            health: HealthCell::new(),
            overload_seen: AtomicBool::new(false),
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
    pub fn telemetry(&self) -> &Arc<Telemetry> {
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
        self.table.connections()
    }

    /// Current rung of the degradation ladder.
    pub fn health(&self) -> HealthState {
        self.health.get()
    }

    /// Time-stamped health transition trace (restart epochs included).
    pub fn health_trace(&self) -> Vec<(Nanos, HealthState)> {
        self.health.trace()
    }

    fn set_health(&self, now: Nanos, to: HealthState) {
        if let Some((from, to)) = self.health.transition(now, to) {
            if to > from {
                self.counters.health_demotions.inc();
            } else {
                self.counters.health_promotions.inc();
            }
            self.telemetry.record(
                now,
                NO_FLOW,
                EventKind::HealthTransition {
                    from: from.name(),
                    to: to.name(),
                },
            );
        }
    }

    /// A flow was refused at the capacity gate: count it, remember the
    /// overload for the promotion logic, and drop to pass-through — if
    /// admission is failing, per-flow work is no longer trustworthy, and
    /// forwarding untouched is always safe (§3.3 fail-safe).
    fn on_admission_reject(&self, now: Nanos, key: &acdc_packet::FlowKey) {
        self.counters.admission_rejects.inc();
        self.telemetry
            .record(now, *key, EventKind::AdmissionRejected);
        self.overload_seen.store(true, Ordering::Relaxed);
        self.set_health(now, HealthState::PassThrough);
    }

    /// Bookkeeping after a create-capable table op that was admitted.
    fn note_admission(&self, now: Nanos, key: &acdc_packet::FlowKey, adm: Admission) {
        if let Admission::CreatedAfterEviction(n) = adm {
            self.counters.capacity_evictions.add(n as u64);
            // Stamped with the admitted flow: the table does not surface
            // the victims' keys, only how many made room.
            self.telemetry
                .record(now, *key, EventKind::FlowEvicted { reason: "capacity" });
        }
        if adm.created() {
            self.telemetry.record(now, *key, EventKind::FlowCreated);
            if let Some(cap) = self.cfg.max_flows {
                // Eager demotion on the way up; recovery is left to the
                // maintenance tick (hysteresis lives in `update_health`).
                if self.health.get() == HealthState::Enforcing
                    && self.table.len() * 100 >= cap * usize::from(LOG_ONLY_PCT)
                {
                    self.set_health(now, HealthState::LogOnly);
                }
            }
        }
    }

    /// Re-evaluate the ladder against occupancy. [`Self::gc`] is the one
    /// caller, so each maintenance interval evaluates it exactly once.
    /// Promotions require occupancy below the recovery watermark *and* a
    /// reject-free interval since the last check.
    fn update_health(&self, now: Nanos) {
        let Some(cap) = self.cfg.max_flows else {
            return;
        };
        let occ = self.table.len() * 100;
        let overload = self.overload_seen.swap(false, Ordering::Relaxed);
        match self.health.get() {
            HealthState::Enforcing => {
                if occ >= cap * usize::from(LOG_ONLY_PCT) {
                    self.set_health(now, HealthState::LogOnly);
                }
            }
            HealthState::LogOnly => {
                if !overload && occ < cap * usize::from(LOG_RECOVER_PCT) {
                    self.set_health(now, HealthState::Enforcing);
                }
            }
            HealthState::PassThrough => {
                if !overload && occ < cap * usize::from(PASS_RECOVER_PCT) {
                    self.set_health(now, HealthState::LogOnly);
                }
            }
        }
    }

    /// Simulate a vSwitch restart: drop all connection-tracking state and
    /// return to `Enforcing`, marking a restart epoch in the health trace.
    /// In-flight connections are re-adopted from subsequent data packets —
    /// conservatively: a flow whose handshake was lost stays log-only
    /// until a new SYN teaches its window scale. Returns the number of
    /// entries dropped.
    pub fn reset(&self, now: Nanos) -> usize {
        let dropped = self.table.clear();
        // Stamp the GC epoch: flows re-adopted after the restart inherit
        // fresh `last_activity` values, but the stamp guarantees nothing
        // re-created with pre-reset timestamps (checkpoint restores,
        // replayed traces) is spuriously collected by the next sweep.
        self.table.set_epoch(now);
        self.counters.datapath_resets.inc();
        self.overload_seen.store(false, Ordering::Relaxed);
        self.health.force(now, HealthState::Enforcing);
        self.telemetry.record(
            now,
            NO_FLOW,
            EventKind::DatapathReset {
                flows_cleared: dropped as u64,
            },
        );
        dropped
    }

    /// A fresh entry for `key` under the configured policy: the one
    /// place the datapath constructs per-flow state.
    fn new_entry(&self, key: &acdc_packet::FlowKey, now: Nanos) -> FlowEntry {
        let mut cc = CcConfig::vswitch((self.cfg.mtu - 40) as u32);
        if let Some(floor) = self.cfg.min_window_bytes {
            cc.min_window_bytes = floor;
        }
        FlowEntry::new(self.cfg.policy.assign(key), cc, now)
    }

    /// The headers failed the one fallible parse: count, record, drop.
    fn drop_malformed(&self, now: Nanos) -> Verdict {
        self.counters.malformed_drops.inc();
        self.telemetry.record(
            now,
            NO_FLOW,
            EventKind::PacketDropped { cause: "malformed" },
        );
        Verdict::Drop(DropReason::Malformed)
    }

    // ------------------------------------------------------------------
    // Checkpoint / restore (DESIGN.md §14)
    // ------------------------------------------------------------------

    /// Capture the datapath's full dynamic state at virtual time `at`.
    /// `hubs` must be empty; it is there only for the benchmark harness,
    /// which calls `checkpoint(at, &[])`.
    pub fn checkpoint(
        &self,
        at: Nanos,
        hubs: &[&Telemetry],
    ) -> crate::checkpoint::DatapathCheckpoint {
        debug_assert!(hubs.is_empty(), "a datapath has one telemetry hub");
        use crate::checkpoint::{DatapathCheckpoint, FlowCheckpoint, HubCheckpoint};
        let mut flows: Vec<FlowCheckpoint> = Vec::with_capacity(self.table.len());
        self.table.for_each(|key, e| {
            flows.push(FlowCheckpoint {
                key: *key,
                rx_pending: e.rx_pending(),
                state: e.checkpoint_state(),
            });
        });
        flows.sort_by_key(|f| f.key);
        DatapathCheckpoint {
            at,
            gc_epoch: self.table.epoch(),
            overload_seen: self.overload_seen.load(Ordering::Relaxed),
            health_rung: self.health.get().rung(),
            health_trace: self
                .health
                .trace()
                .into_iter()
                .map(|(t, s)| (t, s.rung()))
                .collect(),
            flows,
            hub: HubCheckpoint::capture(&self.telemetry),
        }
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
    pub fn restore(&self, ckpt: &crate::checkpoint::DatapathCheckpoint) -> Result<usize, String> {
        use acdc_telemetry::key_label;
        self.table.clear();
        for f in &ckpt.flows {
            // `rx_pending` is derived (`FlowEntry::rx_pending`); a document
            // that disagrees with its own counters no datapath wrote.
            if f.rx_pending != (f.state.feedback.rx_total > 0) {
                return Err(format!(
                    "flow {} checkpointed rx_pending {} beside rx_total {}",
                    key_label(&f.key),
                    f.rx_pending,
                    f.state.feedback.rx_total
                ));
            }
            let (restored, _adm) = self.table.with_entry_or_create(
                f.key,
                || self.new_entry(&f.key, f.state.life.last_activity),
                |e| e.restore_state(&f.state),
            );
            match restored {
                None => {
                    return Err(format!(
                        "flow table refused {} during restore (capacity {:?})",
                        key_label(&f.key),
                        self.cfg.max_flows
                    ))
                }
                Some(false) => {
                    return Err(format!(
                        "flow {} checkpointed `{}` CC state the configured policy \
                         does not reproduce",
                        key_label(&f.key),
                        f.state.cc_name
                    ))
                }
                Some(true) => {}
            }
        }
        self.table.set_epoch(ckpt.gc_epoch);
        self.overload_seen
            .store(ckpt.overload_seen, Ordering::Relaxed);
        self.health.restore(
            HealthState::from_rung(ckpt.health_rung),
            ckpt.health_trace
                .iter()
                .map(|&(t, r)| (t, HealthState::from_rung(r)))
                .collect(),
        );
        ckpt.hub.apply(&self.telemetry)?;
        Ok(ckpt.flows.len())
    }

    // ------------------------------------------------------------------
    // Egress: VM → network
    // ------------------------------------------------------------------

    /// Process a packet leaving the guest toward the network.
    pub fn egress(&self, now: Nanos, mut seg: Segment) -> Verdict {
        // The prototype only enforces TCP (the paper leaves UDP tunnels as
        // future work); other protocols pass through untouched (counted
        // even with AC/DC disabled — it is a visibility counter). The
        // protocol check is a single byte read: pass-through traffic and
        // the plain-OVS baseline never parse headers at all.
        if !seg.is_tcp() {
            self.counters.non_tcp_passthrough.inc();
            return Verdict::Forward(seg);
        }
        if !self.cfg.enabled {
            return Verdict::Forward(seg);
        }
        // Degradation ladder: an overloaded datapath forwards guest
        // packets untouched — no parse, no table work. Always safe: the
        // guest's own congestion control still runs (§3.3 fail-safe).
        let health = self.health.get();
        if health == HealthState::PassThrough {
            self.counters.overload_passthrough.inc();
            return Verdict::Forward(seg);
        }
        let log_only = self.cfg.log_only || health == HealthState::LogOnly;
        // A copy of the meta the segment carries. The drop arm cannot be
        // reached (DESIGN.md §9) and stays while the benchmark harness
        // pins `try_meta`'s `Result`.
        let Ok(meta) = seg.try_meta() else {
            return self.drop_malformed(now);
        };
        let key = meta.flow;
        let flags = meta.flags;

        if flags.contains(TcpFlags::RST) {
            self.close_connection(&key);
            return Verdict::Forward(seg);
        }

        // --- Handshake monitoring (§3.1, §3.3) ---
        if flags.contains(TcpFlags::SYN) {
            self.on_handshake_packet(now, &meta, /*egress=*/ true);
            return Verdict::Forward(seg); // SYNs are never mangled
        }

        // --- Sender module: data packets ---
        let ack = flags.contains(TcpFlags::ACK);
        let feedback = if seg.payload_len() > 0 || flags.contains(TcpFlags::FIN) {
            let fin = flags.contains(TcpFlags::FIN);
            let police = self.cfg.police_slack_bytes.filter(|_| !log_only);
            let ((sent, feedback), admission) = self.table.with_connection_or_create(
                key,
                || self.new_entry(&key, now),
                |e| e.on_egress_data(now, meta.seq, seg.payload_len(), fin, police),
                // The receiver module's feedback for the ACK this segment
                // carries, under the same lookup; none for a segment that
                // is refused or policed.
                |sent, re| {
                    let feedback = match (&sent, re) {
                        (Some(Ok(_)), Some(re)) if ack => re.take_pending_feedback(now),
                        _ => None,
                    };
                    (sent, feedback)
                },
            );
            let vm_ecn = match sent {
                // Table full, flow refused: forward untouched (fail-safe)
                // and let the ladder drop to pass-through.
                None => {
                    self.on_admission_reject(now, &key);
                    return Verdict::Forward(seg);
                }
                Some(Ok(v)) => {
                    self.note_admission(now, &key, admission);
                    v
                }
                Some(Err(Policed)) => {
                    self.counters.policed_drops.inc();
                    self.telemetry
                        .record(now, key, EventKind::PacketDropped { cause: "policed" });
                    return Verdict::Drop(DropReason::Policed);
                }
            };

            // Force ECT on egress data so switches mark instead of drop
            // (§3.2), and stamp the guest's original ECN capability into
            // the reserved bit for the peer module. Log-only mode
            // (Figure 9's measurement methodology) must not perturb the
            // guest's ECN loop, so it skips all packet rewriting.
            if seg.payload_len() > 0 && !log_only {
                if !seg.ecn().is_ect() {
                    seg.set_ecn(Ecn::Ect0);
                }
                seg.set_reserved(vm_ecn, false);
            }
            feedback
        } else if ack {
            // A pure ACK: the feedback is its only table work.
            self.table
                .with_entry(&key.reverse(), |re| re.take_pending_feedback(now))
                .flatten()
        } else {
            None
        };

        // "All egress packets are marked to be ECN-capable on the sender
        // module" (§3.2) — including pure ACKs, so they survive WRED on
        // congested reverse paths.
        if !log_only && !seg.ecn().is_ect() {
            seg.set_ecn(Ecn::Ect0);
        }

        // --- Receiver module: attach feedback to ACKs (§3.2) ---
        if let Some((total, marked)) = feedback {
            let pack = PackOption {
                total_bytes: total,
                marked_bytes: marked,
            };
            if seg.wire_len() + PackOption::WIRE_LEN <= self.cfg.mtu
                && seg.append_pack_in_place(pack)
            {
                self.counters.packs_sent.inc();
            } else if self.cfg.disable_fack {
                // Ablation: the feedback is simply lost.
                self.counters.feedback_dropped.inc();
            } else if let Some(fack) = make_fack(&seg, pack) {
                self.counters.facks_sent.inc();
                return Verdict::ForwardWithExtra(seg, fack);
            } else {
                // No room even in a payload-free copy (pathological
                // option soup): the feedback is lost, not a panic.
                self.counters.feedback_dropped.inc();
            }
        }

        Verdict::Forward(seg)
    }

    // ------------------------------------------------------------------
    // Ingress: network → VM
    // ------------------------------------------------------------------

    /// Process a packet arriving from the network toward the guest.
    pub fn ingress(&self, now: Nanos, mut seg: Segment) -> Verdict {
        if !seg.is_tcp() {
            self.counters.non_tcp_passthrough.inc();
            return Verdict::Forward(seg);
        }
        if !self.cfg.enabled {
            return Verdict::Forward(seg);
        }
        // A copy of the meta the segment carries; the drop arm is
        // unreachable, as on egress.
        let Ok(meta) = seg.try_meta() else {
            return self.drop_malformed(now);
        };
        let key = meta.flow;
        let flags = meta.flags;

        // Degradation ladder: overloaded datapaths do no per-flow work on
        // ingress either, but AC/DC's own wire metadata must never reach
        // a guest — FACKs are consumed, PACKs stripped, reserved bits
        // cleared. All of it is stateless header hygiene.
        let health = self.health.get();
        if health == HealthState::PassThrough {
            self.counters.overload_passthrough.inc();
            if meta.fack {
                if let Some(pack) = meta.pack {
                    self.table
                        .with_entry(&key.reverse(), |e| e.absorb_feedback(pack));
                }
                return Verdict::Drop(DropReason::FackConsumed);
            }
            if meta.pack.is_some() {
                self.counters.packs_received.inc();
                seg.strip_pack_in_place();
            }
            if meta.vm_ece || meta.fack {
                seg.clear_reserved();
            }
            return Verdict::Forward(seg);
        }
        let log_only = self.cfg.log_only || health == HealthState::LogOnly;

        if flags.contains(TcpFlags::RST) {
            self.close_connection(&key);
            return Verdict::Forward(seg);
        }
        if flags.contains(TcpFlags::SYN) {
            self.on_handshake_packet(now, &meta, /*egress=*/ false);
            return Verdict::Forward(seg);
        }

        let pure_ack = seg.payload_len() == 0
            && flags.contains(TcpFlags::ACK)
            && !flags.intersects(TcpFlags::SYN | TcpFlags::FIN | TcpFlags::RST);

        // The data direction's key: CC events are stamped with the flow
        // whose window is enforced, not the arriving ACK's key.
        let data_key = key.reverse();
        let (cap, trace) = (
            self.cfg.max_rwnd_bytes.unwrap_or(u64::MAX),
            self.cfg.trace_windows,
        );
        let ack_update = |e: &mut FlowEntry| e.on_ack(now, &meta, pure_ack, cap, trace);

        // --- Sender module: FACKs are logged and absorbed (§3.2) ---
        if meta.fack {
            // The FACK still carries an ACK; absorb its feedback and run
            // congestion control on it so the feedback takes effect
            // immediately, then drop it.
            let enforced = self.table.with_entry(&data_key, ack_update);
            self.enforce(now, &mut seg, data_key, enforced, false);
            return Verdict::Drop(DropReason::FackConsumed);
        }

        // --- Receiver module: account + launder ECN on data (§3.2), then
        // the ACK the segment carries for the reverse direction, under
        // the same lookup ---
        let ack = flags.contains(TcpFlags::ACK);
        let acked = |re: Option<&mut FlowEntry>| re.filter(|_| ack).map(ack_update);
        let enforced = if seg.payload_len() > 0 {
            let payload_len = seg.payload_len() as u64;
            let ce = seg.ecn().is_ce();
            let (enforced, admission) = self.table.with_connection_or_create(
                key,
                || self.new_entry(&key, now),
                |e| e.on_rx_data(now, payload_len, ce, flags.contains(TcpFlags::FIN)),
                |_, re| acked(re),
            );
            if admission.rejected() {
                // Untracked at capacity: leave the wire untouched — an
                // unlaundered CE mark is at worst ignored by a guest that
                // never negotiated ECN.
                self.on_admission_reject(now, &key);
            } else {
                self.note_admission(now, &key, admission);
                // Restore what the sender VM originally put on the wire:
                // ECT if its stack spoke ECN (hiding the CE mark from it
                // is the point — DCTCP in the vSwitch reacts instead),
                // nothing otherwise. Log-only mode leaves packets
                // untouched so the guest's own congestion loop stays
                // intact.
                if !log_only {
                    let target = if meta.vm_ece { Ecn::Ect0 } else { Ecn::NotEct };
                    if seg.ecn() != target {
                        seg.set_ecn(target);
                    }
                }
            }
            enforced
        } else if flags.contains(TcpFlags::FIN) {
            // A bare FIN still ends the remote's direction; one we never
            // tracked is left untracked.
            self.table
                .with_connection(&key, FlowEntry::close, |_, re| acked(re))
        } else if ack {
            self.table.with_entry(&data_key, ack_update)
        } else {
            None
        };

        // --- Sender module: ACK processing + enforcement (§3.1–3.3) ---
        if ack {
            if meta.pack.is_some() {
                self.counters.packs_received.inc();
                seg.strip_pack_in_place();
            }
            self.enforce(now, &mut seg, data_key, enforced, !log_only);
            // Hide ECN feedback from the guest so it does not also back
            // off (§3.3): AC/DC is the one reacting. Applied to every
            // non-SYN ACK — the vSwitch owns ECN on this fabric.
            if !log_only && flags.contains(TcpFlags::ECE) {
                seg.clear_tcp_flags(TcpFlags::ECE);
            }
        }

        // Never leak AC/DC metadata into the guest.
        if meta.vm_ece || meta.fack {
            seg.clear_reserved();
        }

        Verdict::Forward(seg)
    }

    /// Count and publish the CC events [`FlowEntry::on_ack`] fired,
    /// stamped with `data_key`, and apply its RWND decision to `seg`
    /// when `rewrite` is true (`seg` is the ACK delivered to the guest);
    /// callers fold log-only mode (config flag or health ladder) into it.
    /// `enforced` is `None` when the acknowledged direction is not
    /// tracked.
    ///
    /// Enforcement overwrites RWND with the computed window, only when
    /// that is *smaller* than what the guest advertised (§3.3). Never
    /// with an unlearned scale: an entry adopted mid-stream (restart,
    /// migration) stays log-only until a handshake teaches the shift — a
    /// raw write interpreted through the guest's real scale could be off
    /// by 2^14 in either direction. The decision comes from the
    /// RWND-rewrite component (`FlowEntry::rwnd`, see crate::rwnd).
    fn enforce(
        &self,
        now: Nanos,
        seg: &mut Segment,
        data_key: acdc_packet::FlowKey,
        enforced: Option<Enforcement>,
        rewrite: bool,
    ) {
        let Some((action, events)) = enforced else {
            return;
        };
        for ev in events.into_iter().flatten() {
            match ev {
                EventKind::CwndCut { .. } => self.counters.inferred_fast_rtx.inc(),
                EventKind::RtoFired { .. } => self.counters.inferred_timeouts.inc(),
                _ => {}
            }
            self.telemetry.record(now, data_key, ev);
        }
        if rewrite {
            match action {
                RwndAction::Rewrite(raw_target) => {
                    seg.rewrite_window(raw_target);
                    self.counters.rwnd_rewrites.inc();
                }
                RwndAction::KeepGuest => {}
                RwndAction::ScaleUnlearned => {
                    self.counters.unscaled_rwnd_skips.inc();
                }
            }
        }
    }

    /// Record handshake parameters from a SYN or SYN-ACK (§3.1). A SYN on
    /// a tuple whose entries saw FIN or RST opens a new connection: each
    /// closing entry starts again from a fresh one before it learns
    /// anything, so the next sweep does not collect the new connection's
    /// state. An entry that is not closing (say, a retransmitted SYN's)
    /// keeps its state.
    fn on_handshake_packet(&self, now: Nanos, meta: &PacketMeta, egress: bool) {
        let key = meta.flow;
        let flags = meta.flags;
        let wscale = meta.wscale.map(|w| w.min(14));
        // The sender of this SYN advertises the scale used to interpret
        // windows in ACKs *it* will send — i.e. the ACKs of the reverse
        // data direction.
        let rev = key.reverse();
        let (learned, radm) = self.table.with_entry_or_create(
            rev,
            || self.new_entry(&rev, now),
            |re| {
                self.reopen(re, &rev, now)
                    .learn_scale(now, wscale.unwrap_or(0))
            },
        );
        if learned.is_none() {
            self.on_admission_reject(now, &rev);
            return;
        }
        self.note_admission(now, &rev, radm);

        // The VM originating this SYN is the data sender of `key`; its ECN
        // capability (SYN: ECE|CWR, SYN-ACK: ECE) matters at *its own*
        // host's sender module when stamping the reserved bit.
        if egress {
            let vm_ecn = if flags.contains(TcpFlags::ACK) {
                flags.contains(TcpFlags::ECE)
            } else {
                flags.contains(TcpFlags::ECE) && flags.contains(TcpFlags::CWR)
            };
            let (tracked, adm) = self.table.with_entry_or_create(
                key,
                || self.new_entry(&key, now),
                |e| self.reopen(e, &key, now).learn_syn(now, meta.seq, vm_ecn),
            );
            if tracked.is_none() {
                self.on_admission_reject(now, &key);
                return;
            }
            self.note_admission(now, &key, adm);
        }
    }

    /// `e`, or a fresh entry for `key` in its place when `e` is closing.
    fn reopen<'e>(
        &self,
        e: &'e mut FlowEntry,
        key: &acdc_packet::FlowKey,
        now: Nanos,
    ) -> &'e mut FlowEntry {
        if e.life().closing {
            *e = self.new_entry(key, now);
        }
        e
    }

    /// An RST ends both directions.
    fn close_connection(&self, key: &acdc_packet::FlowKey) {
        self.table
            .with_connection(key, FlowEntry::close, |_, re| re.map(FlowEntry::close));
    }

    // ------------------------------------------------------------------
    // Maintenance & flexibility features (§3.3)
    // ------------------------------------------------------------------

    /// Periodic tick: infer timeouts for flows whose ACK clock stopped
    /// entirely (no ingress packet will trigger the check).
    pub fn tick(&self, now: Nanos) {
        // Timeouts are collected during the sweep and published after it:
        // the event bus must not be entered while a table lock is held
        // (W002). Published in `FlowTable::sweep_order`, not the walk's
        // bucket order.
        let mut fired = Vec::new();
        self.table.for_each(|key, e| {
            if let Some(cwnd) = e.infer_timeout(now) {
                fired.push((FlowTable::sweep_order(key), cwnd));
            }
        });
        fired.sort_unstable();
        for ((_, key), cwnd) in &fired {
            self.counters.inferred_timeouts.inc();
            self.telemetry
                .record(now, *key, EventKind::RtoFired { cwnd: *cwnd });
        }
    }

    /// Garbage-collect closed/idle entries (paired with FIN tracking).
    /// Driven from the host's 10 ms maintenance tick, after [`Self::tick`];
    /// also the one place the health ladder is evaluated, once per
    /// maintenance interval, right after occupancy receded.
    pub fn gc(&self, now: Nanos, idle_timeout: Nanos) -> usize {
        let collected = self.table.gc(now, idle_timeout);
        if collected > 0 {
            self.counters.gc_evictions.add(collected as u64);
        }
        self.update_health(now);
        collected
    }

    /// Snapshot per-flow statistics for every tracked entry — the
    /// operator-visibility view an administrator gets from the vSwitch
    /// (which flows it is enforcing, at what windows, with how much
    /// congestion feedback).
    pub fn flow_stats(&self) -> Vec<FlowStat> {
        let mut out = Vec::new();
        self.table.for_each(|key, e| {
            out.push(FlowStat {
                key: *key,
                cc_name: e.cc().name(),
                cwnd: e.cc().cwnd(),
                in_flight: e.in_flight(),
                srtt: e.seq().srtt,
                rx_total: e.feedback().rx_total_lifetime,
                rx_marked: e.feedback().rx_marked_lifetime,
                policed: e.policed(),
                closing: e.life().closing,
            });
        });
        out.sort_by_key(|s| s.key);
        out
    }

    /// The passively reconstructed send pointers for `key`'s data sender,
    /// if the flow is tracked and its sequence state is valid (paper
    /// §3.1), as a [`acdc_packet::SeqView`] — the same currency
    /// `Endpoint::seq_view` exposes for its ground truth. The chaos suite
    /// compares the two after fault recovery.
    pub fn seq_view(&self, key: &acdc_packet::FlowKey) -> Option<acdc_packet::SeqView> {
        self.table.with_entry(key, |e| e.seq().view()).flatten()
    }

    /// Generate a TCP Window Update for the data sender of `key` without
    /// waiting for an ACK (§3.3 flexibility): a pure ACK, receiver→sender,
    /// carrying the currently enforced window.
    ///
    /// This packet is meant to be *delivered to the local guest* (the data
    /// sender behind this vSwitch).
    pub fn make_window_update(&self, key: &acdc_packet::FlowKey) -> Option<Segment> {
        self.table
            .with_entry(key, |e| make_pure_ack(key, e, e.cc().cwnd().max(1)))
            .flatten()
    }

    /// Generate `n` duplicate ACKs for the data sender of `key` to trigger
    /// its fast retransmit earlier than its (possibly long) RTO (§3.3,
    /// incast mitigation).
    pub fn make_dup_acks(&self, key: &acdc_packet::FlowKey, n: usize) -> Vec<Segment> {
        self.table
            .with_entry(key, |e| {
                (0..n)
                    .map_while(|_| make_pure_ack(key, e, e.cc().cwnd()))
                    .collect()
            })
            .unwrap_or_default()
    }
}

/// A pure ACK from the receiver of `key`'s data to its sender, at the
/// tracked `snd_una`, advertising `window_bytes` under the learned scale.
/// The sequence number is unknown to the vSwitch; guests ignore it on an
/// in-window pure ACK. `None` until the sequence state is valid.
fn make_pure_ack(key: &acdc_packet::FlowKey, e: &FlowEntry, window_bytes: u64) -> Option<Segment> {
    let view = e.seq().view()?;
    let mut t = TcpRepr::new(key.dst_port, key.src_port);
    t.flags = TcpFlags::ACK;
    t.ack = view.snd_una;
    t.seq = acdc_packet::SeqNumber::ZERO;
    t.window = e.rwnd().raw_window(window_bytes);
    let ip = Ipv4Repr {
        src_addr: key.dst_ip,
        dst_addr: key.src_ip,
        protocol: acdc_packet::PROTO_TCP,
        ecn: Ecn::NotEct,
        payload_len: 0,
        ttl: Ipv4Repr::DEFAULT_TTL,
    };
    Some(Segment::new_tcp(ip, t, 0))
}

/// Build a dedicated FACK: a payload-free copy of `ack` carrying the PACK
/// option and the FACK reserved-bit marker. The copy is produced by
/// in-place byte patches on a clone (the paper shifts headers into skb
/// headroom — same idea, no re-emit). `None` when even the payload-free
/// copy has no room for the option; the caller drops the feedback.
fn make_fack(ack: &Segment, pack: PackOption) -> Option<Segment> {
    let mut fack = ack.clone();
    fack.set_virtual_payload_len(0);
    fack.strip_pack_in_place();
    let vm_ece = fack.try_meta().ok()?.vm_ece;
    if !fack.append_pack_in_place(pack) {
        return None;
    }
    fack.set_tcp_flags(TcpFlags::ACK);
    fack.set_reserved(vm_ece, true);
    Some(fack)
}
