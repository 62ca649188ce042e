//! The datapath's core: everything it mutates, and the `&mut` functions
//! that advance it.
//!
//! [`Core`] holds the flow records ([`Flows`]), the health rung and its
//! trace, and the overload flag. It lives in the flow table's one
//! `RefCell`, and each public `AcdcDatapath` call borrows it once and
//! runs one function here on `&mut Core`. This module names neither the
//! telemetry hub nor the table that holds it, so nothing here can
//! re-enter the table or record mid-borrow: what a call has to say
//! leaves as the [`Events`] it wrote into its [`Cx`], in the order it
//! produced them, and the datapath records them after the borrow ends.
//! The datapath reaches the core through `FlowTable::run` alone, whose
//! `fn` argument captures nothing and sees only what the call lends it.

use acdc_cc::{CcConfig, CongestionControl};
use acdc_packet::{
    Ecn, FlowKey, Ipv4Repr, PackOption, PacketMeta, Segment, SeqView, TcpFlags, TcpRepr,
};
use acdc_stats::time::Nanos;
use acdc_telemetry::{key_label, DropCause, EventKind, EvictReason, NO_FLOW};

use crate::checkpoint::{DatapathCheckpoint, FlowCheckpoint, HubCheckpoint};
use crate::datapath::{AcdcConfig, AcdcCounters, DropReason, FlowStat, Verdict};
use crate::entry::{Enforcement, FlowEntry, Policed};
use crate::health::{Health, HealthState, LOG_ONLY_PCT, LOG_RECOVER_PCT, PASS_RECOVER_PCT};
use crate::rwnd::RwndAction;
use crate::table::{Admission, Flows};

/// Room for the events of one packet, which produces at most five. An
/// egress SYN makes two admissions: three events for the first
/// (eviction, creation, demotion) and two for the second (an eviction
/// and a creation, the demotion already made, or a reject and its
/// demotion). An ingress data segment makes one admission, three events,
/// and carries an ACK that can fire two CC events: an inferred timeout
/// and an alpha update. A fast retransmit needs a pure ACK, which makes
/// no admission. `tests/datapath.rs::the_busiest_packets_fill_the_event_buffer`
/// drives both five-event paths.
const CALL_EVENTS: usize = 5;

/// The events one call produced, in order, each with the flow it is
/// stamped with: a fixed array on the caller's stack, so a packet
/// allocates nothing for them. The slots are `Option`s so that an empty
/// buffer is five tag bytes to write, not five events to build and copy.
pub(crate) struct Events {
    buf: [Option<(FlowKey, EventKind)>; CALL_EVENTS],
    len: usize,
}

impl Events {
    #[inline]
    pub(crate) fn new() -> Events {
        Events {
            buf: [None; CALL_EVENTS],
            len: 0,
        }
    }

    #[inline]
    fn push(&mut self, flow: FlowKey, kind: EventKind) {
        self.buf[self.len] = Some((flow, kind));
        self.len += 1;
    }

    /// The events, oldest first.
    #[inline]
    pub(crate) fn iter(&self) -> impl Iterator<Item = &(FlowKey, EventKind)> {
        self.buf[..self.len].iter().flatten()
    }
}

/// What one call hands the core besides the core itself: the
/// configuration, the counters it bumps, the virtual time, and the
/// events it produces for the boundary to record.
pub(crate) struct Cx<'a> {
    pub(crate) cfg: &'a AcdcConfig,
    pub(crate) counters: &'a AcdcCounters,
    pub(crate) now: Nanos,
    pub(crate) events: Events,
}

/// Everything the datapath mutates.
pub(crate) struct Core {
    pub(crate) flows: Flows,
    pub(crate) health: Health,
    /// Any admission reject since the last maintenance check? Promotion
    /// requires a clean interval, not just receded occupancy.
    overload_seen: bool,
}

impl Core {
    pub(crate) fn new(flows: Flows) -> Core {
        Core {
            flows,
            health: Health::default(),
            overload_seen: false,
        }
    }

    fn set_health(&mut self, cx: &mut Cx, to: HealthState) {
        if let Some((from, to)) = self.health.transition(cx.now, to) {
            if to > from {
                cx.counters.health_demotions.inc();
            } else {
                cx.counters.health_promotions.inc();
            }
            cx.events.push(
                NO_FLOW,
                EventKind::HealthTransition {
                    from: from.label(),
                    to: to.label(),
                },
            );
        }
    }

    /// A flow was refused at the capacity gate: count it, remember the
    /// overload for the promotion logic, and drop to pass-through — if
    /// admission is failing, per-flow work is no longer trustworthy, and
    /// forwarding untouched is always safe (§3.3 fail-safe).
    fn on_admission_reject(&mut self, cx: &mut Cx, key: &FlowKey) {
        cx.counters.admission_rejects.inc();
        cx.events.push(*key, EventKind::AdmissionRejected);
        self.overload_seen = true;
        self.set_health(cx, HealthState::PassThrough);
    }

    /// Bookkeeping after a create-capable lookup that was admitted.
    fn note_admission(&mut self, cx: &mut Cx, key: &FlowKey, adm: Admission) {
        if adm == Admission::CreatedAfterEviction {
            cx.counters.capacity_evictions.inc();
            // Stamped with the admitted flow: the table does not surface
            // the victim's key, only that one made room.
            cx.events.push(
                *key,
                EventKind::FlowEvicted {
                    reason: EvictReason::Capacity,
                },
            );
        }
        if adm.created() {
            cx.events.push(*key, EventKind::FlowCreated);
            if let Some(cap) = cx.cfg.max_flows {
                // Eager demotion on the way up; recovery is left to the
                // maintenance tick (hysteresis lives in `update_health`).
                if self.health.state == HealthState::Enforcing
                    && self.flows.len() * 100 >= cap * usize::from(LOG_ONLY_PCT)
                {
                    self.set_health(cx, HealthState::LogOnly);
                }
            }
        }
    }

    /// Re-evaluate the ladder against occupancy. [`Core::gc`] is the one
    /// caller, so each maintenance interval evaluates it exactly once.
    /// Promotions require occupancy below the recovery watermark *and* a
    /// reject-free interval since the last check.
    fn update_health(&mut self, cx: &mut Cx) {
        let Some(cap) = cx.cfg.max_flows else {
            return;
        };
        let occ = self.flows.len() * 100;
        let overload = std::mem::take(&mut self.overload_seen);
        match self.health.state {
            HealthState::Enforcing => {
                if occ >= cap * usize::from(LOG_ONLY_PCT) {
                    self.set_health(cx, HealthState::LogOnly);
                }
            }
            HealthState::LogOnly => {
                if !overload && occ < cap * usize::from(LOG_RECOVER_PCT) {
                    self.set_health(cx, HealthState::Enforcing);
                }
            }
            HealthState::PassThrough => {
                if !overload && occ < cap * usize::from(PASS_RECOVER_PCT) {
                    self.set_health(cx, HealthState::LogOnly);
                }
            }
        }
    }

    /// `AcdcDatapath::reset`: drop all connection-tracking state, stamp
    /// the GC epoch, and return to `Enforcing` with a restart mark in the
    /// health trace. Returns the number of entries dropped.
    pub(crate) fn reset(&mut self, cx: &mut Cx) -> usize {
        let dropped = self.flows.clear();
        // Flows re-adopted after the restart inherit fresh
        // `last_activity` values, but the stamp guarantees nothing
        // re-created with pre-reset timestamps (checkpoint restores,
        // replayed traces) is spuriously collected by the next sweep.
        self.flows.set_epoch(cx.now);
        cx.counters.datapath_resets.inc();
        self.overload_seen = false;
        self.health.force(cx.now, HealthState::Enforcing);
        cx.events.push(
            NO_FLOW,
            EventKind::DatapathReset {
                flows_cleared: dropped as u64,
            },
        );
        dropped
    }

    // ------------------------------------------------------------------
    // Checkpoint / restore (DESIGN.md §14)
    // ------------------------------------------------------------------

    /// The core's part of a checkpoint at `at`, beside the captured `hub`.
    pub(crate) fn checkpoint(&mut self, at: Nanos, hub: HubCheckpoint) -> DatapathCheckpoint {
        let mut flows = Vec::with_capacity(self.flows.len());
        flows.extend(self.flows.iter_mut().map(|(key, e)| FlowCheckpoint {
            key,
            rx_pending: e.rx_pending(),
            state: e.checkpoint_state(),
        }));
        flows.sort_unstable_by_key(|f| f.key);
        DatapathCheckpoint {
            at,
            gc_epoch: self.flows.epoch(),
            overload_seen: self.overload_seen,
            health_rung: self.health.state.rung(),
            health_trace: self
                .health
                .trace
                .iter()
                .map(|&(t, s)| (t, s.rung()))
                .collect(),
            flows,
            hub,
        }
    }

    /// The core's part of `AcdcDatapath::restore`: every flow rebuilt
    /// through the regular admission path, the ladder and its trace
    /// verbatim, the GC epoch stamped. Returns the number of flows.
    pub(crate) fn restore(
        &mut self,
        cfg: &AcdcConfig,
        ckpt: &DatapathCheckpoint,
    ) -> Result<usize, String> {
        self.flows.clear();
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
            let (conn, _adm) = self.flows.connection_or_create(&f.key, || {
                new_entry(cfg, &f.key, f.state.life.last_activity)
            });
            match conn.into_this().map(|e| e.restore_state(&f.state)) {
                None => {
                    return Err(format!(
                        "flow table refused {} during restore (capacity {:?})",
                        key_label(&f.key),
                        cfg.max_flows
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
        self.flows.set_epoch(ckpt.gc_epoch);
        self.overload_seen = ckpt.overload_seen;
        self.health = Health {
            state: HealthState::from_rung(ckpt.health_rung),
            trace: ckpt
                .health_trace
                .iter()
                .map(|&(t, r)| (t, HealthState::from_rung(r)))
                .collect(),
        };
        Ok(ckpt.flows.len())
    }

    // ------------------------------------------------------------------
    // Egress: VM → network
    // ------------------------------------------------------------------

    /// A TCP packet leaving the guest, on an enabled datapath.
    #[inline]
    pub(crate) fn egress(&mut self, cx: &mut Cx, mut seg: Segment) -> Verdict {
        let (cfg, now) = (cx.cfg, cx.now);
        // Degradation ladder: an overloaded datapath forwards guest
        // packets untouched — no parse, no table work. Always safe: the
        // guest's own congestion control still runs (§3.3 fail-safe).
        let health = self.health.state;
        if health == HealthState::PassThrough {
            cx.counters.overload_passthrough.inc();
            return Verdict::Forward(seg);
        }
        let log_only = cfg.log_only || health == HealthState::LogOnly;
        let meta = seg.meta();
        let key = meta.flow;
        let flags = meta.flags;

        if flags.contains(TcpFlags::RST) {
            self.close_connection(&key);
            return Verdict::Forward(seg);
        }

        // --- Handshake monitoring (§3.1, §3.3) ---
        if flags.contains(TcpFlags::SYN) {
            self.on_handshake_packet(cx, &meta, /*egress=*/ true);
            return Verdict::Forward(seg); // SYNs are never mangled
        }

        // --- Sender module: data packets ---
        let ack = flags.contains(TcpFlags::ACK);
        let feedback = if seg.payload_len() > 0 || flags.contains(TcpFlags::FIN) {
            let fin = flags.contains(TcpFlags::FIN);
            let police = cfg.police_slack_bytes.filter(|_| !log_only);
            let (mut conn, admission) = self
                .flows
                .connection_or_create(&key, || new_entry(cfg, &key, now));
            let sent = conn
                .this()
                .map(|e| e.on_egress_data(now, meta.seq, seg.payload_len(), fin, police));
            // The receiver module's feedback for the ACK this segment
            // carries, under the same lookup; none for a segment that is
            // refused or policed.
            let feedback = match sent {
                Some(Ok(_)) if ack => conn.reverse().and_then(|re| re.take_pending_feedback(now)),
                _ => None,
            };
            let vm_ecn = match sent {
                // Table full, flow refused: forward untouched (fail-safe)
                // and let the ladder drop to pass-through.
                None => {
                    self.on_admission_reject(cx, &key);
                    return Verdict::Forward(seg);
                }
                Some(Ok(v)) => {
                    self.note_admission(cx, &key, admission);
                    v
                }
                Some(Err(Policed)) => {
                    cx.counters.policed_drops.inc();
                    cx.events.push(
                        key,
                        EventKind::PacketDropped {
                            cause: DropCause::Policed,
                        },
                    );
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
            self.flows
                .get(&key.reverse())
                .and_then(|re| re.take_pending_feedback(now))
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
            if seg.wire_len() + PackOption::WIRE_LEN <= cfg.mtu && seg.append_pack_in_place(pack) {
                cx.counters.packs_sent.inc();
            } else if cfg.disable_fack {
                // Ablation: the feedback is simply lost.
                cx.counters.feedback_dropped.inc();
            } else {
                cx.counters.facks_sent.inc();
                let fack = Box::new(make_fack(&seg, pack));
                return Verdict::ForwardWithExtra(seg, fack);
            }
        }

        Verdict::Forward(seg)
    }

    // ------------------------------------------------------------------
    // Ingress: network → VM
    // ------------------------------------------------------------------

    /// A TCP packet arriving from the network toward the guest, on an
    /// enabled datapath.
    #[inline]
    pub(crate) fn ingress(&mut self, cx: &mut Cx, mut seg: Segment) -> Verdict {
        let (cfg, now) = (cx.cfg, cx.now);
        let meta = seg.meta();
        let key = meta.flow;
        let flags = meta.flags;

        // Degradation ladder: overloaded datapaths do no per-flow work on
        // ingress either, but AC/DC's own wire metadata must never reach
        // a guest — FACKs are consumed, PACKs stripped, reserved bits
        // cleared. All of it is stateless header hygiene.
        let health = self.health.state;
        if health == HealthState::PassThrough {
            cx.counters.overload_passthrough.inc();
            if meta.fack {
                if let Some(pack) = meta.pack {
                    if let Some(e) = self.flows.get(&key.reverse()) {
                        e.absorb_feedback(pack);
                    }
                }
                return Verdict::Drop(DropReason::FackConsumed);
            }
            if meta.pack.is_some() {
                cx.counters.packs_received.inc();
                seg.strip_pack_in_place();
            }
            if meta.vm_ece || meta.fack {
                seg.clear_reserved();
            }
            return Verdict::Forward(seg);
        }
        let log_only = cfg.log_only || health == HealthState::LogOnly;

        if flags.contains(TcpFlags::RST) {
            self.close_connection(&key);
            return Verdict::Forward(seg);
        }
        if flags.contains(TcpFlags::SYN) {
            self.on_handshake_packet(cx, &meta, /*egress=*/ false);
            return Verdict::Forward(seg);
        }

        let pure_ack = seg.payload_len() == 0
            && flags.contains(TcpFlags::ACK)
            && !flags.intersects(TcpFlags::SYN | TcpFlags::FIN | TcpFlags::RST);

        // The data direction's key: CC events are stamped with the flow
        // whose window is enforced, not the arriving ACK's key.
        let data_key = key.reverse();
        let (cap, trace) = (cfg.max_rwnd_bytes.unwrap_or(u64::MAX), cfg.trace_windows);
        let ack_update = |e: &mut FlowEntry| e.on_ack(now, &meta, pure_ack, cap, trace);

        // --- Sender module: FACKs are logged and absorbed (§3.2) ---
        if meta.fack {
            // The FACK still carries an ACK; absorb its feedback and run
            // congestion control on it so the feedback takes effect
            // immediately, then drop it.
            let enforced = self.flows.get(&data_key).map(ack_update);
            enforce(cx, &mut seg, data_key, enforced, false);
            return Verdict::Drop(DropReason::FackConsumed);
        }

        // --- Receiver module: account + launder ECN on data (§3.2), then
        // the ACK the segment carries for the reverse direction, under
        // the same lookup ---
        let ack = flags.contains(TcpFlags::ACK);
        let fin = flags.contains(TcpFlags::FIN);
        let enforced = if seg.payload_len() > 0 {
            let payload_len = seg.payload_len() as u64;
            let ce = seg.ecn().is_ce();
            let (mut conn, admission) = self
                .flows
                .connection_or_create(&key, || new_entry(cfg, &key, now));
            if let Some(e) = conn.this() {
                e.on_rx_data(now, payload_len, ce, fin);
            }
            let enforced = conn.reverse().filter(|_| ack).map(ack_update);
            if admission.rejected() {
                // Untracked at capacity: leave the wire untouched — an
                // unlaundered CE mark is at worst ignored by a guest that
                // never negotiated ECN.
                self.on_admission_reject(cx, &key);
            } else {
                self.note_admission(cx, &key, admission);
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
        } else if fin {
            // A bare FIN still ends the remote's direction; one we never
            // tracked is left untracked.
            let mut conn = self.flows.connection(&key);
            if let Some(e) = conn.this() {
                e.close();
            }
            conn.reverse().filter(|_| ack).map(ack_update)
        } else if ack {
            self.flows.get(&data_key).map(ack_update)
        } else {
            None
        };

        // --- Sender module: ACK processing + enforcement (§3.1–3.3) ---
        if ack {
            if meta.pack.is_some() {
                cx.counters.packs_received.inc();
                seg.strip_pack_in_place();
            }
            enforce(cx, &mut seg, data_key, enforced, !log_only);
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

    /// Record handshake parameters from a SYN or SYN-ACK (§3.1). A SYN on
    /// a tuple whose entries saw FIN or RST opens a new connection: each
    /// closing entry starts again from a fresh one before it learns
    /// anything, so the next sweep does not collect the new connection's
    /// state. An entry that is not closing (say, a retransmitted SYN's)
    /// keeps its state.
    fn on_handshake_packet(&mut self, cx: &mut Cx, meta: &PacketMeta, egress: bool) {
        let (cfg, now) = (cx.cfg, cx.now);
        let key = meta.flow;
        let flags = meta.flags;
        let wscale = meta.wscale.map(|w| w.min(14));
        // The sender of this SYN advertises the scale used to interpret
        // windows in ACKs *it* will send — i.e. the ACKs of the reverse
        // data direction.
        let rev = key.reverse();
        let (conn, radm) = self
            .flows
            .connection_or_create(&rev, || new_entry(cfg, &rev, now));
        let learned = conn
            .into_this()
            .map(|re| reopen(cfg, re, &rev, now).learn_scale(now, wscale.unwrap_or(0)));
        if learned.is_none() {
            self.on_admission_reject(cx, &rev);
            return;
        }
        self.note_admission(cx, &rev, radm);

        // The VM originating this SYN is the data sender of `key`; its ECN
        // capability (SYN: ECE|CWR, SYN-ACK: ECE) matters at *its own*
        // host's sender module when stamping the reserved bit.
        if egress {
            let vm_ecn = if flags.contains(TcpFlags::ACK) {
                flags.contains(TcpFlags::ECE)
            } else {
                flags.contains(TcpFlags::ECE) && flags.contains(TcpFlags::CWR)
            };
            let (conn, adm) = self
                .flows
                .connection_or_create(&key, || new_entry(cfg, &key, now));
            let tracked = conn
                .into_this()
                .map(|e| reopen(cfg, e, &key, now).learn_syn(now, meta.seq, vm_ecn));
            if tracked.is_none() {
                self.on_admission_reject(cx, &key);
                return;
            }
            self.note_admission(cx, &key, adm);
        }
    }

    /// An RST ends both directions.
    fn close_connection(&mut self, key: &FlowKey) {
        let mut conn = self.flows.connection(key);
        if let Some(e) = conn.this() {
            e.close();
        }
        if let Some(e) = conn.reverse() {
            e.close();
        }
    }

    // ------------------------------------------------------------------
    // Maintenance & flexibility features (§3.3)
    // ------------------------------------------------------------------

    /// Infer timeouts for flows whose ACK clock stopped entirely.
    /// Returns each fired flow with its window after the timeout, sorted
    /// by key, not in the walk's bucket order: the order the datapath
    /// records them in.
    pub(crate) fn tick(&mut self, cx: &mut Cx) -> Vec<(FlowKey, u64)> {
        let mut fired = Vec::new();
        for (key, e) in self.flows.iter_mut() {
            if let Some(cwnd) = e.infer_timeout(cx.now) {
                fired.push((key, cwnd));
            }
        }
        fired.sort_unstable();
        cx.counters.inferred_timeouts.add(fired.len() as u64);
        fired
    }

    /// Collect closed and idle entries, then evaluate the health ladder
    /// once. Returns the collected keys, sorted.
    pub(crate) fn gc(&mut self, cx: &mut Cx, idle_timeout: Nanos) -> Vec<FlowKey> {
        let collected = self.flows.gc(cx.now, idle_timeout);
        cx.counters.gc_evictions.add(collected.len() as u64);
        self.update_health(cx);
        collected
    }

    /// Every tracked key, sorted: the keys alone, 12 B each, so a walk
    /// over the stats never holds a copy of the table.
    ///
    /// Keys are unique, so the unstable sort gives the stable one's order
    /// without its scratch buffer.
    pub(crate) fn flow_keys(&mut self) -> Vec<FlowKey> {
        let mut keys: Vec<FlowKey> = Vec::with_capacity(self.flows.len());
        keys.extend(self.flows.iter_mut().map(|(key, _)| key));
        keys.sort_unstable();
        keys
    }

    /// `key`'s statistics, when tracked.
    pub(crate) fn flow_stat(&mut self, key: &FlowKey) -> Option<FlowStat> {
        let e = self.flows.get(key)?;
        Some(FlowStat {
            key: *key,
            cc_name: e.cc().name(),
            cwnd: e.cwnd(),
            in_flight: e.in_flight(),
            srtt: e.seq().srtt,
            rx_total: e.feedback().rx_total_lifetime,
            rx_marked: e.feedback().rx_marked_lifetime,
            policed: e.policed(),
            closing: e.life().closing,
        })
    }

    /// `key`'s reconstructed send pointers, once valid.
    pub(crate) fn seq_view(&mut self, key: &FlowKey) -> Option<SeqView> {
        self.flows.get(key)?.seq().view()
    }

    /// A window update for `key`'s data sender, at the enforced window.
    pub(crate) fn make_window_update(&mut self, key: &FlowKey) -> Option<Segment> {
        let e = self.flows.get(key)?;
        make_pure_ack(key, e, e.cwnd().max(1))
    }

    /// `n` duplicate ACKs for `key`'s data sender.
    pub(crate) fn make_dup_acks(&mut self, key: &FlowKey, n: usize) -> Vec<Segment> {
        let Some(e) = self.flows.get(key) else {
            return Vec::new();
        };
        (0..n)
            .map_while(|_| make_pure_ack(key, e, e.cwnd()))
            .collect()
    }
}

/// A fresh entry for `key` under the configured policy: the one place
/// the datapath constructs per-flow state.
fn new_entry(cfg: &AcdcConfig, key: &FlowKey, now: Nanos) -> FlowEntry {
    let mut cc = CcConfig::vswitch((cfg.mtu - 40) as u32);
    if let Some(floor) = cfg.min_window_bytes {
        cc.min_window_bytes = floor;
    }
    FlowEntry::new(cfg.policy.assign(key), cc, now)
}

/// `e`, or a fresh entry for `key` in its place when `e` is closing.
fn reopen<'e>(
    cfg: &AcdcConfig,
    e: &'e mut FlowEntry,
    key: &FlowKey,
    now: Nanos,
) -> &'e mut FlowEntry {
    if e.life().closing {
        *e = new_entry(cfg, key, now);
    }
    e
}

/// Count and hand out the CC events [`FlowEntry::on_ack`] fired, stamped
/// with `data_key`, and apply its RWND decision to `seg` when `rewrite`
/// is true (`seg` is the ACK delivered to the guest); callers fold
/// log-only mode (config flag or health ladder) into it. `enforced` is
/// `None` when the acknowledged direction is not tracked.
///
/// Enforcement overwrites RWND with the computed window, only when that
/// is *smaller* than what the guest advertised (§3.3). Never with an
/// unlearned scale: an entry adopted mid-stream (restart, migration)
/// stays log-only until a handshake teaches the shift — a raw write
/// interpreted through the guest's real scale could be off by 2^14 in
/// either direction. The decision comes from the RWND-rewrite component
/// (`FlowEntry::rwnd`, see crate::rwnd).
fn enforce(
    cx: &mut Cx,
    seg: &mut Segment,
    data_key: FlowKey,
    enforced: Option<Enforcement>,
    rewrite: bool,
) {
    let Some((action, events)) = enforced else {
        return;
    };
    for ev in events.into_iter().flatten() {
        match ev {
            EventKind::CwndCut { .. } => cx.counters.inferred_fast_rtx.inc(),
            EventKind::RtoFired { .. } => cx.counters.inferred_timeouts.inc(),
            _ => {}
        }
        cx.events.push(data_key, ev);
    }
    if rewrite {
        match action {
            RwndAction::Rewrite(raw_target) => {
                seg.rewrite_window(raw_target);
                cx.counters.rwnd_rewrites.inc();
            }
            RwndAction::KeepGuest => {}
            RwndAction::ScaleUnlearned => {
                cx.counters.unscaled_rwnd_skips.inc();
            }
        }
    }
}

/// A pure ACK from the receiver of `key`'s data to its sender, at the
/// tracked `snd_una`, advertising `window_bytes` under the learned scale.
/// The sequence number is unknown to the vSwitch; guests ignore it on an
/// in-window pure ACK. `None` until the sequence state is valid.
fn make_pure_ack(key: &FlowKey, e: &FlowEntry, window_bytes: u64) -> Option<Segment> {
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
/// headroom — same idea, no re-emit). The copy drops `ack`'s options
/// (its SACK blocks and timestamps are the guest's ACK's business, which
/// forwards unchanged), so the PACK always fits, even beside a 60-byte
/// TCP header such as Linux sends while it SACKs with timestamps on.
fn make_fack(ack: &Segment, pack: PackOption) -> Segment {
    let vm_ece = ack.meta().vm_ece;
    let mut fack = ack.clone();
    fack.set_virtual_payload_len(0);
    fack.drop_tcp_options_in_place();
    let appended = fack.append_pack_in_place(pack);
    debug_assert!(appended, "a PACK fits a bare 20-byte TCP header");
    fack.set_tcp_flags(TcpFlags::ACK);
    fack.set_reserved(vm_ece, true);
    fack
}
