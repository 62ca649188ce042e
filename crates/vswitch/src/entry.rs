//! Per-flow connection-tracking state (§3.1), and the one module that
//! writes it.
//!
//! One entry exists per *data direction* of a connection — the paper keeps
//! "two flow entries for each connection" (§4). The flow table stores a
//! connection's two entries side by side, as the two halves of one
//! record in one allocation, so a packet reaches its own direction's
//! entry and the reverse one with one lookup (`crate::table`). The same
//! struct carries the sender-side role (congestion state, used at the
//! host of the data sender) and the receiver-side role (ECN byte
//! accounting, used at the host of the data receiver); each host only
//! exercises its own role of each entry.
//!
//! An entry is the enforcer — the algorithm, the RWND rewriter and what
//! they publish — plus three plain-data components: [`SendSeq`],
//! [`Feedback`] and [`Lifecycle`]. Its fields are private to this module.
//! The datapath drives it through transition methods named for the
//! protocol event (`on_egress_data`, `on_rx_data`, `on_ack`, the two
//! handshake halves, `close`, `take_pending_feedback`), and the table and
//! the checkpoint read it through accessors. The components themselves
//! are plain data, so a checkpoint holds them by value
//! ([`FlowEntryState`]) and `checkpoint.rs` alone knows their field names
//! on the wire.

use acdc_cc::{AckEvent, AnyCc, CcConfig, CcKind, CongestionControl};
use acdc_packet::{PackOption, PacketMeta, SeqNumber, SeqView};
use acdc_stats::time::{Nanos, MILLISECOND};
use acdc_telemetry::{CutCause, EventKind};

use crate::rwnd::{RwndAction, RwndRewriter};

/// Ceiling on the enforced window. The vSwitch CC cannot tell when a
/// guest is application- or NIC-limited (it sees only ACK progress), so
/// on an uncongested path its window would otherwise grow without bound
/// — wasting no bandwidth, but eventually wrapping 32-bit sequence
/// arithmetic in the policer. 32 MB is ≳ 25 ms of 10 GbE, far beyond any
/// datacenter BDP. A constant, not a field: [`FlowEntry::cwnd`] applies it
/// to every entry alike.
pub const MAX_ENFORCED_WINDOW: u64 = 32 << 20;

/// DCTCP's alpha of 1 in the 1e-6 units an entry publishes it in: the
/// most a [`FlowEntryState::last_alpha_micros`] can hold.
pub const ALPHA_ONE_MICROS: u32 = 1_000_000;

/// Floor for the inactivity (inferred-timeout) threshold: the paper's
/// system setting, RTOmin = 10 ms. Also the period of the host's
/// maintenance tick, which runs the check for flows whose ACK clock
/// stopped entirely.
pub const INACTIVITY_FLOOR: Nanos = 10 * MILLISECOND;

/// The guest sender as the vSwitch reconstructs it from its packets
/// (§3.1): the send sequence space, the RTT estimate and the ECN
/// capability its SYN announced. `vm_ecn` sits here, not with the
/// enforcer, because the same egress SYN teaches it and the initial
/// sequence number, and because it fits in this struct's padding: the
/// entry stays 288 B.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SendSeq {
    /// First unacknowledged wire sequence number.
    pub snd_una: SeqNumber,
    /// Highest wire sequence number sent (+1, i.e. "next expected send").
    pub snd_nxt: SeqNumber,
    /// Sequence state initialized (first SYN/data seen)?
    pub seq_valid: bool,
    /// Duplicate-ACK counter.
    pub dupacks: u32,
    /// RTT probe: (wire seq whose ACK completes the sample, send time).
    pub rtt_probe: Option<(SeqNumber, Nanos)>,
    /// Smoothed RTT estimate for the inactivity (timeout) heuristic.
    pub srtt: Option<Nanos>,
    /// Time of the last ACK-clock activity (for inferring timeouts).
    pub last_ack_activity: Nanos,
    /// The guest's own stack negotiated ECN (from its SYN); drives the
    /// per-packet reserved-bit marker of §3.2.
    pub vm_ecn: bool,
}

impl SendSeq {
    /// The send pointers, once a SYN or data packet set them.
    pub(crate) fn view(&self) -> Option<SeqView> {
        self.seq_valid.then_some(SeqView {
            snd_una: self.snd_una,
            snd_nxt: self.snd_nxt,
        })
    }
}

/// PACK/FACK byte accounting (§3.2). The sender role accumulates what
/// feedback reported (`fb_*`, 64-bit accumulators behind u32 wire
/// deltas) until an ACK consumes it; the receiver role counts what
/// arrived (`rx_*`) until an egress ACK carries it back.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Feedback {
    /// Sender role: feedback bytes not yet consumed.
    pub fb_total: u64,
    /// Sender role: marked portion of `fb_total`.
    pub fb_marked: u64,
    /// Receiver role: bytes received since the last feedback emitted.
    pub rx_total: u64,
    /// Receiver role: CE-marked bytes since the last feedback emitted.
    pub rx_marked: u64,
    /// Receiver role: lifetime bytes received (never reset).
    pub rx_total_lifetime: u64,
    /// Receiver role: lifetime CE-marked bytes received (never reset).
    pub rx_marked_lifetime: u64,
}

/// When the entry was last touched, and whether it is done.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lifecycle {
    /// Entry saw a FIN/RST and awaits garbage collection.
    pub closing: bool,
    /// Last time any packet touched this entry.
    pub last_activity: Nanos,
}

/// Plain-data image of one [`FlowEntry`] for checkpointing (DESIGN.md
/// §14): the three components by value, and the enforcer as the words
/// that rebuild it. Construction parameters (the assigned [`CcKind`],
/// the [`CcConfig`]) are reproduced by the restoring
/// datapath's own policy, and `cc_name` lets a restore verify the
/// reproduction matches.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowEntryState {
    /// Sequence tracking.
    pub seq: SendSeq,
    /// Name of the checkpointed algorithm, for verifying the restoring
    /// policy assigns the same one.
    pub cc_name: String,
    /// The algorithm's dynamic state
    /// ([`CongestionControl::state_words`]).
    pub cc_words: Vec<u64>,
    /// RWND-rewrite state: `(wscale, learned, computed target)` from
    /// [`RwndRewriter::checkpoint_state`].
    pub rwnd: (u8, bool, u64),
    /// Packets dropped from this flow by the policer.
    pub policed: u64,
    /// Last published DCTCP alpha (1e-6 units, at most
    /// [`ALPHA_ONE_MICROS`]).
    pub last_alpha_micros: Option<u32>,
    /// Feedback accounting.
    pub feedback: Feedback,
    /// Lifecycle.
    pub life: Lifecycle,
}

/// The policer refused an egress data packet (§3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Policed;

/// What an ACK did to the entry of the direction it acknowledges: the
/// RWND decision, and the CC events it fired (fast retransmit, inferred
/// timeout, alpha update) in firing order.
pub(crate) type Enforcement = (RwndAction, [Option<EventKind>; 3]);

/// Connection-tracking state for one flow direction.
///
/// Every field is private to this module: the datapath advances an
/// entry through its transition methods only. Code outside the crate
/// reads it through [`FlowEntry::checkpoint_state`], [`FlowEntry::cwnd`],
/// [`FlowEntry::cc`], [`FlowEntry::rwnd`] (or the datapath's
/// `flow_stats()` / `seq_view()`) and writes it through
/// [`FlowEntry::restore_state`]; a direct field write does not compile:
///
/// ```compile_fail
/// use acdc_cc::{CcConfig, CcKind};
/// let mut e = acdc_vswitch::FlowEntry::new(CcKind::Dctcp, CcConfig::vswitch(1448), 0);
/// e.seq.snd_una = acdc_packet::SeqNumber(1);
/// assert_eq!(e.in_flight(), 0);
/// ```
///
/// The same lines without the write compile, so what the block above
/// fails on is the field's visibility and nothing else:
///
/// ```
/// use acdc_cc::{CcConfig, CcKind};
/// let mut e = acdc_vswitch::FlowEntry::new(CcKind::Dctcp, CcConfig::vswitch(1448), 0);
/// assert_eq!(e.in_flight(), 0);
/// ```
///
/// The algorithm is read through [`FlowEntry::cc`] and cannot be
/// replaced from outside:
///
/// ```compile_fail
/// use acdc_cc::{CcConfig, CcKind, CongestionControl};
/// let cfg = CcConfig::vswitch(1448);
/// let mut e = acdc_vswitch::FlowEntry::new(CcKind::Dctcp, cfg, 0);
/// let cubic = CcKind::Cubic.instantiate(cfg);
/// e.cc = cubic;
/// assert_eq!(e.cc().name(), "dctcp");
/// ```
///
/// ```
/// use acdc_cc::{CcConfig, CcKind, CongestionControl};
/// let cfg = CcConfig::vswitch(1448);
/// let mut e = acdc_vswitch::FlowEntry::new(CcKind::Dctcp, cfg, 0);
/// let cubic = CcKind::Cubic.instantiate(cfg);
/// assert_eq!(e.cc().name(), "dctcp");
/// ```
///
/// Nor can the RWND rewriter, whose scale only a handshake teaches:
///
/// ```compile_fail
/// use acdc_cc::{CcConfig, CcKind};
/// let mut e = acdc_vswitch::FlowEntry::new(CcKind::Dctcp, CcConfig::vswitch(1448), 0);
/// let mut learned = acdc_vswitch::RwndRewriter::new();
/// learned.learn(9);
/// e.rwnd = learned;
/// assert!(!e.rwnd().learned());
/// ```
///
/// ```
/// use acdc_cc::{CcConfig, CcKind};
/// let mut e = acdc_vswitch::FlowEntry::new(CcKind::Dctcp, CcConfig::vswitch(1448), 0);
/// let mut learned = acdc_vswitch::RwndRewriter::new();
/// learned.learn(9);
/// assert!(!e.rwnd().learned());
/// ```
#[derive(Debug)]
pub struct FlowEntry {
    seq: SendSeq,
    /// Enforcer: the algorithm whose window is enforced, held inline;
    /// [`FlowEntry::cwnd`] bounds its window by [`MAX_ENFORCED_WINDOW`].
    cc: AnyCc,
    /// Enforcer: window scale + enforcement target (§3.3).
    rwnd: RwndRewriter,
    /// Enforcer: packets dropped from this flow by the policer.
    policed: u64,
    /// Enforcer: last DCTCP `alpha` (in 1e-6 units) published as an
    /// `alpha-update` telemetry event; events fire only when it moves.
    last_alpha_micros: Option<u32>,
    fb: Feedback,
    life: Lifecycle,
}

/// `cc`'s window, at most [`MAX_ENFORCED_WINDOW`]: the window an entry
/// enforces.
#[inline]
fn enforced(cc: &AnyCc) -> u64 {
    cc.cwnd().min(MAX_ENFORCED_WINDOW)
}

// A record is two entries in one allocation, so each byte here is two
// per connection. Measured on `dp_steady_100k` (200 000 entries, 2-vCPU
// Xeon, medians of ten alternating 20 s pairs): 336 B entries and a
// sorted copy of the table in `flow_stats` peaked at 93.7 MB. The
// ceiling as a constant, alpha as a `u32`, a `u32` window floor,
// Illinois's RTT sum as two words and the window trace boxed bring the
// entry to 288 B, and with `flow_stats` streamed the peak to 69.5 MB.
const _: () = assert!(size_of::<FlowEntry>() <= 288);
// The record's halves are `Option<FlowEntry>`s: a `bool` gives the
// `Option` its niche, so a half costs no more than its entry.
const _: () = assert!(size_of::<Option<FlowEntry>>() == size_of::<FlowEntry>());

impl FlowEntry {
    /// Fresh entry for a flow assigned algorithm `kind`.
    pub fn new(kind: CcKind, cc_cfg: CcConfig, now: Nanos) -> FlowEntry {
        FlowEntry {
            seq: SendSeq {
                last_ack_activity: now,
                ..SendSeq::default()
            },
            cc: kind.instantiate(cc_cfg),
            rwnd: RwndRewriter::new(),
            policed: 0,
            last_alpha_micros: None,
            fb: Feedback::default(),
            life: Lifecycle {
                closing: false,
                last_activity: now,
            },
        }
    }

    /// The enforced algorithm, as it runs: its own window is not
    /// bounded, [`FlowEntry::cwnd`] is.
    pub fn cc(&self) -> &AnyCc {
        &self.cc
    }

    /// The enforced window, bytes: the algorithm's, at most
    /// [`MAX_ENFORCED_WINDOW`].
    pub fn cwnd(&self) -> u64 {
        enforced(&self.cc)
    }

    /// The RWND-rewrite component.
    pub fn rwnd(&self) -> &RwndRewriter {
        &self.rwnd
    }

    /// Receiver-role bytes await PACK feedback: the next egress ACK of
    /// the reverse direction takes them.
    pub fn rx_pending(&self) -> bool {
        self.fb.rx_total > 0
    }

    /// Bytes currently unacknowledged (in flight) per the tracked state.
    pub fn in_flight(&self) -> u64 {
        self.seq.view().map_or(0, |v| u64::from(v.outstanding()))
    }

    pub(crate) fn seq(&self) -> &SendSeq {
        &self.seq
    }

    pub(crate) fn feedback(&self) -> &Feedback {
        &self.fb
    }

    pub(crate) fn life(&self) -> &Lifecycle {
        &self.life
    }

    pub(crate) fn policed(&self) -> u64 {
        self.policed
    }

    /// The guest sent `len` payload bytes at `seq` (plus a FIN when
    /// `fin`). `police` is the policer's slack when the policer runs
    /// (configured and enforcing): a conforming stack never sends beyond
    /// the window we enforced, so the excess of one that does is refused
    /// (§3.3). A window we never rewrote (unlearned scale) was never
    /// enforced, so it is not policed. Returns the guest's ECN
    /// capability for the reserved-bit marker.
    #[inline]
    pub(crate) fn on_egress_data(
        &mut self,
        now: Nanos,
        seq: SeqNumber,
        len: usize,
        fin: bool,
        police: Option<u64>,
    ) -> Result<bool, Policed> {
        self.life.last_activity = now;
        let s = &mut self.seq;
        let seq_end = seq + (len as u32) + u32::from(fin);
        if !s.seq_valid {
            s.snd_una = seq;
            s.snd_nxt = seq_end;
            s.seq_valid = true;
        }
        if let Some(slack) = police {
            if self.rwnd.learned() && len > 0 {
                let allowed_end = s.snd_una + (enforced(&self.cc) + slack) as usize;
                if seq_end > allowed_end {
                    self.policed += 1;
                    return Err(Policed);
                }
            }
        }
        if seq_end > s.snd_nxt {
            s.snd_nxt = seq_end;
            if s.rtt_probe.is_none() {
                s.rtt_probe = Some((seq_end, now));
            }
        } else if seq < s.snd_nxt {
            // Retransmission: invalidate the RTT probe (Karn).
            if let Some((p, _)) = s.rtt_probe {
                if seq < p {
                    s.rtt_probe = None;
                }
            }
        }
        if fin {
            self.life.closing = true;
        }
        Ok(s.vm_ecn)
    }

    /// `len` payload bytes arrived from the network, CE-marked when `ce`
    /// (receiver role, §3.2), plus a FIN when `fin`.
    pub(crate) fn on_rx_data(&mut self, now: Nanos, len: u64, ce: bool, fin: bool) {
        self.life.last_activity = now;
        let f = &mut self.fb;
        f.rx_total += len;
        f.rx_total_lifetime += len;
        if ce {
            f.rx_marked += len;
            f.rx_marked_lifetime += len;
        }
        debug_assert!(
            f.rx_marked <= f.rx_total && f.rx_marked_lifetime <= f.rx_total_lifetime,
            "PACK receive counters inconsistent: marked {}/{} lifetime {}/{}",
            f.rx_marked,
            f.rx_total,
            f.rx_marked_lifetime,
            f.rx_total_lifetime
        );
        if fin {
            self.life.closing = true;
        }
    }

    /// An ACK for this direction arrived, `meta` its headers: its `ack`,
    /// the raw `window` it advertises, and the PACK feedback it carries
    /// (absorbed ahead of the algorithm that consumes it); only a
    /// `pure_ack` counts as a duplicate. Runs connection tracking and the
    /// algorithm (Figure 5), then sets the enforcement target: the
    /// computed window, bounded by the administrative `cap` (§3.4),
    /// appended to the window trace when `trace`. The CC events it fires
    /// come back, fixed-size and in firing order, beside the RWND
    /// decision, for the datapath to count and hand to its boundary.
    pub(crate) fn on_ack(
        &mut self,
        now: Nanos,
        meta: &PacketMeta,
        pure_ack: bool,
        cap: u64,
        trace: bool,
    ) -> Enforcement {
        let ack = meta.ack;
        if let Some(pack) = meta.pack {
            self.absorb_feedback(pack);
        }
        self.life.last_activity = now;
        let mut newly_acked = 0u64;
        let mut rtt_sample = None;
        // Fast retransmit, inferred timeout, alpha update.
        let mut events = [None, None, None];

        if self.seq.seq_valid {
            let s = &mut self.seq;
            if ack > s.snd_una && ack <= s.snd_nxt {
                newly_acked = (ack - s.snd_una) as u64;
                s.snd_una = ack;
                s.dupacks = 0;
                s.last_ack_activity = now;
                if let Some((probe_seq, sent_at)) = s.rtt_probe {
                    if ack >= probe_seq {
                        let sample = now - sent_at;
                        self.record_rtt(sample);
                        rtt_sample = Some(sample);
                        self.seq.rtt_probe = None;
                    }
                }
            } else if ack == s.snd_una && pure_ack && s.snd_nxt > s.snd_una {
                s.dupacks += 1;
                if s.dupacks == 3 {
                    self.cc.on_fast_retransmit(now);
                    events[0] = Some(EventKind::CwndCut {
                        cause: CutCause::FastRetransmit,
                        cwnd: self.cwnd(),
                    });
                }
            }

            if let Some(cwnd) = self.infer_timeout(now) {
                events[1] = Some(EventKind::RtoFired { cwnd });
            }
        }

        // Consume the accumulated feedback and run the algorithm.
        let marked = self.fb.fb_marked;
        self.fb.fb_total = 0;
        self.fb.fb_marked = 0;
        if newly_acked > 0 || marked > 0 {
            self.cc.on_ack(&AckEvent {
                now,
                newly_acked,
                marked,
                rtt: rtt_sample.or(self.seq.srtt),
                in_flight: self.in_flight(),
                ece: marked > 0,
            });
            // Publish alpha movements (quantized; DCTCP-family only).
            // Alpha is at most 1, so its micros fit a `u32`; one a
            // restored algorithm state pushed past it saturates.
            if let Some(am) = self.cc.alpha_micros() {
                let held = u32::try_from(am).unwrap_or(u32::MAX);
                if self.last_alpha_micros != Some(held) {
                    self.last_alpha_micros = Some(held);
                    events[2] = Some(EventKind::AlphaUpdate { alpha_micros: am });
                }
            }
        }

        self.rwnd.set_target(now, self.cwnd().min(cap), trace);
        (self.rwnd.action(meta.window), events)
    }

    /// A handshake from this direction's data *receiver* advertised
    /// `wscale`, the scale of the windows in the ACKs it will send.
    pub(crate) fn learn_scale(&mut self, now: Nanos, wscale: u8) {
        self.life.last_activity = now;
        self.rwnd.learn(wscale);
    }

    /// The guest sender's own SYN (or SYN-ACK): its initial sequence
    /// number `isn` and its ECN capability.
    pub(crate) fn learn_syn(&mut self, now: Nanos, isn: SeqNumber, vm_ecn: bool) {
        self.life.last_activity = now;
        let s = &mut self.seq;
        s.vm_ecn = vm_ecn;
        s.snd_una = isn + 1u32;
        s.snd_nxt = isn + 1u32;
        s.seq_valid = true;
    }

    /// A FIN or RST ended this direction; the next sweep collects it.
    pub(crate) fn close(&mut self) {
        self.life.closing = true;
    }

    /// The receiver-role feedback this entry holds for the next egress
    /// ACK of the reverse direction, as u32 wire deltas, reset once
    /// taken. A unidirectional sender's reverse entry has none, and is
    /// left untouched (`last_activity` included).
    pub(crate) fn take_pending_feedback(&mut self, now: Nanos) -> Option<(u32, u32)> {
        self.rx_pending().then(|| {
            self.life.last_activity = now;
            let f = &mut self.fb;
            let total = f.rx_total.min(u64::from(u32::MAX)) as u32;
            let marked = f.rx_marked.min(u64::from(total)) as u32;
            (f.rx_total, f.rx_marked) = (0, 0);
            (total, marked)
        })
    }

    /// Fold a PACK's counters into the sender-role feedback accumulators.
    /// The option is wire input: `marked` is clamped to `total` here, as
    /// the emitting side clamps it, so a spoofed PACK cannot hand the
    /// algorithm more marked bytes than bytes.
    pub(crate) fn absorb_feedback(&mut self, pack: PackOption) {
        let f = &mut self.fb;
        f.fb_total += u64::from(pack.total_bytes);
        f.fb_marked += u64::from(pack.marked_bytes.min(pack.total_bytes));
        debug_assert!(
            f.fb_marked <= f.fb_total,
            "PACK feedback counters inconsistent: marked {} > total {}",
            f.fb_marked,
            f.fb_total
        );
    }

    /// Record an RTT sample into the entry's smoothed estimate.
    fn record_rtt(&mut self, sample: Nanos) {
        self.seq.srtt = Some(match self.seq.srtt {
            None => sample,
            Some(s) => (7 * s + sample) / 8,
        });
    }

    /// The inactivity threshold standing in for the guest's RTO: a few
    /// RTTs, never below [`INACTIVITY_FLOOR`].
    fn inactivity_threshold(&self) -> Nanos {
        match self.seq.srtt {
            Some(s) => (4 * s).max(INACTIVITY_FLOOR),
            None => INACTIVITY_FLOOR,
        }
    }

    /// Inactivity-inferred timeout (§3.1): the vSwitch cannot see the
    /// guest's timer, so when data is outstanding and the ACK clock has
    /// not moved for the threshold, it tells the algorithm a timeout
    /// happened. Returns the window after the cut when one fired.
    pub(crate) fn infer_timeout(&mut self, now: Nanos) -> Option<u64> {
        let s = &self.seq;
        let stalled = s.seq_valid
            && s.snd_una < s.snd_nxt
            && now.saturating_sub(s.last_ack_activity) > self.inactivity_threshold();
        stalled.then(|| {
            self.cc.on_retransmit_timeout(now);
            self.seq.last_ack_activity = now;
            self.cwnd()
        })
    }

    /// Capture this entry's dynamic state for a checkpoint.
    pub fn checkpoint_state(&self) -> FlowEntryState {
        FlowEntryState {
            seq: self.seq,
            cc_name: self.cc.name().to_string(),
            cc_words: self.cc.state_words(),
            rwnd: self.rwnd.checkpoint_state(),
            policed: self.policed,
            last_alpha_micros: self.last_alpha_micros,
            feedback: self.fb,
            life: self.life,
        }
    }

    /// Apply a checkpointed state to this freshly constructed entry.
    /// Returns `false` — leaving the entry in an unspecified but valid
    /// state — when the checkpointed algorithm does not match the one
    /// this entry was constructed with (name or state-word layout), which
    /// indicates a policy/config mismatch between checkpoint and restore.
    pub fn restore_state(&mut self, s: &FlowEntryState) -> bool {
        if self.cc.name() != s.cc_name || !self.cc.load_state_words(&s.cc_words) {
            return false;
        }
        let (wscale, learned, target) = s.rwnd;
        self.rwnd.restore_state(wscale, learned, target);
        self.seq = s.seq;
        self.policed = s.policed;
        self.last_alpha_micros = s.last_alpha_micros;
        self.fb = s.feedback;
        self.life = s.life;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry() -> FlowEntry {
        FlowEntry::new(CcKind::Dctcp, CcConfig::vswitch(1448), 0)
    }

    #[test]
    fn feedback_counters_reset_on_take() {
        let mut e = entry();
        e.on_rx_data(1, 10_000, false, false);
        e.on_rx_data(2, 2_500, true, false);
        assert!(e.rx_pending());
        assert_eq!(e.take_pending_feedback(3), Some((12_500, 2_500)));
        assert_eq!(e.life.last_activity, 3);
        assert!(!e.rx_pending());
        assert_eq!(e.take_pending_feedback(4), None);
        assert_eq!(e.life.last_activity, 3, "nothing taken, entry untouched");
        assert_eq!(e.fb.rx_total_lifetime, 12_500);
    }

    #[test]
    fn feedback_clamps_marked_to_total() {
        let mut e = entry();
        e.fb.rx_total = 100;
        e.fb.rx_marked = 200; // cannot happen, but must not produce nonsense
        let (t, m) = e.take_pending_feedback(1).unwrap();
        assert!(m <= t);
    }

    #[test]
    fn in_flight_tracks_seq_distance() {
        let mut e = entry();
        assert_eq!(e.in_flight(), 0);
        e.seq.seq_valid = true;
        e.seq.snd_una = SeqNumber(1000);
        e.seq.snd_nxt = SeqNumber(6000);
        assert_eq!(e.in_flight(), 5000);
        // Wraparound-safe.
        e.seq.snd_una = SeqNumber(u32::MAX - 100);
        e.seq.snd_nxt = SeqNumber(100);
        assert_eq!(e.in_flight(), 201);
    }

    #[test]
    fn srtt_smooths() {
        let mut e = entry();
        e.record_rtt(800);
        assert_eq!(e.seq.srtt, Some(800));
        e.record_rtt(1600);
        assert_eq!(e.seq.srtt, Some(900));
    }

    #[test]
    fn inactivity_threshold_uses_floor() {
        let mut e = entry();
        assert_eq!(e.inactivity_threshold(), 10_000_000);
        e.seq.srtt = Some(5_000_000);
        assert_eq!(e.inactivity_threshold(), 20_000_000);
    }
}
