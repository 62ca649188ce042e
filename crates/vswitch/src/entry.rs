//! Per-flow connection-tracking state (§3.1).
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

use acdc_cc::{CcConfig, CcKind};
use acdc_packet::{PackOption, SeqNumber};
use acdc_stats::time::{Nanos, MILLISECOND};

use crate::rwnd::RwndRewriter;
use crate::vcc::{EcnFractionCc, VirtualCc};

/// Ceiling on the enforced window. The vSwitch CC cannot tell when a
/// guest is application- or NIC-limited (it sees only ACK progress), so
/// on an uncongested path its window would otherwise grow without bound
/// — wasting no bandwidth, but eventually wrapping 32-bit sequence
/// arithmetic in the policer. 32 MB is ≳ 25 ms of 10 GbE, far beyond any
/// datacenter BDP.
pub const MAX_ENFORCED_WINDOW: u64 = 32 << 20;

/// Floor for the inactivity (inferred-timeout) threshold: the paper's
/// system setting, RTOmin = 10 ms. Also the period of the host's
/// maintenance tick, which runs the check for flows whose ACK clock
/// stopped entirely.
pub const INACTIVITY_FLOOR: Nanos = 10 * MILLISECOND;

/// Plain-data image of one [`FlowEntry`] for checkpointing (DESIGN.md
/// §14). Everything that evolves at runtime is here; construction
/// parameters (the assigned [`CcKind`], the [`CcConfig`], the window
/// clamp) are reproduced by the restoring datapath's own policy, and the
/// `cc_name` field lets a restore verify the reproduction matches.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowEntryState {
    /// First unacknowledged wire sequence number.
    pub snd_una: SeqNumber,
    /// Highest wire sequence number sent (+1).
    pub snd_nxt: SeqNumber,
    /// Sequence state initialized?
    pub seq_valid: bool,
    /// Duplicate-ACK counter.
    pub dupacks: u32,
    /// `VirtualCc::name()` of the checkpointed algorithm, for verifying
    /// the restoring policy assigns the same one.
    pub cc_name: String,
    /// The algorithm's dynamic state (`VirtualCc::state_words`).
    pub cc_words: Vec<u64>,
    /// RWND-rewrite state: `(wscale, learned, computed target)` from
    /// [`RwndRewriter::checkpoint_state`].
    pub rwnd: (u8, bool, u64),
    /// Guest negotiated ECN in its SYN.
    pub vm_ecn: bool,
    /// Outstanding RTT probe `(wire seq, send time)`.
    pub rtt_probe: Option<(SeqNumber, Nanos)>,
    /// Smoothed RTT estimate.
    pub srtt: Option<Nanos>,
    /// Time of the last ACK-clock activity.
    pub last_ack_activity: Nanos,
    /// Unconsumed feedback: total bytes.
    pub fb_total: u64,
    /// Unconsumed feedback: marked bytes.
    pub fb_marked: u64,
    /// Packets dropped from this flow by the policer.
    pub policed: u64,
    /// Last published DCTCP alpha (1e-6 units).
    pub last_alpha_micros: Option<u64>,
    /// Receiver role: bytes since last feedback.
    pub rx_total: u64,
    /// Receiver role: CE-marked bytes since last feedback.
    pub rx_marked: u64,
    /// Receiver role: lifetime bytes.
    pub rx_total_lifetime: u64,
    /// Receiver role: lifetime CE-marked bytes.
    pub rx_marked_lifetime: u64,
    /// FIN/RST seen, awaiting GC.
    pub closing: bool,
    /// Last time any packet touched this entry.
    pub last_activity: Nanos,
}

/// Connection-tracking state for one flow direction.
///
/// The tracked protocol state is `pub(crate)`: only this crate's sender
/// and receiver modules advance it. Code outside the crate reads it
/// through [`FlowEntry::checkpoint_state`] (or the datapath's
/// `flow_stats()` / `seq_view()`) and writes it through
/// [`FlowEntry::restore_state`]; a direct field write does not compile:
///
/// ```compile_fail
/// use acdc_cc::{CcConfig, CcKind};
/// let mut e = acdc_vswitch::FlowEntry::new(CcKind::Dctcp, CcConfig::vswitch(1448), 0);
/// e.snd_una = acdc_packet::SeqNumber(1);
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
pub struct FlowEntry {
    // ------------------------------------------------------------------
    // Sender role (lives at the host of the data sender)
    // ------------------------------------------------------------------
    /// First unacknowledged wire sequence number.
    pub(crate) snd_una: SeqNumber,
    /// Highest wire sequence number sent (+1, i.e. "next expected send").
    pub(crate) snd_nxt: SeqNumber,
    /// Sequence state initialized (first SYN/data seen)?
    pub(crate) seq_valid: bool,
    /// Duplicate-ACK counter.
    pub(crate) dupacks: u32,
    /// The enforced congestion-control algorithm, driven through the
    /// [`VirtualCc`] seam (the sender module feeds it [`AckSignals`]
    /// bundles and enforces whatever window it reports).
    ///
    /// [`AckSignals`]: crate::vcc::AckSignals
    pub cc: EcnFractionCc,
    /// The RWND-rewrite component (window scale + enforcement target,
    /// §3.3). Its fields are private — mutation goes through its API.
    pub rwnd: RwndRewriter,
    /// The guest's own stack negotiated ECN (from its SYN); drives the
    /// per-packet reserved-bit marker of §3.2.
    pub(crate) vm_ecn: bool,
    /// RTT probe: (wire seq whose ACK completes the sample, send time).
    pub(crate) rtt_probe: Option<(SeqNumber, Nanos)>,
    /// Smoothed RTT estimate for the inactivity (timeout) heuristic.
    pub(crate) srtt: Option<Nanos>,
    /// Time of the last ACK-clock activity (for inferring timeouts).
    pub(crate) last_ack_activity: Nanos,
    /// Accumulated feedback not yet consumed: total/marked bytes reported
    /// by PACK/FACK options (64-bit accumulators behind u32 wire deltas).
    pub(crate) fb_total: u64,
    /// Marked portion of `fb_total`.
    pub(crate) fb_marked: u64,
    /// Packets dropped from this flow by the policer.
    pub(crate) policed: u64,
    /// Last DCTCP `alpha` (in 1e-6 units) published as an `alpha-update`
    /// telemetry event; events fire only when the estimate moves.
    pub(crate) last_alpha_micros: Option<u64>,

    // ------------------------------------------------------------------
    // Receiver role (lives at the host of the data receiver)
    // ------------------------------------------------------------------
    /// Bytes received for this flow since the last feedback emitted.
    pub(crate) rx_total: u64,
    /// CE-marked bytes received since the last feedback emitted.
    pub(crate) rx_marked: u64,
    /// Lifetime bytes received (never reset; observability).
    pub(crate) rx_total_lifetime: u64,
    /// Lifetime CE-marked bytes received (never reset; observability).
    pub(crate) rx_marked_lifetime: u64,

    // ------------------------------------------------------------------
    // Lifecycle
    // ------------------------------------------------------------------
    /// Entry saw a FIN/RST and awaits garbage collection.
    pub(crate) closing: bool,
    /// Last time any packet touched this entry.
    pub(crate) last_activity: Nanos,
}

impl FlowEntry {
    /// Fresh entry for a flow assigned algorithm `kind`.
    pub fn new(kind: CcKind, cc_cfg: CcConfig, now: Nanos) -> FlowEntry {
        FlowEntry {
            snd_una: SeqNumber::ZERO,
            snd_nxt: SeqNumber::ZERO,
            seq_valid: false,
            dupacks: 0,
            cc: EcnFractionCc::new(kind.instantiate(cc_cfg)),
            rwnd: RwndRewriter::new(),
            vm_ecn: false,
            rtt_probe: None,
            srtt: None,
            last_ack_activity: now,
            fb_total: 0,
            fb_marked: 0,
            policed: 0,
            last_alpha_micros: None,
            rx_total: 0,
            rx_marked: 0,
            rx_total_lifetime: 0,
            rx_marked_lifetime: 0,
            closing: false,
            last_activity: now,
        }
    }

    /// Receiver-role bytes await PACK feedback: the next egress ACK of
    /// the reverse direction takes them ([`FlowEntry::take_feedback`]).
    pub fn rx_pending(&self) -> bool {
        self.rx_total > 0
    }

    /// Take the receiver-role feedback counters as u32 wire deltas,
    /// resetting them (they are deltas "since the last feedback").
    pub fn take_feedback(&mut self) -> (u32, u32) {
        let total = self.rx_total.min(u64::from(u32::MAX)) as u32;
        let marked = self.rx_marked.min(u64::from(total)) as u32;
        self.rx_total = 0;
        self.rx_marked = 0;
        (total, marked)
    }

    /// Fold a PACK's counters into the sender-role feedback accumulators.
    /// The option is wire input: `marked` is clamped to `total` here, as
    /// [`FlowEntry::take_feedback`] clamps it on the emitting side, so a
    /// spoofed PACK cannot hand the algorithm more marked bytes than
    /// bytes.
    pub(crate) fn absorb_feedback(&mut self, pack: PackOption) {
        self.fb_total += u64::from(pack.total_bytes);
        self.fb_marked += u64::from(pack.marked_bytes.min(pack.total_bytes));
        debug_assert!(
            self.fb_marked <= self.fb_total,
            "PACK feedback counters inconsistent: marked {} > total {}",
            self.fb_marked,
            self.fb_total
        );
    }

    /// Record an RTT sample into the entry's smoothed estimate.
    pub fn record_rtt(&mut self, sample: Nanos) {
        self.srtt = Some(match self.srtt {
            None => sample,
            Some(s) => (7 * s + sample) / 8,
        });
    }

    /// The inactivity threshold standing in for the guest's RTO: a few
    /// RTTs, never below [`INACTIVITY_FLOOR`].
    fn inactivity_threshold(&self) -> Nanos {
        match self.srtt {
            Some(s) => (4 * s).max(INACTIVITY_FLOOR),
            None => INACTIVITY_FLOOR,
        }
    }

    /// Inactivity-inferred timeout (§3.1): the vSwitch cannot see the
    /// guest's timer, so when data is outstanding and the ACK clock has
    /// not moved for the threshold, it tells the algorithm a timeout
    /// happened. Returns the window after the cut when one fired.
    pub(crate) fn infer_timeout(&mut self, now: Nanos) -> Option<u64> {
        let stalled = self.seq_valid
            && self.snd_una < self.snd_nxt
            && now.saturating_sub(self.last_ack_activity) > self.inactivity_threshold();
        stalled.then(|| {
            self.cc.on_retransmit_timeout(now);
            self.last_ack_activity = now;
            self.cc.cwnd()
        })
    }

    /// Capture this entry's dynamic state for a checkpoint.
    pub fn checkpoint_state(&self) -> FlowEntryState {
        FlowEntryState {
            snd_una: self.snd_una,
            snd_nxt: self.snd_nxt,
            seq_valid: self.seq_valid,
            dupacks: self.dupacks,
            cc_name: self.cc.name().to_string(),
            cc_words: self.cc.state_words(),
            rwnd: self.rwnd.checkpoint_state(),
            vm_ecn: self.vm_ecn,
            rtt_probe: self.rtt_probe,
            srtt: self.srtt,
            last_ack_activity: self.last_ack_activity,
            fb_total: self.fb_total,
            fb_marked: self.fb_marked,
            policed: self.policed,
            last_alpha_micros: self.last_alpha_micros,
            rx_total: self.rx_total,
            rx_marked: self.rx_marked,
            rx_total_lifetime: self.rx_total_lifetime,
            rx_marked_lifetime: self.rx_marked_lifetime,
            closing: self.closing,
            last_activity: self.last_activity,
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
        self.snd_una = s.snd_una;
        self.snd_nxt = s.snd_nxt;
        self.seq_valid = s.seq_valid;
        self.dupacks = s.dupacks;
        let (wscale, learned, target) = s.rwnd;
        self.rwnd.restore_state(wscale, learned, target);
        self.vm_ecn = s.vm_ecn;
        self.rtt_probe = s.rtt_probe;
        self.srtt = s.srtt;
        self.last_ack_activity = s.last_ack_activity;
        self.fb_total = s.fb_total;
        self.fb_marked = s.fb_marked;
        self.policed = s.policed;
        self.last_alpha_micros = s.last_alpha_micros;
        self.rx_total = s.rx_total;
        self.rx_marked = s.rx_marked;
        self.rx_total_lifetime = s.rx_total_lifetime;
        self.rx_marked_lifetime = s.rx_marked_lifetime;
        self.closing = s.closing;
        self.last_activity = s.last_activity;
        true
    }

    /// Bytes currently unacknowledged (in flight) per the tracked state.
    pub fn in_flight(&self) -> u64 {
        if !self.seq_valid {
            return 0;
        }
        let d = self.snd_nxt - self.snd_una;
        if d > 0 {
            d as u64
        } else {
            0
        }
    }
}

impl core::fmt::Debug for FlowEntry {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("FlowEntry")
            .field("snd_una", &self.snd_una)
            .field("snd_nxt", &self.snd_nxt)
            .field("cwnd", &self.cc.cwnd())
            .field("cc", &self.cc.name())
            .field("dupacks", &self.dupacks)
            .field("rx_total", &self.rx_total)
            .field("rx_marked", &self.rx_marked)
            .finish()
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
        e.rx_total = 10_000;
        e.rx_marked = 2_500;
        assert!(e.rx_pending());
        assert_eq!(e.take_feedback(), (10_000, 2_500));
        assert!(!e.rx_pending());
        assert_eq!(e.take_feedback(), (0, 0));
    }

    #[test]
    fn feedback_clamps_marked_to_total() {
        let mut e = entry();
        e.rx_total = 100;
        e.rx_marked = 200; // cannot happen, but must not produce nonsense
        let (t, m) = e.take_feedback();
        assert!(m <= t);
    }

    #[test]
    fn in_flight_tracks_seq_distance() {
        let mut e = entry();
        assert_eq!(e.in_flight(), 0);
        e.seq_valid = true;
        e.snd_una = SeqNumber(1000);
        e.snd_nxt = SeqNumber(6000);
        assert_eq!(e.in_flight(), 5000);
        // Wraparound-safe.
        e.snd_una = SeqNumber(u32::MAX - 100);
        e.snd_nxt = SeqNumber(100);
        assert_eq!(e.in_flight(), 201);
    }

    #[test]
    fn srtt_smooths() {
        let mut e = entry();
        e.record_rtt(800);
        assert_eq!(e.srtt, Some(800));
        e.record_rtt(1600);
        assert_eq!(e.srtt, Some(900));
    }

    #[test]
    fn inactivity_threshold_uses_floor() {
        let mut e = entry();
        assert_eq!(e.inactivity_threshold(), 10_000_000);
        e.srtt = Some(5_000_000);
        assert_eq!(e.inactivity_threshold(), 20_000_000);
    }
}
