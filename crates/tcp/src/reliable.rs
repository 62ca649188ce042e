//! Send-side reliable delivery: the sliding send pointers, NewReno loss
//! recovery, Karn RTT estimation and the retransmission/backoff timer.
//!
//! The fields are private, so every mutation of the send pointers
//! (`snd_una`/`snd_nxt`/`snd_max`), the recovery state and the RTO
//! machinery lives in this file. The [`Endpoint`] orchestrator reads the
//! pointers through views (notably [`SeqView`], the shared currency for
//! comparing against the vSwitch's passively reconstructed state) and
//! drives transitions through the methods here.
//!
//! All offsets are 64-bit stream positions (0 = first payload byte);
//! wire-sequence conversion happens at the [`Endpoint`] packet boundary.
//!
//! [`Endpoint`]: crate::Endpoint

pub use acdc_packet::SeqView;
use acdc_stats::time::{Nanos, MILLISECOND};

/// Minimum retransmission timeout, and the initial RTO before the first
/// RTT sample: the paper's one system setting (RTOmin = 10 ms).
pub const RTO_MIN: Nanos = 10 * MILLISECOND;
/// Cap on the exponentially backed-off RTO and persist interval.
pub const RTO_MAX: Nanos = 640 * MILLISECOND;

/// A sent-segment probe for RTT sampling (Karn's algorithm: one sample
/// at a time, never from retransmitted data).
#[derive(Debug, Clone, Copy)]
struct RttProbe {
    end_off: u64,
    sent_at: Nanos,
}

/// Send-side reliability state for one endpoint: what has been queued,
/// sent and acknowledged, plus the machinery that repairs the gaps
/// (duplicate-ACK fast retransmit, NewReno partial-ACK hole filling,
/// and the exponentially backed-off retransmission timeout).
#[derive(Debug)]
pub struct ReliableDelivery {
    /// Stream bytes accepted from the application.
    stream_len: u64,
    /// First unacknowledged stream offset.
    snd_una: u64,
    /// Next stream offset to send.
    snd_nxt: u64,
    /// Highest stream offset ever sent (high-water mark; differs from
    /// `snd_nxt` after a timeout rewinds the send pointer).
    snd_max: u64,
    dupacks: u32,
    /// NewReno recovery point (stream offset) while in fast recovery.
    recover: Option<u64>,
    /// Pending head retransmission (fast retransmit or partial ACK).
    rtx_head_pending: bool,
    rtt_probe: Option<RttProbe>,
    srtt: Option<Nanos>,
    rttvar: Nanos,
    rto: Nanos,
    rto_deadline: Option<Nanos>,
    backoff: u32,
    retransmitted_segments: u64,
    timeouts: u64,
}

impl ReliableDelivery {
    /// Fresh send-side state; the RTO starts at [`RTO_MIN`].
    pub fn new() -> ReliableDelivery {
        ReliableDelivery {
            stream_len: 0,
            snd_una: 0,
            snd_nxt: 0,
            snd_max: 0,
            dupacks: 0,
            recover: None,
            rtx_head_pending: false,
            rtt_probe: None,
            srtt: None,
            rttvar: 0,
            rto: RTO_MIN,
            rto_deadline: None,
            backoff: 0,
            retransmitted_segments: 0,
            timeouts: 0,
        }
    }

    // ---- views -------------------------------------------------------

    /// Total stream bytes the application asked to send.
    pub fn stream_len(&self) -> u64 {
        self.stream_len
    }

    /// First unacknowledged stream offset.
    pub fn snd_una(&self) -> u64 {
        self.snd_una
    }

    /// Next stream offset to send.
    pub fn snd_nxt(&self) -> u64 {
        self.snd_nxt
    }

    /// Highest stream offset ever sent.
    pub fn snd_max(&self) -> u64 {
        self.snd_max
    }

    /// Bytes in flight.
    pub fn in_flight(&self) -> u64 {
        self.snd_nxt - self.snd_una
    }

    /// Consecutive duplicate ACKs seen at `snd_una`.
    pub fn dupacks(&self) -> u32 {
        self.dupacks
    }

    /// NewReno recovery point, while in fast recovery.
    pub fn recover(&self) -> Option<u64> {
        self.recover
    }

    /// Smoothed RTT estimate, if sampled yet.
    pub fn srtt(&self) -> Option<Nanos> {
        self.srtt
    }

    /// Current retransmission timeout.
    pub fn rto(&self) -> Nanos {
        self.rto
    }

    /// Armed retransmission deadline, if any.
    pub fn rto_deadline(&self) -> Option<Nanos> {
        self.rto_deadline
    }

    /// Current RTO backoff exponent.
    pub fn backoff(&self) -> u32 {
        self.backoff
    }

    /// Segments retransmitted (fast or timeout-driven).
    pub fn retransmitted_segments(&self) -> u64 {
        self.retransmitted_segments
    }

    /// Retransmission-timeout count.
    pub fn timeouts(&self) -> u64 {
        self.timeouts
    }

    // ---- application stream -----------------------------------------

    /// Accept `bytes` of application data into the send stream.
    pub fn enqueue(&mut self, bytes: u64) {
        self.stream_len += bytes;
    }

    /// Truncate the stream at the highest offset already sent (used by
    /// the harness to end long-lived flows; in-flight data completes).
    pub fn truncate_unsent(&mut self) {
        self.stream_len = self.stream_len.min(self.snd_max.max(self.snd_nxt));
    }

    // ---- RTO timer ---------------------------------------------------

    /// Arm (or re-arm) the retransmission timer with the current backoff.
    pub fn arm_rto(&mut self, now: Nanos) {
        let rto = self.rto << self.backoff.min(10);
        self.rto_deadline = Some(now + rto.min(RTO_MAX));
    }

    /// Disarm the retransmission timer and reset the backoff (nothing is
    /// outstanding).
    pub fn disarm_rto(&mut self) {
        self.rto_deadline = None;
        self.backoff = 0;
    }

    /// Clear the armed deadline without touching the backoff (timer fire
    /// or teardown).
    pub fn clear_rto_deadline(&mut self) {
        self.rto_deadline = None;
    }

    /// Bump the backoff exponent after an unanswered handshake packet.
    pub fn bump_backoff(&mut self) {
        self.backoff += 1;
    }

    // ---- RTT estimation ---------------------------------------------

    /// Fold one RTT sample into the RFC 6298 estimator and recompute the
    /// RTO within `[RTO_MIN, RTO_MAX]`.
    pub fn take_rtt_sample(&mut self, sample: Nanos) {
        match self.srtt {
            None => {
                self.srtt = Some(sample);
                self.rttvar = sample / 2;
            }
            Some(srtt) => {
                let diff = srtt.abs_diff(sample);
                self.rttvar = (3 * self.rttvar + diff) / 4;
                self.srtt = Some((7 * srtt + sample) / 8);
            }
        }
        let srtt = self.srtt.unwrap();
        self.rto = (srtt + (4 * self.rttvar).max(MILLISECOND / 1000)).clamp(RTO_MIN, RTO_MAX);
    }

    /// Arm an RTT probe on freshly sent data ending at `end_off`, unless
    /// one is already outstanding (Karn: one sample at a time).
    pub fn maybe_arm_rtt_probe(&mut self, now: Nanos, end_off: u64) {
        if self.rtt_probe.is_none() {
            self.rtt_probe = Some(RttProbe {
                end_off,
                sent_at: now,
            });
        }
    }

    /// Sample the RTT from the outstanding probe if the cumulative ACK
    /// has covered it.
    pub fn sample_rtt_from_probe(&mut self, now: Nanos) {
        if let Some(p) = self.rtt_probe {
            if self.snd_una >= p.end_off {
                let sample = now - p.sent_at;
                self.take_rtt_sample(sample);
                self.rtt_probe = None;
            }
        }
    }

    // ---- ACK processing ---------------------------------------------

    /// Count a duplicate ACK; returns the new count.
    pub fn register_dupack(&mut self) -> u32 {
        self.dupacks += 1;
        self.dupacks
    }

    /// Enter NewReno fast recovery: record the recovery point, queue the
    /// head retransmission, and discard the RTT probe (Karn).
    pub fn enter_fast_recovery(&mut self) {
        self.recover = Some(self.snd_nxt);
        self.rtx_head_pending = true;
        self.rtt_probe = None;
    }

    /// Advance `snd_una` for a cumulative ACK at `ack_off`. The ACK may
    /// cover data sent before a timeout rewound `snd_nxt`; the send
    /// pointer is pulled forward so bytes the receiver already has are
    /// not retransmitted. Forward progress resets the duplicate-ACK
    /// count and the RTO backoff.
    pub fn advance_una(&mut self, ack_off: u64) {
        self.snd_una = ack_off.min(self.snd_max);
        self.snd_nxt = self.snd_nxt.max(self.snd_una);
        debug_assert!(
            self.snd_una <= self.snd_nxt && self.snd_nxt <= self.snd_max,
            "send pointers out of order: una={} nxt={} max={}",
            self.snd_una,
            self.snd_nxt,
            self.snd_max
        );
        self.dupacks = 0;
        self.backoff = 0;
    }

    /// NewReno bookkeeping after forward ACK progress: leave recovery at
    /// the recovery point, or retransmit the next hole on a partial ACK.
    pub fn newreno_post_ack(&mut self) {
        if let Some(recover) = self.recover {
            if self.snd_una >= recover {
                self.recover = None;
            } else {
                self.rtx_head_pending = true;
                self.retransmitted_segments += 1;
            }
        }
    }

    // ---- timeout recovery -------------------------------------------

    /// Retransmission timeout: go-back-N. Rewinds the send pointer to
    /// `snd_una` (everything is resent as the window reopens), clears
    /// the fast-recovery state and the RTT probe (Karn), and bumps the
    /// backoff. The caller notifies congestion control and the FIN
    /// accounting separately.
    pub fn on_timeout_rewind(&mut self) {
        self.timeouts += 1;
        self.snd_nxt = self.snd_una;
        self.dupacks = 0;
        self.recover = None;
        self.rtx_head_pending = false;
        self.rtt_probe = None; // Karn
        self.retransmitted_segments += 1;
        self.backoff += 1;
    }

    // ---- transmission ------------------------------------------------

    /// Consume a pending head retransmission. Returns the retransmit
    /// length (bounded by `mss` and the outstanding span) when one is
    /// due, clearing the pending flag either way.
    pub fn take_rtx_head(&mut self, mss: u32) -> Option<u64> {
        let due = self.rtx_head_pending && self.snd_nxt > self.snd_una;
        self.rtx_head_pending = false;
        if due {
            self.retransmitted_segments += 1;
            Some((self.snd_nxt - self.snd_una).min(u64::from(mss)))
        } else {
            None
        }
    }

    /// Extend the sent span by one byte for a zero-window probe, if the
    /// probe byte is not already outstanding.
    pub fn extend_for_probe(&mut self) {
        if self.snd_nxt == self.snd_una {
            self.snd_nxt += 1;
            self.snd_max = self.snd_max.max(self.snd_nxt);
        }
    }

    /// Advance the send pointer over `len` freshly sent bytes; returns
    /// the offset the segment starts at.
    pub fn advance_nxt(&mut self, len: u64) -> u64 {
        let off = self.snd_nxt;
        self.snd_nxt += len;
        self.snd_max = self.snd_max.max(self.snd_nxt);
        off
    }
}

impl Default for ReliableDelivery {
    fn default() -> ReliableDelivery {
        ReliableDelivery::new()
    }
}
