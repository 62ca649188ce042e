//! Peer flow control: the advertised-window view of the receiver and
//! the zero-window (persist) probe machinery.
//!
//! The fields are private, so every mutation of the peer-window state
//! and the persist timer lives in this file. After AC/DC
//! rewriting, the window tracked here *is* the enforced window: the
//! vSwitch's `RwndRewriter` stamps its computed value into every ACK
//! before the guest stack sees it, so the endpoint needs no knowledge of
//! the enforcement at all (paper §3.3).
//!
//! [`Endpoint`]: crate::Endpoint

use acdc_stats::time::Nanos;

use crate::reliable::RTO_MAX;

/// The sender's view of the peer's receive window, plus the RFC 1122
/// persist (zero-window probe) timer that keeps a closed window from
/// deadlocking the connection.
#[derive(Debug)]
pub struct FlowCtrl {
    /// Peer receive window in bytes (already scaled), relative to
    /// `snd_una`.
    peer_rwnd: u64,
    /// Raw window field of the last ACK (for duplicate-ACK detection).
    last_raw_wnd: u16,
    peer_wscale: u8,
    /// Zero-window probe (persist) timer: armed when the peer closes its
    /// window while we still have data to send.
    persist_deadline: Option<Nanos>,
    persist_backoff: u32,
    /// A 1-byte window probe is due on the next poll.
    window_probe_pending: bool,
}

impl FlowCtrl {
    /// Fresh flow-control state: an unscaled 64 KiB window until the
    /// handshake teaches us better.
    pub fn new() -> FlowCtrl {
        FlowCtrl {
            peer_rwnd: u64::from(u16::MAX),
            last_raw_wnd: 0,
            peer_wscale: 0,
            persist_deadline: None,
            persist_backoff: 0,
            window_probe_pending: false,
        }
    }

    // ---- views -------------------------------------------------------

    /// The peer's advertised receive window in bytes, as last seen.
    pub fn peer_rwnd(&self) -> u64 {
        self.peer_rwnd
    }

    /// Raw (unscaled) window field of the last ACK.
    pub fn last_raw_wnd(&self) -> u16 {
        self.last_raw_wnd
    }

    /// The peer's negotiated window-scale shift.
    pub fn peer_wscale(&self) -> u8 {
        self.peer_wscale
    }

    /// Armed persist deadline, if any.
    pub fn persist_deadline(&self) -> Option<Nanos> {
        self.persist_deadline
    }

    // ---- window tracking --------------------------------------------

    /// Learn the peer's window-scale shift from its SYN options.
    pub fn learn_wscale(&mut self, wscale: u8) {
        self.peer_wscale = wscale.min(14);
    }

    /// Record the window field of an arriving segment. SYN windows are
    /// never scaled (RFC 7323).
    pub fn update_window(&mut self, raw: u16, syn: bool) {
        self.last_raw_wnd = raw;
        self.peer_rwnd = if syn {
            u64::from(raw)
        } else {
            acdc_packet::unscale_rwnd(raw, self.peer_wscale)
        };
    }

    // ---- persist timer -----------------------------------------------

    /// Arm the persist timer: the peer's window closed while data is
    /// still pending. The first probe fires one RTO out.
    pub fn arm_persist(&mut self, now: Nanos, rto: Nanos) {
        self.persist_backoff = 0;
        self.persist_deadline = Some(now + rto);
    }

    /// The window reopened (or the connection tore down): stop probing.
    pub fn cancel_persist(&mut self) {
        self.persist_deadline = None;
        self.persist_backoff = 0;
    }

    /// The persist timer fired. When probing still makes sense, queue a
    /// 1-byte window probe and re-arm with exponential backoff; otherwise
    /// stop probing. The probe carries real stream data — a reopened
    /// window acknowledges it.
    pub fn on_persist_fire(&mut self, now: Nanos, rto: Nanos, probe: bool) {
        if probe {
            self.window_probe_pending = true;
            self.persist_backoff = (self.persist_backoff + 1).min(10);
            let delay = (rto << self.persist_backoff).min(RTO_MAX);
            self.persist_deadline = Some(now + delay);
        } else {
            self.cancel_persist();
        }
    }

    /// Consume a pending window-probe transmission, if one is queued.
    pub fn take_window_probe(&mut self) -> bool {
        let due = self.window_probe_pending;
        self.window_probe_pending = false;
        due
    }
}

impl Default for FlowCtrl {
    fn default() -> FlowCtrl {
        FlowCtrl::new()
    }
}
