//! RWND-rewrite state: the §3.3 enforcement component.
//!
//! The window-scale knowledge and the computed enforcement target used
//! to rewrite ACK receive windows live behind this struct's private
//! fields, so the *only* code that can mutate them is this module. The
//! datapath asks for a decision ([`RwndRewriter::action`]) and applies it
//! to the segment; it cannot scribble on the scale state directly, and
//! an entry holder outside the crate gets it only by `&` reference.

use acdc_stats::time::Nanos;

/// What to do with an arriving ACK's advertised receive window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RwndAction {
    /// Overwrite the raw window field with this value (the enforced
    /// window is smaller than what the guest advertised).
    Rewrite(u16),
    /// The guest's own window is already the binding constraint.
    KeepGuest,
    /// The window scale was never learned from a handshake; rewriting
    /// would mis-scale by up to 2^14, so the flow stays log-only.
    ScaleUnlearned,
}

/// Per-flow RWND-rewrite state (owned component; see module docs).
#[derive(Debug)]
pub struct RwndRewriter {
    /// Window-scale shift used to interpret/rewrite RWND in the ACKs
    /// arriving for this flow (advertised by the data *receiver* in its
    /// SYN; captured by monitoring the handshake, §3.3).
    ack_wscale: u8,
    /// Was `ack_wscale` actually learned from an observed handshake? An
    /// entry adopted mid-stream (vSwitch restart, VM migration) never saw
    /// the SYN, so rewriting RWND with its default shift of 0 would
    /// silently mis-scale the window; such flows stay log-only until a
    /// handshake teaches the scale.
    wscale_learned: bool,
    /// Most recently computed enforcement window, bytes (log-only mode
    /// records it here without rewriting; Figure 9).
    computed_rwnd: u64,
    /// Optional `(time, computed window)` trace for Figures 9/10. Boxed:
    /// only a traced datapath fills it, so the second allocation is paid
    /// there alone, and every flow entry holds 8 B where the `Vec` was 24.
    #[allow(clippy::box_collection)] // the box buys the entry 16 B
    window_trace: Option<Box<Vec<(Nanos, u64)>>>,
}

impl RwndRewriter {
    /// Fresh state: scale unlearned, target zero, tracing off.
    pub fn new() -> RwndRewriter {
        RwndRewriter {
            ack_wscale: 0,
            wscale_learned: false,
            computed_rwnd: 0,
            window_trace: None,
        }
    }

    /// Record the window scale advertised in an observed handshake. A SYN
    /// without the option means "scale 0" — still a *learned* fact,
    /// unlike the default an adopted entry gets.
    pub fn learn(&mut self, wscale: u8) {
        self.ack_wscale = wscale;
        self.wscale_learned = true;
    }

    /// Has a handshake taught this flow's window scale?
    pub fn learned(&self) -> bool {
        self.wscale_learned
    }

    /// The learned window-scale shift (0 until [`Self::learn`]).
    pub fn wscale(&self) -> u8 {
        self.ack_wscale
    }

    /// Record the CC's computed enforcement window, appending to the
    /// Figure 9/10 trace when `trace` is set.
    pub fn set_target(&mut self, now: Nanos, cwnd: u64, trace: bool) {
        self.computed_rwnd = cwnd;
        if trace {
            self.window_trace
                .get_or_insert_with(Box::default)
                .push((now, cwnd));
        }
    }

    /// The most recently computed enforcement window, bytes.
    pub fn target(&self) -> u64 {
        self.computed_rwnd
    }

    /// The `(time, computed window)` trace, if tracing was enabled.
    pub fn trace(&self) -> Option<&[(Nanos, u64)]> {
        self.window_trace.as_deref().map(Vec::as_slice)
    }

    /// Checkpoint view: `(wscale, learned, computed target)`. The
    /// Figure 9/10 window trace is diagnostic state and deliberately not
    /// part of the checkpoint.
    pub fn checkpoint_state(&self) -> (u8, bool, u64) {
        (self.ack_wscale, self.wscale_learned, self.computed_rwnd)
    }

    /// Restore the state captured by [`Self::checkpoint_state`]. This
    /// sets the fields verbatim and is **not** [`Self::learn`]: a flow
    /// checkpointed with `learned == false` is restored with
    /// `learned == false`, so it keeps the no-guess log-only semantics of
    /// mid-stream adoption until a real handshake teaches its scale.
    pub fn restore_state(&mut self, wscale: u8, learned: bool, target: u64) {
        self.ack_wscale = wscale;
        self.wscale_learned = learned;
        self.computed_rwnd = target;
        self.window_trace = None;
    }

    /// `window_bytes` expressed in this flow's raw (scaled) wire units,
    /// floored at 1 so a rewrite never silences the flow entirely.
    pub fn raw_window(&self, window_bytes: u64) -> u16 {
        acdc_packet::scale_rwnd_nonzero(window_bytes, self.ack_wscale)
    }

    /// Enforcement decision for an ACK advertising `advertised_raw`:
    /// overwrite RWND with the computed target only when that is
    /// *smaller* than what the guest advertised (§3.3), and never with an
    /// unlearned scale.
    pub fn action(&self, advertised_raw: u16) -> RwndAction {
        if !self.wscale_learned {
            return RwndAction::ScaleUnlearned;
        }
        let raw_target = self.raw_window(self.computed_rwnd);
        if raw_target < advertised_raw {
            RwndAction::Rewrite(raw_target)
        } else {
            RwndAction::KeepGuest
        }
    }
}

impl Default for RwndRewriter {
    fn default() -> Self {
        RwndRewriter::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlearned_scale_never_rewrites() {
        let mut r = RwndRewriter::new();
        r.set_target(0, 1, false);
        assert_eq!(r.action(u16::MAX), RwndAction::ScaleUnlearned);
        assert!(!r.learned());
    }

    #[test]
    fn learn_records_scale_even_when_zero() {
        let mut r = RwndRewriter::new();
        r.learn(0);
        assert!(r.learned());
        assert_eq!(r.wscale(), 0);
    }

    #[test]
    fn rewrite_only_when_target_below_advertised() {
        let mut r = RwndRewriter::new();
        r.learn(2);
        r.set_target(0, 4000, false);
        // 4000 >> 2 = 1000 raw units.
        assert_eq!(r.action(2000), RwndAction::Rewrite(1000));
        assert_eq!(r.action(1000), RwndAction::KeepGuest);
        assert_eq!(r.action(500), RwndAction::KeepGuest);
    }

    #[test]
    fn raw_window_floors_at_one() {
        let mut r = RwndRewriter::new();
        r.learn(10);
        assert_eq!(r.raw_window(1), 1);
    }

    #[test]
    fn trace_is_opt_in_and_appends() {
        let mut r = RwndRewriter::new();
        r.set_target(10, 100, false);
        assert!(r.trace().is_none());
        r.set_target(20, 200, true);
        r.set_target(30, 300, true);
        assert_eq!(r.trace().unwrap(), &[(20, 200), (30, 300)]);
        assert_eq!(r.target(), 300);
    }
}
