//! Datapath health: the overload degradation ladder (DESIGN.md §10).
//!
//! A bounded datapath under overload must degrade, never misbehave. The
//! ladder has three rungs, ordered from most to least intervention:
//!
//! * [`HealthState::Enforcing`] — normal operation: windows rewritten,
//!   ECN owned by the vSwitch (§3.2/§3.3).
//! * [`HealthState::LogOnly`] — state still tracked and windows still
//!   computed, but nothing on the wire is rewritten (the per-datapath
//!   analogue of `AcdcConfig::log_only`, Figure 9's measurement mode).
//! * [`HealthState::PassThrough`] — packets forwarded untouched except
//!   for AC/DC metadata hygiene. Always safe: the guest's own congestion
//!   control still runs (§3.3's fail-safe argument), so the worst case is
//!   the status quo ante — unenforced TCP.
//!
//! Demotions are cheap and eager (occupancy watermark, admission
//! rejection); promotions are deliberate and only happen from the
//! maintenance tick once occupancy has receded below a recovery watermark
//! with no rejections since the last tick.
//!
//! The watermarks are constants, percentages of `AcdcConfig::max_flows`:
//! demote at [`LOG_ONLY_PCT`] (90), recover at [`PASS_RECOVER_PCT`] (85)
//! and [`LOG_RECOVER_PCT`] (75). Both recovery marks sit below the
//! demotion mark, so a table hovering at a boundary cannot flap, and
//! 85 > 75 makes a receding table climb one rung at a time: it resumes
//! tracking first (`LogOnly` writes nothing, so being early costs
//! nothing) and rewrites packets again only with ten more points of
//! headroom.

use std::sync::atomic::{AtomicU8, Ordering};

use acdc_stats::time::Nanos;
use parking_lot::Mutex;

/// Degradation rung of one datapath. `Ord` follows intervention level:
/// a transition to a *greater* state is a demotion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum HealthState {
    /// Full enforcement: RWND rewriting, ECN ownership, policing.
    Enforcing,
    /// Track state and compute windows, but rewrite nothing.
    LogOnly,
    /// Forward untouched (metadata hygiene only).
    PassThrough,
}

impl HealthState {
    fn from_u8(v: u8) -> HealthState {
        match v {
            0 => HealthState::Enforcing,
            1 => HealthState::LogOnly,
            _ => HealthState::PassThrough,
        }
    }

    /// The rung as its stable checkpoint encoding (0/1/2, also the soak
    /// watchdog's `health_rung`).
    pub fn rung(self) -> u8 {
        self as u8
    }

    /// Decode a rung written by [`HealthState::rung`]; values outside
    /// 0..=2 saturate to the always-safe `PassThrough`.
    pub fn from_rung(v: u8) -> HealthState {
        HealthState::from_u8(v)
    }

    /// Stable label for traces and counters.
    pub fn name(self) -> &'static str {
        match self {
            HealthState::Enforcing => "enforcing",
            HealthState::LogOnly => "log-only",
            HealthState::PassThrough => "pass-through",
        }
    }
}

/// Demote `Enforcing → LogOnly` at or above this occupancy, in percent
/// of `max_flows`.
pub const LOG_ONLY_PCT: u8 = 90;
/// Promote `LogOnly → Enforcing` strictly below this occupancy.
pub const LOG_RECOVER_PCT: u8 = 75;
/// Promote `PassThrough → LogOnly` strictly below this occupancy.
pub const PASS_RECOVER_PCT: u8 = 85;

/// The current rung plus a time-stamped transition trace. Reads are a
/// relaxed atomic load (per-packet fast path); writes are rare
/// (watermark crossings, admission rejects, restarts).
pub struct HealthCell {
    state: AtomicU8,
    trace: Mutex<Vec<(Nanos, HealthState)>>,
}

impl Default for HealthCell {
    fn default() -> Self {
        HealthCell::new()
    }
}

impl HealthCell {
    /// A fresh cell: `Enforcing`, empty trace.
    pub fn new() -> HealthCell {
        HealthCell {
            state: AtomicU8::new(HealthState::Enforcing as u8),
            trace: Mutex::new(Vec::new()),
        }
    }

    /// Current rung.
    pub fn get(&self) -> HealthState {
        HealthState::from_u8(self.state.load(Ordering::Relaxed))
    }

    /// Move to `to` if not already there; records the transition in the
    /// trace and returns `(from, to)` when a change actually happened.
    pub fn transition(&self, now: Nanos, to: HealthState) -> Option<(HealthState, HealthState)> {
        let from = HealthState::from_u8(self.state.swap(to as u8, Ordering::Relaxed));
        if from == to {
            return None;
        }
        self.trace.lock().push((now, to));
        Some((from, to))
    }

    /// Move to `to` unconditionally, always appending a trace entry even
    /// when the rung does not change — marks a restart epoch.
    pub fn force(&self, now: Nanos, to: HealthState) {
        self.state.store(to as u8, Ordering::Relaxed);
        self.trace.lock().push((now, to));
    }

    /// Snapshot of the transition trace.
    pub fn trace(&self) -> Vec<(Nanos, HealthState)> {
        self.trace.lock().clone()
    }

    /// Restore a checkpointed rung and transition trace verbatim —
    /// unlike [`HealthCell::force`], no new trace mark is appended, so a
    /// restored cell is indistinguishable from the checkpointed one.
    pub fn restore(&self, state: HealthState, trace: Vec<(Nanos, HealthState)>) {
        self.state.store(state as u8, Ordering::Relaxed);
        *self.trace.lock() = trace;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_orders_by_intervention() {
        assert!(HealthState::Enforcing < HealthState::LogOnly);
        assert!(HealthState::LogOnly < HealthState::PassThrough);
    }

    #[test]
    fn transition_records_changes_only() {
        let c = HealthCell::new();
        assert_eq!(c.get(), HealthState::Enforcing);
        assert_eq!(c.transition(5, HealthState::Enforcing), None);
        assert_eq!(
            c.transition(10, HealthState::LogOnly),
            Some((HealthState::Enforcing, HealthState::LogOnly))
        );
        assert_eq!(
            c.transition(20, HealthState::Enforcing),
            Some((HealthState::LogOnly, HealthState::Enforcing))
        );
        assert_eq!(
            c.trace(),
            vec![(10, HealthState::LogOnly), (20, HealthState::Enforcing)]
        );
    }

    #[test]
    fn force_always_leaves_a_trace_mark() {
        let c = HealthCell::new();
        c.force(7, HealthState::Enforcing); // restart epoch, no rung change
        assert_eq!(c.get(), HealthState::Enforcing);
        assert_eq!(c.trace(), vec![(7, HealthState::Enforcing)]);
    }
}
