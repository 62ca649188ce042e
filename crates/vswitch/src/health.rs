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

use acdc_stats::time::Nanos;
use acdc_telemetry::Rung;

/// Degradation rung of one datapath. `Ord` follows intervention level:
/// a transition to a *greater* state is a demotion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum HealthState {
    /// Full enforcement: RWND rewriting, ECN ownership, policing.
    #[default]
    Enforcing,
    /// Track state and compute windows, but rewrite nothing.
    LogOnly,
    /// Forward untouched (metadata hygiene only).
    PassThrough,
}

impl HealthState {
    /// The rung as its stable checkpoint encoding (0/1/2, also the soak
    /// watchdog's `health_rung`).
    pub fn rung(self) -> u8 {
        self as u8
    }

    /// Decode a rung written by [`HealthState::rung`]; values outside
    /// 0..=2 saturate to the always-safe `PassThrough`.
    pub fn from_rung(v: u8) -> HealthState {
        match v {
            0 => HealthState::Enforcing,
            1 => HealthState::LogOnly,
            _ => HealthState::PassThrough,
        }
    }

    /// The rung as an event label.
    pub fn label(self) -> Rung {
        match self {
            HealthState::Enforcing => Rung::Enforcing,
            HealthState::LogOnly => Rung::LogOnly,
            HealthState::PassThrough => Rung::PassThrough,
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

/// The current rung plus a time-stamped transition trace: plain state,
/// behind the datapath's one lock with the rest of what it mutates.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct Health {
    pub(crate) state: HealthState,
    pub(crate) trace: Vec<(Nanos, HealthState)>,
}

impl Health {
    /// Move to `to` if not already there; records the transition in the
    /// trace and returns `(from, to)` when a change actually happened.
    pub(crate) fn transition(
        &mut self,
        now: Nanos,
        to: HealthState,
    ) -> Option<(HealthState, HealthState)> {
        let from = std::mem::replace(&mut self.state, to);
        if from == to {
            return None;
        }
        self.trace.push((now, to));
        Some((from, to))
    }

    /// Move to `to` unconditionally, always appending a trace entry even
    /// when the rung does not change — marks a restart epoch.
    pub(crate) fn force(&mut self, now: Nanos, to: HealthState) {
        self.state = to;
        self.trace.push((now, to));
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
        let mut c = Health::default();
        assert_eq!(c.state, HealthState::Enforcing);
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
            c.trace,
            vec![(10, HealthState::LogOnly), (20, HealthState::Enforcing)]
        );
    }

    #[test]
    fn force_always_leaves_a_trace_mark() {
        let mut c = Health::default();
        c.force(7, HealthState::Enforcing); // restart epoch, no rung change
        assert_eq!(c.state, HealthState::Enforcing);
        assert_eq!(c.trace, vec![(7, HealthState::Enforcing)]);
    }
}
