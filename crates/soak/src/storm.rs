//! Scheduled fault storms for the soak's trunk link.
//!
//! A storm is a scheduled outage window ([`FaultPlan::with_flap`]): the
//! trunk discards everything for its duration, forcing retransmission
//! timeouts, inferred-RTO handling and post-outage recovery through the
//! vSwitch. Between storms a configurable background of random loss and
//! corruption, plus a fixed jitter, keeps the fault paths warm. All of it
//! derives from the soak seed, so the schedule replays byte-identically.

use acdc_faults::FaultPlan;
use acdc_stats::time::Nanos;

/// Background jitter bound on the trunk, in nanoseconds.
const JITTER: Nanos = 10_000;

/// Outage windows plus the always-on background fault processes.
#[derive(Debug, Clone)]
pub struct StormSchedule {
    /// Scheduled trunk outages, `[down, up)` in absolute virtual time.
    pub windows: Vec<(Nanos, Nanos)>,
    /// Background i.i.d. loss probability (0 disables).
    pub background_loss: f64,
    /// Background header-corruption probability (0 disables).
    pub corruption: f64,
}

impl StormSchedule {
    /// Number of scheduled storms.
    pub(crate) fn storms(&self) -> usize {
        self.windows.len()
    }

    /// Compile the schedule into the trunk's [`FaultPlan`], deriving the
    /// fault RNG streams from the soak seed.
    pub(crate) fn trunk_plan(&self, seed: u64) -> FaultPlan {
        let mut plan = FaultPlan::new(seed ^ 0x5EED_5708_4AC0_DC01);
        if self.background_loss > 0.0 {
            plan = plan.with_iid_loss(self.background_loss);
        }
        if self.corruption > 0.0 {
            plan = plan.with_corruption(self.corruption);
        }
        plan = plan.with_jitter(JITTER);
        for &(down, up) in &self.windows {
            plan = plan.with_flap(down, up);
        }
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_compiles_to_flaps_over_background() {
        let s = StormSchedule {
            windows: vec![(100, 200), (500, 700)],
            background_loss: 0.01,
            corruption: 0.005,
        };
        assert_eq!(s.storms(), 2);
        let plan = s.trunk_plan(7);
        assert!(plan.is_down(150));
        assert!(!plan.is_down(300));
        assert!(plan.is_down(699));
        assert!(!plan.is_down(99));
        assert!(!plan.is_healthy());
    }
}
