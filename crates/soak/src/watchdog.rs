//! The invariant watchdog: hard contracts checked throughout the soak.
//!
//! The cross-sample history (previous counter values, drop tally, wedge
//! streak) sits in private fields, so it is written only here.
//!
//! The driver hands the watchdog a [`WatchdogSample`] every few
//! maintenance ticks; the watchdog enforces the catalog below and
//! returns the first [`Violation`] it finds, at which point the driver
//! dumps the watched host's flight recorder and fails the run. The invariants
//! (DESIGN.md §14):
//!
//! 1. **occupancy-cap** — no host's flow table ever exceeds the
//!    configured `max_flows` cap;
//! 2. **counter-monotone** — every metric (the registry holds counters
//!    only) is non-decreasing between samples (a decrease means lost or
//!    corrupted state, e.g. a checkpoint restored over live counters);
//! 3. **dropped-events-bound** — the flight recorder's
//!    `dropped_events` tally stays monotone, and between two samples it
//!    grows by at most `MAX_OVERWRITES_PER_SEC` per virtual second (a
//!    runaway event storm is a bug even when the ring absorbs it);
//! 4. **health-wedged** — the ladder never sits in `PassThrough` while
//!    occupancy is below the recovery watermark for more than
//!    `MAX_WEDGED_SAMPLES` consecutive samples: recovery is gc-driven
//!    and must happen within a couple of ticks of the pressure receding;
//! 5. **seq-divergence** — the vSwitch's passively reconstructed
//!    [`SeqView`] for a foreground flow stays inside the endpoint's
//!    ground-truth window: `ep.snd_una ≤ dp.snd_una ≤ ep.snd_nxt` and
//!    `dp.snd_nxt ≤ ep.snd_nxt` (the vSwitch may lag after a reset's
//!    mid-stream re-adoption, but may never run ahead of the guest).

use std::collections::BTreeMap;

use acdc_packet::{FlowKey, SeqView};
use acdc_stats::time::{Nanos, SECOND};
use acdc_telemetry::MetricValue;
use acdc_vswitch::health::PASS_RECOVER_PCT;

/// Flight-recorder overwrites allowed per virtual second between two
/// samples (invariant 3). The smoke soak overwrites none; the 250k-flow
/// hour peaks at 380 per second (38 in one 100 ms interval), so the cap
/// leaves 2.6× headroom.
const MAX_OVERWRITES_PER_SEC: u64 = 1_000;

/// Consecutive below-watermark samples the ladder may spend in
/// `PassThrough` before it counts as wedged (invariant 4).
const MAX_WEDGED_SAMPLES: u32 = 50;

/// The foreground flow's paired sequence views (invariant 5).
#[derive(Debug, Clone)]
pub(crate) struct FlowProbe {
    /// The flow's egress-direction key.
    pub(crate) key: FlowKey,
    /// The vSwitch's reconstruction, if the flow is tracked with valid
    /// sequence state.
    pub(crate) dp: Option<SeqView>,
    /// The endpoint's ground truth, if the connection is established.
    pub(crate) ep: Option<SeqView>,
}

/// Everything the watchdog sees at one sampling edge.
#[derive(Debug, Clone)]
pub(crate) struct WatchdogSample {
    /// Virtual time of the sample.
    pub(crate) at: Nanos,
    /// Flow-table occupancy per host, `(host index, tracked flows)`.
    pub(crate) occupancy: Vec<(usize, usize)>,
    /// The watched host's health rung (0 = Enforcing .. 2 = PassThrough).
    pub(crate) health_rung: u8,
    /// The watched host's occupancy (drives the wedge check).
    pub(crate) watched_occupancy: usize,
    /// The watched host's flight-recorder `dropped_events` tally.
    pub(crate) dropped_events: u64,
    /// The watched host's metrics, sorted by name.
    pub(crate) metrics: Vec<MetricValue>,
    /// The foreground flow's sequence-view probe.
    pub(crate) probe: FlowProbe,
}

/// A broken invariant: where, which, and the evidence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Virtual time of the failing sample.
    pub at: Nanos,
    /// Invariant name from the catalog in the module docs.
    pub invariant: &'static str,
    /// Human-readable evidence.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{} ns] {}: {}", self.at, self.invariant, self.detail)
    }
}

/// Stateful checker for the invariant catalog (see module docs).
#[derive(Debug)]
pub(crate) struct Watchdog {
    /// The datapath's `max_flows` cap (invariants 1 and 4).
    max_flows: usize,
    prev_counters: BTreeMap<String, u64>,
    /// Time and `dropped_events` of the previous sample.
    prev_dropped: (Nanos, u64),
    wedged: u32,
    samples: u64,
}

impl Watchdog {
    /// A fresh watchdog with no history, for a datapath capped at
    /// `max_flows`.
    pub(crate) fn new(max_flows: usize) -> Watchdog {
        Watchdog {
            max_flows,
            prev_counters: BTreeMap::new(),
            prev_dropped: (0, 0),
            wedged: 0,
            samples: 0,
        }
    }

    /// Samples checked so far.
    pub(crate) fn samples(&self) -> u64 {
        self.samples
    }

    /// Check one sample against the catalog; the first broken invariant
    /// wins. State (counter history, wedge streak) advances only for
    /// the checks that passed before the failure.
    pub(crate) fn check(&mut self, s: &WatchdogSample) -> Result<(), Violation> {
        self.samples += 1;
        let fail = |invariant, detail| {
            Err(Violation {
                at: s.at,
                invariant,
                detail,
            })
        };

        // 1. occupancy-cap
        for &(host, occ) in &s.occupancy {
            if occ > self.max_flows {
                return fail(
                    "occupancy-cap",
                    format!("host {host} tracks {occ} flows, cap {}", self.max_flows),
                );
            }
        }

        // 2. counter-monotone
        for m in &s.metrics {
            if let Some(&prev) = self.prev_counters.get(&m.name) {
                if m.value < prev {
                    return fail(
                        "counter-monotone",
                        format!("counter {} went backwards: {prev} -> {}", m.name, m.value),
                    );
                }
            }
        }
        for m in &s.metrics {
            self.prev_counters.insert(m.name.clone(), m.value);
        }

        // 3. dropped-events-bound
        let (prev_at, prev_dropped) = self.prev_dropped;
        let Some(grew) = s.dropped_events.checked_sub(prev_dropped) else {
            return fail(
                "dropped-events-bound",
                format!(
                    "dropped_events went backwards: {prev_dropped} -> {}",
                    s.dropped_events
                ),
            );
        };
        self.prev_dropped = (s.at, s.dropped_events);
        let elapsed = s.at.saturating_sub(prev_at);
        if u128::from(grew) * u128::from(SECOND)
            > u128::from(MAX_OVERWRITES_PER_SEC) * u128::from(elapsed)
        {
            return fail(
                "dropped-events-bound",
                format!(
                    "{grew} events overwritten in {elapsed} ns, over the cap of \
                     {MAX_OVERWRITES_PER_SEC} per virtual second"
                ),
            );
        }

        // 4. health-wedged
        let below_recovery =
            s.watched_occupancy * 100 < self.max_flows * usize::from(PASS_RECOVER_PCT);
        if s.health_rung >= 2 && below_recovery {
            self.wedged += 1;
            if self.wedged > MAX_WEDGED_SAMPLES {
                return fail(
                    "health-wedged",
                    format!(
                        "PassThrough for {} samples with occupancy {} below the \
                         {PASS_RECOVER_PCT}% recovery watermark of cap {}",
                        self.wedged, s.watched_occupancy, self.max_flows
                    ),
                );
            }
        } else {
            self.wedged = 0;
        }

        // 5. seq-divergence
        let p = &s.probe;
        if let (Some(dp), Some(ep)) = (p.dp, p.ep) {
            let una_in_window =
                dp.snd_una.distance(ep.snd_una) >= 0 && ep.snd_nxt.distance(dp.snd_una) >= 0;
            let nxt_bounded = ep.snd_nxt.distance(dp.snd_nxt) >= 0;
            if !una_in_window || !nxt_bounded {
                return fail(
                    "seq-divergence",
                    format!(
                        "flow {:?}: vSwitch ({:?}, {:?}) outside endpoint window ({:?}, {:?})",
                        p.key, dp.snd_una, dp.snd_nxt, ep.snd_una, ep.snd_nxt
                    ),
                );
            }
        }

        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acdc_packet::SeqNumber;
    use acdc_stats::time::MILLISECOND;
    use acdc_telemetry::MetricKind;

    const MAX_FLOWS: usize = 100;

    fn sample(at: Nanos) -> WatchdogSample {
        WatchdogSample {
            at,
            occupancy: vec![(0, 10), (1, 5)],
            health_rung: 0,
            watched_occupancy: 10,
            dropped_events: 0,
            metrics: Vec::new(),
            probe: FlowProbe {
                key: FlowKey {
                    src_ip: [10, 0, 0, 1],
                    dst_ip: [10, 0, 1, 1],
                    src_port: 40_000,
                    dst_port: 5_001,
                },
                dp: None,
                ep: None,
            },
        }
    }

    #[test]
    fn clean_samples_pass() {
        let mut w = Watchdog::new(MAX_FLOWS);
        for t in 0..5 {
            w.check(&sample(t)).expect("clean sample must pass");
        }
        assert_eq!(w.samples(), 5);
    }

    #[test]
    fn occupancy_over_cap_fires() {
        let mut w = Watchdog::new(MAX_FLOWS);
        let mut s = sample(1);
        s.occupancy.push((2, 101));
        let v = w.check(&s).unwrap_err();
        assert_eq!(v.invariant, "occupancy-cap");
        assert!(v.detail.contains("host 2"));
    }

    #[test]
    fn counter_regression_fires() {
        let mut w = Watchdog::new(MAX_FLOWS);
        let mut s = sample(1);
        s.metrics = vec![MetricValue {
            name: "acdc.rwnd_rewrites".into(),
            kind: MetricKind::Counter,
            value: 7,
        }];
        w.check(&s).expect("first sight just records");
        s.at = 2;
        s.metrics[0].value = 3;
        let v = w.check(&s).unwrap_err();
        assert_eq!(v.invariant, "counter-monotone");
    }

    #[test]
    fn dropped_events_rate_and_monotonicity_fire() {
        // Exactly the cap over one 100 ms sampling interval passes; one
        // more overwrite in the next interval fires.
        let per_interval = MAX_OVERWRITES_PER_SEC / 10;
        let mut w = Watchdog::new(MAX_FLOWS);
        let mut s = sample(100 * MILLISECOND);
        s.dropped_events = per_interval;
        w.check(&s).expect("a rate at the cap passes");
        s.at = 200 * MILLISECOND;
        s.dropped_events += per_interval + 1;
        let v = w.check(&s).unwrap_err();
        assert_eq!(v.invariant, "dropped-events-bound");
        assert!(v.detail.contains("over the cap"));

        // A decrease fires whatever the rate.
        let mut w = Watchdog::new(MAX_FLOWS);
        s.at = 100 * MILLISECOND;
        s.dropped_events = 5;
        w.check(&s).unwrap();
        s.at = 200 * MILLISECOND;
        s.dropped_events = 4;
        let v = w.check(&s).unwrap_err();
        assert_eq!(v.invariant, "dropped-events-bound");
        assert!(v.detail.contains("backwards"));
    }

    #[test]
    fn wedged_ladder_fires_after_grace() {
        let mut w = Watchdog::new(MAX_FLOWS);
        let mut s = sample(1);
        s.health_rung = 2;
        s.watched_occupancy = 10; // far below 85% of 100
        for _ in 0..MAX_WEDGED_SAMPLES {
            w.check(&s).expect("inside the grace samples");
        }
        let v = w.check(&s).unwrap_err();
        assert_eq!(v.invariant, "health-wedged");

        // High occupancy legitimizes PassThrough indefinitely.
        let mut w = Watchdog::new(MAX_FLOWS);
        s.watched_occupancy = 95;
        for t in 0..2 * u64::from(MAX_WEDGED_SAMPLES) {
            s.at = t;
            w.check(&s).expect("loaded PassThrough is legitimate");
        }
    }

    #[test]
    fn seq_divergence_fires_when_vswitch_runs_ahead() {
        let mut w = Watchdog::new(MAX_FLOWS);
        let mut s = sample(1);
        s.probe.dp = Some(SeqView {
            snd_una: SeqNumber(100),
            snd_nxt: SeqNumber(2_000), // ahead of the endpoint: impossible
        });
        s.probe.ep = Some(SeqView {
            snd_una: SeqNumber(100),
            snd_nxt: SeqNumber(1_000),
        });
        assert_eq!(w.check(&s).unwrap_err().invariant, "seq-divergence");

        // Lagging after a reset's re-adoption is fine.
        s.probe.dp = Some(SeqView {
            snd_una: SeqNumber(500),
            snd_nxt: SeqNumber(900),
        });
        w.check(&s).expect("vSwitch inside the endpoint window");

        // Untracked or unestablished flows are skipped.
        s.probe.dp = None;
        w.check(&s).unwrap();
    }
}
