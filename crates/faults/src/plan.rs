//! Fault plans: declarative, seed-carrying descriptions of what goes wrong
//! on a link.

use std::collections::BTreeSet;

use acdc_stats::time::Nanos;

/// Random packet-loss process, applied per direction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LossModel {
    /// No random loss.
    None,
    /// Independent, identically distributed loss.
    Iid {
        /// Per-packet drop probability in `[0, 1]`.
        p: f64,
    },
    /// Two-state Gilbert-Elliott burst-loss channel. The chain starts in
    /// Good; for each packet it first takes a state transition, then drops
    /// the packet with the current state's loss probability. Mean burst
    /// length is `1 / p_exit_bad` packets.
    GilbertElliott {
        /// Good → Bad transition probability per packet.
        p_enter_bad: f64,
        /// Bad → Good transition probability per packet.
        p_exit_bad: f64,
        /// Drop probability while Good (usually 0).
        loss_good: f64,
        /// Drop probability while Bad (1.0 models hard outage bursts).
        loss_bad: f64,
    },
}

/// Probabilistic reordering: a selected packet is held back for `hold`
/// nanoseconds so that packets behind it overtake (a delay-swap window).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReorderSpec {
    /// Probability a packet is selected for holding.
    pub p: f64,
    /// How long a selected packet is held. Choose longer than a few
    /// serialization times to guarantee overtaking.
    pub hold: Nanos,
}

/// Bounded random extra delay, uniform in `[0, max]`, per packet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JitterSpec {
    /// Upper bound on the extra delay.
    pub max: Nanos,
}

/// Everything that can go wrong on one link, plus the seed that makes it
/// reproducible. Compile into a [`FaultProcess`](crate::FaultProcess)
/// directly or wrap a link with [`FaultyLink`](crate::FaultyLink).
///
/// The scripted `*_nth` sets index packets 1-based in arrival order and
/// apply only to the A→B direction of a [`FaultyLink`](crate::FaultyLink)
/// (both directions share the random processes, on independent RNG
/// streams derived from `seed`).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Master seed; per-direction RNG streams are derived from it.
    pub seed: u64,
    /// Random loss process.
    pub loss: LossModel,
    /// Reordering, if any.
    pub reorder: Option<ReorderSpec>,
    /// Per-packet duplication probability (the copy is delivered
    /// immediately, ahead of any held original).
    pub duplicate_p: f64,
    /// Per-packet header-corruption probability. Corrupted TCP segments
    /// keep parsing but fail [`Segment::verify_checksums`]
    /// (`acdc_packet::Segment::verify_checksums`), modelling bit errors
    /// caught by the receiver NIC's FCS/checksum check.
    pub corrupt_p: f64,
    /// Bounded random extra delay, if any.
    pub jitter: Option<JitterSpec>,
    /// Scheduled outages: the link discards everything arriving within
    /// any `[down, up)` interval (absolute simulation time).
    pub flaps: Vec<(Nanos, Nanos)>,
    /// Scripted: drop the n-th (1-based) *payload-carrying* packet.
    pub drop_data_nth: BTreeSet<u64>,
    /// Scripted: drop the n-th (1-based) packet of any kind.
    pub drop_any_nth: BTreeSet<u64>,
    /// Scripted: CE-mark the n-th (1-based) payload-carrying packet.
    pub mark_data_nth: BTreeSet<u64>,
}

impl FaultPlan {
    /// A healthy link (no faults) with the given seed.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            loss: LossModel::None,
            reorder: None,
            duplicate_p: 0.0,
            corrupt_p: 0.0,
            jitter: None,
            flaps: Vec::new(),
            drop_data_nth: BTreeSet::new(),
            drop_any_nth: BTreeSet::new(),
            mark_data_nth: BTreeSet::new(),
        }
    }

    /// Set i.i.d. loss with probability `p`.
    pub fn with_iid_loss(mut self, p: f64) -> FaultPlan {
        self.loss = LossModel::Iid { p };
        self
    }

    /// Set a Gilbert-Elliott burst-loss channel: loss probability
    /// `loss_good` / `loss_bad` in each state. The chain is
    /// packet-clocked: with `loss_bad` at 1.0, a burst only ends after
    /// `~1/p_exit_bad` *offered* packets, so an RTO-backoff sender probes
    /// its way out slowly; `loss_bad < 1` makes bursts escapable.
    pub fn with_gilbert_elliott(
        mut self,
        p_enter_bad: f64,
        p_exit_bad: f64,
        loss_good: f64,
        loss_bad: f64,
    ) -> FaultPlan {
        self.loss = LossModel::GilbertElliott {
            p_enter_bad,
            p_exit_bad,
            loss_good,
            loss_bad,
        };
        self
    }

    /// Hold packets with probability `p` for `hold` ns (reordering).
    pub fn with_reorder(mut self, p: f64, hold: Nanos) -> FaultPlan {
        self.reorder = Some(ReorderSpec { p, hold });
        self
    }

    /// Duplicate packets with probability `p`.
    pub fn with_duplication(mut self, p: f64) -> FaultPlan {
        self.duplicate_p = p;
        self
    }

    /// Corrupt packet headers with probability `p`.
    pub fn with_corruption(mut self, p: f64) -> FaultPlan {
        self.corrupt_p = p;
        self
    }

    /// Add uniform random delay in `[0, max]` ns.
    pub fn with_jitter(mut self, max: Nanos) -> FaultPlan {
        self.jitter = Some(JitterSpec { max });
        self
    }

    /// Schedule an outage: discard everything arriving in `[down, up)`.
    pub fn with_flap(mut self, down: Nanos, up: Nanos) -> FaultPlan {
        assert!(down < up, "flap interval must be non-empty");
        self.flaps.push((down, up));
        self
    }

    /// Script drops of specific data packets (1-based arrival index).
    pub fn drop_data(mut self, nths: impl IntoIterator<Item = u64>) -> FaultPlan {
        self.drop_data_nth.extend(nths);
        self
    }

    /// Script drops of specific packets of any kind (1-based index).
    pub fn drop_any(mut self, nths: impl IntoIterator<Item = u64>) -> FaultPlan {
        self.drop_any_nth.extend(nths);
        self
    }

    /// Script CE marks on specific data packets (1-based arrival index).
    pub fn mark_data(mut self, nths: impl IntoIterator<Item = u64>) -> FaultPlan {
        self.mark_data_nth.extend(nths);
        self
    }

    /// Is the link scheduled to be down at `now`?
    pub fn is_down(&self, now: Nanos) -> bool {
        self.flaps.iter().any(|&(down, up)| now >= down && now < up)
    }

    /// Does the plan contain any fault at all? A healthy plan compiles to
    /// a transparent link.
    pub fn is_healthy(&self) -> bool {
        self.loss == LossModel::None
            && self.reorder.is_none()
            && self.duplicate_p == 0.0
            && self.corrupt_p == 0.0
            && self.jitter.is_none()
            && self.flaps.is_empty()
            && self.drop_data_nth.is_empty()
            && self.drop_any_nth.is_empty()
            && self.mark_data_nth.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_composes() {
        let plan = FaultPlan::new(7)
            .with_iid_loss(0.1)
            .with_reorder(0.05, 10_000)
            .with_duplication(0.01)
            .with_corruption(0.02)
            .with_jitter(5_000)
            .with_flap(1_000, 2_000)
            .drop_data([3, 5])
            .mark_data([4]);
        assert!(!plan.is_healthy());
        assert_eq!(plan.seed, 7);
        assert!(matches!(plan.loss, LossModel::Iid { p } if p == 0.1));
        assert!(plan.is_down(1_000));
        assert!(plan.is_down(1_999));
        assert!(!plan.is_down(2_000));
        assert!(!plan.is_down(999));
        assert!(plan.drop_data_nth.contains(&5));
    }

    #[test]
    fn healthy_plan_reports_healthy() {
        assert!(FaultPlan::new(0).is_healthy());
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_flap_interval_rejected() {
        let _ = FaultPlan::new(0).with_flap(5, 5);
    }
}
