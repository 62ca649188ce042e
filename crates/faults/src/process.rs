//! The pure decision engine compiled from a [`FaultPlan`]: no netsim
//! types, so it can also drive hand-rolled test pipes (e.g. the TCP
//! property tests).

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use acdc_stats::time::Nanos;

use crate::plan::{FaultPlan, LossModel};

/// Why a packet was discarded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropCause {
    /// The random loss process (i.i.d. or Gilbert-Elliott) selected it.
    Random,
    /// A scripted `drop_data_nth` / `drop_any_nth` entry selected it.
    Scripted,
    /// The link was down (flap schedule).
    LinkDown,
}

/// How a delivered packet is to be handled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Delivery {
    /// Extra delay before delivery (reorder hold + jitter).
    pub delay: Nanos,
    /// Deliver an extra copy immediately (ahead of any held original).
    pub duplicate: bool,
    /// Damage the header so the receiver's checksum verification fails.
    pub corrupt: bool,
    /// CE-mark the packet (scripted marks; the applier should respect
    /// ECT).
    pub mark_ce: bool,
    /// Part of `delay` is a reorder hold (distinguishes a deliberate
    /// reordering from plain jitter in telemetry events).
    pub reordered: bool,
}

/// The fate of one offered packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fate {
    /// Discard the packet.
    Drop(DropCause),
    /// Deliver the packet, possibly modified/delayed/duplicated.
    Deliver(Delivery),
}

/// Counters for one direction of a faulty link. All-`u64` and `Eq`, so
/// determinism tests can require byte-identical stats across runs. The
/// [`FaultProcess`] counts in these fields, and [`FaultProcess::stats`]
/// returns a copy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Packets offered to the process.
    pub offered: u64,
    /// Packets the process decided to deliver (a duplicated packet counts
    /// once here; the extra copy is counted in `duplicated`).
    pub delivered: u64,
    /// Drops by the random loss process.
    pub random_drops: u64,
    /// Drops by scripted `drop_*_nth` entries.
    pub scripted_drops: u64,
    /// Drops because the link was down.
    pub flap_drops: u64,
    /// Extra copies emitted by duplication.
    pub duplicated: u64,
    /// Packets held back to force reordering.
    pub reordered: u64,
    /// Packets with corrupted headers.
    pub corrupted: u64,
    /// Packets given random extra delay (jitter; excludes reorder holds).
    pub jittered: u64,
    /// Packets CE-marked by scripted marks.
    pub ce_marked: u64,
}

impl FaultStats {
    /// Total packets discarded, all causes.
    pub fn total_drops(&self) -> u64 {
        self.random_drops + self.scripted_drops + self.flap_drops
    }

    /// Field-wise sum (for combining directions).
    pub fn merged(&self, other: &FaultStats) -> FaultStats {
        FaultStats {
            offered: self.offered + other.offered,
            delivered: self.delivered + other.delivered,
            random_drops: self.random_drops + other.random_drops,
            scripted_drops: self.scripted_drops + other.scripted_drops,
            flap_drops: self.flap_drops + other.flap_drops,
            duplicated: self.duplicated + other.duplicated,
            reordered: self.reordered + other.reordered,
            corrupted: self.corrupted + other.corrupted,
            jittered: self.jittered + other.jittered,
            ce_marked: self.ce_marked + other.ce_marked,
        }
    }
}

/// One direction's fault process: plan + RNG stream + channel state.
///
/// ## Determinism contract
///
/// [`FaultProcess::decide`] consumes RNG draws in a fixed order per packet
/// (loss → duplication → corruption → reorder → jitter), with each draw
/// gated only on the *plan* (a probability of 0 / absent spec draws
/// nothing). Hence same plan + same seed + same `(now, is_data)` call
/// sequence ⇒ identical [`Fate`] sequence and identical [`FaultStats`].
pub struct FaultProcess {
    plan: FaultPlan,
    rng: StdRng,
    /// Gilbert-Elliott channel state: currently in Bad?
    ge_bad: bool,
    /// Apply the scripted `*_nth` sets (A→B direction only on links).
    apply_scripts: bool,
    seen_any: u64,
    seen_data: u64,
    stats: FaultStats,
}

impl FaultProcess {
    /// Compile `plan` into a process drawing from `seed`'s RNG stream.
    /// `apply_scripts` enables the scripted `*_nth` sets (a
    /// [`FaultyLink`](crate::FaultyLink) enables them only A→B).
    pub fn new(plan: &FaultPlan, seed: u64, apply_scripts: bool) -> FaultProcess {
        FaultProcess {
            plan: plan.clone(),
            rng: StdRng::seed_from_u64(seed),
            ge_bad: false,
            apply_scripts,
            seen_any: 0,
            seen_data: 0,
            stats: FaultStats::default(),
        }
    }

    /// Counters so far.
    pub fn stats(&self) -> FaultStats {
        self.stats
    }

    /// Decide the fate of the next offered packet. `now` is virtual time
    /// (for the flap schedule); `is_data` selects the scripted data-packet
    /// indices (payload-carrying segments).
    pub fn decide(&mut self, now: Nanos, is_data: bool) -> Fate {
        self.stats.offered += 1;
        self.seen_any += 1;
        if is_data {
            self.seen_data += 1;
        }

        if self.plan.is_down(now) {
            self.stats.flap_drops += 1;
            return Fate::Drop(DropCause::LinkDown);
        }

        if self.apply_scripts {
            let scripted = self.plan.drop_any_nth.contains(&self.seen_any)
                || (is_data && self.plan.drop_data_nth.contains(&self.seen_data));
            if scripted {
                self.stats.scripted_drops += 1;
                return Fate::Drop(DropCause::Scripted);
            }
        }

        let lost = match self.plan.loss {
            LossModel::None => false,
            LossModel::Iid { p } => p > 0.0 && self.rng.random_bool(p),
            LossModel::GilbertElliott {
                p_enter_bad,
                p_exit_bad,
                loss_good,
                loss_bad,
            } => {
                // Transition first, then loss, one draw each — fixed draw
                // order keeps the stream aligned across runs.
                let flip = self
                    .rng
                    .random_bool(if self.ge_bad { p_exit_bad } else { p_enter_bad });
                if flip {
                    self.ge_bad = !self.ge_bad;
                }
                let p = if self.ge_bad { loss_bad } else { loss_good };
                p > 0.0 && self.rng.random_bool(p)
            }
        };
        if lost {
            self.stats.random_drops += 1;
            return Fate::Drop(DropCause::Random);
        }

        let mut d = Delivery::default();
        if self.plan.duplicate_p > 0.0 && self.rng.random_bool(self.plan.duplicate_p) {
            d.duplicate = true;
            self.stats.duplicated += 1;
        }
        if self.plan.corrupt_p > 0.0 && self.rng.random_bool(self.plan.corrupt_p) {
            d.corrupt = true;
            self.stats.corrupted += 1;
        }
        if let Some(r) = self.plan.reorder {
            if r.p > 0.0 && self.rng.random_bool(r.p) {
                d.delay += r.hold;
                d.reordered = true;
                self.stats.reordered += 1;
            }
        }
        if let Some(j) = self.plan.jitter {
            if j.max > 0 {
                let extra = self.rng.random_range(0..=j.max);
                if extra > 0 {
                    self.stats.jittered += 1;
                }
                d.delay += extra;
            }
        }
        if self.apply_scripts && is_data && self.plan.mark_data_nth.contains(&self.seen_data) {
            d.mark_ce = true;
            self.stats.ce_marked += 1;
        }
        self.stats.delivered += 1;
        Fate::Deliver(d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fates(plan: &FaultPlan, n: u64) -> Vec<Fate> {
        let mut p = FaultProcess::new(plan, plan.seed, true);
        (0..n).map(|i| p.decide(i * 1_000, true)).collect()
    }

    #[test]
    fn same_seed_same_fates() {
        let plan = FaultPlan::new(42)
            .with_iid_loss(0.2)
            .with_duplication(0.1)
            .with_corruption(0.05)
            .with_reorder(0.1, 7_000)
            .with_jitter(3_000);
        assert_eq!(fates(&plan, 500), fates(&plan, 500));
        let mut a = FaultProcess::new(&plan, plan.seed, true);
        let mut b = FaultProcess::new(&plan, plan.seed, true);
        for i in 0..500 {
            let _ = a.decide(i, i % 3 == 0);
            let _ = b.decide(i, i % 3 == 0);
        }
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn different_seeds_diverge() {
        let p1 = FaultPlan::new(1).with_iid_loss(0.5);
        let p2 = FaultPlan::new(2).with_iid_loss(0.5);
        let f1 = fates(&p1, 200);
        let mut proc2 = FaultProcess::new(&p2, p2.seed, true);
        let f2: Vec<Fate> = (0..200).map(|i| proc2.decide(i * 1_000, true)).collect();
        assert_ne!(f1, f2);
    }

    #[test]
    fn iid_loss_rate_is_plausible() {
        let plan = FaultPlan::new(9).with_iid_loss(0.3);
        let mut p = FaultProcess::new(&plan, plan.seed, true);
        for i in 0..10_000 {
            let _ = p.decide(i, true);
        }
        let rate = p.stats().random_drops as f64 / 10_000.0;
        assert!((0.25..0.35).contains(&rate), "rate={rate}");
    }

    #[test]
    fn gilbert_elliott_loss_is_bursty() {
        // Long Bad dwell (p_exit 0.05 → mean burst 20) with rare entry:
        // drops must cluster into runs far longer than i.i.d. would give.
        let plan = FaultPlan::new(3).with_gilbert_elliott(0.01, 0.05, 0.0, 1.0);
        let mut p = FaultProcess::new(&plan, plan.seed, true);
        let mut run = 0u64;
        let mut max_run = 0u64;
        for i in 0..20_000 {
            match p.decide(i, true) {
                Fate::Drop(DropCause::Random) => {
                    run += 1;
                    max_run = max_run.max(run);
                }
                _ => run = 0,
            }
        }
        assert!(p.stats().random_drops > 0);
        assert!(max_run >= 5, "expected loss bursts, max run {max_run}");
    }

    #[test]
    fn scripted_drops_and_marks_hit_exact_indices() {
        let plan = FaultPlan::new(0)
            .drop_data([2, 4])
            .mark_data([3])
            .drop_any([7]);
        let mut p = FaultProcess::new(&plan, plan.seed, true);
        // Packets 1..=6 are data; packet 7 is a pure ACK.
        let mut dropped_data = Vec::new();
        for n in 1..=6u64 {
            match p.decide(n, true) {
                Fate::Drop(DropCause::Scripted) => dropped_data.push(n),
                Fate::Deliver(d) => assert_eq!(d.mark_ce, n == 3, "packet {n}"),
                f => panic!("unexpected fate {f:?}"),
            }
        }
        assert_eq!(dropped_data, vec![2, 4]);
        assert_eq!(p.decide(7, false), Fate::Drop(DropCause::Scripted));
        let s = p.stats();
        assert_eq!(s.scripted_drops, 3);
        assert_eq!(s.ce_marked, 1);
    }

    #[test]
    fn scripts_disabled_are_ignored() {
        let plan = FaultPlan::new(0).drop_data([1, 2, 3]);
        let mut p = FaultProcess::new(&plan, plan.seed, false);
        for n in 1..=3u64 {
            assert!(matches!(p.decide(n, true), Fate::Deliver(_)));
        }
        assert_eq!(p.stats().scripted_drops, 0);
    }

    #[test]
    fn flap_window_drops_everything_inside_it() {
        let plan = FaultPlan::new(0).with_flap(1_000, 2_000);
        let mut p = FaultProcess::new(&plan, plan.seed, true);
        assert!(matches!(p.decide(999, true), Fate::Deliver(_)));
        assert_eq!(p.decide(1_000, true), Fate::Drop(DropCause::LinkDown));
        assert_eq!(p.decide(1_999, false), Fate::Drop(DropCause::LinkDown));
        assert!(matches!(p.decide(2_000, true), Fate::Deliver(_)));
        assert_eq!(p.stats().flap_drops, 2);
    }

    #[test]
    fn healthy_plan_is_transparent() {
        let plan = FaultPlan::new(5);
        let mut p = FaultProcess::new(&plan, plan.seed, true);
        for i in 0..100 {
            assert_eq!(p.decide(i, i % 2 == 0), Fate::Deliver(Delivery::default()));
        }
        let s = p.stats();
        assert_eq!(s.delivered, 100);
        assert_eq!(s.total_drops(), 0);
    }

    #[test]
    fn merged_sums_fieldwise() {
        let a = FaultStats {
            offered: 10,
            delivered: 8,
            random_drops: 2,
            ..FaultStats::default()
        };
        let b = FaultStats {
            offered: 5,
            delivered: 5,
            duplicated: 1,
            ..FaultStats::default()
        };
        let m = a.merged(&b);
        assert_eq!(m.offered, 15);
        assert_eq!(m.delivered, 13);
        assert_eq!(m.random_drops, 2);
        assert_eq!(m.duplicated, 1);
        assert_eq!(m.total_drops(), 2);
    }
}
