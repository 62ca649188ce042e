//! The metrics registry (DESIGN.md §11).
//!
//! The counters a hub snapshots and checkpoints (a vSwitch datapath's
//! `acdc.*` tallies, its host's `host.*` drops) are shared cells minted
//! here once, under a unique dotted name (`"acdc.packs_sent"`), because
//! the registry reads them by name: the benchmark harness asks for
//! `acdc.*` values through it (ROADMAP item 16 makes them plain fields).
//! Producers keep a cheap [`Counter`] handle whose whole interface is
//! `inc` / `add` / `get` — a plain load and store of a `Cell`, which
//! never leaves this file — while consumers read everything through one
//! interface: [`MetricsRegistry::snapshot_all`] for point-in-time values.
//! The simulator's ports, switches and fault taps are not here: each
//! counts in plain `u64` fields of the `Copy` view its owner returns
//! whole.
//! Live state (table occupancy, the health rung) is not mirrored here: the
//! component that owns it answers for it. The JSON snapshot
//! (`acdc-telemetry/v2`) is written by
//! [`Telemetry::snapshot_json`](crate::Telemetry::snapshot_json).

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use acdc_stats::series::TimeSeries;
use acdc_stats::time::Nanos;

/// Handle to a registered monotonic counter.
#[derive(Debug, Clone)]
pub struct Counter(Rc<Cell<u64>>);

impl Counter {
    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.set(self.0.get() + n);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.get()
    }
}

/// The kind of a metric. Every registered metric is a counter; the enum
/// stays because the benchmark harness filters on it (ROADMAP item 1
/// deletes it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonically non-decreasing.
    Counter,
}

impl MetricKind {
    /// Stable label used in the JSON snapshot.
    pub fn name(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
        }
    }
}

/// One metric's point-in-time value, as returned by
/// [`MetricsRegistry::snapshot_all`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricValue {
    /// Registered name.
    pub name: String,
    /// Always [`MetricKind::Counter`].
    pub kind: MetricKind,
    /// Value at snapshot time.
    pub value: u64,
}

struct Slot {
    name: String,
    kind: MetricKind,
    cell: Rc<Cell<u64>>,
    series: TimeSeries,
}

/// A registry of named counters. One registry exists per
/// observability domain (one per datapath/host); names are unique within
/// a registry and
/// registering a duplicate panics — metrics are registered once, at
/// construction time, never dynamically per packet.
#[derive(Default)]
pub struct MetricsRegistry {
    slots: RefCell<Vec<Slot>>,
    /// Upper bound on retained samples per metric series (0 = unbounded),
    /// for [`MetricsRegistry::sample`] alone.
    series_cap: Cell<usize>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Register a monotonic counter, starting at zero, and return the
    /// one handle to its cell. Panics if `name` is already taken.
    pub fn counter(&self, name: impl Into<String>) -> Counter {
        let name = name.into();
        let mut slots = self.slots.borrow_mut();
        assert!(
            !slots.iter().any(|s| s.name == name),
            "metric name registered twice: {name}"
        );
        let cell = Rc::new(Cell::new(0));
        slots.push(Slot {
            name,
            kind: MetricKind::Counter,
            cell: Rc::clone(&cell),
            series: TimeSeries::new(),
        });
        Counter(cell)
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.slots.borrow().len()
    }

    /// True when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current value of one metric by name.
    pub fn value(&self, name: &str) -> Option<u64> {
        self.slots
            .borrow()
            .iter()
            .find(|s| s.name == name)
            .map(|s| s.cell.get())
    }

    /// Overwrite the named metric's cell with a checkpointed value
    /// (DESIGN.md §14). Returns `false` when no metric of that name is
    /// registered — the caller decides whether an unknown name is a
    /// checkpoint/config mismatch worth failing on.
    pub fn restore_value(&self, name: &str, value: u64) -> bool {
        let slots = self.slots.borrow();
        match slots.iter().find(|s| s.name == name) {
            Some(s) => {
                s.cell.set(value);
                true
            }
            None => false,
        }
    }

    /// Bound the per-metric sampled history to roughly `cap` samples
    /// (`0` restores the unbounded default): a series is cut back to
    /// `cap` samples whenever it reaches `2 × cap`. Only the benchmark
    /// harness calls this; ROADMAP item 1 deletes it.
    pub fn set_series_cap(&self, cap: usize) {
        self.series_cap.set(cap);
    }

    /// Push every metric's current value onto its [`TimeSeries`] with
    /// timestamp `at`. Nothing in the workspace samples: only the
    /// benchmark harness calls this, and ROADMAP item 1 deletes it.
    pub fn sample(&self, at: Nanos) {
        let cap = self.series_cap.get();
        for s in self.slots.borrow_mut().iter_mut() {
            let v = s.cell.get();
            s.series.push(at, v as f64);
            if cap > 0 && s.series.len() >= 2 * cap {
                s.series.truncate_front(cap);
            }
        }
    }

    /// Clone of one metric's sampled series: the read side of
    /// [`MetricsRegistry::sample`], which only the benchmark harness
    /// calls. ROADMAP item 1 deletes both.
    pub fn series(&self, name: &str) -> Option<TimeSeries> {
        self.slots
            .borrow()
            .iter()
            .find(|s| s.name == name)
            .map(|s| s.series.clone())
    }

    /// Point-in-time values of every registered metric, sorted by name.
    pub fn snapshot_all(&self) -> Vec<MetricValue> {
        let mut out: Vec<MetricValue> = self
            .slots
            .borrow()
            .iter()
            .map(|s| MetricValue {
                name: s.name.clone(),
                kind: s.kind,
                value: s.cell.get(),
            })
            .collect();
        out.sort_by(|a, b| a.name.cmp(&b.name));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_round_trip() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("x.count_a");
        c.inc();
        c.add(4);
        assert_eq!(reg.value("x.count_a"), Some(5));
        assert_eq!(reg.value("missing"), None);
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn duplicate_name_panics() {
        let reg = MetricsRegistry::new();
        let _a = reg.counter("dup");
        let _b = reg.counter("dup");
    }

    #[test]
    fn sample_fills_series_in_lockstep() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("s.c");
        reg.sample(10);
        c.add(2);
        reg.sample(20);
        let series = reg.series("s.c").expect("registered");
        let vals: Vec<(Nanos, f64)> = series.samples().iter().map(|s| (s.at, s.value)).collect();
        assert_eq!(vals, vec![(10, 0.0), (20, 2.0)]);
    }

    #[test]
    fn series_cap_bounds_sampled_history() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("cap.c");
        reg.set_series_cap(4);
        for i in 0..20 {
            c.inc();
            reg.sample(i * 10);
        }
        let series = reg.series("cap.c").expect("registered");
        assert!(
            series.len() < 8,
            "cap 4 must keep the series under 2 × cap, got {}",
            series.len()
        );
        // The newest sample always survives the trim.
        let last = series.samples().last().unwrap();
        assert_eq!((last.at, last.value), (190, 20.0));
    }
}
