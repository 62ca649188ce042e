//! The metrics registry (DESIGN.md §11).
//!
//! Every counter in the workspace is a shared cell registered here once,
//! under a unique dotted name (`"acdc.packs_sent"`,
//! `"port0.queue_full_drops"`, `"fault.ab.corrupted"`). Producers keep a
//! cheap [`Counter`] / [`Gauge`] handle whose whole interface is
//! `inc` / `add` / `get` (`set` / `get` for a gauge) — one relaxed atomic
//! operation each, and the atomic itself never leaves this file — while
//! consumers read everything through one interface:
//! [`MetricsRegistry::snapshot_all`] for point-in-time values and
//! [`MetricsRegistry::series`] for the per-metric [`TimeSeries`] filled in
//! by the 10 ms maintenance tick. The JSON snapshot (`acdc-telemetry/v2`)
//! is written by [`merged_snapshot_json`](crate::merge::merged_snapshot_json)
//! over one or more hubs.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use acdc_stats::series::TimeSeries;
use acdc_stats::time::Nanos;
use parking_lot::Mutex;

/// Handle to a registered monotonic counter.
#[derive(Debug, Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A counter backed by its own unregistered cell. Producers that may
    /// run with or without a registry (e.g. simulator ports) start
    /// standalone and are adopted later via
    /// [`MetricsRegistry::adopt_counter`] — the cell, and any value it
    /// already accumulated, carries over.
    pub fn standalone() -> Counter {
        Counter(Arc::new(AtomicU64::new(0)))
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Handle to a registered gauge (a sampled instantaneous value, e.g.
/// flow-table occupancy or the health rung).
#[derive(Debug, Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Overwrite the gauge value.
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Is a metric a monotonic counter or an instantaneous gauge?
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonically non-decreasing.
    Counter,
    /// Set to an instantaneous value; may go down.
    Gauge,
}

impl MetricKind {
    /// Stable label used in the JSON snapshot.
    pub fn name(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
        }
    }
}

/// One metric's point-in-time value, as returned by
/// [`MetricsRegistry::snapshot_all`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricValue {
    /// Registered name.
    pub name: String,
    /// Counter or gauge.
    pub kind: MetricKind,
    /// Value at snapshot time.
    pub value: u64,
}

struct Slot {
    name: String,
    kind: MetricKind,
    cell: Arc<AtomicU64>,
    series: TimeSeries,
}

/// A registry of named counters and gauges. One registry exists per
/// observability domain (one per datapath/host, one per simulated
/// network, one per fault tap); names are unique within a registry and
/// registering a duplicate panics — metrics are registered once, at
/// construction time, never dynamically per packet.
#[derive(Default)]
pub struct MetricsRegistry {
    slots: Mutex<Vec<Slot>>,
    /// Upper bound on retained samples per metric series (0 = unbounded).
    /// Amortized: a series is trimmed back to the cap once it reaches
    /// twice the cap, so steady-state memory stays within `2 × cap`.
    series_cap: AtomicU64,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    fn register(&self, name: String, kind: MetricKind, cell: Arc<AtomicU64>) -> Arc<AtomicU64> {
        let mut slots = self.slots.lock();
        assert!(
            !slots.iter().any(|s| s.name == name),
            "metric name registered twice: {name}"
        );
        slots.push(Slot {
            name,
            kind,
            cell: Arc::clone(&cell),
            series: TimeSeries::new(),
        });
        cell
    }

    /// Register a monotonic counter. Panics if `name` is already taken.
    pub fn counter(&self, name: impl Into<String>) -> Counter {
        Counter(self.register(
            name.into(),
            MetricKind::Counter,
            Arc::new(AtomicU64::new(0)),
        ))
    }

    /// Register a gauge. Panics if `name` is already taken.
    pub fn gauge(&self, name: impl Into<String>) -> Gauge {
        Gauge(self.register(name.into(), MetricKind::Gauge, Arc::new(AtomicU64::new(0))))
    }

    /// Register an existing [`Counter::standalone`] cell under `name`,
    /// preserving whatever it already counted. Panics on a duplicate name.
    pub fn adopt_counter(&self, name: impl Into<String>, counter: &Counter) {
        self.register(name.into(), MetricKind::Counter, Arc::clone(&counter.0));
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.slots.lock().len()
    }

    /// True when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All registered names, in registration order.
    pub fn names(&self) -> Vec<String> {
        self.slots.lock().iter().map(|s| s.name.clone()).collect()
    }

    /// Current value of one metric by name.
    pub fn value(&self, name: &str) -> Option<u64> {
        self.slots
            .lock()
            .iter()
            .find(|s| s.name == name)
            .map(|s| s.cell.load(Ordering::Relaxed))
    }

    /// Overwrite the named metric's cell with a checkpointed value
    /// (DESIGN.md §14). Returns `false` when no metric of that name is
    /// registered — the caller decides whether an unknown name is a
    /// checkpoint/config mismatch worth failing on. The sampled
    /// [`TimeSeries`] is left untouched: series history is diagnostic
    /// state, not part of the checkpoint contract.
    pub fn restore_value(&self, name: &str, value: u64) -> bool {
        let slots = self.slots.lock();
        match slots.iter().find(|s| s.name == name) {
            Some(s) => {
                s.cell.store(value, Ordering::Relaxed);
                true
            }
            None => false,
        }
    }

    /// Bound the per-metric sampled history to roughly `cap` samples
    /// (`0` restores the unbounded default). Long-haul runs — hours of
    /// 10 ms maintenance ticks in the soak harness — must cap diagnostic
    /// history or the series alone grow to hundreds of megabytes. The
    /// trim is amortized: a series is cut back to `cap` samples whenever
    /// it reaches `2 × cap`.
    pub fn set_series_cap(&self, cap: usize) {
        self.series_cap.store(cap as u64, Ordering::Relaxed);
    }

    /// Push every metric's current value onto its [`TimeSeries`] with
    /// timestamp `at`. Called from the existing 10 ms maintenance tick.
    pub fn sample(&self, at: Nanos) {
        let cap = self.series_cap.load(Ordering::Relaxed) as usize;
        let mut slots = self.slots.lock();
        for s in slots.iter_mut() {
            let v = s.cell.load(Ordering::Relaxed);
            s.series.push(at, v as f64);
            if cap > 0 && s.series.len() >= 2 * cap {
                s.series.truncate_front(cap);
            }
        }
    }

    /// Clone of one metric's sampled series.
    pub fn series(&self, name: &str) -> Option<TimeSeries> {
        self.slots
            .lock()
            .iter()
            .find(|s| s.name == name)
            .map(|s| s.series.clone())
    }

    /// Point-in-time values of every registered metric, sorted by name.
    pub fn snapshot_all(&self) -> Vec<MetricValue> {
        let slots = self.slots.lock();
        let mut out: Vec<MetricValue> = slots
            .iter()
            .map(|s| MetricValue {
                name: s.name.clone(),
                kind: s.kind,
                value: s.cell.load(Ordering::Relaxed),
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
    fn counters_and_gauges_round_trip() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("x.count_a");
        let g = reg.gauge("x.depth");
        c.inc();
        c.add(4);
        g.set(9);
        assert_eq!(reg.value("x.count_a"), Some(5));
        assert_eq!(reg.value("x.depth"), Some(9));
        assert_eq!(reg.value("missing"), None);
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn duplicate_name_panics() {
        let reg = MetricsRegistry::new();
        let _a = reg.counter("dup");
        let _b = reg.gauge("dup");
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

    #[test]
    fn adopted_cells_keep_accumulated_values() {
        let c = Counter::standalone();
        c.add(7);
        let reg = MetricsRegistry::new();
        reg.adopt_counter("late.c", &c);
        assert_eq!(reg.value("late.c"), Some(7));
        c.inc();
        assert_eq!(reg.value("late.c"), Some(8));
    }
}
