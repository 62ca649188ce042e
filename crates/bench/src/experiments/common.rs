//! Shared experiment plumbing: options, reports, the dumbbell runner
//! most microbenchmarks are built on, and the mice-beside-background
//! runner of the FCT macrobenchmarks.

use acdc_cc::CcKind;
use acdc_core::{ConnTaps, FanoutSender, FlowHandle, Scheme, Testbed, WindowSample};
use acdc_stats::time::{Nanos, MILLISECOND, SECOND};
use acdc_stats::Distribution;
use acdc_workloads::patterns::mice_peer;
use acdc_workloads::{BulkSender, FctKind, FctRecorder};

/// Experiment options.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Run paper-scale durations instead of the scaled-down defaults.
    pub full: bool,
    /// Seed for anything randomized (run indices perturb it).
    pub seed: u64,
}

impl Default for Opts {
    fn default() -> Opts {
        Opts {
            full: false,
            seed: 20160822, // SIGCOMM '16 started on Aug 22.
        }
    }
}

impl Opts {
    /// Scale a paper duration down unless `--full`.
    pub fn dur(&self, full: Nanos, quick: Nanos) -> Nanos {
        if self.full {
            full
        } else {
            quick
        }
    }

    /// Number of repetitions.
    pub fn runs(&self, full: usize, quick: usize) -> usize {
        if self.full {
            full
        } else {
            quick
        }
    }
}

/// A printable experiment report.
#[derive(Debug, Clone)]
pub struct Report {
    /// Experiment id (`fig8`, `table1`, ...).
    pub id: &'static str,
    /// Human title.
    pub title: &'static str,
    /// Preformatted lines.
    pub lines: Vec<String>,
}

impl Report {
    /// New empty report.
    pub fn new(id: &'static str, title: &'static str) -> Report {
        Report {
            id,
            title,
            lines: Vec::new(),
        }
    }

    /// Append a line.
    pub fn line(&mut self, s: impl Into<String>) {
        self.lines.push(s.into());
    }
}

impl core::fmt::Display for Report {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        writeln!(f, "== {} — {} ==", self.id, self.title)?;
        for l in &self.lines {
            writeln!(f, "{l}")?;
        }
        Ok(())
    }
}

/// Spec for one dumbbell run (the Figure 7a topology).
pub struct DumbbellSpec {
    /// End-to-end scheme.
    pub scheme: Scheme,
    /// MTU (1500 or 9000).
    pub mtu: usize,
    /// Number of sender/receiver pairs carrying bulk flows.
    pub pairs: usize,
    /// Per-flow guest-stack override `(cc, ecn)`; `None` = scheme default.
    pub per_flow_cc: Option<Vec<(CcKind, bool)>>,
    /// Token-bucket rate limit applied at each sender, if any.
    pub rate_limit_bps: Option<u64>,
    /// Add an RTT probe pair (sockperf ping-pong) through the trunk.
    pub probe: bool,
    /// Measurement starts here (warm-up excluded).
    pub warmup: Nanos,
    /// Total run length.
    pub duration: Nanos,
    /// Per-test jitter: staggers flow start times so repeated tests see
    /// different convergence dynamics (the testbed's natural variation).
    pub jitter: u64,
}

impl DumbbellSpec {
    /// The canonical 5-pair run used by Figures 1/2/8/17 and Table 1.
    pub fn five_pairs(scheme: Scheme, mtu: usize, duration: Nanos) -> DumbbellSpec {
        DumbbellSpec {
            scheme,
            mtu,
            pairs: 5,
            per_flow_cc: None,
            rate_limit_bps: None,
            probe: true,
            warmup: duration / 5,
            duration,
            jitter: 0,
        }
    }
}

/// Results of a dumbbell run.
pub struct DumbbellOut {
    /// Per-flow goodput in Gbps over the measurement window.
    pub tputs_gbps: Vec<f64>,
    /// Jain fairness index of those.
    pub jain: f64,
    /// Probe RTTs in milliseconds (empty without a probe).
    pub rtt_ms: Distribution,
    /// Aggregate switch drop rate.
    pub drop_rate: f64,
}

impl DumbbellOut {
    /// Mean per-flow throughput.
    pub fn mean_gbps(&self) -> f64 {
        mean(&self.tputs_gbps)
    }

    /// Per-flow throughput as `max / min / mean / median` (Gbps).
    pub fn spread(&self) -> String {
        let mut d = Distribution::new();
        d.extend(self.tputs_gbps.iter().copied());
        format!(
            "{:.2} / {:.2} / {:.2} / {:.2}",
            d.max().unwrap(),
            d.min().unwrap(),
            d.mean().unwrap(),
            d.median().unwrap()
        )
    }
}

/// Run one dumbbell experiment.
pub fn run_dumbbell(spec: &DumbbellSpec) -> DumbbellOut {
    let extra = usize::from(spec.probe);
    let mut tb = Testbed::dumbbell(spec.pairs + extra, spec.scheme.clone(), spec.mtu);
    let n = spec.pairs;

    if let Some(rl) = spec.rate_limit_bps {
        for i in 0..n {
            tb.host_mut(i).set_rate_limit(rl, 2 * spec.mtu as u64);
        }
    }

    let flows: Vec<FlowHandle> = (0..n)
        .map(|i| {
            // Stagger starts: 200 µs apart plus test-dependent jitter.
            let start = (i as u64) * 200_000
                + (spec.jitter.wrapping_mul(i as u64 + 1).wrapping_mul(37_000)) % 900_000;
            match &spec.per_flow_cc {
                Some(ccs) => {
                    let (cc, ecn) = ccs[i % ccs.len()];
                    tb.add_bulk_with_cc(
                        i,
                        n + extra + i,
                        cc,
                        ecn,
                        None,
                        start,
                        ConnTaps::default(),
                        None,
                    )
                }
                None => tb.add_bulk(i, n + extra + i, None, start),
            }
        })
        .collect();

    let probe = spec.probe.then(|| {
        // The probe pair is the last sender/receiver pair; it shares the
        // trunk with the bulk flows, so its pings see the trunk queue.
        tb.add_pingpong(n, 2 * n + 1, 64, MILLISECOND / 2, 0)
    });

    let tputs_gbps = tb.goodput_gbps(&flows, spec.warmup, spec.duration);
    DumbbellOut {
        jain: acdc_stats::jain_index(&tputs_gbps).unwrap_or(0.0),
        tputs_gbps,
        rtt_ms: probe.map(|p| tb.probe_rtt_ms(p)).unwrap_or_default(),
        drop_rate: tb.drop_rate(),
    }
}

/// The window-trace run of Figures 9/10: five bulk flows across the
/// 1.5 KB dumbbell for `dur`, the first traced by its guest and by the
/// vSwitch. Returns [`Testbed::window_trace`] of that flow.
pub fn traced_dumbbell(scheme: Scheme, log_only: bool, dur: Nanos) -> (usize, Vec<WindowSample>) {
    let mut tb = Testbed::custom(scheme, 1500);
    tb.acdc.log_only = log_only;
    tb.acdc.trace_windows = true;
    tb.build_dumbbell(5);
    let taps = ConnTaps { trace_cwnd: true };
    let traced = tb.add_flow(0, 5, Some(Box::new(BulkSender::unlimited())), None, 0, taps);
    for i in 1..5 {
        tb.add_bulk(i, 5 + i, None, 0);
    }
    tb.run_until(dur);
    tb.window_trace(traced)
}

/// The samples of `trace` in the 100 ms from `from`, at least 10 ms
/// apart: the sparse joint trace Figures 9/10 print.
pub fn sparse_trace(trace: &[WindowSample], from: Nanos) -> Vec<WindowSample> {
    let mut next = from;
    trace
        .iter()
        .filter(|s| s.at >= from)
        .take_while(|s| s.at <= from + 100 * MILLISECOND)
        .filter(|s| {
            let due = s.at >= next;
            if due {
                next = s.at + 10 * MILLISECOND;
            }
            due
        })
        .copied()
        .collect()
}

/// Hosts on the star of the FCT macrobenchmarks (the paper's 17 servers).
pub const SERVERS: usize = 17;

/// The background load of Figures 21/22: every server sends `bytes` to
/// each of its destinations in order, `concurrency` transfers at a time,
/// server `i` starting at `i × stagger` and repeating until shortly
/// before the deadline.
pub struct Background {
    /// Per-server destination order.
    pub orders: Vec<Vec<usize>>,
    /// Bytes per transfer.
    pub bytes: u64,
    /// Transfers a server keeps open at once.
    pub concurrency: usize,
    /// Start offset between consecutive servers, so background phases
    /// decorrelate (on the real testbed natural timing variation does
    /// this) and receivers see a time-varying number of flows.
    pub stagger: Nanos,
}

/// Run `bg` on the star beside the 16 KB mice overlay (server `i`
/// messages [`mice_peer`]`(i)` every `mice_period`) and return the mice
/// and background FCTs.
fn mice_and_background_fcts(
    scheme: Scheme,
    bg: &Background,
    mice_period: Nanos,
    deadline: Nanos,
) -> (FctRecorder, FctRecorder) {
    let mut tb = Testbed::star(SERVERS, scheme, 9000);
    for (i, order) in bg.orders.iter().enumerate() {
        let conns = order
            .iter()
            .map(|&d| {
                let h = tb.add_flow(i, d, None, None, 0, ConnTaps::default());
                tb.client_conn_index(h)
            })
            .collect();
        // Stop slightly early so the last transfers complete and record
        // their FCTs.
        tb.host_mut(i).add_multi_app(Box::new(
            FanoutSender::new(conns, bg.bytes, bg.concurrency)
                .repeating(deadline - deadline / 8)
                .starting_at(i as u64 * bg.stagger),
        ));
    }
    let mice: Vec<_> = (0..SERVERS)
        .map(|i| tb.add_messages(i, mice_peer(i, SERVERS), 16_384, mice_period, None, 0))
        .collect();

    tb.run_until(deadline);

    let mut mice_fct = FctRecorder::new();
    for &m in &mice {
        mice_fct.merge(&tb.fct_of(m));
    }
    let mut bg_fct = FctRecorder::new();
    for i in 0..SERVERS {
        if let Some(f) = tb.host_mut(i).multi_app(0).and_then(|a| a.fct()) {
            bg_fct.merge(f);
        }
    }
    (mice_fct, bg_fct)
}

/// One row per scheme of mice and background FCT percentiles under `bg`.
pub fn mice_and_background(rep: &mut Report, bg: &Background, mice_period: Nanos, deadline: Nanos) {
    rep.line("scheme                mice p50(ms)  mice p99.9(ms)   bg p50(s)  bg p99.9(s)   n_mice  n_bg");
    for scheme in Testbed::compared_schemes() {
        let name = scheme.name();
        let (mice, bgr) = mice_and_background_fcts(scheme, bg, mice_period, deadline);
        let mut md = mice.distribution_ms(FctKind::Mice);
        let mut bd = bgr.distribution_ms(FctKind::Background);
        rep.line(format!(
            "{name:<22} {:>11.3} {:>14.3}   {:>9.3} {:>11.3}   {:>6}  {:>4}",
            pctl(&mut md, 50.0),
            pctl(&mut md, 99.9),
            pctl(&mut bd, 50.0) / 1_000.0,
            pctl(&mut bd, 99.9) / 1_000.0,
            md.len(),
            bd.len()
        ));
    }
}

/// Format a list of per-flow throughputs.
pub fn fmt_tputs(tputs: &[f64]) -> String {
    let parts: Vec<String> = tputs.iter().map(|t| format!("{t:.2}")).collect();
    format!("[{}]", parts.join(", "))
}

/// Gbps → Mbps, value by value.
pub fn mbps(gbps: Vec<f64>) -> Vec<f64> {
    gbps.into_iter().map(|g| g * 1_000.0).collect()
}

/// The arithmetic mean: the values summed in order, over their count.
pub fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len() as f64
}

/// Shorthand percentile with empty-distribution safety.
pub fn pctl(d: &mut Distribution, p: f64) -> f64 {
    d.percentile(p).unwrap_or(f64::NAN)
}

/// One second, re-exported for experiment modules.
pub const SEC: Nanos = SECOND;
