//! Shared experiment plumbing: options, reports, and the dumbbell runner
//! most microbenchmarks are built on.

use acdc_cc::CcKind;
use acdc_core::{ConnTaps, FlowHandle, Scheme, Testbed};
use acdc_stats::time::{Nanos, MILLISECOND, SECOND};
use acdc_stats::Distribution;

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
        self.tputs_gbps.iter().sum::<f64>() / self.tputs_gbps.len().max(1) as f64
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

    tb.run_until(spec.warmup);
    let base: Vec<u64> = flows.iter().map(|&h| tb.acked_bytes(h)).collect();
    tb.run_until(spec.duration);

    let tputs_gbps: Vec<f64> = flows
        .iter()
        .zip(&base)
        .map(|(&h, &b)| tb.flow_gbps(h, b, spec.warmup, spec.duration))
        .collect();
    let jain = acdc_stats::jain_index(&tputs_gbps).unwrap_or(0.0);

    let mut rtt_ms = Distribution::new();
    if let Some(p) = probe {
        // Skip the first samples (handshake warm-up).
        let samples = tb.rtt_samples_ms(p);
        rtt_ms.extend(samples.into_iter().skip(5));
    }
    let drop_rate = tb.drop_rate();

    DumbbellOut {
        tputs_gbps,
        jain,
        rtt_ms,
        drop_rate,
    }
}

/// Format a list of per-flow throughputs.
pub fn fmt_tputs(tputs: &[f64]) -> String {
    let parts: Vec<String> = tputs.iter().map(|t| format!("{t:.2}")).collect();
    format!("[{}]", parts.join(", "))
}

/// Shorthand percentile with empty-distribution safety.
pub fn pctl(d: &mut Distribution, p: f64) -> f64 {
    d.percentile(p).unwrap_or(f64::NAN)
}

/// One second, re-exported for experiment modules.
pub const SEC: Nanos = SECOND;
