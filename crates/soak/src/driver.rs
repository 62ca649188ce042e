//! The soak driver: hours of virtual time in 10 ms slices.
//!
//! The driver owns the loop the module docs of [`crate`] describe. Each
//! slice it (in this fixed order, so runs replay byte-identically):
//!
//! 1. advances the testbed to the slice boundary (`Testbed::run_until`);
//! 2. injects any due churn waves into the watched host's vSwitch;
//! 3. applies scheduled datapath resets;
//! 4. at the configured moment, captures a mid-run checkpoint — and, in
//!    restore mode, swaps in a fresh datapath and restores into it;
//! 5. every `sample_every` slices, feeds a [`WatchdogSample`] to the
//!    [`Watchdog`]; a violation dumps every flight recorder under
//!    `target/acdc-traces/soak-<name>/` and aborts the run.
//!
//! The checkpoint/restore equivalence contract: a run with
//! `restore = true` must produce a [`SoakReport`] — mid checkpoint,
//! final checkpoint and merged metric snapshot, all byte-for-byte —
//! equal to the same config with `restore = false`. The soak tests pin
//! this at worker counts 0, 2 and 4.

use std::sync::Arc;

use acdc_core::{FlowHandle, HostNode, Scheme, Testbed};
use acdc_stats::time::{Nanos, MILLISECOND, SECOND};
use acdc_telemetry::Telemetry;
use acdc_vswitch::DatapathCheckpoint;
use acdc_workers::Direction;

use crate::churn::{ChurnConfig, ChurnGenerator};
use crate::storm::StormSchedule;
use crate::watchdog::{FlowProbe, Violation, Watchdog, WatchdogConfig, WatchdogSample};

/// Everything one soak run needs; equal configs replay byte-identically.
#[derive(Debug, Clone)]
pub struct SoakConfig {
    /// Label for trace dumps (`target/acdc-traces/soak-<name>/`).
    pub name: &'static str,
    /// Seed for the trunk fault processes.
    pub seed: u64,
    /// Total virtual duration.
    pub duration: Nanos,
    /// Driver slice; the vSwitch maintenance tick is 10 ms, so slices
    /// below that oversample harmlessly.
    pub slice: Nanos,
    /// Worker-engine size on every host (0 = single-threaded path).
    pub workers: usize,
    /// Foreground dumbbell pairs (endpoint-backed long-lived bulk
    /// flows); at least 1, to keep maintenance ticks and ground-truth
    /// probes alive.
    pub foreground: usize,
    /// Client egress rate limit in bits/s (0 = unlimited). Bounding the
    /// foreground rate is what makes an hour of virtual time cheap.
    pub rate_bps: u64,
    /// Synthetic churn shape.
    pub churn: ChurnConfig,
    /// Scheduled [`acdc_vswitch::AcdcDatapath::reset`] times on the
    /// watched host.
    pub resets: Vec<Nanos>,
    /// Trunk outage windows and background faults.
    pub storms: StormSchedule,
    /// When to capture the mid-run checkpoint, if at all.
    pub checkpoint_at: Option<Nanos>,
    /// With `checkpoint_at`: also swap in a fresh datapath and restore
    /// the checkpoint into it (the B side of the equivalence pair).
    pub restore: bool,
    /// `max_flows` cap applied to every host's datapath.
    pub max_flows: usize,
    /// Watchdog bound on summed flight-recorder `dropped_events`.
    pub dropped_events_bound: u64,
    /// Watchdog cadence, in slices.
    pub sample_every: u64,
    /// Per-metric bound on sampled series history (0 = unbounded); see
    /// `MetricsRegistry::set_series_cap`.
    pub series_cap: usize,
}

impl SoakConfig {
    /// A seconds-scale smoke configuration: every soak ingredient
    /// (churn, a storm, a reset, watchdog samples) squeezed into two
    /// virtual seconds, fast enough for the tier-1 suite.
    pub fn smoke(name: &'static str, workers: usize) -> SoakConfig {
        SoakConfig {
            name,
            seed: 0xAC0_DC09,
            duration: 2 * SECOND,
            slice: 10 * MILLISECOND,
            workers,
            foreground: 1,
            rate_bps: 50_000_000,
            churn: ChurnConfig {
                flows_per_wave: 2,
                wave_period: 50 * MILLISECOND,
                ..ChurnConfig::default()
            },
            resets: vec![1_300 * MILLISECOND],
            storms: StormSchedule {
                windows: vec![(400 * MILLISECOND, 700 * MILLISECOND)],
                background_loss: 0.005,
                corruption: 0.002,
                jitter: 10_000,
            },
            checkpoint_at: None,
            restore: false,
            max_flows: 512,
            dropped_events_bound: 5_000_000,
            sample_every: 5,
            series_cap: 4_096,
        }
    }
}

/// What a completed soak run observed. Two runs of the same config —
/// with or without a mid-run restore — must compare equal.
#[derive(Debug, Clone, PartialEq)]
pub struct SoakReport {
    /// Worker count the run used.
    pub workers: usize,
    /// Distinct flows driven: churn launches plus foreground pairs.
    pub distinct_flows: u64,
    /// Scheduled resets actually applied.
    pub resets_applied: usize,
    /// Storms in the schedule.
    pub storms: usize,
    /// Watchdog samples checked (all passed, or the run would have
    /// failed).
    pub watchdog_samples: u64,
    /// Highest watched-host occupancy seen at a sampling edge.
    pub max_occupancy: usize,
    /// Stream bytes acknowledged per foreground flow.
    pub acked: Vec<u64>,
    /// Simulator events processed.
    pub engine_events: u64,
    /// The mid-run checkpoint, serialized (when `checkpoint_at` set).
    pub mid_checkpoint_json: Option<String>,
    /// The watched host's final-state checkpoint, serialized.
    pub final_checkpoint_json: String,
    /// The watched host's final merged metric snapshot
    /// (`acdc-telemetry/v2`).
    pub merged_snapshot_json: String,
}

/// Serialize the watched host's datapath — main hub plus the worker
/// hubs in sink order — at virtual time `at`.
fn checkpoint_json(host: &HostNode, at: Nanos) -> String {
    let hub_arcs: Vec<Arc<Telemetry>> = host
        .worker_engine()
        .map(|e| e.hub_arcs())
        .unwrap_or_default();
    let hubs: Vec<&Telemetry> = hub_arcs.iter().map(|a| a.as_ref()).collect();
    host.datapath().checkpoint(at, &hubs).to_json()
}

/// Inject one crafted segment the way the NIC would: through the worker
/// engine when one is installed, else the single-threaded entry points.
fn inject(host: &HostNode, now: Nanos, dir: Direction, seg: acdc_packet::Segment) {
    let dp = host.datapath();
    let _ = match host.worker_engine() {
        Some(engine) => engine.dispatch(dp, now, dir, seg),
        None => match dir {
            Direction::Egress => dp.egress(now, seg),
            Direction::Ingress => dp.ingress(now, seg),
        },
    };
}

/// The watched host's merged snapshot (main + worker hubs) as
/// `acdc-telemetry/v2` JSON.
fn merged_json(host: &HostNode, at: Nanos) -> String {
    match host.worker_engine() {
        Some(engine) => engine.merged_snapshot_json(host.datapath(), at),
        None => acdc_telemetry::merged_snapshot_json(&[host.telemetry().as_ref()], at),
    }
}

/// Dump every flight recorder of the watched host for post-mortem.
fn dump_traces(host: &HostNode, name: &str) {
    let dir = acdc_telemetry::trace_dir().join(format!("soak-{name}"));
    let _ = host
        .telemetry()
        .recorder()
        .dump_to_file(&dir.join("main.jsonl"));
    if let Some(engine) = host.worker_engine() {
        for (i, hub) in engine.hub_arcs().iter().enumerate() {
            let _ = hub
                .recorder()
                .dump_to_file(&dir.join(format!("worker{i}.jsonl")));
        }
    }
}

/// Capture, serialize, parse and restore the watched host's datapath
/// state into a freshly constructed datapath — the full §14 cycle, wire
/// format included. Returns the serialized checkpoint.
fn restore_cycle(
    tb: &mut Testbed,
    host_idx: usize,
    at: Nanos,
    series_cap: usize,
) -> Result<String, String> {
    let host = tb.host_mut(host_idx);
    let json = checkpoint_json(host, at);
    let ckpt = DatapathCheckpoint::from_json(&json)?;
    let _old = host.replace_datapath();
    host.telemetry().registry().set_series_cap(series_cap);
    host.datapath().restore(&ckpt)?;
    if let Some(engine) = host.worker_engine() {
        if engine.workers() != ckpt.workers {
            return Err(format!(
                "checkpoint has {} worker hubs, engine has {}",
                ckpt.workers,
                engine.workers()
            ));
        }
        for (i, hub) in ckpt.worker_hubs.iter().enumerate() {
            hub.apply(engine.sink(i).telemetry())?;
        }
    } else if ckpt.workers != 0 {
        return Err(format!(
            "checkpoint has {} worker hubs but no engine is installed",
            ckpt.workers
        ));
    }
    Ok(json)
}

/// Run one soak scenario to completion. `Err` carries the first broken
/// invariant (traces are dumped) or a checkpoint/restore failure.
pub fn run_soak(cfg: &SoakConfig) -> Result<SoakReport, Violation> {
    assert!(cfg.slice > 0, "slice must be positive");
    assert!(cfg.foreground >= 1, "need at least one foreground pair");

    let mut tb = Testbed::custom(Scheme::acdc(), 1_500);
    tb.set_workers(cfg.workers);
    let max_flows = cfg.max_flows;
    tb.set_acdc_tweak(move |c| {
        c.max_flows = Some(max_flows);
        // Churn flows close after ~a wave; reap them well before the
        // 30 s default would let occupancy build up.
        c.gc_idle_timeout = 2 * SECOND;
    });
    tb.set_trunk_fault(cfg.storms.trunk_plan(cfg.seed));
    tb.build_dumbbell(cfg.foreground);
    for i in 0..2 * cfg.foreground {
        tb.host_mut(i)
            .telemetry()
            .registry()
            .set_series_cap(cfg.series_cap);
        if cfg.rate_bps > 0 && i < cfg.foreground {
            tb.host_mut(i).set_rate_limit(cfg.rate_bps, 30_000);
        }
    }
    let handles: Vec<FlowHandle> = (0..cfg.foreground)
        .map(|i| tb.add_bulk(i, cfg.foreground + i, None, 0))
        .collect();

    let watched = 0usize; // host 0: churn target, reset target, checkpoint target
    let mut churn = ChurnGenerator::new(cfg.churn.clone());
    let mut watchdog = Watchdog::new(WatchdogConfig {
        max_flows: cfg.max_flows,
        dropped_events_bound: cfg.dropped_events_bound,
        pass_recover_pct: acdc_vswitch::health::PASS_RECOVER_PCT,
        max_wedged_samples: 50,
    });
    let mut resets = cfg.resets.clone();
    resets.sort_unstable();
    let mut next_reset = 0usize;
    let mut resets_applied = 0usize;
    let mut mid_checkpoint_json: Option<String> = None;
    let mut max_occupancy = 0usize;

    let mut t: Nanos = 0;
    let mut slice_idx: u64 = 0;
    while t < cfg.duration {
        let target = (t + cfg.slice).min(cfg.duration);
        tb.run_until(target);
        t = target;
        slice_idx += 1;

        // Churn waves due at this boundary.
        let wave = churn.poll(t);
        if !wave.is_empty() {
            let host = tb.host_mut(watched);
            for (dir, seg) in wave {
                inject(host, t, dir, seg);
            }
        }

        // Scheduled resets.
        while next_reset < resets.len() && resets[next_reset] <= t {
            tb.host_mut(watched).datapath().reset(t);
            next_reset += 1;
            resets_applied += 1;
        }

        // Mid-run checkpoint (and, on the B side, the restore cycle).
        if cfg.checkpoint_at.is_some_and(|at| at <= t) && mid_checkpoint_json.is_none() {
            let json = if cfg.restore {
                restore_cycle(&mut tb, watched, t, cfg.series_cap).map_err(|e| Violation {
                    at: t,
                    invariant: "checkpoint-restore",
                    detail: e,
                })?
            } else {
                checkpoint_json(tb.host_mut(watched), t)
            };
            mid_checkpoint_json = Some(json);
        }

        // Watchdog sampling edge.
        if slice_idx.is_multiple_of(cfg.sample_every.max(1)) {
            let mut probes = Vec::with_capacity(handles.len());
            for h in &handles {
                let ep = {
                    let ep = tb.client_endpoint(*h);
                    ep.is_established().then(|| ep.seq_view())
                };
                let dp = tb.host_mut(h.client_host).datapath().seq_view(&h.key);
                probes.push(FlowProbe { key: h.key, dp, ep });
            }
            let mut occupancy = Vec::with_capacity(2 * cfg.foreground);
            for i in 0..2 * cfg.foreground {
                occupancy.push((i, tb.host_mut(i).datapath().flows()));
            }
            let host = tb.host_mut(watched);
            let watched_occupancy = host.datapath().flows();
            max_occupancy = max_occupancy.max(watched_occupancy);
            let hub_arcs: Vec<Arc<Telemetry>> = host
                .worker_engine()
                .map(|e| e.hub_arcs())
                .unwrap_or_default();
            let mut hubs: Vec<&Telemetry> = vec![host.telemetry().as_ref()];
            hubs.extend(hub_arcs.iter().map(|a| a.as_ref()));
            let sample = WatchdogSample {
                at: t,
                occupancy,
                health_rung: host.datapath().health().rung(),
                watched_occupancy,
                dropped_events: acdc_telemetry::merged_dropped_events(&hubs),
                metrics: acdc_telemetry::merge_snapshots(&hubs),
                probes,
            };
            if let Err(v) = watchdog.check(&sample) {
                dump_traces(tb.host_mut(watched), cfg.name);
                return Err(v);
            }
        }
    }

    let acked: Vec<u64> = handles.iter().map(|h| tb.acked_bytes(*h)).collect();
    let engine_events = tb.net.events_processed();
    let host = tb.host_mut(watched);
    let final_checkpoint_json = checkpoint_json(host, cfg.duration);
    let merged_snapshot_json = merged_json(host, cfg.duration);
    Ok(SoakReport {
        workers: cfg.workers,
        distinct_flows: churn.launched() + cfg.foreground as u64,
        resets_applied,
        storms: cfg.storms.storms(),
        watchdog_samples: watchdog.samples(),
        max_occupancy,
        acked,
        engine_events,
        mid_checkpoint_json,
        final_checkpoint_json,
        merged_snapshot_json,
    })
}
