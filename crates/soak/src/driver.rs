//! The soak driver: hours of virtual time in 10 ms slices.
//!
//! The driver owns the loop the module docs of [`crate`] describe. The
//! testbed is a one-pair dumbbell: host 0 sends one bulk flow to host 1
//! and is the watched host. Each slice the driver (in this fixed order,
//! so runs replay byte-identically):
//!
//! 1. advances the testbed to the slice boundary (`Testbed::run_until`);
//! 2. injects any due churn waves into the watched host's vSwitch;
//! 3. applies scheduled datapath resets;
//! 4. at the configured moment, captures a mid-run checkpoint — and, in
//!    restore mode, swaps in a fresh datapath and restores into it;
//! 5. every `sample_every` slices, feeds a `WatchdogSample` to the
//!    `Watchdog`; a violation dumps the watched host's flight
//!    recorder to `target/acdc-traces/soak-<name>/main.jsonl` and aborts
//!    the run.
//!
//! The checkpoint/restore equivalence contract: a run with
//! `restore = true` must produce a [`SoakReport`] — mid checkpoint,
//! final checkpoint and metric snapshot, all byte-for-byte — equal to
//! the same config with `restore = false`. The soak tests pin this.

use acdc_core::{Scheme, Testbed};
use acdc_stats::time::{Nanos, MILLISECOND, SECOND};
use acdc_vswitch::DatapathCheckpoint;

use crate::churn::{ChurnConfig, ChurnGenerator};
use crate::storm::StormSchedule;
use crate::watchdog::{FlowProbe, Violation, Watchdog, WatchdogSample};

/// Driver slice: the vSwitch maintenance tick.
const SLICE: Nanos = 10 * MILLISECOND;

/// The watched host: churn, reset and checkpoint target, and the
/// foreground flow's sender.
const WATCHED: usize = 0;

/// Everything one soak run needs; equal configs replay byte-identically.
#[derive(Debug, Clone)]
pub struct SoakConfig {
    /// Label for trace dumps (`target/acdc-traces/soak-<name>/`).
    pub name: &'static str,
    /// Seed for the trunk fault processes.
    pub seed: u64,
    /// Total virtual duration.
    pub duration: Nanos,
    /// The foreground flow's egress rate limit in bits/s. Bounding it is
    /// what makes an hour of virtual time cheap.
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
    /// Watchdog cadence, in 10 ms slices.
    pub sample_every: u64,
}

impl SoakConfig {
    /// A seconds-scale smoke configuration: every soak ingredient
    /// (churn, a storm, a reset, watchdog samples) squeezed into two
    /// virtual seconds, fast enough for the tier-1 suite.
    pub fn smoke(name: &'static str) -> SoakConfig {
        SoakConfig {
            name,
            seed: 0xAC0_DC09,
            duration: 2 * SECOND,
            rate_bps: 50_000_000,
            churn: ChurnConfig {
                flows_per_wave: 2,
                wave_period: 50 * MILLISECOND,
            },
            resets: vec![1_300 * MILLISECOND],
            storms: StormSchedule {
                windows: vec![(400 * MILLISECOND, 700 * MILLISECOND)],
                background_loss: 0.005,
                corruption: 0.002,
            },
            checkpoint_at: None,
            restore: false,
            max_flows: 512,
            sample_every: 5,
        }
    }
}

/// What a completed soak run observed. Two runs of the same config —
/// with or without a mid-run restore — must compare equal.
#[derive(Debug, Clone, PartialEq)]
pub struct SoakReport {
    /// Distinct flows driven: churn launches plus the foreground flow.
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
    /// Stream bytes acknowledged per foreground flow (there is one).
    pub acked: Vec<u64>,
    /// Simulator events processed.
    pub engine_events: u64,
    /// The mid-run checkpoint, serialized (when `checkpoint_at` set).
    pub mid_checkpoint_json: Option<String>,
    /// The watched host's final-state checkpoint, serialized.
    pub final_checkpoint_json: String,
    /// The watched host's final metric snapshot (`acdc-telemetry/v2`).
    pub snapshot_json: String,
    /// [`Testbed::digest`] at the end: every hub's events, overwritten
    /// ones included. The restore cycle carries the replaced hub's
    /// digest into the fresh one, so a restored run matches here too.
    pub events_digest: u64,
}

/// Capture, serialize, parse and restore the watched host's datapath
/// state into a freshly constructed datapath — the full §14 cycle, wire
/// format included. Returns the serialized checkpoint.
fn restore_cycle(tb: &mut Testbed, at: Nanos) -> Result<String, String> {
    let host = tb.host_mut(WATCHED);
    let json = host.datapath().checkpoint(at, &[]).to_json();
    let ckpt = DatapathCheckpoint::from_json(&json)?;
    let _old = host.replace_datapath();
    host.datapath().restore(&ckpt)?;
    Ok(json)
}

/// Run one soak scenario to completion. `Err` carries the first broken
/// invariant (traces are dumped) or a checkpoint/restore failure.
pub fn run_soak(cfg: &SoakConfig) -> Result<SoakReport, Violation> {
    let mut tb = Testbed::custom(Scheme::acdc(), 1_500);
    tb.acdc.max_flows = Some(cfg.max_flows);
    // Churn flows close after ~a wave; reap them well before the 30 s
    // default would let occupancy build up.
    tb.acdc.gc_idle_timeout = 2 * SECOND;
    tb.set_trunk_fault(cfg.storms.trunk_plan(cfg.seed));
    tb.build_dumbbell(1);
    tb.host_mut(WATCHED).set_rate_limit(cfg.rate_bps, 30_000);
    let handle = tb.add_bulk(WATCHED, 1, None, 0);

    let mut churn = ChurnGenerator::new(cfg.churn.clone());
    let mut watchdog = Watchdog::new(cfg.max_flows);
    let mut resets = cfg.resets.clone();
    resets.sort_unstable();
    let mut next_reset = 0usize;
    let mut resets_applied = 0usize;
    let mut mid_checkpoint_json: Option<String> = None;
    let mut max_occupancy = 0usize;

    let mut t: Nanos = 0;
    let mut slice_idx: u64 = 0;
    while t < cfg.duration {
        let target = (t + SLICE).min(cfg.duration);
        tb.run_until(target);
        t = target;
        slice_idx += 1;

        // Churn waves due at this boundary.
        churn.poll(t, tb.host_mut(WATCHED).datapath());

        // Scheduled resets.
        while next_reset < resets.len() && resets[next_reset] <= t {
            tb.host_mut(WATCHED).datapath().reset(t);
            next_reset += 1;
            resets_applied += 1;
        }

        // Mid-run checkpoint (and, on the B side, the restore cycle).
        if cfg.checkpoint_at.is_some_and(|at| at <= t) && mid_checkpoint_json.is_none() {
            let json = if cfg.restore {
                restore_cycle(&mut tb, t).map_err(|e| Violation {
                    at: t,
                    invariant: "checkpoint-restore",
                    detail: e,
                })?
            } else {
                tb.host_mut(WATCHED).datapath().checkpoint(t, &[]).to_json()
            };
            mid_checkpoint_json = Some(json);
        }

        // Watchdog sampling edge.
        if slice_idx.is_multiple_of(cfg.sample_every.max(1)) {
            let ep = {
                let ep = tb.client_endpoint(handle);
                ep.is_established().then(|| ep.seq_view())
            };
            let dp = tb.host_mut(WATCHED).datapath().seq_view(&handle.key);
            let probe = FlowProbe {
                key: handle.key,
                dp,
                ep,
            };
            let occupancy = vec![
                (0, tb.host_mut(0).datapath().flows()),
                (1, tb.host_mut(1).datapath().flows()),
            ];
            let host = tb.host_mut(WATCHED);
            let watched_occupancy = host.datapath().flows();
            max_occupancy = max_occupancy.max(watched_occupancy);
            let hub = host.telemetry();
            let sample = WatchdogSample {
                at: t,
                occupancy,
                health_rung: host.datapath().health().rung(),
                watched_occupancy,
                dropped_events: hub.recorder().overwritten(),
                metrics: hub.registry().snapshot_all(),
                probe,
            };
            if let Err(v) = watchdog.check(&sample) {
                let path =
                    acdc_telemetry::trace_dir().join(format!("soak-{}/main.jsonl", cfg.name));
                let _ = hub.recorder().dump_to_file(&path);
                return Err(v);
            }
        }
    }

    let acked = vec![tb.acked_bytes(handle)];
    let engine_events = tb.net.events_processed();
    let host = tb.host_mut(WATCHED);
    let final_checkpoint_json = host.datapath().checkpoint(cfg.duration, &[]).to_json();
    let snapshot_json = host.telemetry().snapshot_json(cfg.duration);
    let events_digest = tb.digest();
    Ok(SoakReport {
        distinct_flows: churn.launched() + 1,
        resets_applied,
        storms: cfg.storms.storms(),
        watchdog_samples: watchdog.samples(),
        max_occupancy,
        acked,
        engine_events,
        mid_checkpoint_json,
        final_checkpoint_json,
        snapshot_json,
        events_digest,
    })
}
