//! Soak harness end-to-end tests (DESIGN.md §14).
//!
//! The fast tests squeeze every soak ingredient — churn, a storm, a
//! reset, watchdog sampling, the checkpoint/restore cycle — into a few
//! virtual seconds so they ride the tier-1 suite. The `#[ignore]`d
//! long-haul test is the real thing: a full virtual hour, ≥ 250k
//! distinct flows, 3 resets, 3 storms, a checkpoint/restore cycle and
//! zero violations
//! (`cargo test --release -p acdc-soak -- --ignored --nocapture`).

use acdc_soak::{run_soak, ChurnConfig, SoakConfig, SoakReport, StormSchedule};
use acdc_stats::time::{Nanos, MILLISECOND, SECOND};

const MINUTE: Nanos = 60 * SECOND;

/// Check a run against its line in `tests/golden.txt`.
fn golden(name: &str, r: &SoakReport) {
    acdc_telemetry::golden(name, &[r.events_digest], r);
}

#[test]
fn smoke_soak_passes_watchdog_and_replays_identically() {
    let cfg = SoakConfig::smoke("smoke");
    let a = run_soak(&cfg).expect("smoke soak must pass the watchdog");
    assert_eq!(a.resets_applied, 1, "the scheduled reset must fire");
    assert_eq!(a.storms, 1);
    assert!(
        a.distinct_flows >= 80,
        "2 s of churn at 2 flows / 50 ms must launch ≥ 80 flows, got {}",
        a.distinct_flows
    );
    assert!(a.watchdog_samples >= 30, "watchdog must actually sample");
    assert!(a.max_occupancy > 0, "churn must occupy the flow table");
    assert!(
        a.max_occupancy <= 512,
        "occupancy stayed under the cap (watchdog-enforced)"
    );
    assert!(a.acked[0] > 0, "foreground flow must make progress");

    let b = run_soak(&cfg).expect("second run");
    assert_eq!(a, b, "same config must replay byte-identically");
    golden("soak.smoke", &a);
}

/// The acceptance-criterion core: a checkpoint captured mid-soak and
/// restored into a fresh datapath must leave the rest of the run —
/// final checkpoint, metric snapshot, acked bytes, simulator event
/// count — byte-identical to the uninterrupted run.
#[test]
fn checkpoint_restore_mid_soak_is_byte_identical() {
    let mut cfg = SoakConfig::smoke("ckpt-equivalence");
    cfg.checkpoint_at = Some(900 * MILLISECOND);

    let uninterrupted = run_soak(&cfg).expect("A side must pass");
    cfg.restore = true;
    let restored = run_soak(&cfg).expect("B side (restore) must pass");

    assert_eq!(
        uninterrupted.mid_checkpoint_json, restored.mid_checkpoint_json,
        "mid-run checkpoints diverge"
    );
    assert_eq!(
        uninterrupted, restored,
        "restored run diverged from the uninterrupted run"
    );
    let mid = uninterrupted
        .mid_checkpoint_json
        .as_deref()
        .expect("checkpoint_at set");
    assert!(mid.starts_with("{\"schema\":\"acdc-checkpoint/v2\""));
    golden("soak.ckpt_equivalence", &uninterrupted);
    golden("soak.ckpt_equivalence_restore", &restored);
}

/// Churn includes never-learned-scale (mid-stream adopted) flows; the
/// restore cycle must keep them log-only. The snapshot's
/// `unscaled_rwnd_skips` counter keeps growing after the restore while
/// staying byte-identical to the uninterrupted run — covered by the
/// equivalence test above — so here we only pin that the skip counter
/// is actually exercised by the soak's adopted churn flows.
#[test]
fn soak_exercises_no_guess_adoption_path() {
    let r = run_soak(&SoakConfig::smoke("adoption")).expect("soak");
    let skips = r
        .snapshot_json
        .split("\"acdc.unscaled_rwnd_skips\",\"kind\":\"counter\",\"value\":")
        .nth(1)
        .and_then(|rest| rest.split(['}', ',']).next())
        .and_then(|v| v.parse::<u64>().ok())
        .expect("unscaled_rwnd_skips must be in the snapshot");
    assert!(
        skips > 0,
        "adopted churn flows must hit the no-guess log-only path"
    );
}

/// The long-haul soak: one virtual hour, 7 churn flows every 100 ms
/// (≥ 250k distinct flows), three resets and three storms, and a
/// checkpoint/restore cycle at the half hour — wall-clock minutes, so
/// `#[ignore]`d out of the tier-1 suite. Prints a one-line JSON summary.
#[test]
#[ignore = "long-haul soak; run with --release -- --ignored --nocapture"]
fn full_hour_soak_acceptance() {
    const TARGET_FLOWS: u64 = 250_000;
    let cfg = SoakConfig {
        name: "nightly",
        seed: 0xAC0_DC10,
        duration: 60 * MINUTE,
        rate_bps: 2_000_000,
        churn: ChurnConfig {
            flows_per_wave: 7,
            wave_period: 100 * MILLISECOND,
        },
        resets: vec![10 * MINUTE, 25 * MINUTE, 48 * MINUTE],
        storms: StormSchedule {
            windows: vec![
                (5 * MINUTE, 5 * MINUTE + 500 * MILLISECOND),
                (20 * MINUTE, 20 * MINUTE + SECOND),
                (40 * MINUTE, 40 * MINUTE + 700 * MILLISECOND),
            ],
            background_loss: 0.002,
            corruption: 0.001,
        },
        checkpoint_at: Some(30 * MINUTE),
        restore: true,
        max_flows: 4_096,
        sample_every: 10,
    };
    let r = run_soak(&cfg).unwrap_or_else(|v| {
        panic!("the hour soak must finish with zero violations (traces under target/acdc-traces/): {v}")
    });
    println!(
        "{{\"soak\": \"{}\", \"target_flows\": {TARGET_FLOWS}, \"distinct_flows\": {}, \
         \"resets_applied\": {}, \"storms\": {}, \"watchdog_samples\": {}, \
         \"max_occupancy\": {}, \"engine_events\": {}, \"checkpointed\": {}}}",
        cfg.name,
        r.distinct_flows,
        r.resets_applied,
        r.storms,
        r.watchdog_samples,
        r.max_occupancy,
        r.engine_events,
        r.mid_checkpoint_json.is_some(),
    );
    assert!(
        r.distinct_flows >= TARGET_FLOWS,
        "needed ≥ {TARGET_FLOWS} distinct flows, churned {}",
        r.distinct_flows
    );
    assert_eq!(r.resets_applied, 3);
    assert_eq!(r.storms, 3);
    assert!(
        r.mid_checkpoint_json.is_some(),
        "the mid-run checkpoint never fired"
    );
    assert!(r.max_occupancy <= 4_096);
    assert!(r.acked[0] > 0, "the foreground flow made no progress");
}
