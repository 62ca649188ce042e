//! Soak harness end-to-end tests (DESIGN.md §14).
//!
//! The fast tests squeeze every soak ingredient — churn, a storm, a
//! reset, watchdog sampling, the checkpoint/restore cycle — into a few
//! virtual seconds so they ride the tier-1 suite. The `#[ignore]`d
//! acceptance test is the real thing: a full virtual hour, ≥ 100k
//! distinct flows, ≥ 3 resets, ≥ 2 storms, zero violations
//! (`cargo test -p acdc-soak --release -- --ignored`).

use acdc_soak::{run_soak, ChurnConfig, SoakConfig, StormSchedule};
use acdc_stats::time::{Nanos, MILLISECOND, SECOND};

const HOUR: Nanos = 3_600 * SECOND;

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

/// The full long-haul acceptance soak: one virtual hour, six-figure
/// flow churn, repeated resets and storms, a mid-run checkpoint —
/// wall-clock minutes, so `#[ignore]`d out of the tier-1 suite.
#[test]
#[ignore = "long-haul acceptance soak; run with --ignored (release build recommended)"]
fn full_hour_soak_acceptance() {
    let cfg = SoakConfig {
        name: "hour",
        seed: 0xAC0_DC09,
        duration: HOUR,
        slice: 10 * MILLISECOND,
        foreground: 1,
        rate_bps: 2_000_000,
        churn: ChurnConfig {
            flows_per_wave: 3,
            wave_period: 100 * MILLISECOND,
            ..ChurnConfig::default()
        },
        resets: vec![10 * 60 * SECOND, 25 * 60 * SECOND, 48 * 60 * SECOND],
        storms: StormSchedule {
            windows: vec![
                (5 * 60 * SECOND, 5 * 60 * SECOND + 500 * MILLISECOND),
                (20 * 60 * SECOND, 20 * 60 * SECOND + SECOND),
                (40 * 60 * SECOND, 40 * 60 * SECOND + 700 * MILLISECOND),
            ],
            background_loss: 0.002,
            corruption: 0.001,
            jitter: 10_000,
        },
        checkpoint_at: Some(30 * 60 * SECOND),
        restore: true,
        max_flows: 4_096,
        dropped_events_bound: u64::MAX / 2,
        sample_every: 10,
    };
    let r = run_soak(&cfg).expect("the hour soak must finish with zero violations");
    assert!(
        r.distinct_flows >= 100_000,
        "needed ≥ 100k distinct flows, churned {}",
        r.distinct_flows
    );
    assert_eq!(r.resets_applied, 3);
    assert_eq!(r.storms, 3);
    assert!(r.mid_checkpoint_json.is_some());
    assert!(r.max_occupancy <= 4_096);
    assert!(r.acked[0] > 0);
}
