//! Long-haul acceptance soak as a runnable binary (nightly CI).
//!
//! The `#[ignore]`d `full_hour_soak_acceptance` test pins the 100k-flow
//! hour at fixed scale; this binary is the same scenario with the churn
//! scale as a knob, so the nightly workflow can push the flow-table and
//! checkpoint machinery harder than PR CI ever runs:
//!
//! ```text
//! cargo run --release -p acdc-soak --bin soak_acceptance -- --flows 250k
//! ```
//!
//! `--flows` takes a distinct-flow target (`250k`, `1m` and plain
//! integers all parse); the driver derives flows-per-wave from it and
//! fails the run if churn comes up short. Resets, storm windows and the
//! checkpoint/restore point sit at fixed fractions of `--duration-secs`
//! so a shortened local smoke run still exercises every ingredient at
//! the hour run's relative schedule. A watchdog violation (which dumps
//! flight recorders under `target/acdc-traces/`, uploaded by the
//! nightly workflow) or a missed target exits non-zero.

#![forbid(unsafe_code)]

use acdc_soak::{run_soak, ChurnConfig, SoakConfig, StormSchedule};
use acdc_stats::time::{Nanos, MILLISECOND, SECOND};

/// Churn wave cadence; matches the hour acceptance test so `--flows`
/// maps onto flows-per-wave the same way at every duration.
const WAVE_PERIOD: Nanos = 100 * MILLISECOND;

/// Parse a flow-count knob: `250000`, `250k` or `1m`.
fn parse_flows(text: &str) -> Option<u64> {
    let lower = text.to_ascii_lowercase();
    let (digits, mult) = match lower.strip_suffix('k') {
        Some(head) => (head, 1_000u64),
        None => match lower.strip_suffix('m') {
            Some(head) => (head, 1_000_000u64),
            None => (lower.as_str(), 1u64),
        },
    };
    digits.parse::<u64>().ok().map(|n| n * mult)
}

fn main() {
    let mut target_flows: u64 = 100_000;
    let mut duration_secs: u64 = 3_600;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let need = |i: usize| {
            args.get(i + 1)
                .unwrap_or_else(|| panic!("missing value after {}", args[i]))
        };
        match args[i].as_str() {
            "--flows" => {
                let raw = need(i);
                target_flows = parse_flows(raw)
                    .unwrap_or_else(|| panic!("--flows wants N, Nk or Nm, got `{raw}`"));
                i += 2;
            }
            "--duration-secs" => {
                duration_secs = need(i).parse().expect("--duration-secs N");
                i += 2;
            }
            other => panic!("unknown arg `{other}` (see --flows/--duration-secs)"),
        }
    }

    let duration: Nanos = duration_secs * SECOND;
    let waves = (duration / WAVE_PERIOD).max(1);
    let flows_per_wave = target_flows.div_ceil(waves).max(1) as usize;

    // The hour test's schedule, expressed as fractions of the duration
    // (at 3 600 s these land on the exact same instants): resets at
    // 1/6, 5/12 and 4/5; storms opening at 1/12, 1/3 and 2/3; the
    // checkpoint/restore cycle at the midpoint.
    let cfg = SoakConfig {
        name: "nightly",
        seed: 0xAC0_DC10,
        duration,
        slice: 10 * MILLISECOND,
        foreground: 1,
        rate_bps: 2_000_000,
        churn: ChurnConfig {
            flows_per_wave,
            wave_period: WAVE_PERIOD,
            ..ChurnConfig::default()
        },
        resets: vec![duration / 6, duration * 5 / 12, duration * 4 / 5],
        storms: StormSchedule {
            windows: vec![
                (duration / 12, duration / 12 + 500 * MILLISECOND),
                (duration / 3, duration / 3 + SECOND),
                (duration * 2 / 3, duration * 2 / 3 + 700 * MILLISECOND),
            ],
            background_loss: 0.002,
            corruption: 0.001,
            jitter: 10_000,
        },
        checkpoint_at: Some(duration / 2),
        restore: true,
        max_flows: 4_096,
        dropped_events_bound: u64::MAX / 2,
        sample_every: 10,
    };

    eprintln!(
        "soak_acceptance: target {target_flows} flows over {duration_secs}s \
         ({flows_per_wave}/wave)"
    );
    let report = match run_soak(&cfg) {
        Ok(r) => r,
        Err(violation) => {
            eprintln!("soak_acceptance: WATCHDOG VIOLATION: {violation:?}");
            eprintln!("soak_acceptance: flight recorders dumped under target/acdc-traces/");
            std::process::exit(1);
        }
    };

    println!(
        "{{\"soak\": \"nightly\", \"target_flows\": {}, \"distinct_flows\": {}, \
         \"resets_applied\": {}, \"storms\": {}, \"watchdog_samples\": {}, \
         \"max_occupancy\": {}, \"engine_events\": {}, \"checkpointed\": {}}}",
        target_flows,
        report.distinct_flows,
        report.resets_applied,
        report.storms,
        report.watchdog_samples,
        report.max_occupancy,
        report.engine_events,
        report.mid_checkpoint_json.is_some(),
    );

    let mut failed = false;
    if report.distinct_flows < target_flows {
        eprintln!(
            "soak_acceptance: churned {} distinct flows, target was {target_flows}",
            report.distinct_flows
        );
        failed = true;
    }
    if report.resets_applied != 3 || report.storms != 3 {
        eprintln!(
            "soak_acceptance: expected 3 resets + 3 storms, saw {} + {}",
            report.resets_applied, report.storms
        );
        failed = true;
    }
    if report.mid_checkpoint_json.is_none() {
        eprintln!("soak_acceptance: the mid-run checkpoint never fired");
        failed = true;
    }
    if report.acked.first().copied().unwrap_or(0) == 0 {
        eprintln!("soak_acceptance: the foreground flow made no progress");
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}
