//! `compare A.json B.json`: B against A, per (workload, metric), by the
//! bounds in `BENCHMARK.json`. Timings are held to their bound, and are
//! `unresolved` when either side's own spread is wider than it; counts,
//! simulated outcomes and fingerprints are held to exact equality.

use std::process::ExitCode;

use crate::json::Json;
use crate::metrics::PER_LAYER;

/// Per-layer timings have no bound; moves beyond this are printed.
const NOTABLE_MOVE: f64 = 0.10;

struct Bound {
    better_lower: bool,
    bound: f64,
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// `q3 - q1` over the value, for a metric object that has them (the
/// quartiles of its samples, or for `wall_ns_per_pkt` the two halves of the
/// run); 0 for a single measurement.
fn spread(m: &Json) -> f64 {
    let f = |k: &str| m.get(k).and_then(Json::as_f64);
    match (f("q1"), f("q3"), f("value")) {
        (Some(q1), Some(q3), Some(v)) if v != 0.0 => (q3 - q1) / v.abs(),
        _ => 0.0,
    }
}

pub fn compare(a_path: &str, b_path: &str, benchmark_path: &str) -> ExitCode {
    let (a, b, bench) = match (load(a_path), load(b_path), load(benchmark_path)) {
        (Ok(a), Ok(b), Ok(bench)) => (a, b, bench),
        (a, b, bench) => {
            for e in [a.err(), b.err(), bench.err()].into_iter().flatten() {
                eprintln!("{e}");
            }
            return ExitCode::from(2);
        }
    };
    let bound_of = |name: &str| -> Option<Bound> {
        let def = bench
            .get("end_to_end")?
            .as_arr()
            .iter()
            .find(|d| d.get("name").and_then(Json::as_str) == Some(name))?;
        Some(Bound {
            better_lower: def.get("better")?.as_str()? == "lower",
            bound: def.get("bound")?.as_f64()?,
        })
    };
    let same_seed = a.get("seed") == b.get("seed");
    if !same_seed {
        println!("seeds differ: exact-equality checks are skipped");
    }

    let (mut breaches, mut unresolved, mut rows) = (0u32, 0u32, 0u32);
    let key = |r: &Json| {
        (
            r.get("workload")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string(),
            r.get("trace").and_then(Json::as_f64).unwrap_or(0.0) as u8,
        )
    };
    println!(
        "{:<16} {:<34} {:>14} {:>14} {:>8}  verdict",
        "workload", "metric", "A", "B", "move"
    );
    for ra in a.get("runs").map_or(&[][..], Json::as_arr) {
        let (workload, trace) = key(ra);
        let Some(rb) = b
            .get("runs")
            .map_or(&[][..], Json::as_arr)
            .iter()
            .find(|r| key(r) == (workload.clone(), trace))
        else {
            println!("{workload:<16} (trace {trace}) missing from {b_path}");
            breaches += 1;
            continue;
        };
        let row = |metric: &str, va: String, vb: String, mv: String, verdict: &str| {
            println!("{workload:<16} {metric:<34} {va:>14} {vb:>14} {mv:>8}  {verdict}");
        };

        // Outputs first: a changed fingerprint is a changed behaviour.
        let fp = |r: &Json| {
            r.get("fingerprint")
                .and_then(Json::as_str)
                .unwrap_or("?")
                .to_string()
        };
        if same_seed && fp(ra) != fp(rb) {
            row("fingerprint", fp(ra), fp(rb), String::new(), "MISMATCH");
            breaches += 1;
        }
        for r in [ra, rb] {
            if r.get("correct") != Some(&Json::Bool(true)) {
                row(
                    "correct",
                    String::new(),
                    String::new(),
                    String::new(),
                    "CHECK FAILED",
                );
                breaches += 1;
            }
        }
        let share = |r: &Json| {
            let f = |k: &str| r.get(k).and_then(Json::as_f64).unwrap_or(0.0);
            f("failed") / f("attempted").max(1.0)
        };
        if share(rb) > share(ra) {
            row(
                "failed_share",
                share(ra).to_string(),
                share(rb).to_string(),
                String::new(),
                "BREACH (may not rise)",
            );
            breaches += 1;
        }

        for (name, ma) in ra.get("metrics").map_or(&[][..], Json::as_obj) {
            let mb = rb.get("metrics").and_then(|m| m.get(name));
            let (Some(va), Some(vb)) = (
                ma.get("value").and_then(Json::as_f64),
                mb.and_then(|m| m.get("value")).and_then(Json::as_f64),
            ) else {
                continue;
            };
            rows += 1;
            let mv = if va != 0.0 { (vb - va) / va.abs() } else { 0.0 };
            let shown = |verdict: &str| {
                row(
                    name,
                    format!("{va:.4}"),
                    format!("{vb:.4}"),
                    format!("{:+.1}%", 100.0 * mv),
                    verdict,
                )
            };
            if let Some(bound) = bound_of(name) {
                let worse = if bound.better_lower { mv } else { -mv };
                let wide = spread(ma).max(mb.map_or(0.0, spread));
                if name != "setup_s" && wide > bound.bound {
                    unresolved += 1;
                    shown(&format!("unresolved (spread {:.1}% > bound)", 100.0 * wide));
                } else if worse > bound.bound {
                    breaches += 1;
                    shown(&format!("BREACH (bound {:.0}%)", 100.0 * bound.bound));
                } else {
                    shown("ok");
                }
            } else if PER_LAYER.iter().any(|d| d.name == name && d.exact) {
                if same_seed && va != vb {
                    breaches += 1;
                    shown("MISMATCH (exact)");
                }
            } else if mv.abs() > NOTABLE_MOVE {
                shown("moved (no bound)");
            }
        }
    }
    println!("{rows} metric pairs compared: {breaches} breaches, {unresolved} unresolved");
    if breaches > 0 {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
