//! Printing one workload's outcome, and the `run` subcommand: every
//! workload, timed then traced, each in a fresh process of this same
//! binary, gathered into one result file.

use std::process::{Command, ExitCode, Stdio};

use crate::json::{num, quote, Json};
use crate::metrics::{Def, END_TO_END, PER_LAYER};
use crate::proc;
use crate::run::Outcome;
use crate::workload::WORKLOADS;

/// A child prefixes its full result with this on standard output, one
/// line above the contract's last line.
pub const DETAIL_PREFIX: &str = "detail: ";

/// Every metric of `o` by name with its unit, on standard error.
pub fn print(o: &Outcome) {
    let a = &o.args;
    eprintln!(
        "== {} seed {} {} — {} reps, cpu share {:.3}, fingerprint {:016x}",
        a.workload,
        a.seed,
        if a.trace { "traced" } else { "timed" },
        o.reps,
        o.cpu_share,
        o.fingerprint
    );
    let defs = if a.trace { PER_LAYER } else { END_TO_END };
    for &Def { name, unit, .. } in defs {
        match o.metrics.get(name) {
            Some(q) if q.n > 1 => eprintln!(
                "  {name:<34} {:>14.4} {unit:<7} q1 {:.4} q3 {:.4} n={}",
                q.value, q.q1, q.q3, q.n
            ),
            Some(q) => eprintln!("  {name:<34} {:>14.4} {unit}", q.value),
            None => eprintln!("  {name:<34} {:>14} {unit}", "null"),
        }
    }
    eprintln!(
        "  ops: {} attempted, {} failed (failed_share {})",
        o.attempted,
        o.failed,
        o.failed as f64 / o.attempted.max(1) as f64
    );
    for e in &o.errors {
        eprintln!("  CHECK FAILED: {e}");
    }
}

/// The full result of one child, as one line of JSON.
pub fn detail_json(o: &Outcome) -> String {
    let a = &o.args;
    let defs = if a.trace { PER_LAYER } else { END_TO_END };
    let metrics: Vec<String> = defs
        .iter()
        .map(|&Def { name, unit, .. }| match o.metrics.get(name) {
            Some(q) => format!(
                "{}: {{\"value\": {}, \"unit\": {}, \"q1\": {}, \"q3\": {}, \"n\": {}}}",
                quote(name),
                num(q.value),
                quote(unit),
                num(q.q1),
                num(q.q3),
                q.n
            ),
            None => format!("{}: null", quote(name)),
        })
        .collect();
    let errors: Vec<String> = o.errors.iter().map(|e| quote(e)).collect();
    format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"correct\": {}, \
         \"attempted\": {}, \"failed\": {}, \"fingerprint\": \"{:016x}\", \"reps\": {}, \
         \"cpu_share\": {}, \"errors\": [{}], \"metrics\": {{{}}}}}",
        quote(&a.workload),
        a.seed,
        num(a.seconds),
        u8::from(a.trace),
        o.correct,
        o.attempted,
        o.failed,
        o.fingerprint,
        o.reps,
        num(o.cpu_share),
        errors.join(", "),
        metrics.join(", ")
    )
}

/// `run`: the whole set into one result file. Exits non-zero when any
/// workload's fingerprint, sanity or validation check failed.
pub fn run_all(seed: u64, seconds: f64, only_traced: bool, check: bool, out: &str) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("cannot find this binary to start the workloads: {e}");
            return ExitCode::from(2);
        }
    };
    let mut runs: Vec<String> = Vec::new();
    let mut ok = true;
    for workload in WORKLOADS {
        for trace in [false, true] {
            if only_traced && !trace {
                continue;
            }
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", workload, "--detail"])
                .args(["--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }]);
            if check {
                cmd.arg("--check");
            }
            if trace {
                cmd.args(["--spans", &format!("{out}.{workload}.spans.json")]);
            }
            // The child's standard error is the human-readable report.
            let output = cmd.stdin(Stdio::null()).stderr(Stdio::inherit()).output();
            let detail = output.ok().and_then(|o| {
                let text = String::from_utf8_lossy(&o.stdout).to_string();
                let line = text.lines().find_map(|l| l.strip_prefix(DETAIL_PREFIX))?;
                Some((o.status.success(), line.to_string()))
            });
            match detail {
                Some((success, line)) => {
                    ok &= success;
                    runs.push(line);
                }
                None => {
                    eprintln!("{workload}: no result from the child process");
                    ok = false;
                }
            }
        }
    }
    let stamp: Vec<String> = proc::machine_stamp()
        .into_iter()
        .map(|(k, v)| format!("{}: {}", quote(k), quote(&v)))
        .collect();
    let text = format!(
        "{{\"schema\": \"acdc-harness/v1\", \"seed\": {seed}, \"stamp\": {{{}}}, \"runs\": [\n  {}\n]}}\n",
        stamp.join(", "),
        runs.join(",\n  ")
    );
    debug_assert!(Json::parse(&text).is_ok(), "result file must parse back");
    if let Some(dir) = std::path::Path::new(out).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    match std::fs::write(out, text) {
        Ok(()) => eprintln!("wrote {out}"),
        Err(e) => {
            eprintln!("cannot write {out}: {e}");
            return ExitCode::from(2);
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        eprintln!("at least one workload failed a check");
        ExitCode::from(1)
    }
}
