//! The repo's benchmark. See README.md beside this package.

#![forbid(unsafe_code)]
// Wall-clock is what this package measures (the D001 carve-out covers
// `crates/bench/` by path; this is the clippy side of the same rule).
#![allow(clippy::disallowed_methods)]

mod compare;
mod dp;
mod json;
mod ledger;
mod metrics;
mod pkt;
mod proc;
mod report;
mod run;
mod testbed;
mod tracer;
mod units;
mod util;
mod workload;

#[cfg(test)]
mod selftest;

use std::process::ExitCode;

use workload::{Size, WORKLOADS};

/// The only unsafe code of the harness lives in that library target.
#[global_allocator]
static GLOBAL: count_alloc::CountingAlloc = count_alloc::CountingAlloc;

/// Default seed: SIGCOMM '16 opened on 22 August 2016.
const DEFAULT_SEED: u64 = 20_160_822;
/// Default measuring time per workload; `BENCHMARK.json` says the same.
const DEFAULT_SECONDS: f64 = 20.0;

const USAGE: &str = "\
usage: acdc-harness --workload NAME [--seed N] [--seconds S] [--trace 0|1]
                    [--check] [--detail] [--spans FILE]
           one workload in this process; the last line of standard output
           is the result as one JSON object
       acdc-harness run [--seed N] [--seconds S] [--check] [--out FILE]
           every workload, timed then traced, each in a fresh process;
           one result file
       acdc-harness trace [--seed N] [--seconds S] [--check] [--out FILE]
           the traced runs only: ledgers on standard error, spans beside FILE
       acdc-harness compare A.json B.json [--benchmark BENCHMARK.json]
           B against A by the bounds of BENCHMARK.json
workloads: bulk_dumbbell incast_star trace_star dp_steady_1k dp_steady_100k dp_churn";

/// `--name value` pairs and bare flags after the subcommand.
struct Flags {
    args: Vec<String>,
}

impl Flags {
    /// The value after the last `name`, so a later flag overrides.
    fn value(&self, name: &str) -> Option<&str> {
        let at = self.args.iter().rposition(|a| a == name)?;
        self.args.get(at + 1).map(String::as_str)
    }

    fn has(&self, name: &str) -> bool {
        self.args.iter().any(|a| a == name)
    }

    fn parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.value(name) {
            None if self.has(name) => Err(format!("{name} needs a value")),
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("bad value for {name}: {v}")),
        }
    }

    /// Arguments that are neither a flag nor a flag's value.
    fn positional(&self, valued: &[&str]) -> Vec<&str> {
        let mut out = Vec::new();
        let mut skip = false;
        for a in &self.args {
            if skip {
                skip = false;
            } else if valued.contains(&a.as_str()) {
                skip = true;
            } else if !a.starts_with("--") {
                out.push(a.as_str());
            }
        }
        out
    }
}

fn real_main() -> Result<ExitCode, String> {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let sub = match args.first() {
        Some(a) if !a.starts_with("--") => args.remove(0),
        _ => String::new(),
    };
    let flags = Flags { args };
    let seed = flags.parsed("--seed", DEFAULT_SEED)?;
    let seconds: f64 = flags.parsed("--seconds", DEFAULT_SECONDS)?;
    let size = if flags.has("--check") {
        Size::Check
    } else {
        Size::Full
    };
    match sub.as_str() {
        "" => {
            let workload = flags
                .value("--workload")
                .ok_or("--workload NAME is required")?;
            if !WORKLOADS.contains(&workload) {
                return Err(format!("unknown workload {workload}"));
            }
            let outcome = run::run(&run::Args {
                workload: workload.to_string(),
                seed,
                seconds,
                trace: flags.parsed("--trace", 0u8)? != 0,
                size,
                spans_out: flags.value("--spans").map(str::to_string),
            });
            report::print(&outcome);
            if flags.has("--detail") {
                println!("{}{}", report::DETAIL_PREFIX, report::detail_json(&outcome));
            }
            println!("{}", run::contract_line(&outcome));
            Ok(if outcome.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            })
        }
        "run" | "trace" => {
            let out = flags.value("--out").unwrap_or("results/acdc-harness.json");
            Ok(report::run_all(
                seed,
                seconds,
                sub == "trace",
                size == Size::Check,
                out,
            ))
        }
        "compare" => {
            let files = flags.positional(&["--benchmark"]);
            let [a, b] = files[..] else {
                return Err("compare needs exactly two result files".to_string());
            };
            let benchmark = flags.value("--benchmark").unwrap_or("BENCHMARK.json");
            Ok(compare::compare(a, b, benchmark))
        }
        other => Err(format!("unknown subcommand {other}")),
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
