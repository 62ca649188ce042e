//! # acdc-bench — reproduction harness
//!
//! One experiment module per table/figure of the paper's evaluation (§5),
//! all runnable through the `repro` binary:
//!
//! ```text
//! cargo run --release -p acdc-bench --bin repro -- fig8
//! cargo run --release -p acdc-bench --bin repro -- all
//! cargo run --release -p acdc-bench --bin repro -- table1 --full
//! ```
//!
//! `--full` runs paper-scale durations; the default is a time-scaled
//! version of each experiment that preserves the comparisons (documented
//! per module). Performance is measured elsewhere: `acdc-harness`, the
//! standalone package under `harness/`, is the repo's one benchmark
//! (`BENCHMARK.json`; `scripts/check.sh harness` gates CI on it).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;

pub use experiments::{Opts, Report};
