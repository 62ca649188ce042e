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
//! per module).
//!
//! [`experiments::ALL`] is the one list of ids and the functions that run
//! them. What several artefacts measure has one body: window goodput,
//! probe RTTs and window traces on `acdc_core::Testbed` (the root tests
//! and examples call them too), the dumbbell runner and the
//! mice-beside-background FCT runner in [`experiments::common`].
//!
//! Performance is measured elsewhere: `acdc-harness`, the
//! standalone package under `harness/`, is the repo's one benchmark
//! (`BENCHMARK.json`; `scripts/check.sh harness` gates CI on it).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;

pub use experiments::{Opts, Report};
