//! Every deterministic `repro` artefact against its line in
//! `tests/golden.txt`.
//!
//! A line digests the report's text: the bytes `repro --out` writes.
//! `fig11` / `fig12` report wall-clock times, so they have no line. The
//! set takes about four minutes in release mode, so it sits behind
//! `--ignored`:
//!
//! ```text
//! cargo test --release -q -p acdc-bench -- --ignored
//! ```

use acdc_bench::experiments::{self, Opts};

#[test]
#[ignore = "about four minutes in release mode; run with --ignored"]
fn every_deterministic_artefact_matches_its_golden_line() {
    for id in experiments::ids().filter(|id| !matches!(*id, "fig11" | "fig12")) {
        let report = experiments::run(id, &Opts::default()).expect("a listed id runs");
        acdc_telemetry::golden(&format!("repro.{id}"), &[], &format!("{report}"));
    }
}
