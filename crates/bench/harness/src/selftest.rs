//! `cargo test --offline` in this package: the benchmark checked against
//! itself and against `BENCHMARK.json`, at sizes that take milliseconds.

use std::sync::Mutex;

use crate::json::Json;
use crate::metrics::{Def, END_TO_END, PER_LAYER};
use crate::run::{contract_line, run, Args, Outcome};
use crate::util::quartiles;
use crate::workload::{Size, WORKLOADS};

/// The counting allocator and the segment pool are process-wide; tests
/// that run workloads take turns.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn check_run(workload: &str, trace: bool) -> Outcome {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    run(&Args {
        workload: workload.to_string(),
        seed: 42,
        seconds: 0.0,
        trace,
        size: Size::Check,
        spans_out: None,
    })
}

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit, better)` of every entry of one list of `BENCHMARK.json`.
fn declared(bench: &Json, list: &str) -> Vec<(String, String, String)> {
    let field = |d: &Json, k: &str| d.get(k).and_then(Json::as_str).unwrap_or("?").to_string();
    bench
        .get(list)
        .expect("list present")
        .as_arr()
        .iter()
        .map(|d| (field(d, "name"), field(d, "unit"), field(d, "better")))
        .collect()
}

fn owned(defs: &[Def]) -> Vec<(String, String, String)> {
    defs.iter()
        .map(|d| (d.name.to_string(), d.unit.to_string(), d.better.to_string()))
        .collect()
}

fn well_formed(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
    !name.is_empty()
        && name.len() <= 64
        && name.chars().all(ok)
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
}

#[test]
fn names_equal_the_lists_in_benchmark_json() {
    let bench = benchmark_json();
    let workloads: Vec<String> = declared(&bench, "workloads")
        .into_iter()
        .map(|d| d.0)
        .collect();
    assert_eq!(workloads, WORKLOADS);
    assert_eq!(declared(&bench, "end_to_end"), owned(END_TO_END));
    assert_eq!(declared(&bench, "per_layer"), owned(PER_LAYER));
    for name in workloads
        .iter()
        .map(String::as_str)
        .chain(END_TO_END.iter().chain(PER_LAYER).map(|d| d.name))
    {
        assert!(well_formed(name), "{name}");
    }
    let mut all: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|d| d.name).collect();
    all.sort_unstable();
    all.dedup();
    assert_eq!(
        all.len(),
        END_TO_END.len() + PER_LAYER.len(),
        "a name is used once"
    );
}

#[test]
fn every_workload_repeats_its_fingerprint() {
    for workload in WORKLOADS {
        let (a, b) = (check_run(workload, false), check_run(workload, false));
        assert!(
            a.correct && b.correct,
            "{workload}: {:?} {:?}",
            a.errors,
            b.errors
        );
        assert_eq!(a.fingerprint, b.fingerprint, "{workload}");
        assert!(a.attempted > 0, "{workload}");
    }
}

#[test]
fn printed_metrics_are_the_declared_ones() {
    for (trace, defs) in [(false, END_TO_END), (true, PER_LAYER)] {
        for workload in ["bulk_dumbbell", "dp_churn"] {
            let outcome = check_run(workload, trace);
            assert!(outcome.correct, "{workload}: {:?}", outcome.errors);
            let line = Json::parse(&contract_line(&outcome)).expect("the last line is JSON");
            let keys: Vec<&str> = line.as_obj().iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            let printed: Vec<(&str, &str)> = line
                .get("metrics")
                .expect("metrics")
                .as_obj()
                .iter()
                .map(|(k, v)| {
                    (
                        k.as_str(),
                        v.get("unit").and_then(Json::as_str).unwrap_or("?"),
                    )
                })
                .collect();
            let want: Vec<(&str, &str)> = defs.iter().map(|d| (d.name, d.unit)).collect();
            assert_eq!(printed, want, "{workload} trace {trace}");
            for (name, v) in line.get("metrics").expect("metrics").as_obj() {
                assert!(
                    v.get("value").and_then(Json::as_f64).is_some(),
                    "{name} is a number"
                );
            }
        }
    }
}

#[test]
fn a_different_seed_is_a_different_input() {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let mut tracer = crate::tracer::Tracer::new(false);
    for workload in WORKLOADS {
        let mut fp = |seed| {
            crate::workload::run_rep(workload, seed, Size::Check, &mut tracer, false).fingerprint
        };
        assert_ne!(fp(1), fp(2), "{workload}");
    }
}

#[test]
fn quartiles_follow_python() {
    // statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
    let q = quartiles(&[1.0, 2.0, 4.0, 7.0, 11.0, 16.0, 22.0, 29.0, 37.0, 46.0]);
    assert_eq!((q.q1, q.value, q.q3), (3.5, 13.5, 31.0));
    // statistics.quantiles([3, 1, 2], n=4)
    let q = quartiles(&[3.0, 1.0, 2.0]);
    assert_eq!((q.q1, q.value, q.q3), (1.0, 2.0, 3.0));
}

#[test]
fn json_reads_back_what_the_harness_writes() {
    let text = r#"{"a": [1, 2.5e3, -4], "b": {"c": "x\"y", "d": null, "e": true}}"#;
    let v = Json::parse(text).expect("parses");
    assert_eq!(v.get("a").map(|a| a.as_arr().len()), Some(3));
    assert_eq!(
        v.get("a").and_then(|a| a.as_arr()[1].as_f64()),
        Some(2500.0)
    );
    assert_eq!(
        v.get("b").and_then(|b| b.get("c")).and_then(Json::as_str),
        Some("x\"y")
    );
    assert!(Json::parse("{\"a\": 1,}").is_err());
    assert_eq!(crate::json::quote("a\"b\n"), r#""a\"b\n""#);
}
