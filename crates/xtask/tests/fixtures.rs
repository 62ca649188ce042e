//! End-to-end tests of the lint engine over checked-in fixture trees.
//!
//! Each bad fixture is a miniature workspace that violates exactly one
//! rule; the clean/allow fixtures must come back spotless. The final test
//! lints the *real* repository, which pins the shipped tree to zero
//! findings — the same gate `scripts/check.sh` applies in CI.

use std::path::{Path, PathBuf};

use acdc_xtask::{rules, run_lint};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// Lint a fixture and return (rule id, path) pairs.
fn lint(name: &str) -> Vec<(String, String)> {
    let report = run_lint(&fixture(name)).expect("fixture lints");
    report
        .findings
        .iter()
        .map(|f| (f.rule.id.to_string(), f.path.clone()))
        .collect()
}

/// The fixture that trips each rule: the file it trips it in, and how
/// many findings it holds there.
const TRIPPING: &[(&str, &str, &str, usize)] = &[
    ("D003", "d003_unseeded_rng", "crates/faults/src/bad.rs", 1),
    ("P001", "p001_seq_arith", "crates/tcp/src/bad.rs", 1),
    ("P002", "p002_wscale_shift", "crates/vswitch/src/bad.rs", 1),
    ("P003", "p003_alpha_eq", "crates/cc/src/bad.rs", 1),
    // An unwrap on a wire read and the rustfmt-wrapped expect: both
    // shapes of the rule.
    ("P004", "p004_wire_read", "crates/vswitch/src/bad.rs", 2),
    ("P005", "p005_flow_admission", "crates/core/src/bad.rs", 1),
    // Holds one `Copy` snapshot struct (structurally exempt) and one
    // fresh raw counter: exactly the fresh one must fire.
    ("O001", "o001_adhoc_counter", "crates/vswitch/src/bad.rs", 1),
    (
        "S001",
        "s001_checkpoint_float",
        "crates/soak/src/driver.rs",
        1,
    ),
    ("H001", "h001_no_forbid", "crates/foo/src/lib.rs", 1),
    // Nested locks, a table re-entry under `for_each`, a publish inside
    // a `with_entry` closure and one inside `with_connection`'s second.
    ("W002", "w002_lock_order", "crates/vswitch/src/bad.rs", 4),
];

#[test]
fn clean_fixture_is_clean() {
    assert_eq!(
        lint("clean"),
        vec![],
        "clean fixture must produce no findings"
    );
}

#[test]
fn inline_allow_suppresses_findings() {
    assert_eq!(lint("allow_inline"), vec![]);
}

#[test]
fn every_rule_has_one_fixture_tripping_only_it() {
    let covered: Vec<&str> = TRIPPING.iter().map(|t| t.0).collect();
    let catalog: Vec<&str> = rules::catalog().iter().map(|r| r.id).collect();
    assert_eq!(covered, catalog, "one fixture per catalog rule, in order");
    for &(rule, name, path, count) in TRIPPING {
        assert_eq!(
            lint(name),
            vec![(rule.to_string(), path.to_string()); count],
            "fixture {name}: expected exactly {count} {rule} finding(s) in {path}"
        );
    }
}

/// The rule ids named in the first column of LINTS.md's tables.
fn documented_rule_ids(lints_md: &str) -> Vec<String> {
    lints_md
        .lines()
        .filter_map(|l| l.strip_prefix("| "))
        .filter_map(|l| l.split(' ').next())
        .filter(|id| {
            id.len() == 4
                && id.starts_with(|c: char| c.is_ascii_uppercase())
                && id[1..].bytes().all(|b| b.is_ascii_digit())
        })
        .map(str::to_string)
        .collect()
}

#[test]
fn lints_md_tables_list_exactly_the_catalog() {
    let text = std::fs::read_to_string(repo_root().join("LINTS.md")).expect("LINTS.md readable");
    let mut documented = documented_rule_ids(&text);
    documented.sort();
    let mut catalog: Vec<String> = rules::catalog().iter().map(|r| r.id.to_string()).collect();
    catalog.sort();
    assert_eq!(documented, catalog);
}

#[test]
fn lint_binary_exit_codes() {
    let bin = env!("CARGO_BIN_EXE_acdc-xtask");
    let ok = std::process::Command::new(bin)
        .args(["lint", "--root"])
        .arg(fixture("clean"))
        .output()
        .expect("run binary");
    assert!(ok.status.success(), "clean fixture must exit 0");

    let bad = std::process::Command::new(bin)
        .args(["lint", "--root"])
        .arg(fixture("d003_unseeded_rng"))
        .output()
        .expect("run binary");
    assert_eq!(bad.status.code(), Some(1), "findings must exit 1");
    let stdout = String::from_utf8_lossy(&bad.stdout);
    assert!(
        stdout.contains("crates/faults/src/bad.rs:3: D003"),
        "diagnostic must carry file:line and rule id, got: {stdout}"
    );

    let missing = std::process::Command::new(bin)
        .args(["lint", "--root", "/nonexistent-acdc-path"])
        .output()
        .expect("run binary");
    assert_eq!(missing.status.code(), Some(2), "bad root must exit 2");

    let unknown = std::process::Command::new(bin)
        .arg("no-such-command")
        .output()
        .expect("run binary");
    assert_eq!(
        unknown.status.code(),
        Some(2),
        "unknown command must exit 2"
    );
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .to_path_buf()
}

#[test]
fn real_repository_is_lint_clean() {
    let report = run_lint(&repo_root()).expect("repo lints");
    let rendered: Vec<String> = report.findings.iter().map(|f| f.render()).collect();
    assert!(
        report.findings.is_empty(),
        "the shipped tree must be lint-clean:\n{}",
        rendered.join("\n")
    );
    assert!(
        report.files_scanned > 50,
        "sanity: the walker should see the whole workspace, saw {}",
        report.files_scanned
    );
}
