//! End-to-end tests of the lint engine over checked-in fixture trees.
//!
//! Each bad fixture is a miniature workspace that violates exactly one
//! rule; the clean/allow fixtures must come back spotless. The final test
//! lints the *real* repository, which pins the shipped tree to zero
//! findings — the same gate `scripts/check.sh` applies in CI.

use std::path::{Path, PathBuf};

use acdc_xtask::{run_analyze, run_lint};

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

/// Analyze a fixture and return (rule id, path) pairs.
fn analyze(name: &str) -> Vec<(String, String)> {
    let report = run_analyze(&fixture(name)).expect("fixture analyzes");
    report
        .findings
        .iter()
        .map(|f| (f.rule.id.to_string(), f.path.clone()))
        .collect()
}

/// Assert a fixture trips exactly one rule, in the expected file.
fn assert_single(name: &str, rule: &str, path: &str) {
    let got = lint(name);
    assert_eq!(
        got,
        vec![(rule.to_string(), path.to_string())],
        "fixture {name}: expected exactly one {rule} finding in {path}, got {got:?}"
    );
}

/// Assert an analyze fixture trips exactly one W-rule, in the expected
/// file.
fn assert_single_analyze(name: &str, rule: &str, path: &str) {
    let got = analyze(name);
    assert_eq!(
        got,
        vec![(rule.to_string(), path.to_string())],
        "fixture {name}: expected exactly one {rule} finding in {path}, got {got:?}"
    );
}

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
fn allowlist_file_suppresses_findings() {
    assert_eq!(lint("allow_list"), vec![]);
}

#[test]
fn d001_wall_clock_fixture() {
    assert_single("d001_wall_clock", "D001", "crates/core/src/bad.rs");
}

#[test]
fn d002_hash_map_fixture() {
    assert_single("d002_hash_map", "D002", "crates/netsim/src/bad.rs");
}

#[test]
fn d004_binary_heap_fixture() {
    assert_single("d004_binary_heap", "D004", "crates/netsim/src/bad.rs");
}

#[test]
fn d003_unseeded_rng_fixture() {
    assert_single("d003_unseeded_rng", "D003", "crates/faults/src/bad.rs");
}

#[test]
fn p001_seq_arith_fixture() {
    assert_single("p001_seq_arith", "P001", "crates/tcp/src/bad.rs");
}

#[test]
fn p002_wscale_shift_fixture() {
    assert_single("p002_wscale_shift", "P002", "crates/vswitch/src/bad.rs");
}

#[test]
fn p003_alpha_eq_fixture() {
    assert_single("p003_alpha_eq", "P003", "crates/cc/src/bad.rs");
}

#[test]
fn p004_reparse_fixture() {
    assert_single("p004_reparse", "P004", "crates/vswitch/src/bad.rs");
}

#[test]
fn p005_flow_admission_fixture() {
    assert_single("p005_flow_admission", "P005", "crates/core/src/bad.rs");
}

#[test]
fn o001_adhoc_counter_fixture() {
    // The fixture holds one `Copy` snapshot struct (structurally exempt)
    // and one fresh raw counter: exactly the fresh one must fire.
    assert_single("o001_adhoc_counter", "O001", "crates/vswitch/src/bad.rs");
}

#[test]
fn s001_checkpoint_float_fixture() {
    assert_single("s001_checkpoint_float", "S001", "crates/soak/src/driver.rs");
}

#[test]
fn h001_missing_forbid_fixture() {
    assert_single("h001_no_forbid", "H001", "crates/foo/src/lib.rs");
}

#[test]
fn h002_clippy_drift_fixture() {
    assert_single("h002_clippy_drift", "H002", "clippy.toml");
}

#[test]
fn w001_write_scope_fixture() {
    assert_single_analyze("w001_write_scope", "W001", "crates/vswitch/src/bad.rs");
}

#[test]
fn w001_manifest_dup_fixture() {
    // The duplicate (struct, field) claim anchors at the manifest itself.
    let report = run_analyze(&fixture("w001_manifest_dup")).expect("fixture analyzes");
    assert_eq!(report.findings.len(), 1, "{:?}", report.findings);
    let f = &report.findings[0];
    assert_eq!(f.rule.id, "W001");
    assert_eq!(f.path, "crates/xtask/scopes.toml");
    assert!(
        f.message.contains("claimed by both"),
        "duplicate-claim message expected, got: {}",
        f.message
    );
}

#[test]
fn w002_lock_order_fixture() {
    assert_single_analyze("w002_lock_order", "W002", "crates/vswitch/src/bad.rs");
}

#[test]
fn w003_thread_cell_fixture() {
    assert_single_analyze("w003_thread_cell", "W003", "crates/vswitch/src/bad.rs");
}

#[test]
fn analyze_clean_fixture_is_clean() {
    assert_eq!(
        analyze("analyze_clean"),
        vec![],
        "clean analyze fixture must produce no findings"
    );
}

#[test]
fn analyze_inline_allow_suppresses_findings() {
    assert_eq!(analyze("analyze_allow_inline"), vec![]);
}

#[test]
fn analyze_broken_manifest_is_a_hard_error() {
    // A syntactically broken scopes.toml must abort the run (exit 2 at
    // the CLI), not silently disable write-scope checking. Build a
    // throwaway tree: the fixture dirs stay valid TOML.
    let dir = std::env::temp_dir().join(format!("acdc-analyze-broken-{}", std::process::id()));
    std::fs::create_dir_all(dir.join("crates/xtask")).unwrap();
    std::fs::write(dir.join("Cargo.toml"), "[workspace]\n").unwrap();
    std::fs::write(
        dir.join("crates/xtask/scopes.toml"),
        "[component.\"x\"]\nstruct = unquoted\n",
    )
    .unwrap();
    let err = run_analyze(&dir).expect_err("broken manifest must error");
    assert!(
        format!("{err}").contains("scopes.toml"),
        "error should name the manifest: {err}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn analyze_binary_exit_codes_and_json() {
    let bin = env!("CARGO_BIN_EXE_acdc-xtask");
    let ok = std::process::Command::new(bin)
        .args(["analyze", "--root"])
        .arg(fixture("analyze_clean"))
        .output()
        .expect("run binary");
    assert!(ok.status.success(), "clean fixture must exit 0: {ok:?}");

    let bad = std::process::Command::new(bin)
        .args(["analyze", "--json", "--root"])
        .arg(fixture("w003_thread_cell"))
        .output()
        .expect("run binary");
    assert_eq!(bad.status.code(), Some(1), "findings must exit 1");
    let stdout = String::from_utf8_lossy(&bad.stdout);
    assert!(
        stdout.contains("\"rule\": \"W003\"") && stdout.contains("crates/vswitch/src/bad.rs"),
        "--json must carry rule and path, got: {stdout}"
    );

    // --json is an analyze flag, not a lint one.
    let misuse = std::process::Command::new(bin)
        .args(["lint", "--json"])
        .output()
        .expect("run binary");
    assert_eq!(misuse.status.code(), Some(2), "lint --json must exit 2");
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
        .arg(fixture("d002_hash_map"))
        .output()
        .expect("run binary");
    assert_eq!(bad.status.code(), Some(1), "findings must exit 1");
    let stdout = String::from_utf8_lossy(&bad.stdout);
    assert!(
        stdout.contains("crates/netsim/src/bad.rs:1: D002"),
        "diagnostic must carry file:line and rule id, got: {stdout}"
    );

    let missing = std::process::Command::new(bin)
        .args(["lint", "--root", "/nonexistent-acdc-path"])
        .output()
        .expect("run binary");
    assert_eq!(missing.status.code(), Some(2), "bad root must exit 2");
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .to_path_buf()
}

#[test]
fn real_repository_is_analyze_clean() {
    let report = run_analyze(&repo_root()).expect("repo analyzes");
    let rendered: Vec<String> = report.findings.iter().map(|f| f.render()).collect();
    assert!(
        report.findings.is_empty(),
        "the shipped tree must be analyze-clean:\n{}",
        rendered.join("\n")
    );
    assert!(
        report.files_scanned > 50,
        "sanity: the walker should see the whole workspace, saw {}",
        report.files_scanned
    );
}

#[test]
fn pilot_component_manifest_entry_is_load_bearing() {
    // The acceptance property for the write-scope pilot: delete the
    // `vswitch.rwnd-rewrite` entry from scopes.toml, or write one of its
    // fields from outside crates/vswitch/src/rwnd.rs, and analyze fails.
    use acdc_xtask::model::FileModel;
    use acdc_xtask::scan::SourceFile;
    use acdc_xtask::scopes::{check_write_scopes, ScopeManifest, MANIFEST_PATH};
    use std::collections::BTreeMap;

    let root = repo_root();
    let manifest_text =
        std::fs::read_to_string(root.join(MANIFEST_PATH)).expect("scopes.toml readable");
    let manifest = ScopeManifest::parse(&manifest_text).expect("scopes.toml parses");
    assert!(
        manifest
            .components
            .iter()
            .any(|c| c.name == "vswitch.rwnd-rewrite"),
        "the pilot component must be declared"
    );

    // (a) Removing the pilot's entry leaves rwnd.rs's `acdc-scope:`
    // annotation dangling — a manifest error.
    let without_pilot = ScopeManifest::parse(&manifest_text)
        .map(|mut m| {
            m.components.retain(|c| c.name != "vswitch.rwnd-rewrite");
            m
        })
        .unwrap();
    let rwnd_src = std::fs::read_to_string(root.join("crates/vswitch/src/rwnd.rs")).unwrap();
    let mut models = BTreeMap::new();
    models.insert(
        "crates/vswitch/src/rwnd.rs".to_string(),
        FileModel::build(&SourceFile::scan(&rwnd_src)),
    );
    let mut findings = Vec::new();
    without_pilot.validate(&models, &mut findings);
    assert!(
        findings
            .iter()
            .any(|f| f.message.contains("vswitch.rwnd-rewrite")),
        "deleting the pilot's manifest entry must fail analyze: {findings:?}"
    );

    // (b) Writing a pilot-owned field from a foreign vswitch module is a
    // W001 finding under the real manifest.
    let intruder = FileModel::build(&SourceFile::scan(
        "impl RwndRewriter {\n    fn hack(&mut self) {\n        self.wscale_learned = false;\n    }\n}\n",
    ));
    let mut findings = Vec::new();
    check_write_scopes(
        "crates/vswitch/src/datapath.rs",
        &intruder,
        &manifest,
        &mut findings,
    );
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].rule.id, "W001");
}

#[test]
fn endpoint_component_manifest_entries_are_load_bearing() {
    // Same acceptance property as the pilot, extended over the Endpoint
    // decomposition: for each of the five components, deleting its
    // scopes.toml entry leaves the owning module's `acdc-scope:`
    // annotation dangling (a manifest error), and writing one of its
    // fields from the orchestrator file is a W001 finding.
    use acdc_xtask::model::FileModel;
    use acdc_xtask::scan::SourceFile;
    use acdc_xtask::scopes::{check_write_scopes, ScopeManifest, MANIFEST_PATH};
    use std::collections::BTreeMap;

    const COMPONENTS: &[(&str, &str, &str, &str)] = &[
        (
            "endpoint.conn-mgmt",
            "crates/tcp/src/conn.rs",
            "ConnMgmt",
            "fin_queued",
        ),
        (
            "endpoint.reliable-delivery",
            "crates/tcp/src/reliable.rs",
            "ReliableDelivery",
            "snd_nxt",
        ),
        (
            "endpoint.flow-ctrl",
            "crates/tcp/src/flow.rs",
            "FlowCtrl",
            "peer_rwnd",
        ),
        (
            "endpoint.receive",
            "crates/tcp/src/receive.rs",
            "Receive",
            "rcv_nxt",
        ),
        (
            "endpoint.ecn",
            "crates/tcp/src/ecn.rs",
            "EcnSignal",
            "ece_latch",
        ),
    ];

    let root = repo_root();
    let manifest_text =
        std::fs::read_to_string(root.join(MANIFEST_PATH)).expect("scopes.toml readable");
    let manifest = ScopeManifest::parse(&manifest_text).expect("scopes.toml parses");

    for &(name, owns, strukt, field) in COMPONENTS {
        assert!(
            manifest.components.iter().any(|c| c.name == name),
            "component {name} must be declared"
        );

        // (a) Removing the entry dangles the module's annotation.
        let without = ScopeManifest::parse(&manifest_text)
            .map(|mut m| {
                m.components.retain(|c| c.name != name);
                m
            })
            .unwrap();
        let src = std::fs::read_to_string(root.join(owns)).unwrap();
        let mut models = BTreeMap::new();
        models.insert(owns.to_string(), FileModel::build(&SourceFile::scan(&src)));
        let mut findings = Vec::new();
        without.validate(&models, &mut findings);
        assert!(
            findings.iter().any(|f| f.message.contains(name)),
            "deleting {name}'s manifest entry must fail analyze: {findings:?}"
        );

        // (b) The orchestrator writing a component field directly is a
        // W001 finding — endpoint.rs must go through the component API.
        let intruder = FileModel::build(&SourceFile::scan(&format!(
            "impl {strukt} {{\n    fn hack(&mut self) {{\n        self.{field} = Default::default();\n    }}\n}}\n"
        )));
        let mut findings = Vec::new();
        check_write_scopes(
            "crates/tcp/src/endpoint.rs",
            &intruder,
            &manifest,
            &mut findings,
        );
        assert_eq!(findings.len(), 1, "{name}: {findings:?}");
        assert_eq!(findings[0].rule.id, "W001");
    }
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
