//! The lint rule catalog.
//!
//! Every rule protects a property the AC/DC reproduction's correctness
//! argument leans on that neither rustc nor clippy can see (see
//! `LINTS.md` for the rationale and the paper sections each rule traces
//! to). Rules are token-level checks over the comment/string-stripped
//! code channel produced by [`crate::scan`].

use crate::scan::SourceFile;

/// A single diagnostic.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Repo-relative path, forward slashes.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    pub rule: &'static Rule,
    pub message: String,
}

impl Finding {
    pub fn render(&self) -> String {
        format!(
            "{}:{}: {} ({}): {}",
            self.path, self.line, self.rule.id, self.rule.name, self.message
        )
    }
}

/// Static description of a rule.
pub struct Rule {
    pub id: &'static str,
    pub name: &'static str,
    pub summary: &'static str,
}

impl std::fmt::Debug for Rule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.id)
    }
}

pub static P002: Rule = Rule {
    id: "P002",
    name: "rwnd-scale-helper",
    summary: "no hand-rolled wscale shifts outside crates/packet \
              (use scale_rwnd/unscale_rwnd; AC/DC §3.3)",
};

pub static P003: Rule = Rule {
    id: "P003",
    name: "float-eq-alpha",
    summary: "no exact float comparison on DCTCP alpha \
              (EWMA state; compare with a tolerance)",
};

pub static P004: Rule = Rule {
    id: "P004",
    name: "panic-on-wire-read",
    summary: "no unwrap/expect hung on from_header_bytes(..) in any crate's \
              src/ but packet, bench and xtask (wire bytes that do not read \
              as a segment are dropped and counted, never a panic)",
};

pub static O001: Rule = Rule {
    id: "O001",
    name: "ad-hoc-counter",
    summary: "no raw *_drops/*_count integer fields outside a `Copy` struct \
              and no *_drops increments but into a field of a `Copy` struct \
              declared in the same file, in any crate's src/ but telemetry, \
              stats, bench and xtask (a component counts in the `Copy` view \
              its owner returns whole, or in an acdc_telemetry Counter when \
              a hub must snapshot it)",
};

pub static H001: Rule = Rule {
    id: "H001",
    name: "forbid-unsafe",
    summary: "every crate root must carry #![forbid(unsafe_code)]",
};

pub static S001: Rule = Rule {
    id: "S001",
    name: "checkpoint-determinism",
    summary: "no float types in the checkpoint serialization paths (vswitch \
              checkpoint.rs, telemetry json.rs, soak driver.rs): checkpoint \
              document bytes must be a pure function of state — u64-only \
              numbers, no float formatting (DESIGN.md §14)",
};

/// All rules, in diagnostic order.
pub static CATALOG: [&Rule; 6] = [&P002, &P003, &P004, &O001, &S001, &H001];

pub fn catalog() -> &'static [&'static Rule] {
    &CATALOG
}

/// True when `code` contains `token` as a standalone identifier-path, i.e.
/// not embedded in a longer identifier (`f64x` must not match `f64`).
pub fn contains_token(code: &str, token: &str) -> bool {
    let is_ident = |c: char| c.is_alphanumeric() || c == '_';
    let mut start = 0;
    while let Some(pos) = code[start..].find(token) {
        let at = start + pos;
        let before_ok = at == 0 || !is_ident(code[..at].chars().next_back().unwrap());
        let after = at + token.len();
        let after_ok = after >= code.len() || !is_ident(code[after..].chars().next().unwrap());
        if before_ok && after_ok {
            return true;
        }
        start = at + 1;
    }
    false
}

/// True when `code` contains an identifier *ending* in `suffix`
/// (`wscale`, `ack_wscale`, `self.peer_wscale` all count for `wscale`).
pub fn contains_token_suffix(code: &str, suffix: &str) -> bool {
    !suffixed_idents(code, suffix).is_empty()
}

/// Raw integer/atomic types that make a counter field "ad-hoc" for O001.
/// `Counter` fields (registry-backed cells) are the blessed path.
const O001_RAW_TYPES: &[&str] = &["u64", "u32", "usize", "AtomicU64", "AtomicUsize"];

/// Every identifier in `code` that ends in `suffix`, with the code that
/// follows it (`self.counters.wred_drops += 1` yields `("wred_drops",
/// " += 1")` for `_drops`).
fn suffixed_idents<'a>(code: &'a str, suffix: &str) -> Vec<(&'a str, &'a str)> {
    let is_ident = |c: char| c.is_alphanumeric() || c == '_';
    code.match_indices(suffix)
        .filter_map(|(at, _)| {
            let rest = &code[at + suffix.len()..];
            if rest.chars().next().is_some_and(is_ident) {
                return None;
            }
            let start = code[..at]
                .char_indices()
                .rev()
                .find(|&(_, c)| !is_ident(c))
                .map_or(0, |(i, c)| i + c.len_utf8());
            Some((&code[start..at + suffix.len()], rest))
        })
        .collect()
}

/// Is `rest`, the code after a name, a `:` type annotation?
fn annotated(rest: &str) -> bool {
    let t = rest.trim_start();
    t.starts_with(':') && !t.starts_with("::")
}

/// True when `code` declares something named `…_drops` or `…_count`
/// immediately followed by a `:` type annotation — the shape of a struct
/// counter field (`pub rto_count: u64`).
fn has_counter_field_name(code: &str) -> bool {
    ["_drops", "_count"].iter().any(|suffix| {
        suffixed_idents(code, suffix)
            .iter()
            .any(|(_, rest)| annotated(rest))
    })
}

/// Does the struct enclosing the field at `field_idx` derive `Copy`?
///
/// A `Copy` struct cannot hold a registry `Counter` (it is `Rc`-backed
/// and not `Copy`), so it is a plain value: the view its owner keeps as a
/// field, counts in and returns whole (`SwitchCounters`, `PortCounters`,
/// `FaultStats`, …). Its counter-named fields are exempt from the field
/// check, and increments of them from the increment check when the
/// struct is declared in the incrementing file (see
/// `copy_view_drops`).
fn enclosing_struct_derives_copy(file: &SourceFile, field_idx: usize) -> bool {
    let mut l = field_idx;
    while l > 0 {
        l -= 1;
        let line = &file.lines[l];
        let code = line.code.trim();
        if contains_token(code, "struct") && code.contains('{') {
            let mut a = l;
            while a > 0 {
                a -= 1;
                let above = &file.lines[a];
                let c = above.code.trim();
                let comment_only = c.is_empty() && !above.comment.trim().is_empty();
                if c.starts_with("#[") {
                    if contains_token(c, "derive") && contains_token(c, "Copy") {
                        return true;
                    }
                } else if !comment_only {
                    break;
                }
            }
            return false;
        }
        // A closing brace ends the previous item: the field can't belong
        // to any struct declared above it.
        if code == "}" {
            break;
        }
    }
    false
}

/// The `…_drops` fields declared in `Copy` structs in `file`: the views
/// their owners count in, so `+=` into them is how those owners count.
fn copy_view_drops(file: &SourceFile) -> Vec<&str> {
    let mut names = Vec::new();
    for (idx, line) in file.lines.iter().enumerate() {
        for (name, rest) in suffixed_idents(&line.code, "_drops") {
            if annotated(rest) && enclosing_struct_derives_copy(file, idx) {
                names.push(name);
            }
        }
    }
    names
}

/// True when `code` *accumulates into* something named `…_drops` that is
/// not a field of a `Copy` view declared in the same file: a compound
/// assignment (`+=`) into any other name, or an atomic `fetch_add` into
/// any name at all. Registry cells are bumped via `Counter::inc`/`add`.
/// Scoped to `_drops` only: `_count` names also cover private algorithm
/// state (e.g. Vegas' per-RTT ACK tally) that is not a metric and may
/// legitimately accumulate.
fn has_live_counter_update(code: &str, copy_view_drops: &[&str]) -> bool {
    suffixed_idents(code, "_drops").iter().any(|(name, rest)| {
        let t = rest.trim_start();
        t.starts_with(".fetch_add(") || (t.starts_with("+=") && !copy_view_drops.contains(name))
    })
}

/// `crates/<name>/src/…` → `<name>`. `None` for tests, benches, examples,
/// the root package and the standalone harness under `crates/bench/`.
fn src_crate(path: &str) -> Option<&str> {
    let (name, tail) = path.strip_prefix("crates/")?.split_once('/')?;
    tail.starts_with("src/").then_some(name)
}

/// P004: the method hung directly on a `from_header_bytes(..)` call that
/// starts on line `idx`, when that method is `unwrap` or `expect` — on
/// the same line, or leading the next line, which is where rustfmt puts
/// it once the chain is too long.
fn panics_on_wire_read(file: &SourceFile, idx: usize) -> Option<&'static str> {
    const CALL: &str = "from_header_bytes(";
    let code = file.lines[idx].code.as_str();
    let args = &code[code.find(CALL)? + CALL.len()..];
    let mut depth = 1usize;
    let close = args.find(|c| {
        match c {
            '(' => depth += 1,
            ')' => depth -= 1,
            _ => {}
        }
        depth == 0
    })?;
    let mut next = args[close + 1..].trim();
    if next.is_empty() {
        next = file.lines.get(idx + 1).map_or("", |l| l.code.trim());
    }
    ["unwrap", "expect"].into_iter().find(|method| {
        next.strip_prefix('.')
            .and_then(|n| n.trim_start().strip_prefix(method))
            .is_some_and(|rest| rest.starts_with('('))
    })
}

/// The rules applied to one file, line by line. `path` is repo-relative
/// with forward slashes.
pub fn lint_lines(path: &str, file: &SourceFile, findings: &mut Vec<Finding>) {
    let in_xtask = path.starts_with("crates/xtask/");
    let krate = src_crate(path);
    let p002_scope = !path.starts_with("crates/packet/") && !in_xtask;
    // P004 guards the one place wire bytes are read: every crate a
    // Segment can flow through treats bytes that do not read as a drop.
    // The packet crate *is* the reader; scoped to src/ so tests may
    // unwrap the bytes they built.
    let p004_scope = krate.is_some_and(|c| !matches!(c, "packet" | "bench" | "xtask"));
    // O001: a counter is a field of the `Copy` view its owner returns
    // whole, or a registry `Counter`. The telemetry and stats crates
    // *implement* the machinery; non-src code (tests/benches build
    // expectation structs) is exempt.
    let o001_scope = krate.is_some_and(|c| !matches!(c, "telemetry" | "stats" | "bench" | "xtask"));
    let copy_view_drops = copy_view_drops(file);
    // S001 guards the checkpoint wire format's determinism contract:
    // floats are banned in the files that *write* checkpoint bytes (you
    // cannot float-format a value you never hold): the document's shape,
    // the JSON codec that writes its bytes, and the soak report.
    let s001_scope = path == "crates/vswitch/src/checkpoint.rs"
        || path == "crates/telemetry/src/json.rs"
        || path == "crates/soak/src/driver.rs";

    for (idx, line) in file.lines.iter().enumerate() {
        let lineno = idx + 1;
        let code = line.code.as_str();
        if code.trim().is_empty() {
            continue;
        }
        let mut hits: Vec<(&'static Rule, String)> = Vec::new();

        if p004_scope {
            if let Some(method) = panics_on_wire_read(file, idx) {
                hits.push((
                    &P004,
                    format!("`.{method}()` on a wire read; bytes that do not read as a segment are dropped and counted, never a panic"),
                ));
            }
        }

        if p002_scope
            && contains_token_suffix(code, "wscale")
            && (code.contains(">>") || code.contains("<<"))
        {
            hits.push((
                &P002,
                "hand-rolled window-scale shift; use acdc_packet::scale_rwnd / unscale_rwnd"
                    .to_string(),
            ));
        }

        if o001_scope
            && contains_token(code, "pub")
            && has_counter_field_name(code)
            && O001_RAW_TYPES.iter().any(|t| contains_token(code, t))
        {
            hits.push((
                &O001,
                "raw counter field outside a `Copy` view; count in a field of the `Copy` struct the owner returns whole, or hold an acdc_telemetry::Counter when a hub must snapshot it"
                    .to_string(),
            ));
        }

        if s001_scope {
            for tok in ["f32", "f64"] {
                if contains_token(code, tok) {
                    hits.push((
                        &S001,
                        format!("`{tok}` in a checkpoint serialization path invites float formatting; checkpoint numbers are u64 only — scale to integers before they reach the serializer"),
                    ));
                    break;
                }
            }
        }

        if o001_scope && has_live_counter_update(code, &copy_view_drops) {
            hits.push((
                &O001,
                "ad-hoc counter increment; bump a field of a `Copy` view declared in this file, or an acdc_telemetry::Counter (inc/add)"
                    .to_string(),
            ));
        }

        if !in_xtask
            && contains_token(code, "alpha")
            && (code.contains("==")
                || code.contains("!=")
                || code.contains("assert_eq!")
                || code.contains("assert_ne!"))
        {
            hits.push((
                &P003,
                "exact comparison on DCTCP alpha (EWMA float state); compare with a tolerance"
                    .to_string(),
            ));
        }

        if hits.is_empty() {
            continue;
        }
        let allows = file.allows_on(idx);
        for (rule, message) in hits {
            if allows.iter().any(|a| a == rule.id) {
                continue;
            }
            // O001's field check exempts `Copy` views: they cannot hold a
            // registry cell, so their counter-named fields are plain
            // values their owner counts in. Increments are judged
            // separately by `has_live_counter_update`.
            if rule.id == "O001"
                && has_counter_field_name(&file.lines[idx].code)
                && enclosing_struct_derives_copy(file, idx)
            {
                continue;
            }
            findings.push(Finding {
                path: path.to_string(),
                line: lineno,
                rule,
                message,
            });
        }
    }
}

/// H001: a crate-root file must carry `#![forbid(unsafe_code)]`.
pub fn lint_crate_root(path: &str, file: &SourceFile, findings: &mut Vec<Finding>) {
    let has = file
        .lines
        .iter()
        .any(|l| l.code.contains("#![forbid(unsafe_code)]"));
    if !has {
        findings.push(Finding {
            path: path.to_string(),
            line: 1,
            rule: &H001,
            message: "crate root is missing #![forbid(unsafe_code)]".to_string(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::SourceFile;

    fn run(path: &str, src: &str) -> Vec<String> {
        let f = SourceFile::scan(src);
        let mut out = Vec::new();
        lint_lines(path, &f, &mut out);
        out.iter().map(|f| f.rule.id.to_string()).collect()
    }

    #[test]
    fn token_boundaries() {
        assert!(contains_token("let x: f64 = 0.0;", "f64"));
        assert!(!contains_token("my_f64_like(b)", "f64"));
        assert!(!contains_token("f64x::new()", "f64"));
    }

    #[test]
    fn p002_requires_shift_and_wscale_together() {
        assert_eq!(
            run(
                "crates/vswitch/src/x.rs",
                "let w = (cwnd >> wscale) as u16;\n"
            ),
            vec!["P002"]
        );
        assert_eq!(
            run(
                "crates/tcp/src/x.rs",
                "let b = u64::from(raw) << self.peer_wscale;\n"
            ),
            vec!["P002"]
        );
        assert!(run("crates/vswitch/src/x.rs", "let w = cwnd >> 2;\n").is_empty());
        assert!(run("crates/packet/src/tcp.rs", "let w = cwnd >> wscale;\n").is_empty());
    }

    #[test]
    fn p004_bans_panics_on_a_wire_read_everywhere_a_segment_flows() {
        let src = "let s = Segment::from_header_bytes(buf, len).unwrap();\n";
        for krate in ["vswitch", "core", "workers", "soak", "telemetry"] {
            let path = format!("crates/{krate}/src/x.rs");
            assert_eq!(run(&path, src), vec!["P004"], "{path}");
        }
        // The packet crate *is* the reader; benches and tests unwrap the
        // bytes they built.
        assert!(run("crates/packet/src/segment.rs", src).is_empty());
        assert!(run("crates/bench/src/x.rs", src).is_empty());
        assert!(run("crates/bench/harness/src/x.rs", src).is_empty());
        assert!(run("crates/vswitch/tests/x.rs", src).is_empty());
        let p = "crates/core/src/x.rs";
        assert_eq!(
            run(
                p,
                "let s = Segment::from_header_bytes(f(b), 0) . expect(\"ok\");\n"
            ),
            vec!["P004"]
        );
        // rustfmt's wrapped form: the method leads the continuation line.
        assert_eq!(
            run(
                p,
                "let s = Segment::from_header_bytes(buf, 0)\n    .expect(\"reads\")\n    .flow_key();\n"
            ),
            vec!["P004"]
        );
        // Fallible handling is the blessed shape; an unwrap further down
        // the chain is not *on* the read, and other calls are not reads.
        for ok in [
            "let Ok(s) = Segment::from_header_bytes(buf, 0) else { return };\n",
            "let s = Segment::from_header_bytes(buf, 0)\n    .ok()?;\n",
            "let s = Segment::from_header_bytes(buf, 0)?;\nlet w = x\n    .unwrap();\n",
            "let m = seg.meta();\n",
            "let n: u16 = s.parse().expect(\"a port\");\n",
        ] {
            assert!(run(p, ok).is_empty(), "{ok}");
        }
    }

    #[test]
    fn p003_catches_assert_eq_on_alpha() {
        assert_eq!(
            run("crates/cc/src/x.rs", "assert_eq!(d.alpha(), 1.0);\n"),
            vec!["P003"]
        );
        assert!(run(
            "crates/cc/src/x.rs",
            "assert!((d.alpha() - 1.0).abs() < 1e-9);\n"
        )
        .is_empty());
    }

    #[test]
    fn o001_bans_new_raw_counter_fields() {
        let src = "pub struct S {\n    pub rto_count: u64,\n}\n";
        for krate in ["vswitch", "netsim", "workers", "soak"] {
            let path = format!("crates/{krate}/src/x.rs");
            assert_eq!(run(&path, src), vec!["O001"], "{path}");
        }
        // Atomics are still raw counters.
        assert_eq!(
            run(
                "crates/core/src/x.rs",
                "pub struct S {\n    pub corrupt_drops: AtomicU64,\n}\n"
            ),
            vec!["O001"]
        );
        // The blessed path: a registry-backed Counter field.
        assert!(run(
            "crates/core/src/x.rs",
            "pub struct S {\n    pub corrupt_drops: Counter,\n}\n"
        )
        .is_empty());
        // The telemetry and stats crates implement the machinery; tests
        // build expectation structs freely.
        assert!(run("crates/telemetry/src/x.rs", src).is_empty());
        assert!(run("crates/stats/src/x.rs", src).is_empty());
        assert!(run("crates/vswitch/tests/x.rs", src).is_empty());
        // Non-counter names and non-field uses don't fire.
        assert!(run(
            "crates/core/src/x.rs",
            "pub struct S {\n    pub discounts: u64,\n}\n"
        )
        .is_empty());
        assert!(run("crates/core/src/x.rs", "let byte_count: usize = 0;\n").is_empty());
    }

    #[test]
    fn o001_copy_snapshot_structs_are_exempt() {
        // A `Copy` struct cannot hold live registry cells, so its
        // counter-named fields are snapshot values — no finding, and no
        // allow directive needed (the grandfather list is retired).
        let src = "/// Snapshot view of registry-backed cells.\n\
                   #[derive(Debug, Clone, Copy)]\n\
                   pub struct Stats {\n\
                   \x20   pub random_drops: u64,\n\
                   \x20   pub flap_drops: u64,\n\
                   }\n";
        assert!(run("crates/faults/src/x.rs", src).is_empty());
        // The exemption is per-struct: a *following* non-Copy struct is
        // not covered.
        let two = format!("{src}pub struct Other {{\n    pub wred_drops: u64,\n}}\n");
        assert_eq!(run("crates/faults/src/x.rs", &two), vec!["O001"]);
        // Without the Copy derive the same struct fires on both fields.
        let live = "#[derive(Debug, Clone)]\n\
                    pub struct Stats {\n\
                    \x20   pub random_drops: u64,\n\
                    \x20   pub flap_drops: u64,\n\
                    }\n";
        assert_eq!(run("crates/faults/src/x.rs", live), vec!["O001", "O001"]);
    }

    #[test]
    fn o001_accepts_increments_of_a_copy_view_declared_in_the_file() {
        let view = "#[derive(Debug, Clone, Copy, Default)]\n\
                    pub struct SwitchCounters {\n\
                    \x20   pub wred_drops: u64,\n\
                    }\n";
        let bump = "fn drop_one(&mut self) {\n    self.counters.wred_drops += 1;\n}\n";
        assert!(run("crates/netsim/src/x.rs", &format!("{view}{bump}")).is_empty());
        // Another `_drops` name in the same file is still ad hoc, and so
        // is an atomic bump of the view's own field.
        let other = format!("{view}fn f(&mut self) {{\n    self.buffer_drops += 1;\n}}\n");
        assert_eq!(run("crates/netsim/src/x.rs", &other), vec!["O001"]);
        let atomic = format!("{view}fn f(&self) {{\n    c.wred_drops.fetch_add(1, Relaxed);\n}}\n");
        assert_eq!(run("crates/netsim/src/x.rs", &atomic), vec!["O001"]);
        // A struct that does not derive `Copy` is no view: its field and
        // the bump both fire.
        let live = view.replace(", Copy", "");
        assert_eq!(
            run("crates/netsim/src/x.rs", &format!("{live}{bump}")),
            vec!["O001", "O001"]
        );
    }

    #[test]
    fn o001_flags_live_drop_counter_increments() {
        // Accumulating into a `_drops` name declared in no `Copy` view of
        // the file is an ad-hoc counter.
        assert_eq!(
            run("crates/netsim/src/x.rs", "self.wred_drops += 1;\n"),
            vec!["O001"]
        );
        assert_eq!(
            run(
                "crates/faults/src/x.rs",
                "stats.corrupt_drops.fetch_add(1, Ordering::Relaxed);\n"
            ),
            vec!["O001"]
        );
        // `_count` accumulation is private algorithm state (e.g. Vegas'
        // per-RTT ACK tally), not a metric — exempt.
        assert!(run("crates/cc/src/x.rs", "self.rtt_count += 1;\n").is_empty());
        // Reads and plain `+` merges of snapshot fields don't fire.
        assert!(run(
            "crates/netsim/src/x.rs",
            "let total = a.wred_drops + b.wred_drops;\n"
        )
        .is_empty());
        // Tests may keep tallies however they like.
        assert!(run("crates/netsim/tests/x.rs", "self.wred_drops += 1;\n").is_empty());
    }

    #[test]
    fn s001_bans_floats_in_serialization_paths_only() {
        let float = "fn pct(x: f64) -> u64 { (x * 100.0) as u64 }\n";
        assert_eq!(run("crates/vswitch/src/checkpoint.rs", float), vec!["S001"]);
        assert_eq!(run("crates/telemetry/src/json.rs", float), vec!["S001"]);
        assert_eq!(run("crates/soak/src/driver.rs", float), vec!["S001"]);
        // Floats elsewhere in the soak crate (e.g. fault probabilities)
        // never touch the serializer and are fine.
        assert!(run("crates/soak/src/storm.rs", float).is_empty());
        assert!(run("crates/vswitch/src/datapath.rs", float).is_empty());
        // Identifier boundaries: `f64x` must not fire.
        assert!(run("crates/soak/src/driver.rs", "let x = f64x::new();\n").is_empty());
    }

    #[test]
    fn inline_allow_suppresses_only_the_rule_it_names() {
        let src = "let w = cwnd >> wscale;\n";
        assert_eq!(run("crates/tcp/src/x.rs", src), vec!["P002"]);
        let allowed = "let w = cwnd >> wscale; // acdc-lint: allow(P002)\n";
        assert!(run("crates/tcp/src/x.rs", allowed).is_empty());
        let above = "// acdc-lint: allow(P002)\nlet w = cwnd >> wscale;\n";
        assert!(run("crates/tcp/src/x.rs", above).is_empty());
        let other = "let w = cwnd >> wscale; // acdc-lint: allow(P003)\n";
        assert_eq!(run("crates/tcp/src/x.rs", other), vec!["P002"]);
    }

    #[test]
    fn comment_mentions_do_not_fire() {
        let src = "// cwnd >> wscale would be wrong here\nlet x = 1;\n";
        assert!(run("crates/tcp/src/x.rs", src).is_empty());
    }

    #[test]
    fn h001_detects_missing_forbid() {
        let f = SourceFile::scan("pub fn f() {}\n");
        let mut out = Vec::new();
        lint_crate_root("crates/foo/src/lib.rs", &f, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule.id, "H001");
        let ok = SourceFile::scan("#![forbid(unsafe_code)]\npub fn f() {}\n");
        out.clear();
        lint_crate_root("crates/foo/src/lib.rs", &ok, &mut out);
        assert!(out.is_empty());
    }
}
