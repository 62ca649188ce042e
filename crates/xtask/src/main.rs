//! CLI for the workspace lint pass. See `LINTS.md` for the rule catalog.
//!
//! Exit codes: 0 = clean, 1 = findings, 2 = usage or I/O error.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

use acdc_xtask::{find_workspace_root, rules, run_lint};

const USAGE: &str = "\
usage: acdc-xtask <command>

commands:
  lint [--root PATH]        run the workspace lint pass (default root: the
                            enclosing cargo workspace)
  list-rules                print the rule catalog
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => cmd_lint(&args[1..]),
        Some("list-rules") => {
            for rule in rules::catalog() {
                println!("{} ({}): {}", rule.id, rule.name, rule.summary);
            }
            ExitCode::SUCCESS
        }
        Some("--help") | Some("-h") | None => {
            print!("{USAGE}");
            ExitCode::from(if args.is_empty() { 2 } else { 0 })
        }
        Some(other) => {
            eprintln!("error: unknown command `{other}`\n\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn cmd_lint(args: &[String]) -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => match it.next() {
                Some(p) => root = Some(PathBuf::from(p)),
                None => {
                    eprintln!("error: --root requires a path");
                    return ExitCode::from(2);
                }
            },
            other => {
                eprintln!("error: unknown lint flag `{other}`");
                return ExitCode::from(2);
            }
        }
    }

    let root = match root {
        Some(r) => r,
        None => {
            let cwd = std::env::current_dir().expect("cwd");
            match find_workspace_root(&cwd) {
                Some(r) => r,
                None => {
                    eprintln!("error: no enclosing cargo workspace; pass --root");
                    return ExitCode::from(2);
                }
            }
        }
    };

    match run_lint(&root) {
        Ok(report) => {
            for finding in &report.findings {
                println!("{}", finding.render());
            }
            if report.is_clean() {
                eprintln!("acdc-xtask lint: {} files clean", report.files_scanned);
                ExitCode::SUCCESS
            } else {
                eprintln!(
                    "acdc-xtask lint: {} finding(s) across {} files",
                    report.findings.len(),
                    report.files_scanned
                );
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
