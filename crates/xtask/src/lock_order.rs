//! Lexical lock-order analysis (rule W002).
//!
//! The other rules are line-local token matches; this one has to know
//! *which lock guards are live* when a table call or an event publish
//! happens, across lines. It works on the same comment/string-stripped
//! code channel from [`crate::scan`], with no type inference: a guard
//! from `let g = x.lock();` lives until its enclosing scope closes or a
//! `drop(g)` appears.

use crate::scan::SourceFile;

fn is_ident(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// What a live guard is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum GuardKind {
    /// A flow-entry mutex guard (`….lock()`), or the implicit per-entry
    /// lock a `for_each` closure body runs under.
    Entry,
    /// A shard `RwLock` guard (`….read()` / `….write()`), or the implicit
    /// shard lock a `with_entry*` / `get_or_create` / `for_each_slot`
    /// closure runs under.
    Shard,
}

#[derive(Debug)]
struct Guard {
    name: Option<String>,
    kind: GuardKind,
    /// The guard dies when nesting depth drops below this.
    drop_below: i32,
}

/// A W002 candidate: `(1-based line, message)`.
pub(crate) type LockFinding = (usize, String);

/// Tokens that re-enter the flow table: its whole closure-taking API.
/// Each takes shard locks and holds one across its closure.
const TABLE_TOKENS: &[&str] = &[
    "with_entry_or_create",
    "with_entry",
    "get_or_create",
    "for_each",
    "for_each_slot",
];

/// Lexical lock-order pass over one file. Tracks `let g = ….lock()` /
/// `.read()` / `.write()` guard bindings (combined brace/paren/bracket
/// nesting depth) plus the implicit locks held across `with_entry*` /
/// `get_or_create` / `for_each` / `for_each_slot` closures, and reports:
///
/// * a flow-entry `.lock()` while another entry guard is live
///   (unordered entry→entry nesting — the classic AB/BA deadlock);
/// * a table re-entry (`with_entry*`, `get_or_create`, `for_each*`,
///   `.gc(`, `.clear(`) while an entry or shard guard is live;
/// * an event-bus publish (`.record(`, `.publish(`) while an entry
///   guard is live.
pub(crate) fn lock_order(file: &SourceFile) -> Vec<LockFinding> {
    let mut findings = Vec::new();
    let mut depth: i32 = 0;
    let mut guards: Vec<Guard> = Vec::new();

    for (idx, line) in file.lines.iter().enumerate() {
        let lineno = idx + 1;
        let code = line.code.as_str();
        if code.trim().is_empty() {
            continue;
        }
        let line_start_depth = depth;
        let let_name = let_binding_name(code);

        let bytes = code.as_bytes();
        let mut i = 0usize;
        while i < bytes.len() {
            let c = bytes[i] as char;
            match c {
                '{' | '(' | '[' => depth += 1,
                '}' | ')' | ']' => {
                    depth -= 1;
                    guards.retain(|g| depth >= g.drop_below);
                }
                _ => {}
            }

            // `drop(name)` ends a guard early.
            if token_at(code, i, "drop") && code[i + 4..].trim_start().starts_with('(') {
                let arg_start = i + 4 + code[i + 4..].find('(').unwrap() + 1;
                let name: String = code[arg_start..]
                    .trim_start()
                    .chars()
                    .take_while(|&c| is_ident(c))
                    .collect();
                guards.retain(|g| g.name.as_deref() != Some(name.as_str()));
            }

            let entry_live = guards.iter().any(|g| g.kind == GuardKind::Entry);
            let any_live = !guards.is_empty();

            if code[i..].starts_with(".lock()") {
                if entry_live {
                    findings.push((
                        lineno,
                        "flow-entry lock acquired while another entry guard is live \
                         (unordered entry→entry nesting deadlocks under contention); \
                         release the first guard before locking the second entry"
                            .to_string(),
                    ));
                }
                // Register a persistent guard only for a statement-level
                // `let g = ….lock();` (a `.lock()` nested in call
                // arguments yields a temporary that dies with the
                // statement).
                if let (Some(name), true) = (&let_name, depth == line_start_depth) {
                    guards.push(Guard {
                        name: Some(name.clone()),
                        kind: GuardKind::Entry,
                        drop_below: line_start_depth,
                    });
                }
                i += ".lock()".len();
                continue;
            }
            if code[i..].starts_with(".read()") || code[i..].starts_with(".write()") {
                if entry_live {
                    findings.push((
                        lineno,
                        "shard lock acquired while a flow-entry guard is live \
                         (the sanctioned order is shard→entry; inverting it \
                         deadlocks against the per-packet path)"
                            .to_string(),
                    ));
                }
                if let (Some(name), true) = (&let_name, depth == line_start_depth) {
                    guards.push(Guard {
                        name: Some(name.clone()),
                        kind: GuardKind::Shard,
                        drop_below: line_start_depth,
                    });
                }
                i += ".read()".len();
                continue;
            }

            if let Some(tok) = TABLE_TOKENS.iter().find(|t| token_at(code, i, t)) {
                if any_live {
                    findings.push((
                        lineno,
                        format!(
                            "`{tok}` re-enters the flow table while a lock guard is \
                             live; table ops take shard locks, so this nests \
                             lock acquisitions the worker model cannot order"
                        ),
                    ));
                }
                // The closure argument runs under the table's own lock:
                // model it as an implicit guard scoped to the call's
                // parentheses.
                let kind = if *tok == "for_each" {
                    GuardKind::Entry // for_each holds shard *and* entry locks
                } else {
                    GuardKind::Shard
                };
                i += tok.len();
                if let Some(rel) = code[i..].find('(') {
                    if code[i..i + rel].trim().is_empty() {
                        i += rel + 1;
                        depth += 1;
                        guards.push(Guard {
                            name: None,
                            kind,
                            drop_below: depth,
                        });
                    }
                }
                continue;
            }
            if (code[i..].starts_with(".gc(") || code[i..].starts_with(".clear(")) && any_live {
                findings.push((
                    lineno,
                    "table maintenance call while a lock guard is live; \
                     gc/clear take every shard writer lock in turn"
                        .to_string(),
                ));
            }
            if (code[i..].starts_with(".record(") || code[i..].starts_with(".publish("))
                && entry_live
            {
                findings.push((
                    lineno,
                    "event-bus publish while a flow-entry guard is live; \
                     publishing takes the telemetry lock, extending the \
                     per-flow critical section and ordering it against an \
                     unrelated subsystem — buffer the event and publish \
                     after the guard drops"
                        .to_string(),
                ));
            }

            i += 1;
        }
    }
    findings
}

/// `let [mut] NAME =` at the start of a (trimmed) line → `NAME`.
fn let_binding_name(code: &str) -> Option<String> {
    let t = code.trim_start();
    let rest = t.strip_prefix("let ")?;
    let rest = rest.strip_prefix("mut ").unwrap_or(rest);
    let name: String = rest.chars().take_while(|&c| is_ident(c)).collect();
    if name.is_empty() {
        return None;
    }
    let after = rest[name.len()..].trim_start();
    (after.starts_with('=') || after.starts_with(':')).then_some(name)
}

/// Is `tok` present at byte offset `at` with identifier boundaries?
fn token_at(code: &str, at: usize, tok: &str) -> bool {
    if !code[at..].starts_with(tok) {
        return false;
    }
    let before_ok = at == 0 || !is_ident(code[..at].chars().next_back().unwrap());
    let after = at + tok.len();
    let after_ok = after >= code.len() || !is_ident(code[after..].chars().next().unwrap());
    before_ok && after_ok
}
#[cfg(test)]
mod tests {
    use super::*;

    fn locks(src: &str) -> Vec<LockFinding> {
        lock_order(&SourceFile::scan(src))
    }

    #[test]
    fn nested_entry_locks_fire() {
        let f = locks(
            "fn f(a: &FlowSlot, b: &FlowSlot) {\n\
             \x20   let ga = a.entry.lock();\n\
             \x20   let gb = b.entry.lock();\n\
             }\n",
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].0, 3);
    }

    #[test]
    fn sequential_scoped_locks_do_not_fire() {
        let f = locks(
            "fn f(a: &FlowSlot, b: &FlowSlot) {\n\
             \x20   {\n        let ga = a.entry.lock();\n    }\n\
             \x20   let gb = b.entry.lock();\n\
             }\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn drop_ends_a_guard() {
        let f = locks(
            "fn f(a: &FlowSlot, b: &FlowSlot) {\n\
             \x20   let ga = a.entry.lock();\n\
             \x20   drop(ga);\n\
             \x20   let gb = b.entry.lock();\n\
             }\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn shard_then_entry_is_sanctioned() {
        let f = locks(
            "fn f(&self) {\n\
             \x20   let shard = self.shards[0].read();\n\
             \x20   let e = slot.entry.lock();\n\
             }\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn table_reentry_under_entry_guard_fires() {
        let f = locks(
            "fn f(&self) {\n\
             \x20   let e = slot.entry.lock();\n\
             \x20   self.table.with_entry(&key, |s| s.rx_pending());\n\
             }\n",
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].1.contains("with_entry"));
    }

    #[test]
    fn publish_under_entry_guard_fires_inside_closures_too() {
        let f = locks(
            "fn f(&self) {\n\
             \x20   self.table.with_entry(&key, |slot| {\n\
             \x20       let mut e = slot.entry.lock();\n\
             \x20       self.telemetry.record(now, key, EventKind::FlowCreated);\n\
             \x20   });\n\
             }\n",
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].1.contains("publish"));
    }

    #[test]
    fn publish_after_closure_is_clean() {
        let f = locks(
            "fn f(&self) {\n\
             \x20   self.table.with_entry(&key, |slot| {\n\
             \x20       let mut e = slot.entry.lock();\n\
             \x20       e.rx_total += 1;\n\
             \x20   });\n\
             \x20   self.telemetry.record(now, key, EventKind::FlowCreated);\n\
             }\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn for_each_closure_counts_as_entry_locked() {
        let f = locks(
            "fn f(&self) {\n\
             \x20   self.table.for_each(|key, e| {\n\
             \x20       self.telemetry.record(now, *key, EventKind::FlowCreated);\n\
             \x20   });\n\
             }\n",
        );
        assert_eq!(f.len(), 1, "{f:?}");
    }

    #[test]
    fn for_each_slot_closure_counts_as_shard_locked() {
        // The checkpoint walk: locking the visited entry is the sanctioned
        // shard→entry order, re-entering the table under it is not.
        let f = locks(
            "fn f(&self) {\n\
             \x20   self.table.for_each_slot(|key, slot| {\n\
             \x20       out.push(slot.lock().checkpoint_state());\n\
             \x20       self.table.with_entry(&key.reverse(), |s| s.rx_pending());\n\
             \x20   });\n\
             }\n",
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].0, 4);
        assert!(f[0].1.contains("with_entry"));
    }

    #[test]
    fn temporary_guard_in_closure_does_not_leak() {
        // `slot.entry.lock().closing = true` inside a with_entry closure:
        // entry-under-shard is the sanctioned order, nothing fires.
        let f = locks(
            "fn f(&self) {\n\
             \x20   self.table.with_entry(&k, |slot| slot.entry.lock().closing = true);\n\
             }\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }
}
