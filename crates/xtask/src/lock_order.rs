//! Lexical lock-order analysis (rule W002).
//!
//! The other rules are line-local token matches; this one has to know
//! *which lock guards are live* when a table call or an event publish
//! happens, across lines. It works on the same comment/string-stripped
//! code channel from [`crate::scan`], with no type inference: a guard
//! from `let g = x.lock();` lives until its enclosing scope closes or a
//! `drop(g)` appears, and the closure argument of every table call runs
//! under the table lock that guards the entry it is handed.

use crate::scan::SourceFile;

fn is_ident(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// A live lock guard: a `let` binding of `….lock()`, or the table lock a
/// table call holds across its closure argument (`name: None`).
#[derive(Debug)]
struct Guard {
    name: Option<String>,
    /// The guard dies when nesting depth drops below this.
    drop_below: i32,
}

/// A W002 candidate: `(1-based line, message)`.
pub(crate) type LockFinding = (usize, String);

/// Tokens that enter the flow table: its whole closure-taking API. Each
/// holds the table lock across its closure arguments, each of which is
/// handed an entry (the `with_connection` pair has two: `key`'s
/// direction, then the reverse).
const TABLE_TOKENS: &[&str] = &[
    "with_entry_or_create",
    "with_entry",
    "with_connection_or_create",
    "with_connection",
    "get_or_create",
    "for_each",
];

/// Lexical lock-order pass over one file. Tracks `let g = ….lock()`
/// guard bindings (combined brace/paren/bracket nesting depth) plus the
/// table lock held across the closures of every `with_entry*` /
/// `with_connection*` / `get_or_create` / `for_each` call, and reports,
/// while any guard is live:
///
/// * another `.lock()` (lock nesting — an AB/BA deadlock between two
///   locks, or a self-deadlock on the one non-re-entrant table lock);
/// * a table re-entry (`with_entry*`, `with_connection*`,
///   `get_or_create`, `for_each`, `.gc(`, `.clear(`), which takes the
///   table lock;
/// * an event-bus publish (`.record(`, `.publish(`), which takes the
///   telemetry lock inside the per-flow critical section.
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

            let live = !guards.is_empty();

            if code[i..].starts_with(".lock()") {
                if live {
                    findings.push((
                        lineno,
                        "lock acquired while another lock guard is live \
                         (unordered nesting deadlocks under contention); \
                         release the first guard before taking the second"
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
                        drop_below: line_start_depth,
                    });
                }
                i += ".lock()".len();
                continue;
            }

            if let Some(tok) = TABLE_TOKENS.iter().find(|t| token_at(code, i, t)) {
                if live {
                    findings.push((
                        lineno,
                        format!(
                            "`{tok}` re-enters the flow table while a lock guard is \
                             live; table ops take the table lock, so this nests \
                             lock acquisitions the worker model cannot order"
                        ),
                    ));
                }
                // The closure argument runs under the table lock:
                // model it as an implicit guard scoped to the call's
                // parentheses.
                i += tok.len();
                if let Some(rel) = code[i..].find('(') {
                    if code[i..i + rel].trim().is_empty() {
                        i += rel + 1;
                        depth += 1;
                        guards.push(Guard {
                            name: None,
                            drop_below: depth,
                        });
                    }
                }
                continue;
            }
            if (code[i..].starts_with(".gc(") || code[i..].starts_with(".clear(")) && live {
                findings.push((
                    lineno,
                    "table maintenance call while a lock guard is live; \
                     gc/clear take the table lock"
                        .to_string(),
                ));
            }
            if (code[i..].starts_with(".record(") || code[i..].starts_with(".publish(")) && live {
                findings.push((
                    lineno,
                    "event-bus publish while a lock guard is live; \
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
    fn nested_locks_fire() {
        let f = locks(
            "fn f(a: &Mutex<Shard>, b: &Mutex<Shard>) {\n\
             \x20   let ga = a.lock();\n\
             \x20   let gb = b.lock();\n\
             }\n",
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].0, 3);
    }

    #[test]
    fn sequential_scoped_locks_do_not_fire() {
        let f = locks(
            "fn f(a: &Mutex<Shard>, b: &Mutex<Shard>) {\n\
             \x20   {\n        let ga = a.lock();\n    }\n\
             \x20   let gb = b.lock();\n\
             }\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn drop_ends_a_guard() {
        let f = locks(
            "fn f(a: &Mutex<Shard>, b: &Mutex<Shard>) {\n\
             \x20   let ga = a.lock();\n\
             \x20   drop(ga);\n\
             \x20   let gb = b.lock();\n\
             }\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn table_reentry_under_a_guard_fires() {
        let f = locks(
            "fn f(&self) {\n\
             \x20   let shard = self.shards[0].lock();\n\
             \x20   self.table.with_entry(&key, |e| e.rx_pending());\n\
             }\n",
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].1.contains("with_entry"));
    }

    #[test]
    fn publish_inside_an_entry_closure_fires() {
        // The closure's own shard lock is the entry guard: no explicit
        // `.lock()` is needed for the publish to nest under it.
        for call in [
            "with_entry(&key, |e| {",
            "with_entry_or_create(key, init, |e| {",
        ] {
            let f = locks(&format!(
                "fn f(&self) {{\n\
                 \x20   self.table.{call}\n\
                 \x20       e.closing = true;\n\
                 \x20       self.telemetry.record(now, key, EventKind::FlowCreated);\n\
                 \x20   }});\n\
                 }}\n"
            ));
            assert_eq!(f.len(), 1, "{call}: {f:?}");
            assert_eq!(f[0].0, 4);
            assert!(f[0].1.contains("publish"));
        }
    }

    #[test]
    fn publish_inside_either_closure_of_a_connection_call_fires() {
        // The shard lock spans the whole call: the reverse direction's
        // closure is as much an entry guard as the first one.
        for call in [
            "with_connection(&key, |e| e.closing = true, |_, re| {",
            "with_connection_or_create(key, init, |e| e.rx_total += 1, |_, re| {",
        ] {
            let f = locks(&format!(
                "fn f(&self) {{\n\
                 \x20   self.table.{call}\n\
                 \x20       self.telemetry.record(now, key, EventKind::FlowCreated);\n\
                 \x20   }});\n\
                 \x20   self.telemetry.record(now, key, EventKind::FlowCreated);\n\
                 }}\n"
            ));
            assert_eq!(f.len(), 1, "{call}: {f:?}");
            assert_eq!(f[0].0, 3);
            assert!(f[0].1.contains("publish"));
        }
    }

    #[test]
    fn publish_after_closure_is_clean() {
        let f = locks(
            "fn f(&self) {\n\
             \x20   let fired = self.table.with_entry(&key, |e| {\n\
             \x20       e.rx_total += 1;\n\
             \x20       e.closing\n\
             \x20   });\n\
             \x20   self.telemetry.record(now, key, EventKind::FlowCreated);\n\
             }\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn for_each_closure_counts_as_locked() {
        let f = locks(
            "fn f(&self) {\n\
             \x20   self.table.for_each(|key, e| {\n\
             \x20       out.push(e.checkpoint_state());\n\
             \x20       self.table.with_entry(&key.reverse(), |r| r.rx_pending());\n\
             \x20       self.telemetry.record(now, *key, EventKind::FlowCreated);\n\
             \x20   });\n\
             }\n",
        );
        assert_eq!(f.len(), 2, "{f:?}");
        assert_eq!((f[0].0, f[1].0), (4, 5));
        assert!(f[0].1.contains("with_entry"));
    }

    #[test]
    fn closure_guard_ends_with_its_call() {
        let f = locks(
            "fn f(&self) {\n\
             \x20   self.table.with_entry(&k, |e| e.closing = true);\n\
             \x20   self.table.with_entry(&k.reverse(), |e| e.closing = true);\n\
             \x20   self.table.gc(now, idle);\n\
             }\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }
}
