//! Lint: lock hygiene.
//!
//! Two rules:
//!
//! 1. First-party crates must use `parking_lot::{Mutex, RwLock}`, never
//!    `std::sync::{Mutex, RwLock}` — the std variants poison.
//! 2. In the net crate (the TCP backend's accept/reader threads), a
//!    lock guard must not be held while waking or waiting for another
//!    thread: across a doorbell `ring` (the woken driver's first act is
//!    to take the inbox lock the ringer would still hold) or a channel
//!    `send`/`recv` (channel peers may block on the same lock, which
//!    turns a slow consumer into a deadlock).
//!
//! Rule 2 is a lexical heuristic: it tracks `let g = ...lock()/read()/
//! write()...;` bindings per brace depth and flags any `.ring(`/
//! `.send(`/`.recv(`/`.recv_timeout(`/`.try_recv(` before the guard's
//! scope ends or an explicit `drop(g)`.

use crate::source::{mask, match_brace};
use crate::{line_of, Finding, SourceFile};

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Rule 1: std sync primitive usage in any first-party crate.
pub fn check_std_sync(files: &[SourceFile]) -> Vec<Finding> {
    let mut findings = Vec::new();
    for file in files {
        if file.crate_name().is_none() {
            continue;
        }
        let masked = mask(&file.content);
        for needle in ["std::sync::Mutex", "std::sync::RwLock"] {
            let mut from = 0;
            while let Some(rel) = masked[from..].find(needle) {
                let at = from + rel;
                findings.push(Finding {
                    lint: "lock-hygiene",
                    path: file.path.clone(),
                    line: line_of(&file.content, at),
                    message: format!("`{needle}` is forbidden — use the parking_lot equivalent"),
                });
                from = at + needle.len();
            }
        }
        // `use std::sync::{..., Mutex, ...}` grouped imports.
        let mut from = 0;
        while let Some(rel) = masked[from..].find("use std::sync::{") {
            let at = from + rel;
            let open = at + "use std::sync::{".len() - 1;
            let end = masked[open..].find('}').map_or(masked.len(), |e| open + e);
            let group = &masked[open..end];
            for name in ["Mutex", "RwLock"] {
                if group.split([',', '{', '}']).any(|part| part.trim() == name) {
                    findings.push(Finding {
                        lint: "lock-hygiene",
                        path: file.path.clone(),
                        line: line_of(&file.content, at),
                        message: format!(
                            "`std::sync::{name}` is forbidden — use the parking_lot equivalent"
                        ),
                    });
                }
            }
            from = end;
        }
    }
    findings.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    findings
}

/// One tracked guard binding.
struct Guard {
    name: String,
    depth: usize,
    line: usize,
}

const ACQUIRE: [&str; 3] = [".lock", ".read", ".write"];
const CHANNEL_OPS: [&str; 5] = [".ring", ".send", ".recv", ".recv_timeout", ".try_recv"];

/// True when `masked[at..]` starts a call of `needle` as a full method
/// name (e.g. `.read()` but not `.read_volatile()`).
fn method_call_at(masked: &str, at: usize, needle: &str) -> bool {
    if !masked[at..].starts_with(needle) {
        return false;
    }
    let after = at + needle.len();
    let bytes = masked.as_bytes();
    if bytes.get(after).copied().is_some_and(is_ident_byte) {
        return false;
    }
    // Allow whitespace between name and `(` (rustfmt never does, but
    // cheap to accept).
    let mut j = after;
    while bytes
        .get(j)
        .copied()
        .is_some_and(|b| b == b' ' || b == b'\n')
    {
        j += 1;
    }
    bytes.get(j) == Some(&b'(')
}

/// Rule 2: guard held across a doorbell or channel operation, per file.
///
/// Scans net-crate library code. Returns `(guard, channel op)`
/// findings.
pub fn check_guard_across_channel(files: &[SourceFile]) -> Vec<Finding> {
    let mut findings = Vec::new();
    for file in files {
        if file.crate_name() != Some("net") || !file.is_library_code() {
            continue;
        }
        findings.extend(scan_file(&file.path, &file.content));
    }
    findings
}

/// The per-file scanner behind [`check_guard_across_channel`], exposed
/// separately so tests can feed synthetic snippets under any path.
pub fn scan_file(path: &str, content: &str) -> Vec<Finding> {
    let masked = mask(content);
    let bytes = masked.as_bytes();
    let mut findings = Vec::new();
    let mut guards: Vec<Guard> = Vec::new();
    let mut depth = 0usize;
    let mut stmt_start = 0usize; // start of the current statement
    let mut i = 0;

    while i < bytes.len() {
        match bytes[i] {
            b'{' => {
                depth += 1;
                stmt_start = i + 1;
                i += 1;
            }
            b'}' => {
                depth = depth.saturating_sub(1);
                guards.retain(|g| g.depth <= depth);
                stmt_start = i + 1;
                i += 1;
            }
            b';' => {
                stmt_start = i + 1;
                i += 1;
            }
            b'.' => {
                let mut matched = false;
                for needle in ACQUIRE {
                    if method_call_at(&masked, i, needle) {
                        // Bound to a name, or a temporary? Look back to
                        // the statement start for `let <name>`.
                        let stmt = &masked[stmt_start..i];
                        if let Some(name) = let_binding_name(stmt) {
                            guards.push(Guard {
                                name,
                                depth,
                                line: line_of(content, i),
                            });
                        } else {
                            // Temporary guard: lives to the end of this
                            // statement; check it for channel calls.
                            let end = statement_end(bytes, i);
                            for op in CHANNEL_OPS {
                                let mut from = i;
                                while let Some(rel) = masked[from..end].find(op) {
                                    let at = from + rel;
                                    if method_call_at(&masked, at, op) {
                                        findings.push(Finding {
                                            lint: "lock-hygiene",
                                            path: path.to_string(),
                                            line: line_of(content, at),
                                            message: format!(
                                                "temporary lock guard (acquired line {}) held across `{}` — split the statement and drop the guard first",
                                                line_of(content, i), &op[1..]
                                            ),
                                        });
                                    }
                                    from = at + op.len();
                                }
                            }
                        }
                        i += needle.len();
                        matched = true;
                        break;
                    }
                }
                if matched {
                    continue;
                }
                for op in CHANNEL_OPS {
                    if method_call_at(&masked, i, op) && !guards.is_empty() {
                        for g in &guards {
                            findings.push(Finding {
                                lint: "lock-hygiene",
                                path: path.to_string(),
                                line: line_of(content, i),
                                message: format!(
                                    "lock guard `{}` (acquired line {}) held across `{}` — drop it first",
                                    g.name, g.line, &op[1..]
                                ),
                            });
                        }
                        break;
                    }
                }
                i += 1;
            }
            b'd' if masked[i..].starts_with("drop") => {
                // `drop(name)` releases a tracked guard early.
                let prev_ok = i == 0 || !is_ident_byte(bytes[i - 1]);
                let after = i + 4;
                if prev_ok && bytes.get(after) == Some(&b'(') {
                    let end = masked[after..]
                        .find(')')
                        .map_or(masked.len(), |e| after + e);
                    let arg = masked[after + 1..end].trim().to_string();
                    guards.retain(|g| g.name != arg);
                    i = end;
                } else {
                    i += 1;
                }
            }
            _ => i += 1,
        }
    }
    findings
}

/// Extracts the bound name from a statement prefix like
/// `let mut guard = self.state` (the text before the acquiring call).
fn let_binding_name(stmt: &str) -> Option<String> {
    let stmt = stmt.trim_start();
    let rest = stmt.strip_prefix("let ")?;
    let rest = rest
        .trim_start()
        .strip_prefix("mut ")
        .unwrap_or(rest.trim_start());
    let name: String = rest
        .trim_start()
        .chars()
        .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
        .collect();
    // Destructuring or `_` bindings aren't guards we can track by name.
    if name.is_empty() || name == "_" {
        None
    } else {
        Some(name)
    }
}

/// End offset of the statement containing `at` (next `;` at any depth
/// below the enclosing braces, or the matching close brace).
fn statement_end(bytes: &[u8], at: usize) -> usize {
    let mut j = at;
    while j < bytes.len() {
        match bytes[j] {
            b';' => return j,
            b'{' => j = match_brace(bytes, j),
            b'}' => return j,
            _ => j += 1,
        }
    }
    bytes.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn std_mutex_fires() {
        let files = vec![SourceFile::new(
            "crates/broker/src/x.rs",
            "use std::sync::Mutex;\nuse std::sync::{Arc, RwLock};\nlet m: std::sync::Mutex<u8>;\n",
        )];
        let got = check_std_sync(&files);
        assert_eq!(got.len(), 3, "{got:?}");
        assert!(got.iter().all(|f| f.message.contains("parking_lot")));
    }

    #[test]
    fn std_arc_and_atomics_pass() {
        let files = vec![SourceFile::new(
            "crates/broker/src/x.rs",
            "use std::sync::Arc;\nuse std::sync::atomic::{AtomicBool, Ordering};\n",
        )];
        assert!(check_std_sync(&files).is_empty());
    }

    #[test]
    fn guard_across_send_fires() {
        let src = "fn f(&self) {\n    let stats = self.stats.lock();\n    self.tx.send(Msg::Ping).ok();\n}\n";
        let got = check_guard_across_channel(&[SourceFile::new("crates/net/src/tcp.rs", src)]);
        assert_eq!(got.len(), 1, "{got:?}");
        assert!(got[0].message.contains("`stats`"));
        assert_eq!(got[0].line, 3);
        // The broker crate holds no lock and no channel; it is not scanned.
        let files = [SourceFile::new("crates/broker/src/netdeploy.rs", src)];
        assert!(check_guard_across_channel(&files).is_empty());
    }

    #[test]
    fn ringing_the_doorbell_under_the_inbox_lock_fires() {
        let held = "fn deliver(&self) {\n    let mut events = self.events.lock();\n    events.append(batch);\n    self.bell.ring();\n}\n";
        let got = scan_file("crates/net/src/tcp.rs", held);
        assert_eq!(got.len(), 1, "{got:?}");
        assert!(got[0].message.contains("`events`") && got[0].message.contains("`ring`"));
        let released = "fn deliver(&self) {\n    let was_empty = {\n        let mut events = self.events.lock();\n        events.is_empty()\n    };\n    self.bell.ring();\n}\n";
        assert!(scan_file("crates/net/src/tcp.rs", released).is_empty());
    }

    #[test]
    fn dropped_guard_passes() {
        let src = "fn f(&self) {\n    let stats = self.stats.lock();\n    drop(stats);\n    self.tx.send(Msg::Ping).ok();\n}\n";
        assert!(scan_file("crates/net/src/tcp.rs", src).is_empty());
    }

    #[test]
    fn scoped_guard_passes() {
        let src = "fn f(&self) {\n    {\n        let stats = self.stats.lock();\n        stats.touch();\n    }\n    self.rx.recv().ok();\n}\n";
        assert!(scan_file("crates/net/src/tcp.rs", src).is_empty());
    }

    #[test]
    fn temporary_guard_in_send_expression_fires() {
        let src = "fn f(&self) {\n    self.peers.read().get(&k).map(|tx| tx.send(m));\n}\n";
        let got = scan_file("crates/net/src/tcp.rs", src);
        assert_eq!(got.len(), 1, "{got:?}");
        assert!(got[0].message.contains("temporary"));
    }

    #[test]
    fn unrelated_methods_pass() {
        let src = "fn f(&self) {\n    let all = self.readings.read_all();\n    self.tx.sender();\n    self.log.write_back();\n}\n";
        assert!(scan_file("crates/net/src/tcp.rs", src).is_empty());
    }
}
