//! Lint: static lock-acquisition-order graph.
//!
//! Walks each file's token stream, tracks
//! `let g = <recv>.lock()/.read()/.write()` guard bindings per brace
//! depth (the same lexical discipline as the lock-hygiene lint), and
//! records an edge `A → B` whenever lock `B` is acquired while a guard
//! on `A` is still live. Cycles in the accumulated graph are ordering
//! violations: two threads taking the locks in opposite orders can
//! deadlock.
//!
//! Lock identity is the receiver chain with a leading `self` dropped
//! (`self.peers.lock()` → `peers`), scoped per crate. Only zero-arg
//! `.lock()`/`.read()`/`.write()` calls count, which keeps
//! `io::Read::read(&mut buf)`-style methods out of the graph.

use crate::lexer::{self, in_regions, Token, TokenKind};
use crate::{line_of, Finding, SourceFile};
use std::collections::{BTreeMap, BTreeSet};

/// Crates whose library code feeds the graph (the parking_lot users).
pub const CHECKED_CRATES: [&str; 2] = ["net", "telemetry"];

const ACQUIRE: [&str; 3] = ["lock", "read", "write"];

/// One observed held→acquired pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Edge {
    /// Lock already held (crate-scoped receiver chain).
    pub from: String,
    /// Lock acquired while `from` was held.
    pub to: String,
    /// Repo-relative path of the acquisition site.
    pub path: String,
    /// 1-based line of the acquisition site.
    pub line: usize,
}

struct Guard {
    name: String,
    lock: String,
    depth: usize,
}

/// Walks back from the `.` at `code[dot]` collecting the receiver chain
/// (`self.state.inner` → `state.inner`). Empty when the receiver is not
/// a plain ident chain (e.g. a call result).
pub(crate) fn receiver_chain(code: &[&Token<'_>], dot: usize) -> Option<String> {
    let mut parts: Vec<&str> = Vec::new();
    let mut k = dot; // index of a `.`
    loop {
        let ident = k.checked_sub(1).and_then(|i| code.get(i))?;
        if ident.kind != TokenKind::Ident {
            return None;
        }
        parts.push(ident.text);
        match k.checked_sub(2).and_then(|i| code.get(i)) {
            Some(prev) if prev.is_punct('.') => k -= 2,
            _ => break,
        }
    }
    parts.reverse();
    if parts.first() == Some(&"self") {
        parts.remove(0);
    }
    if parts.is_empty() {
        None
    } else {
        Some(parts.join("."))
    }
}

/// Extracts held→acquired edges from one file (test code excluded).
/// `krate` scopes lock identities so unrelated crates cannot alias.
pub fn extract_edges(krate: &str, path: &str, content: &str) -> Vec<Edge> {
    let tokens = lexer::tokenize(content);
    let code: Vec<&Token<'_>> = lexer::code(&tokens);
    let regions = lexer::test_regions(&tokens);
    let mut edges = Vec::new();
    let mut guards: Vec<Guard> = Vec::new();
    let mut depth = 0usize;
    let mut stmt_start = 0usize; // token index of the current statement

    let mut i = 0;
    while i < code.len() {
        let t = code[i];
        if t.is_punct('{') {
            depth += 1;
            stmt_start = i + 1;
        } else if t.is_punct('}') {
            depth = depth.saturating_sub(1);
            guards.retain(|g| g.depth <= depth);
            stmt_start = i + 1;
        } else if t.is_punct(';') {
            stmt_start = i + 1;
        } else if t.is_ident("drop")
            && code.get(i + 1).is_some_and(|n| n.is_punct('('))
            && code.get(i + 3).is_some_and(|n| n.is_punct(')'))
        {
            if let Some(arg) = code.get(i + 2).filter(|a| a.kind == TokenKind::Ident) {
                guards.retain(|g| g.name != arg.text);
            }
        } else if t.is_punct('.')
            && code
                .get(i + 1)
                .is_some_and(|m| m.kind == TokenKind::Ident && ACQUIRE.contains(&m.text))
            && code.get(i + 2).is_some_and(|n| n.is_punct('('))
            && code.get(i + 3).is_some_and(|n| n.is_punct(')'))
            && !in_regions(t.start, &regions)
        {
            if let Some(chain) = receiver_chain(&code, i) {
                let lock = format!("{krate}:{chain}");
                for g in &guards {
                    if g.lock != lock {
                        edges.push(Edge {
                            from: g.lock.clone(),
                            to: lock.clone(),
                            path: path.to_string(),
                            line: line_of(content, t.start),
                        });
                    }
                }
                // `let [mut] name = <recv>.lock()` binds a live guard.
                let recv_start = i + 1 - 2 * chain_len(&code, i);
                if let Some(name) = let_binding(&code, stmt_start, recv_start) {
                    guards.push(Guard { name, lock, depth });
                }
            }
        }
        i += 1;
    }
    edges
}

/// Number of `ident .` pairs in the receiver chain ending at the `.`
/// at `dot` (counting the `self` segment if present).
fn chain_len(code: &[&Token<'_>], dot: usize) -> usize {
    let mut n = 0;
    let mut k = dot;
    loop {
        match k.checked_sub(1).and_then(|i| code.get(i)) {
            Some(id) if id.kind == TokenKind::Ident => n += 1,
            _ => break,
        }
        match k.checked_sub(2).and_then(|i| code.get(i)) {
            Some(prev) if prev.is_punct('.') => k -= 2,
            _ => break,
        }
    }
    n
}

/// When the tokens from `stmt_start` to `recv_start` are exactly
/// `let [mut] name =`, returns `name`.
fn let_binding(code: &[&Token<'_>], stmt_start: usize, recv_start: usize) -> Option<String> {
    let head: Vec<&&Token<'_>> = code.get(stmt_start..recv_start)?.iter().collect();
    match head.as_slice() {
        [l, n, eq] if l.is_ident("let") && n.kind == TokenKind::Ident && eq.is_punct('=') => {
            Some(n.text.to_string())
        }
        [l, m, n, eq]
            if l.is_ident("let")
                && m.is_ident("mut")
                && n.kind == TokenKind::Ident
                && eq.is_punct('=') =>
        {
            Some(n.text.to_string())
        }
        _ => None,
    }
}

/// Runs the lint: builds the workspace acquisition graph and reports
/// every cycle as a finding.
pub fn run(files: &[SourceFile]) -> Vec<Finding> {
    let mut edges: Vec<Edge> = Vec::new();
    for file in files {
        if let Some(krate) = file.crate_name() {
            if CHECKED_CRATES.contains(&krate) && file.is_library_code() {
                edges.extend(extract_edges(krate, &file.path, &file.content));
            }
        }
    }
    findings_from_edges(&edges)
}

/// Cycle detection over an explicit edge list (exposed for tests).
pub fn findings_from_edges(edges: &[Edge]) -> Vec<Finding> {
    let mut adj: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    let mut site: BTreeMap<(&str, &str), (&str, usize)> = BTreeMap::new();
    for e in edges {
        adj.entry(&e.from).or_default().insert(&e.to);
        site.entry((&e.from, &e.to)).or_insert((&e.path, e.line));
    }

    // DFS with an explicit stack path; a back edge into the current
    // path closes a cycle. Each cycle is reported once, keyed by its
    // sorted node set.
    let mut findings = Vec::new();
    let mut reported: BTreeSet<Vec<&str>> = BTreeSet::new();
    let nodes: Vec<&str> = adj.keys().copied().collect();
    for &start in &nodes {
        let mut path: Vec<&str> = vec![start];
        dfs(start, &adj, &mut path, &mut reported, &site, &mut findings);
    }
    findings
}

fn dfs<'a>(
    node: &'a str,
    adj: &BTreeMap<&'a str, BTreeSet<&'a str>>,
    path: &mut Vec<&'a str>,
    reported: &mut BTreeSet<Vec<&'a str>>,
    site: &BTreeMap<(&'a str, &'a str), (&'a str, usize)>,
    findings: &mut Vec<Finding>,
) {
    let Some(nexts) = adj.get(node) else {
        return;
    };
    for &next in nexts {
        if let Some(pos) = path.iter().position(|&n| n == next) {
            let cycle: Vec<&str> = path[pos..].to_vec();
            let mut key = cycle.clone();
            key.sort_unstable();
            if reported.insert(key) {
                let (p, line) = site.get(&(node, next)).copied().unwrap_or(("", 0));
                let shown: Vec<&str> = cycle.iter().chain([&next]).copied().collect();
                findings.push(Finding {
                    lint: "lock-order",
                    path: p.to_string(),
                    line,
                    message: format!(
                        "lock-order cycle: {} — acquire these locks in one global order",
                        shown.join(" -> ")
                    ),
                });
            }
            continue;
        }
        if path.len() > 64 {
            continue; // defensive bound; real graphs are tiny
        }
        path.push(next);
        dfs(next, adj, path, reported, site, findings);
        path.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn edges(src: &str) -> Vec<(String, String)> {
        extract_edges("net", "crates/net/src/tcp.rs", src)
            .into_iter()
            .map(|e| (e.from, e.to))
            .collect()
    }

    #[test]
    fn nested_acquisition_records_edge() {
        let src = "fn f(&self) {\n    let a = self.peers.lock();\n    let b = self.stats.lock();\n    drop(b);\n    drop(a);\n}\n";
        assert_eq!(
            edges(src),
            vec![("net:peers".to_string(), "net:stats".to_string())]
        );
    }

    #[test]
    fn scope_exit_and_drop_release_guards() {
        let src = "fn f(&self) {\n    { let a = self.peers.lock(); let _ = a; }\n    let b = self.stats.lock();\n    drop(b);\n    let c = self.peers.read();\n    let _ = c;\n}\n";
        assert!(edges(src).is_empty(), "{:?}", edges(src));
    }

    #[test]
    fn io_style_calls_with_args_are_ignored() {
        let src = "fn f(&self, buf: &mut [u8]) {\n    let a = self.peers.lock();\n    self.file.read(buf);\n    self.file.write(buf);\n}\n";
        assert!(edges(src).is_empty(), "{:?}", edges(src));
    }

    #[test]
    fn consistent_order_is_clean_inverted_order_cycles() {
        let consistent = vec![
            Edge {
                from: "net:a".into(),
                to: "net:b".into(),
                path: "p.rs".into(),
                line: 1,
            },
            Edge {
                from: "net:b".into(),
                to: "net:c".into(),
                path: "p.rs".into(),
                line: 2,
            },
            Edge {
                from: "net:a".into(),
                to: "net:c".into(),
                path: "p.rs".into(),
                line: 3,
            },
        ];
        assert!(findings_from_edges(&consistent).is_empty());

        let inverted = vec![
            Edge {
                from: "net:a".into(),
                to: "net:b".into(),
                path: "p.rs".into(),
                line: 1,
            },
            Edge {
                from: "net:b".into(),
                to: "net:a".into(),
                path: "q.rs".into(),
                line: 9,
            },
        ];
        let got = findings_from_edges(&inverted);
        assert_eq!(got.len(), 1, "{got:?}");
        assert!(got[0].message.contains("cycle"));
        assert!(got[0].message.contains("net:a"));
    }

    #[test]
    fn end_to_end_cycle_from_source() {
        let src = "fn f(&self) {\n    let a = self.peers.lock();\n    let b = self.stats.lock();\n    drop(b); drop(a);\n}\nfn g(&self) {\n    let b = self.stats.lock();\n    let a = self.peers.lock();\n    drop(a); drop(b);\n}\n";
        let got = run(&[SourceFile::new("crates/net/src/tcp.rs", src)]);
        assert_eq!(got.len(), 1, "{got:?}");
        assert!(got[0].message.contains("lock-order cycle"));
        // The broker crate holds no lock and is not scanned.
        assert!(run(&[SourceFile::new("crates/broker/src/x.rs", src)]).is_empty());
    }

    #[test]
    fn test_code_is_exempt() {
        let files = vec![SourceFile::new(
            "crates/net/src/tcp.rs",
            "#[cfg(test)]\nmod tests {\n    fn t(&self) {\n        let b = self.stats.lock();\n        let a = self.peers.lock();\n        drop(a); drop(b);\n        let a2 = self.peers.lock();\n        let b2 = self.stats.lock();\n        drop(b2); drop(a2);\n    }\n}\n",
        )];
        assert!(run(&files).is_empty());
    }
}
