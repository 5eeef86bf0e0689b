//! Pass: unreserved growth inside subscription-scale loops
//! (DESIGN.md §9.3).
//!
//! The ROADMAP's bounded-memory claims (1M-subscription zoned
//! allocation) depend on collections sized up front: a `Vec::push`
//! per subscription into a vector that escapes the loop reallocates
//! O(log n) times and peaks at ~2× the final footprint. This pass
//! finds loops whose header or body mentions subscription/zone-scale
//! identifiers (the same `sub`/`zone`/`unit`/`gif`/`wave`/`partner`
//! fragments as the cancellation lint), and flags `.push(…)` /
//! `.insert(…)` calls on receivers bound *outside* the loop when the
//! function never calls `with_capacity`/`reserve`/`reserve_exact` for
//! that receiver.
//!
//! Scope is deliberately narrow: receivers rebound inside the loop
//! body are fresh per iteration and bounded by other means; `insert`
//! only counts when the receiver's type head is a known std
//! collection (set/map inserts on domain types are not growth).
//! Findings are tracked through the `growth.findings` ratchet counter
//! rather than hard-enforced.

use std::collections::BTreeMap;

use crate::cfg::Cfg;
use crate::lexer::{self, Token, TokenKind};
use crate::lock_order::receiver_chain;
use crate::parser::{self, FnItem};
use crate::{line_of, Finding, SourceFile};

/// Crates whose library code is checked (the runtime data path).
pub const CHECKED_CRATES: [&str; 7] = [
    "pubsub", "profile", "core", "broker", "simnet", "net", "workload",
];

/// Identifier fragments marking a loop as subscription/zone-scale.
const SCALE_KEYWORDS: &[&str] = &["sub", "zone", "unit", "gif", "wave", "partner"];

/// Growth methods; `insert` additionally requires a known collection.
const GROW: [&str; 2] = ["push", "insert"];

/// Type heads `insert` is trusted to mean growth on.
const COLLECTIONS: [&str; 6] = [
    "Vec", "VecDeque", "HashMap", "HashSet", "BTreeMap", "BTreeSet",
];

/// Capacity-establishing calls that silence the lint for a receiver.
const RESERVES: [&str; 3] = ["with_capacity", "reserve", "reserve_exact"];

/// What the function body tells us about one local binding.
#[derive(Debug, Default, Clone)]
struct BindInfo {
    /// Byte offset of the (last) `let` rebinding.
    decl: usize,
    /// Last path segment of the bound type, when inferable.
    type_head: Option<String>,
}

/// Runs the pass over the workspace sources.
pub fn run(files: &[SourceFile]) -> Vec<Finding> {
    let mut findings = Vec::new();
    for file in files {
        let Some(krate) = file.crate_name() else {
            continue;
        };
        if !CHECKED_CRATES.contains(&krate) || !file.is_library_code() {
            continue;
        }
        let parsed = parser::parse_file(file);
        let toks = lexer::tokenize(&file.content);
        let code = lexer::code(&toks);
        for item in &parsed.fns {
            if item.is_test {
                continue;
            }
            check_fn(file, item, &code, &mut findings);
        }
    }
    findings.sort_by(|a, b| (&a.path, a.line, &a.message).cmp(&(&b.path, b.line, &b.message)));
    findings.dedup();
    findings
}

fn check_fn(file: &SourceFile, item: &FnItem, code: &[&Token<'_>], out: &mut Vec<Finding>) {
    let Some(body) = item.body else { return };
    let cfg = Cfg::build(code, body, &file.content);
    if cfg.loops.is_empty() {
        return;
    }
    let lo = code.partition_point(|t| t.start < body.0);
    let hi = code.partition_point(|t| t.start < body.1);
    let body_code = &code[lo..hi];

    let binds = bindings(body_code);
    let reserved = reserved_names(body_code, &binds);

    for l in &cfg.loops {
        if !mentions_scale(body_code, l.start, l.body.1) {
            continue;
        }
        for (k, t) in body_code.iter().enumerate() {
            if t.start < l.body.0 || t.start >= l.body.1 || !t.is_punct('.') {
                continue;
            }
            let Some(m) = body_code.get(k + 1) else {
                continue;
            };
            if m.kind != TokenKind::Ident
                || !GROW.contains(&m.text)
                || !body_code.get(k + 2).is_some_and(|n| n.is_punct('('))
            {
                continue;
            }
            let Some(chain) = receiver_chain(body_code, k) else {
                continue;
            };
            let name = chain.split('.').next().unwrap_or(&chain).to_string();
            let bind = binds.get(&name);
            // Fresh-per-iteration receivers are bounded elsewhere.
            if bind.is_some_and(|b| b.decl >= l.body.0 && b.decl < l.body.1) {
                continue;
            }
            let head = bind.and_then(|b| b.type_head.as_deref());
            if m.text == "insert" && !head.is_some_and(|h| COLLECTIONS.contains(&h)) {
                continue;
            }
            if reserved.contains(&name) {
                continue;
            }
            out.push(Finding {
                lint: "loop-growth",
                path: file.path.clone(),
                line: line_of(&file.content, t.start),
                message: format!(
                    "`{}.{}` grows an escaping collection inside a subscription-scale \
                     loop (line {}) without `with_capacity`/`reserve` — size it up front",
                    chain, m.text, l.line
                ),
            });
        }
    }
}

/// True when any identifier in `[start, end)` contains a scale fragment.
fn mentions_scale(body_code: &[&Token<'_>], start: usize, end: usize) -> bool {
    body_code
        .iter()
        .filter(|t| t.kind == TokenKind::Ident && t.start >= start && t.end <= end)
        .any(|t| {
            let lower = t.text.to_ascii_lowercase();
            SCALE_KEYWORDS.iter().any(|k| lower.contains(k))
        })
}

/// Collects `let` bindings with their declaration offsets and (where
/// inferable) type heads: `let v: Vec<_> = …`, `let v = Vec::new()`.
fn bindings(body_code: &[&Token<'_>]) -> BTreeMap<String, BindInfo> {
    let mut out: BTreeMap<String, BindInfo> = BTreeMap::new();
    let mut i = 0;
    while i < body_code.len() {
        if !body_code[i].is_ident("let") {
            i += 1;
            continue;
        }
        let decl = body_code[i].start;
        let mut j = i + 1;
        if body_code.get(j).is_some_and(|t| t.is_ident("mut")) {
            j += 1;
        }
        let Some(name_tok) = body_code.get(j).filter(|t| t.kind == TokenKind::Ident) else {
            i += 1;
            continue;
        };
        let mut info = BindInfo {
            decl,
            type_head: None,
        };
        match body_code.get(j + 1) {
            // `let name: Path<…> = …` — last path segment is the head.
            Some(c)
                if c.is_punct(':') && !body_code.get(j + 2).is_some_and(|n| n.is_punct(':')) =>
            {
                let mut k = j + 2;
                while k < body_code.len() {
                    match body_code[k].kind {
                        TokenKind::Ident => info.type_head = Some(body_code[k].text.to_string()),
                        TokenKind::Punct if body_code[k].is_punct(':') => {}
                        _ => break,
                    }
                    k += 1;
                }
            }
            // `let name = Head::new()` / `Head::with_capacity(…)` /
            // `Head::default()`.
            Some(eq) if eq.is_punct('=') => {
                let mut k = j + 2;
                let mut head = None;
                while k + 2 < body_code.len()
                    && body_code[k].kind == TokenKind::Ident
                    && body_code[k + 1].is_punct(':')
                    && body_code[k + 2].is_punct(':')
                {
                    head = Some(body_code[k].text);
                    k += 3;
                }
                if head.is_some() && body_code.get(k).is_some_and(|t| t.kind == TokenKind::Ident) {
                    info.type_head = head.map(str::to_string);
                }
            }
            _ => {}
        }
        out.insert(name_tok.text.to_string(), info);
        i = j + 1;
    }
    out
}

/// Names with a capacity-establishing call anywhere in the function:
/// `name.reserve(…)`, `let name = Vec::with_capacity(…)`.
fn reserved_names(
    body_code: &[&Token<'_>],
    binds: &BTreeMap<String, BindInfo>,
) -> std::collections::BTreeSet<String> {
    let mut out = std::collections::BTreeSet::new();
    for (k, t) in body_code.iter().enumerate() {
        if t.kind != TokenKind::Ident || !RESERVES.contains(&t.text) {
            continue;
        }
        // `recv.reserve(…)` — credit the receiver.
        if body_code
            .get(k.wrapping_sub(1))
            .is_some_and(|d| d.is_punct('.'))
        {
            if let Some(chain) = receiver_chain(body_code, k - 1) {
                out.insert(chain.split('.').next().unwrap_or(&chain).to_string());
            }
            continue;
        }
        // `let name = … Head::with_capacity(…)` — credit the binding
        // whose `let` most closely precedes the call.
        let best = binds
            .iter()
            .filter(|(_, b)| b.decl <= t.start)
            .max_by_key(|(_, b)| b.decl);
        if let Some((name, _)) = best {
            out.insert(name.clone());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pass(src: &str) -> Vec<Finding> {
        run(&[SourceFile::new("crates/core/src/g.rs", src)])
    }

    #[test]
    fn unreserved_push_in_scale_loop_is_flagged() {
        let got = pass(
            "pub fn gather(subs: &[u64]) -> Vec<u64> {\n\
               let mut out = Vec::new();\n\
               for s in subs {\n\
                 out.push(*s);\n\
               }\n\
               out\n\
             }\n",
        );
        assert_eq!(got.len(), 1, "{got:?}");
        assert!(got[0].message.contains("`out.push`"));
    }

    #[test]
    fn with_capacity_binding_is_clean() {
        let got = pass(
            "pub fn gather(subs: &[u64]) -> Vec<u64> {\n\
               let mut out = Vec::with_capacity(subs.len());\n\
               for s in subs {\n\
                 out.push(*s);\n\
               }\n\
               out\n\
             }\n",
        );
        assert!(got.is_empty(), "{got:?}");
    }

    #[test]
    fn reserve_before_the_loop_is_clean() {
        let got = pass(
            "pub fn gather(out: &mut Vec<u64>, subs: &[u64]) {\n\
               out.reserve(subs.len());\n\
               for s in subs {\n\
                 out.push(*s);\n\
               }\n\
             }\n",
        );
        assert!(got.is_empty(), "{got:?}");
    }

    #[test]
    fn per_iteration_locals_are_exempt() {
        let got = pass(
            "pub fn gather(subs: &[u64]) {\n\
               for s in subs {\n\
                 let mut tmp = Vec::new();\n\
                 tmp.push(*s);\n\
                 consume(tmp);\n\
               }\n\
             }\n\
             fn consume(_v: Vec<u64>) {}\n",
        );
        assert!(got.is_empty(), "{got:?}");
    }

    #[test]
    fn non_scale_loops_are_out_of_scope() {
        let got = pass(
            "pub fn gather(names: &[u64]) -> Vec<u64> {\n\
               let mut out = Vec::new();\n\
               for n in names {\n\
                 out.push(*n);\n\
               }\n\
               out\n\
             }\n",
        );
        assert!(got.is_empty(), "{got:?}");
    }

    #[test]
    fn insert_needs_a_known_collection_type() {
        let flagged = pass(
            "pub fn index(subs: &[u64]) {\n\
               let mut map: BTreeMap<u64, u64> = BTreeMap::new();\n\
               for s in subs {\n\
                 map.insert(*s, *s);\n\
               }\n\
               drop(map);\n\
             }\n",
        );
        assert_eq!(flagged.len(), 1, "{flagged:?}");
        let domain = pass(
            "pub fn index(subs: &[u64], registry: &mut Registry) {\n\
               for s in subs {\n\
                 registry.insert(*s);\n\
               }\n\
             }\n",
        );
        assert!(domain.is_empty(), "{domain:?}");
    }

    #[test]
    fn test_functions_are_exempt() {
        let got = pass(
            "#[cfg(test)]\n\
             mod tests {\n\
               #[test]\n\
               fn t() {\n\
                 let mut out = Vec::new();\n\
                 for sub in 0..4u64 { out.push(sub); }\n\
                 assert_eq!(out.len(), 4);\n\
               }\n\
             }\n",
        );
        assert!(got.is_empty(), "{got:?}");
    }
}
