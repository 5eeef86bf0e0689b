//! Lint: telemetry name schema (DESIGN.md §9.1, §10).
//!
//! Every instrument name the runtime registers — `counter("…")`,
//! `gauge`, `histogram`, `ring`, `Span::enter(reg, "…")` and ring-event
//! kinds (`emit`/`emit_with("…")`) — must be declared in
//! `analysis/telemetry-schema.txt`, and every declared name must still
//! be registered somewhere. Three failure classes:
//!
//! - **unknown name**: a literal in code with no schema entry (the
//!   `registry.counter("typo.name")` drift class);
//! - **dead schema entry**: a declared name no code registers anymore;
//! - **unmatched dynamic name**: a `format!`-built name whose shape
//!   fits no `<var>` pattern entry (only `broker.b<id>`-style
//!   patterns are whitelisted in the schema).
//!
//! Schema file format, one entry per line (`#` comments allowed):
//!
//! ```text
//! <kind> <name>
//! counter simnet.delivered
//! gauge broker.b<id>.msgs_in      # <var> matches one dot-free segment
//! event msg.drop
//! benchkey subscriptions          # BENCH_scale.json keys; checked by
//!                                 # tests/experiments_smoke.rs, not here
//! ```

use crate::lexer::{self, Token, TokenKind};
use crate::{line_of, Finding, SourceFile};
use std::collections::BTreeMap;

/// Instrument kinds the schema may declare.
pub const KINDS: [&str; 7] = [
    "counter",
    "gauge",
    "histogram",
    "ring",
    "span",
    "event",
    "benchkey",
];

/// Crates exempt from extraction: `telemetry` defines the instruments
/// (its names are doc examples), `analysis` is this crate.
const EXEMPT_CRATES: [&str; 2] = ["telemetry", "analysis"];

/// One declared schema entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchemaEntry {
    /// Instrument kind (one of [`KINDS`]).
    pub kind: String,
    /// Declared name; `<var>` segments match one dot-free run.
    pub name: String,
    /// 1-based line in the schema file.
    pub line: usize,
}

impl SchemaEntry {
    /// True when the name contains `<var>` placeholders.
    pub fn is_pattern(&self) -> bool {
        self.name.contains('<')
    }
}

/// Parsed schema plus syntax errors.
#[derive(Debug, Default)]
pub struct Schema {
    /// Entries in file order.
    pub entries: Vec<SchemaEntry>,
    /// Findings for malformed lines.
    pub errors: Vec<Finding>,
}

impl Schema {
    /// Parses schema text; `path` labels error findings.
    pub fn parse(path: &str, text: &str) -> Self {
        let mut out = Schema::default();
        for (idx, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let mut fields = line.split_whitespace();
            let (kind, name) = match (fields.next(), fields.next(), fields.next()) {
                (Some(k), Some(n), None) => (k, n),
                _ => {
                    out.errors.push(Finding {
                        lint: "telemetry-schema",
                        path: path.to_string(),
                        line: idx + 1,
                        message: "schema entry needs exactly `<kind> <name>`".to_string(),
                    });
                    continue;
                }
            };
            if !KINDS.contains(&kind) {
                out.errors.push(Finding {
                    lint: "telemetry-schema",
                    path: path.to_string(),
                    line: idx + 1,
                    message: format!("unknown schema kind `{kind}`"),
                });
                continue;
            }
            out.entries.push(SchemaEntry {
                kind: kind.to_string(),
                name: name.to_string(),
                line: idx + 1,
            });
        }
        out
    }

    /// True when a concrete `name` of `kind` is declared: an exact entry
    /// or a `<var>` pattern entry that matches.
    pub fn matches(&self, kind: &str, name: &str) -> bool {
        self.entries.iter().any(|e| {
            e.kind == kind
                && if e.is_pattern() {
                    pattern_matches_name(&e.name, name)
                } else {
                    e.name == name
                }
        })
    }
}

/// Matches a `<var>` pattern against a concrete name: literal segments
/// match byte-for-byte, each `<…>` placeholder matches one or more
/// non-dot characters.
pub fn pattern_matches_name(pattern: &str, name: &str) -> bool {
    fn rec(p: &str, n: &str) -> bool {
        match p.find('<') {
            None => p == n,
            Some(at) => {
                let (lit, rest) = p.split_at(at);
                let Some(n) = n.strip_prefix(lit) else {
                    return false;
                };
                let Some(close) = rest.find('>') else {
                    return false;
                };
                let after = &rest[close + 1..];
                // Try every non-empty dot-free run for the placeholder.
                let run = n.find('.').unwrap_or(n.len());
                (1..=run).any(|take| rec(after, &n[take..]))
            }
        }
    }
    rec(pattern, name)
}

/// One telemetry name usage extracted from source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NameSite {
    /// Instrument kind.
    pub kind: String,
    /// The literal (static sites) or format template (dynamic sites).
    pub name: String,
    /// True when the name came from a `format!` template: `{…}` holes
    /// must be matched against `<var>` pattern entries.
    pub dynamic: bool,
    /// Repo-relative path.
    pub path: String,
    /// 1-based source line.
    pub line: usize,
}

/// Registration methods on `Registry` whose first argument names the
/// instrument.
const REGISTRY_METHODS: [&str; 4] = ["counter", "gauge", "histogram", "ring"];

/// Extracts every telemetry name site from one file's token stream.
pub fn extract(file: &SourceFile) -> Vec<NameSite> {
    let tokens = lexer::tokenize(&file.content);
    let code: Vec<&Token<'_>> = lexer::code(&tokens);
    let mut sites = Vec::new();
    let mut push = |kind: &str, tok: &Token<'_>, dynamic: bool, body: &str| {
        sites.push(NameSite {
            kind: kind.to_string(),
            name: body.to_string(),
            dynamic,
            path: file.path.clone(),
            line: line_of(&file.content, tok.start),
        });
    };

    for i in 0..code.len() {
        let t = code[i];
        // `.counter("…")` / `.gauge(&format!("…"))` / `.emit("…", …)`.
        if t.is_punct('.') && code.get(i + 2).is_some_and(|n| n.is_punct('(')) {
            if let Some(m) = code.get(i + 1).filter(|m| m.kind == TokenKind::Ident) {
                let kind = if REGISTRY_METHODS.contains(&m.text) {
                    Some(m.text)
                } else if m.text == "emit" || m.text == "emit_with" {
                    Some("event")
                } else {
                    None
                };
                if let Some(kind) = kind {
                    // Non-literal args (e.g. a local var) yield None and
                    // are skipped — only literal names are checkable.
                    if let Some((tok, body, dynamic)) = first_arg_name(&code, i + 3) {
                        push(kind, tok, dynamic, &body);
                    }
                }
            }
        }
        // `Span::enter(reg, "…")` / `Span::enter(reg, &format!("…"))` —
        // the name is the second argument; format templates become
        // dynamic sites matched against `<var>` pattern entries, the
        // same as registry-method names.
        if t.is_ident("Span")
            && code.get(i + 1).is_some_and(|n| n.is_punct(':'))
            && code.get(i + 2).is_some_and(|n| n.is_punct(':'))
            && code.get(i + 3).is_some_and(|n| n.is_ident("enter"))
            && code.get(i + 4).is_some_and(|n| n.is_punct('('))
        {
            // Find the comma separating the registry from the name
            // (argument depth 1), then read the name like a first arg.
            let mut depth = 1usize;
            let mut k = i + 5;
            while k < code.len() && depth > 0 {
                let c = code[k];
                if c.is_punct('(') {
                    depth += 1;
                } else if c.is_punct(')') {
                    depth -= 1;
                } else if depth == 1 && c.is_punct(',') {
                    if let Some((tok, body, dynamic)) = first_arg_name(&code, k + 1) {
                        push("span", tok, dynamic, &body);
                    }
                    break;
                }
                k += 1;
            }
        }
    }
    sites
}

/// Reads the first argument starting at token index `at`: a plain
/// string literal, or `&format!("…", …)` whose template becomes a
/// dynamic name. Returns `(token, name, dynamic)`.
fn first_arg_name<'a, 'b>(
    code: &'b [&'b Token<'a>],
    at: usize,
) -> Option<(&'b Token<'a>, String, bool)> {
    let mut k = at;
    // Skip leading `&`s.
    while code.get(k).is_some_and(|c| c.is_punct('&')) {
        k += 1;
    }
    let t = code.get(k)?;
    if let Some(body) = t.str_body() {
        return Some((t, body.to_string(), false));
    }
    if t.is_ident("format") && code.get(k + 1).is_some_and(|n| n.is_punct('!')) {
        let lit = code.get(k + 3)?;
        let body = lit.str_body()?;
        // A template with no holes is effectively static.
        let dynamic = body.contains('{');
        return Some((lit, body.to_string(), dynamic));
    }
    None
}

/// Converts a `format!` template into the schema's `<var>` shape:
/// `broker.b{}.msgs_in` → `broker.b<v>.msgs_in`, `{tag}.msgs_in` →
/// `<v>.msgs_in`.
fn template_to_shape(template: &str) -> String {
    let mut out = String::new();
    let mut rest = template;
    while let Some(at) = rest.find('{') {
        out.push_str(&rest[..at]);
        match rest[at..].find('}') {
            Some(close) => {
                out.push_str("<v>");
                rest = &rest[at + close + 1..];
            }
            None => {
                rest = "";
            }
        }
    }
    out.push_str(rest);
    out
}

/// True when a dynamic template can produce names matching `pattern`:
/// the template's literal tail must equal the pattern's, and the two
/// literal heads must agree up to the shorter one (a `{hole}` can then
/// supply the rest — e.g. `{tag}.msgs_in` built from
/// `tag = "broker.b42"` matches `broker.b<id>.msgs_in`).
pub fn template_matches_pattern(template: &str, pattern: &str) -> bool {
    let shape = template_to_shape(template);
    if !shape.contains("<v>") {
        return pattern_matches_name(pattern, &shape);
    }
    let t_head = shape.split("<v>").next().unwrap_or("");
    let t_tail = shape.rsplit("<v>").next().unwrap_or("");
    let p_head = pattern.split('<').next().unwrap_or("");
    let p_tail = pattern.rsplit('>').next().unwrap_or(pattern);
    t_tail == p_tail && (t_head.starts_with(p_head) || p_head.starts_with(t_head))
}

/// Runs the lint: extracts all name sites from in-scope files and
/// cross-checks them against the schema.
pub fn run(files: &[SourceFile], schema: &Schema, schema_path: &str) -> Vec<Finding> {
    let mut findings: Vec<Finding> = schema.errors.clone();
    let mut used = vec![false; schema.entries.len()];
    let mut sites: Vec<NameSite> = Vec::new();

    for file in files {
        let in_scope = file
            .crate_name()
            .is_some_and(|c| !EXEMPT_CRATES.contains(&c))
            && file.is_library_code();
        if in_scope {
            sites.extend(extract(file));
        }
    }

    for site in &sites {
        let mut covered = false;
        for (i, e) in schema.entries.iter().enumerate() {
            if e.kind != site.kind {
                continue;
            }
            let hit = if site.dynamic {
                e.is_pattern() && template_matches_pattern(&site.name, &e.name)
            } else if e.is_pattern() {
                pattern_matches_name(&e.name, &site.name)
            } else {
                e.name == site.name
            };
            if hit {
                used[i] = true;
                covered = true;
            }
        }
        if !covered {
            let what = if site.dynamic {
                format!(
                    "dynamic {} name `{}` matches no `<var>` pattern in {schema_path}",
                    site.kind, site.name
                )
            } else {
                format!(
                    "unknown {} name `{}` — declare it in {schema_path} or fix the typo",
                    site.kind, site.name
                )
            };
            findings.push(Finding {
                lint: "telemetry-schema",
                path: site.path.clone(),
                line: site.line,
                message: what,
            });
        }
    }

    // Dead entries: declared but never registered. `benchkey` entries
    // are validated by tests/experiments_smoke.rs instead.
    for (i, e) in schema.entries.iter().enumerate() {
        if !used[i] && e.kind != "benchkey" {
            findings.push(Finding {
                lint: "telemetry-schema",
                path: schema_path.to_string(),
                line: e.line,
                message: format!(
                    "dead schema entry: `{} {}` is registered nowhere in the workspace",
                    e.kind, e.name
                ),
            });
        }
    }
    findings
}

/// Per-kind tallies of extracted sites (used by `--format json`).
pub fn site_counts(sites: &[NameSite]) -> BTreeMap<String, usize> {
    let mut counts = BTreeMap::new();
    for s in sites {
        *counts.entry(s.kind.clone()).or_insert(0) += 1;
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint(src: &str, schema_text: &str) -> Vec<Finding> {
        let files = vec![SourceFile::new("crates/core/src/x.rs", src)];
        let schema = Schema::parse("schema.txt", schema_text);
        run(&files, &schema, "schema.txt")
    }

    #[test]
    fn known_names_pass_unknown_fail() {
        let src = "fn f(reg: &Registry) {\n    let c = reg.counter(\"cram.merges\");\n    let g = reg.gauge(\"cram.final_units\");\n    let bad = reg.counter(\"typo.name\");\n}\n";
        let schema = "counter cram.merges\ngauge cram.final_units\n";
        let got = lint(src, schema);
        assert_eq!(got.len(), 1, "{got:?}");
        assert!(got[0].message.contains("typo.name"));
        assert_eq!(got[0].line, 4);
    }

    #[test]
    fn dead_entries_fail_benchkeys_exempt() {
        let src = "fn f(reg: &Registry) { reg.counter(\"a.b\"); }\n";
        let got = lint(src, "counter a.b\ncounter dead.name\nbenchkey speedup\n");
        assert_eq!(got.len(), 1, "{got:?}");
        assert!(got[0].message.contains("dead.name"));
    }

    #[test]
    fn spans_events_and_rings_extract() {
        let src = "fn f(reg: &Registry) {\n    let _s = Span::enter(reg, \"cram.run\");\n    let ring = reg.ring(\"cram\", 64);\n    ring.emit_with(\"gif.merge\", || String::new());\n    ring.emit(\"pair.blacklist\", \"x\");\n}\n";
        let schema = "span cram.run\nring cram\nevent gif.merge\nevent pair.blacklist\n";
        let got = lint(src, schema);
        assert!(got.is_empty(), "{got:?}");
    }

    #[test]
    fn format_built_span_names_are_dynamic_sites() {
        let src = "fn f(reg: &Registry, z: u32) {\n    let _a = Span::enter(reg, &format!(\"zone.cram.z{z}\"));\n    let _b = Span::enter(reg, &format!(\"rogue.{z}.span\"));\n}\n";
        let got = lint(src, "span zone.cram.z<id>\n");
        assert_eq!(got.len(), 1, "{got:?}");
        assert!(got[0].message.contains("rogue."), "{got:?}");
        assert!(got[0].message.contains("dynamic span name"), "{got:?}");
    }

    #[test]
    fn dynamic_names_need_a_pattern() {
        let src = "fn f(reg: &Registry, id: u32) {\n    let tag = format!(\"broker.b{id}\");\n    reg.gauge(&format!(\"{tag}.msgs_in\"));\n    reg.histogram(&format!(\"broker.b{}.delay_us\", id));\n    reg.gauge(&format!(\"rogue.{id}.thing\"));\n}\n";
        let schema = "gauge broker.b<id>.msgs_in\nhistogram broker.b<id>.delay_us\n";
        let got = lint(src, schema);
        assert_eq!(got.len(), 1, "{got:?}");
        assert!(got[0].message.contains("rogue."), "{got:?}");
    }

    #[test]
    fn pattern_matching_rules() {
        assert!(pattern_matches_name(
            "broker.b<id>.msgs_in",
            "broker.b42.msgs_in"
        ));
        assert!(!pattern_matches_name(
            "broker.b<id>.msgs_in",
            "broker.b42.msgs_out"
        ));
        assert!(!pattern_matches_name(
            "broker.b<id>.msgs_in",
            "broker.b4.2.msgs_in"
        ));
        assert!(pattern_matches_name("plain.name", "plain.name"));
        assert!(template_matches_pattern(
            "{tag}.msgs_in",
            "broker.b<id>.msgs_in"
        ));
        assert!(template_matches_pattern(
            "broker.b{}.delay_us",
            "broker.b<id>.delay_us"
        ));
        assert!(!template_matches_pattern(
            "{tag}.msgs_out",
            "broker.b<id>.msgs_in"
        ));
    }

    #[test]
    fn comments_strings_and_test_code_do_not_extract() {
        // Extraction is token-level: a name in a doc comment or inside
        // another string cannot register.
        let src = "/// call reg.counter(\"doc.example\")\nfn f() -> &'static str { \"reg.gauge(\\\"fake.name\\\")\" }\n";
        let got = lint(src, "");
        assert!(got.is_empty(), "{got:?}");
    }

    #[test]
    fn exempt_crates_are_skipped() {
        let files = vec![SourceFile::new(
            "crates/telemetry/src/lib.rs",
            "fn f(reg: &Registry) { reg.counter(\"doc.example\"); }\n",
        )];
        let schema = Schema::parse("schema.txt", "");
        assert!(run(&files, &schema, "schema.txt").is_empty());
    }
}
