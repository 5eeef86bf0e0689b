//! Interprocedural pass: allocations reachable from hot paths
//! (DESIGN.md §9.2).
//!
//! `analysis/hot-paths.txt` declares the workspace's steady-state hot
//! entry points (CRAM pair evaluation, GIF merge, simnet delivery,
//! broker matching). This pass walks the call graph from those entries
//! and flags every reachable allocation expression: `Vec::new`,
//! `Box::new`, `String::new`/`from`, `with_capacity`, the `vec!` and
//! `format!` macros, and the allocating method calls `.to_string()`,
//! `.to_vec()`, `.to_owned()`, `.collect()`.
//!
//! Two escape hatches keep the signal honest:
//!
//! - `stop` lines in `hot-paths.txt` cut traversal at amortized or
//!   setup boundaries (e.g. `BucketMatcher::rebuild` is called once
//!   per reconfiguration, not per message) — the stopped function and
//!   everything only reachable through it are out of scope;
//! - allocation sites inside `emit_with(…)` call arguments are exempt:
//!   that is the telemetry lazy-emission pattern, and the closure only
//!   runs when telemetry is enabled.
//!
//! Remaining findings are budgeted in `analysis/hot-path-allowlist.txt`
//! (kind `alloc`) and ratcheted via `hot-path.alloc-findings`.

use std::collections::{BTreeMap, BTreeSet};

use crate::allowlist::{Allowlist, AllowlistSpec};
use crate::callgraph::CallGraph;
use crate::parser::Callee;
use crate::{lexer, line_of, line_text, Finding, SourceFile};

/// Policy for `analysis/hot-path-allowlist.txt`.
pub const HOT_PATH_SPEC: AllowlistSpec = AllowlistSpec {
    lint: "hot-path-alloc",
    kinds: &["alloc"],
    budget: 12,
};

/// Allocating method names flagged on any receiver.
const ALLOC_METHODS: &[&str] = &["to_string", "to_vec", "to_owned", "collect"];

/// Allocating macros.
const ALLOC_MACROS: &[&str] = &["format", "vec"];

/// One parsed `hot-paths.txt` line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HotPathLine {
    /// `<qualified-suffix> -- <label>`: a traversal entry point.
    Entry {
        /// Qualified-name suffix resolved against the call graph.
        suffix: String,
        /// Human label used in findings.
        label: String,
    },
    /// `stop <qualified-suffix> -- <reason>`: a traversal boundary.
    Stop {
        /// Qualified-name suffix resolved against the call graph.
        suffix: String,
    },
}

/// Parses `hot-paths.txt`; malformed lines become findings at `path`.
pub fn parse_hot_paths(path: &str, text: &str) -> (Vec<HotPathLine>, Vec<Finding>) {
    let mut lines = Vec::new();
    let mut errors = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let Some((head, tail)) = line.split_once(" -- ") else {
            errors.push(Finding {
                lint: "hot-path-alloc",
                path: path.to_string(),
                line: idx + 1,
                message: "hot-path line missing ` -- <label>`".to_string(),
            });
            continue;
        };
        let head = head.trim();
        let tail = tail.trim();
        if let Some(suffix) = head.strip_prefix("stop ") {
            lines.push(HotPathLine::Stop {
                suffix: suffix.trim().to_string(),
            });
        } else if head.split_whitespace().count() == 1 && !head.is_empty() {
            lines.push(HotPathLine::Entry {
                suffix: head.to_string(),
                label: tail.to_string(),
            });
        } else {
            errors.push(Finding {
                lint: "hot-path-alloc",
                path: path.to_string(),
                line: idx + 1,
                message: format!("hot-path line needs `<suffix>` or `stop <suffix>`, got `{head}`"),
            });
        }
    }
    (lines, errors)
}

/// Byte spans of `emit_with(…)` argument lists in `src`.
fn emit_with_regions(src: &str) -> Vec<(usize, usize)> {
    let tokens = lexer::tokenize(src);
    let code = lexer::code(&tokens);
    let mut out = Vec::new();
    let mut i = 0;
    while i + 1 < code.len() {
        if code[i].is_ident("emit_with") && code[i + 1].is_punct('(') {
            let mut depth = 0usize;
            let mut j = i + 1;
            while j < code.len() {
                if code[j].is_punct('(') {
                    depth += 1;
                } else if code[j].is_punct(')') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                j += 1;
            }
            let end = code.get(j).map_or(src.len(), |t| t.end);
            out.push((code[i + 1].start, end));
            i = j;
            continue;
        }
        i += 1;
    }
    out
}

/// Runs the pass. `hot_paths_text` is the contents of
/// `analysis/hot-paths.txt` (`hot_paths_path` labels its findings).
pub fn run(
    files: &[SourceFile],
    graph: &CallGraph,
    hot_paths_path: &str,
    hot_paths_text: &str,
    allowlist: &Allowlist,
    allowlist_path: &str,
) -> Vec<Finding> {
    let (lines, mut findings) = parse_hot_paths(hot_paths_path, hot_paths_text);
    findings.extend(allowlist.errors.iter().cloned());
    let mut used = vec![false; allowlist.entries.len()];

    // Resolve entries and stops against the graph.
    let mut entries: Vec<usize> = Vec::new();
    let mut label_of: BTreeMap<usize, String> = BTreeMap::new();
    let mut blocked: BTreeSet<usize> = BTreeSet::new();
    for line in &lines {
        match line {
            HotPathLine::Entry { suffix, label } => {
                let nodes = graph.find_suffix(suffix);
                if nodes.is_empty() {
                    findings.push(Finding {
                        lint: "hot-path-alloc",
                        path: hot_paths_path.to_string(),
                        line: 0,
                        message: format!("hot-path entry `{suffix}` matches no workspace function"),
                    });
                }
                for n in nodes {
                    entries.push(n);
                    label_of.entry(n).or_insert_with(|| label.clone());
                }
            }
            HotPathLine::Stop { suffix } => {
                let nodes = graph.find_suffix(suffix);
                if nodes.is_empty() {
                    findings.push(Finding {
                        lint: "hot-path-alloc",
                        path: hot_paths_path.to_string(),
                        line: 0,
                        message: format!("hot-path stop `{suffix}` matches no workspace function"),
                    });
                }
                blocked.extend(nodes);
            }
        }
    }

    let parent = graph.bfs(&entries, &blocked);
    let by_path: BTreeMap<&str, &SourceFile> = files.iter().map(|f| (f.path.as_str(), f)).collect();
    let mut exempt_cache: BTreeMap<&str, Vec<(usize, usize)>> = BTreeMap::new();

    let mut raw: Vec<(usize, usize, String)> = Vec::new(); // (node, offset, what)
    for &node in parent.keys() {
        let item = &graph.nodes[node].item;
        for call in &item.calls {
            let what = match &call.callee {
                Callee::Path(segs) => match segs.last().map(String::as_str) {
                    Some("new") if segs.len() >= 2 => {
                        let head = &segs[segs.len() - 2];
                        matches!(head.as_str(), "Vec" | "Box" | "String" | "VecDeque")
                            .then(|| format!("{head}::new"))
                    }
                    Some("from") if segs.len() >= 2 && segs[segs.len() - 2] == "String" => {
                        Some("String::from".to_string())
                    }
                    Some("with_capacity") if segs.len() >= 2 => {
                        Some(format!("{}::with_capacity", segs[segs.len() - 2]))
                    }
                    _ => None,
                },
                Callee::Method { name, .. } => ALLOC_METHODS
                    .contains(&name.as_str())
                    .then(|| format!(".{name}()")),
            };
            if let Some(what) = what {
                raw.push((node, call.offset, what));
            }
        }
        for m in &item.macros {
            if ALLOC_MACROS.contains(&m.name.as_str()) {
                raw.push((node, m.offset, format!("{}!", m.name)));
            }
        }
    }
    raw.sort_by(|a, b| {
        (&graph.nodes[a.0].file, a.1, &a.2).cmp(&(&graph.nodes[b.0].file, b.1, &b.2))
    });
    raw.dedup_by(|a, b| a.0 == b.0 && a.1 == b.1);

    for (node, offset, what) in raw {
        let file_path = graph.nodes[node].file.as_str();
        let Some(file) = by_path.get(file_path) else {
            continue;
        };
        let regions = exempt_cache
            .entry(file_path)
            .or_insert_with(|| emit_with_regions(&file.content));
        if lexer::in_regions(offset, regions) {
            continue;
        }
        let text = line_text(&file.content, offset);
        if allowlist.covers(&mut used, file_path, "alloc", text) {
            continue;
        }
        let entry = graph
            .witness(&parent, node)
            .first()
            .cloned()
            .unwrap_or_default();
        let label = label_of
            .iter()
            .find(|(&n, _)| graph.nodes[n].item.qualified == entry)
            .map(|(_, l)| l.as_str())
            .unwrap_or("?");
        let path_str = graph.witness(&parent, node).join(" -> ");
        findings.push(Finding {
            lint: "hot-path-alloc",
            path: file_path.to_string(),
            line: line_of(&file.content, offset),
            message: format!(
                "`{what}` allocation reachable from hot entry `{label}` via {path_str}"
            ),
        });
    }

    findings.extend(allowlist.unused(&used, allowlist_path, "hot-path-alloc"));
    findings.sort_by(|a, b| (&a.path, a.line, &a.message).cmp(&(&b.path, b.line, &b.message)));
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pass(files: &[(&str, &str)], hot: &str, allow: &str) -> Vec<Finding> {
        let files: Vec<SourceFile> = files.iter().map(|(p, c)| SourceFile::new(p, c)).collect();
        let graph = CallGraph::build(&files);
        let al = Allowlist::parse("allow.txt", allow, &HOT_PATH_SPEC);
        run(&files, &graph, "hot.txt", hot, &al, "allow.txt")
    }

    #[test]
    fn reachable_allocations_are_flagged_with_witness() {
        let got = pass(
            &[(
                "crates/core/src/a.rs",
                "pub fn hot() { helper(); }\nfn helper() { let v: Vec<u32> = Vec::new(); }",
            )],
            "greenps_core::a::hot -- pair evaluation\n",
            "",
        );
        assert_eq!(got.len(), 1, "{got:?}");
        assert!(got[0].message.contains("Vec::new"));
        assert!(got[0].message.contains("pair evaluation"));
        assert!(got[0].message.contains("hot -> greenps_core::a::helper"));
    }

    #[test]
    fn stop_lines_cut_traversal() {
        let got = pass(
            &[(
                "crates/core/src/a.rs",
                "pub fn hot() { rebuild(); }\nfn rebuild() { let v = vec![1]; }",
            )],
            "greenps_core::a::hot -- hot\nstop greenps_core::a::rebuild -- amortized\n",
            "",
        );
        assert!(got.is_empty(), "{got:?}");
    }

    #[test]
    fn cold_code_is_out_of_scope() {
        let got = pass(
            &[(
                "crates/core/src/a.rs",
                "pub fn hot() {}\npub fn cold() { let s = format!(\"x\"); }",
            )],
            "greenps_core::a::hot -- hot\n",
            "",
        );
        assert!(got.is_empty(), "{got:?}");
    }

    #[test]
    fn emit_with_arguments_are_exempt() {
        let got = pass(
            &[(
                "crates/core/src/a.rs",
                "pub fn hot(t: &Sink) { t.emit_with(|| format!(\"lazy {}\", 1)); let s = 2.to_string(); }",
            )],
            "greenps_core::a::hot -- hot\n",
            "",
        );
        assert_eq!(got.len(), 1, "{got:?}");
        assert!(got[0].message.contains("to_string"));
    }

    #[test]
    fn allowlist_covers_and_reports_stale() {
        let src = "pub fn hot() { let v: Vec<u32> = Vec::new(); }";
        let covered = pass(
            &[("crates/core/src/a.rs", src)],
            "greenps_core::a::hot -- hot\n",
            "crates/core/src/a.rs alloc Vec::new -- one-time warmup\n",
        );
        assert!(covered.is_empty(), "{covered:?}");
        let stale = pass(
            &[("crates/core/src/a.rs", "pub fn hot() {}")],
            "greenps_core::a::hot -- hot\n",
            "crates/core/src/a.rs alloc Vec::new -- gone\n",
        );
        assert_eq!(stale.len(), 1, "{stale:?}");
        assert!(stale[0].message.contains("stale"));
    }

    #[test]
    fn unresolved_entries_and_malformed_lines_are_errors() {
        let got = pass(
            &[("crates/core/src/a.rs", "pub fn hot() {}")],
            "greenps_core::a::hot -- hot\ngreenps_core::a::missing -- gone\nbad line no marker\n",
            "",
        );
        assert_eq!(got.len(), 2, "{got:?}");
        assert!(got.iter().any(|f| f.message.contains("missing")));
        assert!(got.iter().any(|f| f.message.contains("` -- <label>`")));
    }

    #[test]
    fn collect_and_macros_fire() {
        let got = pass(
            &[(
                "crates/core/src/a.rs",
                "pub fn hot(xs: &[u32]) { let v: Vec<u32> = xs.iter().copied().collect(); let s = format!(\"{v:?}\"); }",
            )],
            "greenps_core::a::hot -- hot\n",
            "",
        );
        let whats: Vec<&str> = got
            .iter()
            .map(|f| f.message.split('`').nth(1).unwrap_or(""))
            .collect();
        assert_eq!(whats, vec![".collect()", "format!"], "{got:?}");
    }
}
