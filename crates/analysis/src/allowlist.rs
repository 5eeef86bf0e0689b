//! Justified allowlists (DESIGN.md §9).
//!
//! Format, one entry per line:
//!
//! ```text
//! <repo-relative-path> <kind> <substring-or-*> -- <justification>
//! ```
//!
//! The set of valid `kind`s and the entry budget are parameterized per
//! lint via [`AllowlistSpec`]: hot-path-alloc uses
//! `analysis/hot-path-allowlist.txt` (`alloc`), cancel-responsive uses
//! `analysis/cancel-allowlist.txt` (`loop`). The third field must occur
//! on the flagged source line (`*` matches any line in the file). The
//! justification after ` -- ` is mandatory: an entry is a documented
//! invariant, not an opt-out. Blank lines and `#` comments are ignored.

use crate::Finding;

/// Per-lint allowlist policy: which lint owns the file, which kinds are
/// legal, and how many entries the file may carry before the lint fails
/// outright (growth means problems accumulate faster than they are
/// remediated).
#[derive(Debug, Clone, Copy)]
pub struct AllowlistSpec {
    /// Lint name stamped on findings about the allowlist itself.
    pub lint: &'static str,
    /// The kinds entries may use.
    pub kinds: &'static [&'static str],
    /// Maximum number of entries the file may carry.
    pub budget: usize,
}

/// One parsed allowlist entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Entry {
    /// Repo-relative path the entry applies to.
    pub path: String,
    /// Finding kind, one of the owning spec's `kinds`.
    pub kind: String,
    /// Substring that must appear on the flagged line; `*` matches all.
    pub pattern: String,
    /// Why the finding is acceptable.
    pub justification: String,
    /// 1-based line in the allowlist file (for diagnostics).
    pub line: usize,
}

/// Parsed allowlist plus any syntax errors found while reading it.
#[derive(Debug, Default)]
pub struct Allowlist {
    /// Valid entries in file order.
    pub entries: Vec<Entry>,
    /// Findings for malformed lines.
    pub errors: Vec<Finding>,
}

impl Allowlist {
    /// Parses allowlist text under a per-lint policy; `path` is used in
    /// error findings.
    pub fn parse(path: &str, text: &str, spec: &AllowlistSpec) -> Self {
        let mut out = Allowlist::default();
        for (idx, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let Some((head, justification)) = line.split_once(" -- ") else {
                out.errors.push(Finding {
                    lint: spec.lint,
                    path: path.to_string(),
                    line: idx + 1,
                    message: "allowlist entry missing ` -- <justification>`".to_string(),
                });
                continue;
            };
            let fields: Vec<&str> = head.split_whitespace().collect();
            if fields.len() != 3 {
                out.errors.push(Finding {
                    lint: spec.lint,
                    path: path.to_string(),
                    line: idx + 1,
                    message: format!(
                        "allowlist entry needs `<path> <kind> <pattern>`, got {} fields",
                        fields.len()
                    ),
                });
                continue;
            }
            let kind = fields[1];
            if !spec.kinds.contains(&kind) {
                out.errors.push(Finding {
                    lint: spec.lint,
                    path: path.to_string(),
                    line: idx + 1,
                    message: format!("unknown allowlist kind `{kind}`"),
                });
                continue;
            }
            out.entries.push(Entry {
                path: fields[0].to_string(),
                kind: kind.to_string(),
                pattern: fields[2].to_string(),
                justification: justification.trim().to_string(),
                line: idx + 1,
            });
        }
        if out.entries.len() > spec.budget {
            out.errors.push(Finding {
                lint: spec.lint,
                path: path.to_string(),
                line: 0,
                message: format!(
                    "allowlist has {} entries; the budget is {} — remediate instead of allowlisting",
                    out.entries.len(),
                    spec.budget
                ),
            });
        }
        out
    }

    /// True when some entry covers a finding of `kind` at `path` whose
    /// source line text is `line_text`. Matching entries are marked used.
    pub fn covers(&self, used: &mut [bool], path: &str, kind: &str, line_text: &str) -> bool {
        for (i, e) in self.entries.iter().enumerate() {
            if e.path == path
                && e.kind == kind
                && (e.pattern == "*" || line_text.contains(&e.pattern))
            {
                used[i] = true;
                return true;
            }
        }
        false
    }

    /// Findings, labelled `lint`, for entries that matched nothing
    /// (stale entries keep the budget hostage, so they are errors too).
    pub fn unused(&self, used: &[bool], allowlist_path: &str, lint: &'static str) -> Vec<Finding> {
        self.entries
            .iter()
            .zip(used)
            .filter(|(_, &u)| !u)
            .map(|(e, _)| Finding {
                lint,
                path: allowlist_path.to_string(),
                line: e.line,
                message: format!(
                    "stale allowlist entry: `{} {} {}` matched no finding",
                    e.path, e.kind, e.pattern
                ),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: AllowlistSpec = AllowlistSpec {
        lint: "test-lint",
        kinds: &["alloc", "loop"],
        budget: 3,
    };

    #[test]
    fn parses_entries_and_rejects_malformed() {
        let text = "\
# comment
crates/core/src/zones.rs loop &allocation.loads -- post-merge summary pass

crates/profile/src/bitvec.rs alloc * -- construction-time storage
crates/core/src/cram.rs badkind x -- nope
missing-justification alloc x
";
        let al = Allowlist::parse("analysis/x-allowlist.txt", text, &SPEC);
        assert_eq!(al.entries.len(), 2);
        assert_eq!(al.errors.len(), 2);
        assert_eq!(al.entries[0].kind, "loop");
        assert_eq!(al.entries[1].pattern, "*");
    }

    #[test]
    fn kinds_are_per_spec() {
        let text = "crates/core/src/cram.rs wallclock Instant -- not a kind of this spec";
        let al = Allowlist::parse("x.txt", text, &SPEC);
        assert_eq!(al.entries.len(), 0);
        assert_eq!(al.errors.len(), 1);
        assert_eq!(al.errors[0].lint, "test-lint");
    }

    #[test]
    fn covers_by_path_kind_and_pattern() {
        let al = Allowlist::parse(
            "a.txt",
            "crates/x/src/a.rs alloc frob -- invariant\ncrates/x/src/b.rs loop * -- bounded",
            &SPEC,
        );
        let mut used = vec![false; al.entries.len()];
        assert!(al.covers(
            &mut used,
            "crates/x/src/a.rs",
            "alloc",
            "let y = frob().to_vec();"
        ));
        assert!(!al.covers(
            &mut used,
            "crates/x/src/a.rs",
            "alloc",
            "let y = other().to_vec();"
        ));
        assert!(!al.covers(&mut used, "crates/x/src/a.rs", "loop", "frob"));
        assert!(al.covers(&mut used, "crates/x/src/b.rs", "loop", "for x in xs {"));
        assert!(al.unused(&used, "a.txt", SPEC.lint).is_empty());
    }

    #[test]
    fn flags_stale_entries_and_budget() {
        let al = Allowlist::parse("a.txt", "crates/x/src/a.rs alloc never -- unused", &SPEC);
        let used = vec![false; al.entries.len()];
        let stale = al.unused(&used, "a.txt", SPEC.lint);
        assert_eq!(stale.len(), 1);

        let many: String = (0..SPEC.budget + 1)
            .map(|i| format!("crates/x/src/f{i}.rs alloc * -- e{i}\n"))
            .collect();
        let al = Allowlist::parse("a.txt", &many, &SPEC);
        assert!(al.errors.iter().any(|f| f.message.contains("budget")));
    }
}
