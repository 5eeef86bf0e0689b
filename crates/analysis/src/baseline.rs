//! Lint findings baseline and ratchet (DESIGN.md §9.1).
//!
//! `analysis/baseline.json` records the accepted number of findings
//! per lint plus the size of each justified allowlist. Under
//! `-- all --ratchet` the engine compares current counts against the
//! baseline:
//!
//! - any count **above** its baseline fails (new debt is rejected);
//! - counts **below** baseline auto-shrink the file (improvements are
//!   locked in — the next regression to the old level fails);
//! - equal counts pass.
//!
//! The file is a flat JSON object so diffs are one line per counter;
//! parsing and rendering are hand-rolled (the analysis crate is
//! dependency-free by policy).

use std::collections::BTreeMap;

use crate::Finding;

/// Schema tag written into the baseline file.
pub const SCHEMA: &str = "greenps-analysis-baseline/1";

/// Per-counter accepted findings.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Baseline {
    /// Counter name → accepted count.
    pub counts: BTreeMap<String, usize>,
}

/// Outcome of comparing current counts against the baseline.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Ratchet {
    /// Human-readable regressions (count rose above baseline).
    pub regressions: Vec<String>,
    /// Human-readable improvements (count fell below baseline).
    pub improvements: Vec<String>,
}

impl Baseline {
    /// Parses the baseline file. Tolerant of whitespace; rejects files
    /// without the expected schema tag or a `counts` object.
    pub fn parse(text: &str) -> Result<Baseline, String> {
        if !text.contains(SCHEMA) {
            return Err(format!("baseline file missing schema tag `{SCHEMA}`"));
        }
        let at = text
            .find("\"counts\"")
            .ok_or_else(|| "baseline file missing `counts` object".to_string())?;
        let open = text[at..]
            .find('{')
            .map(|o| at + o)
            .ok_or_else(|| "`counts` is not an object".to_string())?;
        let close = text[open..]
            .find('}')
            .map(|c| open + c)
            .ok_or_else(|| "`counts` object is unterminated".to_string())?;
        let mut counts = BTreeMap::new();
        for pair in text[open + 1..close].split(',') {
            let pair = pair.trim();
            if pair.is_empty() {
                continue;
            }
            let (key, value) = pair
                .split_once(':')
                .ok_or_else(|| format!("malformed counts entry `{pair}`"))?;
            let key = key.trim().trim_matches('"').to_string();
            let value: usize = value
                .trim()
                .parse()
                .map_err(|_| format!("non-numeric count for `{key}`"))?;
            counts.insert(key, value);
        }
        Ok(Baseline { counts })
    }

    /// Renders the baseline as stable, diff-friendly JSON.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"schema\": \"{SCHEMA}\",\n"));
        out.push_str("  \"counts\": {\n");
        let last = self.counts.len().saturating_sub(1);
        for (i, (k, v)) in self.counts.iter().enumerate() {
            let comma = if i == last { "" } else { "," };
            out.push_str(&format!("    \"{k}\": {v}{comma}\n"));
        }
        out.push_str("  }\n}\n");
        out
    }
}

/// Compares `current` counts against `baseline`. Counters missing from
/// either side are treated as 0, so adding a new lint starts it at a
/// zero budget and deleting one counts as an improvement.
pub fn compare(baseline: &Baseline, current: &Baseline) -> Ratchet {
    let mut out = Ratchet::default();
    let keys: std::collections::BTreeSet<&String> = baseline
        .counts
        .keys()
        .chain(current.counts.keys())
        .collect();
    for key in keys {
        let base = baseline.counts.get(key).copied().unwrap_or(0);
        let cur = current.counts.get(key).copied().unwrap_or(0);
        if cur > base {
            out.regressions.push(format!(
                "`{key}` regressed: {cur} finding(s), baseline allows {base}"
            ));
        } else if cur < base {
            out.improvements
                .push(format!("`{key}` improved: {cur} (baseline was {base})"));
        }
    }
    out
}

/// Tallies findings per lint, over a fixed set of counter names so
/// lints that found nothing still appear with a 0.
pub fn tally(lints: &[&str], findings: &[Finding]) -> BTreeMap<String, usize> {
    let mut counts: BTreeMap<String, usize> = lints.iter().map(|l| (l.to_string(), 0)).collect();
    for f in findings {
        *counts.entry(f.lint.to_string()).or_insert(0) += 1;
    }
    counts
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Machine-readable report for `--format json`: schema tag, per-lint
/// counts, and the full findings list.
pub fn render_findings_json(counts: &BTreeMap<String, usize>, findings: &[Finding]) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"schema\": \"greenps-analysis/1\",\n  \"counts\": {");
    let last = counts.len().saturating_sub(1);
    for (i, (k, v)) in counts.iter().enumerate() {
        let comma = if i == last { "" } else { "," };
        out.push_str(&format!("\n    \"{}\": {v}{comma}", json_escape(k)));
    }
    out.push_str("\n  },\n  \"findings\": [");
    let last = findings.len().saturating_sub(1);
    for (i, f) in findings.iter().enumerate() {
        let comma = if i == last { "" } else { "," };
        out.push_str(&format!(
            "\n    {{\"lint\": \"{}\", \"path\": \"{}\", \"line\": {}, \"message\": \"{}\"}}{comma}",
            json_escape(f.lint),
            json_escape(&f.path),
            f.line,
            json_escape(&f.message)
        ));
    }
    out.push_str("\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counts(pairs: &[(&str, usize)]) -> Baseline {
        Baseline {
            counts: pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
        }
    }

    #[test]
    fn render_parse_round_trip() {
        let b = counts(&[("lock-order", 0), ("allowlist.hot-path-entries", 3)]);
        let text = b.render();
        let parsed = Baseline::parse(&text).expect("round trip");
        assert_eq!(parsed, b);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Baseline::parse("{}").is_err());
        assert!(Baseline::parse("{\"schema\": \"greenps-analysis-baseline/1\"}").is_err());
        let bad = "{\"schema\": \"greenps-analysis-baseline/1\", \"counts\": {\"a\": \"x\"}}";
        assert!(Baseline::parse(bad).is_err());
    }

    #[test]
    fn ratchet_directions() {
        let base = counts(&[("layering", 2), ("lock-order", 0)]);
        let same = compare(&base, &base);
        assert!(same.regressions.is_empty() && same.improvements.is_empty());

        let worse = compare(&base, &counts(&[("layering", 3), ("lock-order", 0)]));
        assert_eq!(worse.regressions.len(), 1);
        assert!(worse.regressions[0].contains("layering"));

        let better = compare(&base, &counts(&[("layering", 0), ("lock-order", 0)]));
        assert!(better.regressions.is_empty());
        assert_eq!(better.improvements.len(), 1);

        // A counter the baseline has never seen starts at budget 0.
        let new_lint = compare(&base, &counts(&[("telemetry-schema", 1)]));
        assert_eq!(new_lint.regressions.len(), 1);
        assert!(new_lint.regressions[0].contains("telemetry-schema"));
    }

    #[test]
    fn tally_includes_zeroes() {
        let findings = vec![Finding {
            lint: "layering",
            path: "crates/core/src/cram.rs".to_string(),
            line: 3,
            message: "m".to_string(),
        }];
        let t = tally(&["layering", "lock-order"], &findings);
        assert_eq!(t.get("layering"), Some(&1));
        assert_eq!(t.get("lock-order"), Some(&0));
    }

    #[test]
    fn findings_json_escapes_and_lists() {
        let findings = vec![Finding {
            lint: "telemetry-schema",
            path: "crates/core/src/x.rs".to_string(),
            line: 7,
            message: "unknown name `a\"b`".to_string(),
        }];
        let counts = tally(&["telemetry-schema"], &findings);
        let json = render_findings_json(&counts, &findings);
        assert!(json.contains("\"schema\": \"greenps-analysis/1\""));
        assert!(json.contains("\\\"b"));
        assert!(json.contains("\"line\": 7"));
    }
}
