//! Lint: crate layering (DESIGN.md §3).
//!
//! The workspace forms a strict DAG; an edge not in [`ALLOWED`] is a
//! back-edge that would let low layers reach up into policy code. Both
//! `Cargo.toml` `[dependencies]` declarations and `use greenps_*`
//! statements in source are checked, so a path dependency smuggled in
//! through a re-export still fails.

use crate::source::mask;
use crate::{line_of, Finding, SourceFile};

/// Allowed `greenps-*` dependency edges, from DESIGN.md §3.
/// `(crate, allowed direct dependencies)`.
pub const ALLOWED: [(&str, &[&str]); 10] = [
    ("pubsub", &[]),
    ("telemetry", &[]),
    ("simnet", &["telemetry"]),
    ("net", &["simnet", "telemetry"]),
    ("profile", &["pubsub"]),
    ("core", &["pubsub", "profile", "telemetry"]),
    (
        "broker",
        &["pubsub", "simnet", "net", "profile", "core", "telemetry"],
    ),
    (
        "workload",
        &[
            "pubsub",
            "simnet",
            "net",
            "profile",
            "core",
            "broker",
            "telemetry",
        ],
    ),
    (
        "bench",
        &[
            "pubsub",
            "simnet",
            "net",
            "profile",
            "core",
            "broker",
            "workload",
            "telemetry",
        ],
    ),
    ("analysis", &[]),
];

fn allowed_for(krate: &str) -> Option<&'static [&'static str]> {
    ALLOWED
        .iter()
        .find(|(c, _)| *c == krate)
        .map(|(_, deps)| *deps)
}

/// Checks one crate's `Cargo.toml` text for illegal `greenps-*` edges.
///
/// Only the `[dependencies]` section is enforced; dev-dependencies may
/// reach any layer (tests sit above the whole stack).
pub fn check_manifest(krate: &str, manifest_path: &str, text: &str) -> Vec<Finding> {
    let Some(allowed) = allowed_for(krate) else {
        return vec![Finding {
            lint: "layering",
            path: manifest_path.to_string(),
            line: 0,
            message: format!("crate `{krate}` is not in the DESIGN.md §3 layering table — add it"),
        }];
    };
    let mut findings = Vec::new();
    let mut in_dependencies = false;
    for (idx, line) in text.lines().enumerate() {
        let trimmed = line.trim();
        if trimmed.starts_with('[') {
            in_dependencies = trimmed == "[dependencies]";
            continue;
        }
        if !in_dependencies {
            continue;
        }
        if let Some(rest) = trimmed.strip_prefix("greenps-") {
            let dep: String = rest
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric() || *c == '-' || *c == '_')
                .collect();
            if dep == krate {
                continue;
            }
            if !allowed.contains(&dep.as_str()) {
                findings.push(Finding {
                    lint: "layering",
                    path: manifest_path.to_string(),
                    line: idx + 1,
                    message: format!(
                        "`{krate}` may not depend on `{dep}` (DESIGN.md §3 allows only {allowed:?})"
                    ),
                });
            }
        }
    }
    findings
}

/// Checks `use greenps_*` / `greenps_*::` references in library source.
pub fn check_sources(files: &[SourceFile]) -> Vec<Finding> {
    let mut findings = Vec::new();
    for file in files {
        let Some(krate) = file.crate_name() else {
            continue;
        };
        let Some(allowed) = allowed_for(krate) else {
            continue;
        };
        if !file.is_library_code() {
            continue;
        }
        let masked = mask(&file.content);
        let mut from = 0;
        while let Some(rel) = masked[from..].find("greenps_") {
            let at = from + rel;
            let after = at + "greenps_".len();
            let dep: String = masked[after..]
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                .collect();
            from = after + dep.len();
            let dep = dep.replace('_', "-");
            if dep.is_empty() || dep == krate {
                continue;
            }
            if !allowed.contains(&dep.as_str()) {
                findings.push(Finding {
                    lint: "layering",
                    path: file.path.clone(),
                    line: line_of(&file.content, at),
                    message: format!(
                        "`{krate}` references `greenps_{}` but DESIGN.md §3 allows only {allowed:?}",
                        dep.replace('-', "_")
                    ),
                });
            }
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_back_edge_fires() {
        let toml = "[package]\nname = \"greenps-profile\"\n\n[dependencies]\ngreenps-pubsub.workspace = true\ngreenps-core.workspace = true\n\n[dev-dependencies]\ngreenps-workload.workspace = true\n";
        let got = check_manifest("profile", "crates/profile/Cargo.toml", toml);
        assert_eq!(got.len(), 1, "{got:?}");
        assert!(got[0].message.contains("`core`"));
        assert_eq!(got[0].line, 6);
    }

    #[test]
    fn manifest_allowed_edges_pass() {
        let toml =
            "[dependencies]\ngreenps-pubsub.workspace = true\ngreenps-profile.workspace = true\n";
        assert!(check_manifest("core", "crates/core/Cargo.toml", toml).is_empty());
    }

    #[test]
    fn source_back_edge_fires() {
        let files = vec![SourceFile::new(
            "crates/pubsub/src/filter.rs",
            "use greenps_core::model::AllocationInput;\n",
        )];
        let got = check_sources(&files);
        assert_eq!(got.len(), 1);
        assert!(got[0].message.contains("greenps_core"));
    }

    #[test]
    fn source_allowed_and_out_of_scope_pass() {
        let files = vec![
            SourceFile::new(
                "crates/core/src/model.rs",
                "use greenps_profile::SubscriptionProfile;\n",
            ),
            SourceFile::new(
                "crates/core/tests/t.rs",
                "use greenps_workload::scenario::Scenario;\n",
            ),
        ];
        assert!(check_sources(&files).is_empty());
    }

    #[test]
    fn unknown_crate_is_flagged() {
        let got = check_manifest("newcrate", "crates/newcrate/Cargo.toml", "[dependencies]\n");
        assert_eq!(got.len(), 1);
        assert!(got[0].message.contains("layering table"));
    }
}
