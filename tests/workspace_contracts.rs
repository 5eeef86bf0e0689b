//! Contracts over the workspace's own files: the crate layering of
//! DESIGN.md §3, read from each crate's manifest, and the telemetry
//! name table, which must name only instruments some crate records.

use greenps_telemetry::names;
use std::fs;
use std::path::{Path, PathBuf};

/// Allowed `greenps-*` edges of each crate's `[dependencies]`
/// (DESIGN.md §3). The layers form a DAG: a low layer never reaches
/// up into policy code. Dev-dependencies may reach any layer, since
/// tests sit above the whole stack.
#[rustfmt::skip]
const LAYERS: [(&str, &[&str]); 9] = [
    ("pubsub", &[]),
    ("telemetry", &[]),
    ("simnet", &["telemetry"]),
    ("net", &["simnet", "telemetry"]),
    ("profile", &["pubsub"]),
    ("core", &["pubsub", "profile", "telemetry"]),
    ("broker", &["pubsub", "simnet", "net", "profile", "core", "telemetry"]),
    ("workload", &["pubsub", "simnet", "net", "profile", "core", "broker", "telemetry"]),
    ("bench", &["pubsub", "simnet", "net", "profile", "core", "broker", "workload", "telemetry"]),
];

fn crate_dirs() -> Vec<PathBuf> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let mut dirs: Vec<PathBuf> = fs::read_dir(&root)
        .expect("read crates/")
        .map(|entry| entry.expect("crates/ entry").path())
        .filter(|path| path.join("Cargo.toml").is_file())
        .collect();
    dirs.sort();
    dirs
}

/// The `greenps-*` crates a manifest's `[dependencies]` section names,
/// without their prefix.
fn workspace_dependencies(manifest: &str) -> Vec<String> {
    let mut deps = Vec::new();
    let mut in_dependencies = false;
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            in_dependencies = line == "[dependencies]";
        } else if in_dependencies {
            let key = line.split(['.', '=', ' ']).next().unwrap_or("");
            if let Some(name) = key.strip_prefix("greenps-") {
                deps.push(name.to_string());
            }
        }
    }
    deps
}

#[test]
fn crate_manifests_respect_the_layering_table() {
    let dirs = crate_dirs();
    assert_eq!(dirs.len(), LAYERS.len(), "crates/ and LAYERS disagree");
    for dir in dirs {
        let krate = dir.file_name().and_then(|n| n.to_str()).unwrap();
        let Some((_, allowed)) = LAYERS.iter().find(|(name, _)| *name == krate) else {
            panic!(
                "crate `{krate}` is not in the layering table; add it to LAYERS and DESIGN.md §3"
            );
        };
        let manifest = fs::read_to_string(dir.join("Cargo.toml")).unwrap();
        for dep in workspace_dependencies(&manifest) {
            assert!(
                allowed.contains(&dep.as_str()),
                "crates/{krate}/Cargo.toml depends on greenps-{dep}, an edge DESIGN.md §3 does not allow"
            );
        }
    }
}

#[test]
fn manifest_parser_reads_only_the_dependencies_section() {
    let manifest = "[package]\nname = \"greenps-core\"\n\n[dependencies]\n\
                    greenps-pubsub.workspace = true\ngreenps-profile = { path = \"../profile\" }\n\
                    serde.workspace = true\n\n[dev-dependencies]\ngreenps-broker.workspace = true\n";
    assert_eq!(workspace_dependencies(manifest), ["pubsub", "profile"]);
}

fn rust_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            rust_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Every entry of `names::ALL` is named, as `names::<ident>`, by a
/// source file of some crate other than telemetry (which declares the
/// table and exercises it in its own tests): a declared instrument
/// nothing records is a dead key in every snapshot reader's vocabulary.
#[test]
fn every_declared_telemetry_name_is_recorded() {
    let mut files = Vec::new();
    for dir in crate_dirs() {
        if !dir.ends_with("telemetry") {
            rust_sources(&dir.join("src"), &mut files);
        }
    }
    let sources: Vec<String> = files
        .iter()
        .map(|f| fs::read_to_string(f).unwrap())
        .collect();
    let dead: Vec<&str> = names::ALL
        .iter()
        .filter(|entry| {
            let path = format!("names::{}", entry.ident);
            !sources.iter().any(|src| {
                src.match_indices(&path).any(|(at, _)| {
                    !src[at + path.len()..]
                        .starts_with(|c: char| c.is_ascii_alphanumeric() || c == '_')
                })
            })
        })
        .map(|entry| entry.name)
        .collect();
    assert!(
        dead.is_empty(),
        "names declared but never recorded: {dead:?}"
    );
}
