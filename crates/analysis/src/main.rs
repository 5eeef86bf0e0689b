//! CLI for the workspace static-analysis engine.
//!
//! ```text
//! cargo run -p greenps-analysis -- <check> [--ratchet] [--format text|json]
//! ```
//!
//! Prints findings as `path:line: [lint] message` (or a machine-
//! readable JSON report with `--format json`) and exits non-zero when
//! any lint fires. With `--ratchet` (only valid with `all`) findings
//! are instead compared against `analysis/baseline.json`: growth fails,
//! improvements auto-shrink the baseline.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use greenps_analysis::allowlist::Allowlist;
use greenps_analysis::callgraph::CallGraph;
use greenps_analysis::cancel_responsive::CANCEL_SPEC;
use greenps_analysis::hot_path_alloc::HOT_PATH_SPEC;
use greenps_analysis::telemetry_schema::Schema;
use greenps_analysis::{
    baseline, cancel_responsive, hot_path_alloc, layering, load_sources, lock_hygiene, lock_order,
    loop_growth, telemetry_schema, workspace_root, Finding, SourceFile,
};
use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const HOT_PATHS_PATH: &str = "analysis/hot-paths.txt";
const HOT_ALLOWLIST_PATH: &str = "analysis/hot-path-allowlist.txt";
const CANCEL_ALLOWLIST_PATH: &str = "analysis/cancel-allowlist.txt";
const SCHEMA_PATH: &str = "analysis/telemetry-schema.txt";
const BASELINE_PATH: &str = "analysis/baseline.json";

/// Every lint name, in the order counts are reported.
const LINTS: [&str; 4] = ["layering", "lock-hygiene", "lock-order", "telemetry-schema"];

const USAGE: &str = "usage: cargo run -p greenps-analysis -- <check> [--ratchet] [--format text|json]\n\nchecks:\n  layering          DESIGN.md \u{a7}3 crate dependency DAG\n  lock-hygiene      std::sync locks; guards held across doorbell/channel ops\n  telemetry-schema  instrument names vs analysis/telemetry-schema.txt\n  lock-order        static lock acquisition-order cycles\n  hot-path-alloc    allocations reachable from analysis/hot-paths.txt entries\n  cancel-responsive loops reachable from long-running entries must poll cancel\n  loop-growth       unreserved push/insert in subscription-scale loops (tracked)\n  callgraph         print the workspace call graph as greenps-callgraph/1 JSON\n  all               every check above (callgraph excluded)\n\nflags:\n  --ratchet         compare counts against analysis/baseline.json: growth\n                    fails, improvements auto-shrink the baseline (all only)\n  --format <fmt>    text (default) or json\n\nPer-site rules (panics, casts, determinism) are clippy lints on the\ncrate roots: run `cargo clippy --workspace --all-targets -- -D warnings`.";

#[derive(Clone, Copy, PartialEq, Eq)]
enum Format {
    Text,
    Json,
}

struct Options {
    check: String,
    ratchet: bool,
    format: Format,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut check: Option<String> = None;
    let mut ratchet = false;
    let mut format = Format::Text;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--ratchet" => ratchet = true,
            "--format" => match it.next().map(String::as_str) {
                Some("text") => format = Format::Text,
                Some("json") => format = Format::Json,
                other => {
                    return Err(format!(
                        "--format expects `text` or `json`, got {}",
                        other.unwrap_or("nothing")
                    ))
                }
            },
            flag if flag.starts_with("--") => return Err(format!("unknown flag `{flag}`")),
            positional if check.is_none() => check = Some(positional.to_string()),
            extra => return Err(format!("unexpected argument `{extra}`")),
        }
    }
    let check = check.ok_or_else(|| "missing <check>".to_string())?;
    if ratchet && check != "all" {
        return Err("--ratchet is only valid with `all`".to_string());
    }
    Ok(Options {
        check,
        ratchet,
        format,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    let start = std::env::var_os("CARGO_MANIFEST_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("."));
    let Some(root) = workspace_root(&start) else {
        eprintln!(
            "error: could not locate the workspace root from {}",
            start.display()
        );
        return ExitCode::from(2);
    };

    if opts.check == "callgraph" {
        // Not a lint: prints the graph JSON and nothing else, so the
        // output can be redirected straight into an artifact.
        return match export_callgraph(&root) {
            Ok(json) => {
                print!("{json}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::from(2)
            }
        };
    }

    let (findings, counts) = match run_checks(&root, &opts.check) {
        Ok(pair) => pair,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };

    match opts.format {
        Format::Json => print!("{}", baseline::render_findings_json(&counts, &findings)),
        Format::Text => {
            for f in &findings {
                println!("{f}");
            }
        }
    }

    if opts.ratchet {
        return ratchet(&root, &counts);
    }

    // loop-growth findings are *tracked*: their ratchet counter
    // (`growth.findings`) is the enforcement, so they inform but do not
    // fail a plain run.
    let enforced = findings.iter().filter(|f| f.lint != "loop-growth").count();
    if enforced == 0 {
        if opts.format == Format::Text {
            if findings.is_empty() {
                println!("analysis: `{}` clean", opts.check);
            } else {
                println!(
                    "analysis: `{}` clean ({} tracked finding(s))",
                    opts.check,
                    findings.len()
                );
            }
        }
        ExitCode::SUCCESS
    } else {
        eprintln!("analysis: `{}` found {enforced} violation(s)", opts.check);
        ExitCode::FAILURE
    }
}

/// Applies the baseline ratchet: regression fails, improvement shrinks
/// the baseline file in place.
fn ratchet(root: &Path, counts: &BTreeMap<String, usize>) -> ExitCode {
    let path = root.join(BASELINE_PATH);
    let text = match fs::read_to_string(&path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("error: cannot read {BASELINE_PATH}: {e}");
            return ExitCode::from(2);
        }
    };
    let base = match baseline::Baseline::parse(&text) {
        Ok(base) => base,
        Err(e) => {
            eprintln!("error: {BASELINE_PATH}: {e}");
            return ExitCode::from(2);
        }
    };
    let current = baseline::Baseline {
        counts: counts.clone(),
    };
    let outcome = baseline::compare(&base, &current);

    if !outcome.regressions.is_empty() {
        for r in &outcome.regressions {
            eprintln!("ratchet: {r}");
        }
        eprintln!(
            "analysis: ratchet failed — {} counter(s) above baseline",
            outcome.regressions.len()
        );
        return ExitCode::FAILURE;
    }
    if !outcome.improvements.is_empty() {
        if let Err(e) = fs::write(&path, current.render()) {
            eprintln!("error: cannot shrink {BASELINE_PATH}: {e}");
            return ExitCode::from(2);
        }
        for i in &outcome.improvements {
            eprintln!("ratchet: {i}");
        }
        eprintln!("ratchet: baseline auto-shrunk — commit the updated {BASELINE_PATH}");
    }
    eprintln!("analysis: ratchet ok");
    ExitCode::SUCCESS
}

/// Runs the selected checks; returns findings plus per-counter tallies
/// (lint findings and allowlist sizes) for the ratchet.
fn run_checks(root: &Path, check: &str) -> Result<(Vec<Finding>, BTreeMap<String, usize>), String> {
    let sources = first_party_sources(root)?;
    let needs_graph = matches!(check, "hot-path-alloc" | "cancel-responsive" | "all");
    let graph = needs_graph.then(|| CallGraph::build(&sources));

    let mut findings = Vec::new();
    let mut extra_counts: BTreeMap<String, usize> = BTreeMap::new();
    let mut known = false;

    if matches!(check, "layering" | "all") {
        known = true;
        findings.extend(layering::check_sources(&sources));
        findings.extend(check_manifests(root)?);
    }
    if matches!(check, "lock-hygiene" | "all") {
        known = true;
        let crates: Vec<SourceFile> = sources
            .iter()
            .filter(|f| f.path.starts_with("crates/"))
            .cloned()
            .collect();
        findings.extend(lock_hygiene::check_std_sync(&crates));
        findings.extend(lock_hygiene::check_guard_across_channel(&crates));
    }
    if matches!(check, "telemetry-schema" | "all") {
        known = true;
        let text = fs::read_to_string(root.join(SCHEMA_PATH)).map_err(|e| {
            format!("cannot read {SCHEMA_PATH}: {e} — the telemetry-schema lint requires it")
        })?;
        let schema = Schema::parse(SCHEMA_PATH, &text);
        findings.extend(telemetry_schema::run(&sources, &schema, SCHEMA_PATH));
    }
    if matches!(check, "lock-order" | "all") {
        known = true;
        findings.extend(lock_order::run(&sources));
    }
    if matches!(check, "hot-path-alloc" | "all") {
        known = true;
        if let Some(graph) = &graph {
            let hot_text = fs::read_to_string(root.join(HOT_PATHS_PATH)).map_err(|e| {
                format!("cannot read {HOT_PATHS_PATH}: {e} — the hot-path-alloc pass requires it")
            })?;
            let allow_text = fs::read_to_string(root.join(HOT_ALLOWLIST_PATH)).unwrap_or_default();
            let allowlist = Allowlist::parse(HOT_ALLOWLIST_PATH, &allow_text, &HOT_PATH_SPEC);
            extra_counts.insert(
                "allowlist.hot-path-entries".to_string(),
                allowlist.entries.len(),
            );
            let got = hot_path_alloc::run(
                &sources,
                graph,
                HOT_PATHS_PATH,
                &hot_text,
                &allowlist,
                HOT_ALLOWLIST_PATH,
            );
            extra_counts.insert("hot-path.alloc-findings".to_string(), got.len());
            findings.extend(got);
        }
    }
    if matches!(check, "cancel-responsive" | "all") {
        known = true;
        if let Some(graph) = &graph {
            let allow_text =
                fs::read_to_string(root.join(CANCEL_ALLOWLIST_PATH)).unwrap_or_default();
            let allowlist = Allowlist::parse(CANCEL_ALLOWLIST_PATH, &allow_text, &CANCEL_SPEC);
            extra_counts.insert(
                "allowlist.cancel-entries".to_string(),
                allowlist.entries.len(),
            );
            let got = cancel_responsive::run(
                &sources,
                graph,
                cancel_responsive::DEFAULT_ENTRIES,
                &allowlist,
                CANCEL_ALLOWLIST_PATH,
            );
            extra_counts.insert("cancel.findings".to_string(), got.len());
            findings.extend(got);
        }
    }
    if matches!(check, "loop-growth" | "all") {
        known = true;
        let got = loop_growth::run(&sources);
        extra_counts.insert("growth.findings".to_string(), got.len());
        findings.extend(got);
    }

    if !known {
        return Err(format!("unknown check `{check}`\n{USAGE}"));
    }
    findings.sort_by(|a, b| (&a.path, a.line, &a.message).cmp(&(&b.path, b.line, &b.message)));
    findings.dedup();

    let mut counts = baseline::tally(&LINTS, &findings);
    // The interprocedural passes report under dotted counter names
    // (set above from their own tallies); drop the per-lint duplicates
    // the generic tally just created for their findings.
    for lint in ["hot-path-alloc", "cancel-responsive", "loop-growth"] {
        counts.remove(lint);
    }
    counts.append(&mut extra_counts);
    Ok((findings, counts))
}

/// Loads the first-party sources: `crates/` and the root `src/`.
fn first_party_sources(root: &Path) -> Result<Vec<SourceFile>, String> {
    let mut sources = load_sources(root, "crates").map_err(|e| e.to_string())?;
    sources.extend(load_sources(root, "src").map_err(|e| e.to_string())?);
    Ok(sources)
}

/// Loads first-party sources and renders the call graph JSON.
fn export_callgraph(root: &Path) -> Result<String, String> {
    Ok(CallGraph::build(&first_party_sources(root)?).to_json())
}

fn check_manifests(root: &Path) -> Result<Vec<Finding>, String> {
    let mut findings = Vec::new();
    let crates_dir = root.join("crates");
    let entries = fs::read_dir(&crates_dir).map_err(|e| e.to_string())?;
    for entry in entries {
        let entry = entry.map_err(|e| e.to_string())?;
        let manifest = entry.path().join("Cargo.toml");
        if !manifest.is_file() {
            continue;
        }
        let krate = entry.file_name().to_string_lossy().into_owned();
        let text = fs::read_to_string(&manifest).map_err(|e| e.to_string())?;
        let rel = format!("crates/{krate}/Cargo.toml");
        findings.extend(layering::check_manifest(&krate, &rel, &text));
    }
    Ok(findings)
}
