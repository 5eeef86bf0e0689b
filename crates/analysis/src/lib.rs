//! Workspace static-analysis engine (DESIGN.md §9).
//!
//! Per-site rules (panic freedom, cast safety, determinism) are clippy
//! lints on the crate roots, checked with type information by `cargo
//! clippy`. This crate keeps the cross-file rules the compiler cannot
//! express. A std-only token-level [`lexer`] feeds four of them:
//!
//! - [`layering`] — enforces the DESIGN.md §3 crate dependency DAG
//!   from both `Cargo.toml` declarations and `use greenps_*` imports.
//! - [`lock_hygiene`] — forbids `std::sync::Mutex`/`RwLock` (the
//!   workspace standardizes on `parking_lot`) and flags lock guards
//!   held across a doorbell `ring` or channel `send`/`recv` in `net`.
//! - [`telemetry_schema`] — cross-checks every registered instrument
//!   name against `analysis/telemetry-schema.txt`.
//! - [`lock_order`] — builds the static lock-acquisition graph and
//!   fails on ordering cycles.
//!
//! On top of the lexer, a recursive-descent item [`parser`] recovers
//! functions, call sites, and receiver types, and [`callgraph`]
//! resolves them into a deterministic workspace call graph (exported
//! as byte-stable `greenps-callgraph/1` JSON). Three passes run over
//! that graph and the per-function [`cfg`](mod@cfg) (DESIGN.md §9.2):
//!
//! - [`hot_path_alloc`] — allocation calls reachable from the declared
//!   steady-state hot paths (`analysis/hot-paths.txt`), modulo a
//!   budgeted allowlist.
//! - [`cancel_responsive`] — loops reachable from long-running entry
//!   points must poll the cancel token.
//! - [`loop_growth`] — unreserved pushes in subscription-scale loops;
//!   tracked via its ratchet counter rather than enforced per finding.
//!
//! [`baseline`] adds the findings ratchet (`analysis/baseline.json`):
//! counts may only fall. Everything operates on `(path, content)` pairs
//! so each lint is unit testable with synthetic snippets; the binary in
//! `main.rs` wires them to the real tree.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod allowlist;
pub mod baseline;
pub mod callgraph;
pub mod cancel_responsive;
pub mod cfg;
pub mod hot_path_alloc;
pub mod layering;
pub mod lexer;
pub mod lock_hygiene;
pub mod lock_order;
pub mod loop_growth;
pub mod parser;
pub mod source;
pub mod telemetry_schema;

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

/// One lint violation, pointing at a repo-relative path and line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Which lint produced this finding (e.g. `layering`).
    pub lint: &'static str,
    /// Repo-relative path with forward slashes.
    pub path: String,
    /// 1-based line number (0 when the finding is file-level).
    pub line: usize,
    /// Human-readable description of the violation.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "{}: [{}] {}", self.path, self.lint, self.message)
        } else {
            write!(
                f,
                "{}:{}: [{}] {}",
                self.path, self.line, self.lint, self.message
            )
        }
    }
}

/// A source file loaded for analysis.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Repo-relative path with forward slashes.
    pub path: String,
    /// Raw file contents.
    pub content: String,
}

impl SourceFile {
    /// Convenience constructor for tests and synthetic snippets.
    pub fn new(path: &str, content: &str) -> Self {
        SourceFile {
            path: path.to_string(),
            content: content.to_string(),
        }
    }

    /// The crate short name (`core` for `crates/core/src/x.rs`), if the
    /// file lives under `crates/`.
    pub fn crate_name(&self) -> Option<&str> {
        let rest = self.path.strip_prefix("crates/")?;
        rest.split('/').next()
    }

    /// True when the file is library code: under `src/` and not under a
    /// `tests/`, `benches/`, `examples/` or `src/bin/` directory.
    pub fn is_library_code(&self) -> bool {
        self.path.contains("/src/")
            && !self.path.contains("/tests/")
            && !self.path.contains("/benches/")
            && !self.path.contains("/examples/")
            && !self.path.contains("/src/bin/")
    }
}

/// Locates the workspace root: walks up from `start` until a directory
/// containing both `Cargo.toml` and `crates/` is found.
pub fn workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        if dir.join("Cargo.toml").is_file() && dir.join("crates").is_dir() {
            return Some(dir);
        }
        if !dir.pop() {
            return None;
        }
    }
}

/// Loads every `.rs` file under `root/<sub>` (recursively) as
/// repo-relative [`SourceFile`]s, sorted by path for stable output.
pub fn load_sources(root: &Path, sub: &str) -> std::io::Result<Vec<SourceFile>> {
    let mut out = Vec::new();
    let base = root.join(sub);
    if base.exists() {
        walk(root, &base, &mut out)?;
    }
    out.sort_by(|a, b| a.path.cmp(&b.path));
    Ok(out)
}

fn walk(root: &Path, dir: &Path, out: &mut Vec<SourceFile>) -> std::io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        if path.is_dir() {
            // target/ can appear under crate dirs when building in-tree.
            if path.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            walk(root, &path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            out.push(SourceFile {
                path: rel,
                content: fs::read_to_string(&path)?,
            });
        }
    }
    Ok(())
}

/// Maps a byte offset in `text` to a 1-based line number.
pub fn line_of(text: &str, offset: usize) -> usize {
    text.as_bytes()[..offset.min(text.len())]
        .iter()
        .filter(|&&b| b == b'\n')
        .count()
        + 1
}

/// Returns the full text of the line containing byte `offset`.
pub fn line_text(text: &str, offset: usize) -> &str {
    let offset = offset.min(text.len());
    let start = text[..offset].rfind('\n').map_or(0, |i| i + 1);
    let end = text[offset..].find('\n').map_or(text.len(), |i| offset + i);
    &text[start..end]
}
