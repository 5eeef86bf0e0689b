//! Interprocedural pass: cancellation-responsiveness of long-running
//! loops (DESIGN.md §9.3).
//!
//! `ReconfigContext::cancel` is only useful if the allocator's
//! iteration structure actually polls it: a 36-minute `ZonedAllocate`
//! phase that checks the flag once per *phase* is uncancellable in
//! practice. This pass walks the call graph from the long-running
//! entry points — every `Phase::run` impl, `zoned_allocate`, and the
//! CRAM merge iteration — and demands that each reachable loop doing
//! per-subscription-scale work polls the cancel flag (calls
//! `is_cancelled`/`is_cancelled_hot` directly, or calls a callee that
//! transitively does) once per iteration.
//!
//! Three scoping rules keep the signal proportional to real stop
//! latency rather than flagging every leaf scan:
//!
//! - a loop nested inside a *polling* loop of the same function is
//!   compliant: the outer poll bounds stop latency to one outer
//!   iteration (exactly the "stops within one wave" contract);
//! - call edges *inside* a polling loop are not traversed: the callee
//!   runs at most once between polls, so its internal loops are
//!   bounded by the poll granularity;
//! - only loops that mention subscription/zone-scale identifiers
//!   (`sub*`, `zone*`, `unit*`, `gif*`, `wave*`, `partner*`) and call
//!   into the workspace are "substantial" — a bounded arithmetic scan
//!   needs no poll;
//! - findings are reported only for loops in the allocator runtime
//!   (the `core` crate), where `ReconfigContext` is threaded. The
//!   delivery/kernel layers (`broker`, `simnet`, `pubsub`, `profile`)
//!   do bounded per-event work with no view of the pipeline context —
//!   their cancellation boundary is the event loop in the phase that
//!   drives them — and `workload` is offline scenario synthesis. The
//!   BFS still traverses those crates so a core loop whose poll lives
//!   in a delivery-layer callee is credited correctly.
//!
//! Residual findings are budgeted in `analysis/cancel-allowlist.txt`
//! (kind `loop`) and counted under `cancel.findings`.

use std::collections::{BTreeMap, VecDeque};

use crate::allowlist::{Allowlist, AllowlistSpec};
use crate::callgraph::CallGraph;
use crate::cfg::{Cfg, LoopKind};
use crate::lexer::{self, Token, TokenKind};
use crate::parser::Callee;
use crate::{line_text, Finding, SourceFile};

/// Policy for `analysis/cancel-allowlist.txt`.
pub const CANCEL_SPEC: AllowlistSpec = AllowlistSpec {
    lint: "cancel-responsive",
    kinds: &["loop"],
    budget: 4,
};

/// Call names that count as polling the cancel flag.
pub const POLL_NAMES: &[&str] = &["is_cancelled", "is_cancelled_hot"];

/// Identifier fragments that mark a loop as subscription/zone-scale.
const SCALE_KEYWORDS: &[&str] = &["sub", "zone", "unit", "gif", "wave", "partner"];

/// Crates whose loops are reported. The BFS traverses every crate (so
/// polls in callees anywhere are credited), but only the allocator
/// runtime — where `ReconfigContext` is in scope — is held to the
/// per-loop polling contract. See the module docs for the rationale.
const FLAG_CRATES: &[&str] = &["core"];

/// The workspace's long-running entry points: qualified-name suffixes
/// plus the label used in findings. `Phase::run` impls are found by
/// trait name and need no suffix here.
pub const DEFAULT_ENTRIES: &[(&str, &str)] = &[
    ("zones::zoned_allocate", "zoned_allocate"),
    ("zones::zoned_allocate_resumable", "zoned_allocate"),
    ("cram::Engine::run", "CRAM merge loop"),
];

/// One loop of one function, with its polling status resolved.
#[derive(Debug, Clone)]
struct LoopRec {
    kind: LoopKind,
    /// Byte offset of the loop keyword.
    start: usize,
    /// Byte span of the body braces.
    body: (usize, usize),
    line: usize,
    /// True when the loop body polls the cancel flag (directly or via
    /// a transitively-polling callee).
    polls: bool,
}

/// Runs the pass over the workspace sources and call graph.
pub fn run(
    files: &[SourceFile],
    graph: &CallGraph,
    entries: &[(&str, &str)],
    allowlist: &Allowlist,
    allowlist_path: &str,
) -> Vec<Finding> {
    let mut findings: Vec<Finding> = allowlist.errors.clone();
    let mut used = vec![false; allowlist.entries.len()];

    let by_path: BTreeMap<&str, &SourceFile> = files.iter().map(|f| (f.path.as_str(), f)).collect();
    let tok_map: BTreeMap<&str, Vec<Token<'_>>> = files
        .iter()
        .filter(|f| f.is_library_code())
        .map(|f| (f.path.as_str(), lexer::tokenize(&f.content)))
        .collect();

    // 1. Which functions poll, directly or transitively.
    let mut polls: Vec<bool> = graph
        .nodes
        .iter()
        .map(|n| {
            n.item.calls.iter().any(|c| {
                let name = match &c.callee {
                    Callee::Path(segs) => segs.last().map(String::as_str),
                    Callee::Method { name, .. } => Some(name.as_str()),
                };
                name.is_some_and(|n| POLL_NAMES.contains(&n))
            })
        })
        .collect();
    loop {
        let mut changed = false;
        for &(a, b) in &graph.edges {
            if polls[b] && !polls[a] {
                polls[a] = true;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    // 2. Entries: named suffixes plus every `Phase::run` impl.
    let mut starts: Vec<usize> = Vec::new();
    let mut label_of: BTreeMap<usize, String> = BTreeMap::new();
    for &(suffix, label) in entries {
        for n in graph.find_suffix(suffix) {
            starts.push(n);
            label_of.entry(n).or_insert_with(|| label.to_string());
        }
    }
    for (i, n) in graph.nodes.iter().enumerate() {
        if n.item.name == "run" && n.item.trait_name.as_deref() == Some("Phase") {
            starts.push(i);
            label_of
                .entry(i)
                .or_insert_with(|| "Phase::run".to_string());
        }
    }

    // 3. Covered-edge BFS: do not expand calls made inside a polling
    //    loop (the callee is bounded by the poll granularity).
    let mut loop_cache: BTreeMap<usize, Vec<LoopRec>> = BTreeMap::new();
    let loops_of = |node: usize, cache: &mut BTreeMap<usize, Vec<LoopRec>>| -> Vec<LoopRec> {
        if let Some(got) = cache.get(&node) {
            return got.clone();
        }
        let got = compute_loops(graph, node, &tok_map, &polls, &by_path);
        cache.insert(node, got.clone());
        got
    };

    let mut parent: BTreeMap<usize, usize> = BTreeMap::new();
    let mut queue: VecDeque<usize> = VecDeque::new();
    for &s in &starts {
        if let std::collections::btree_map::Entry::Vacant(e) = parent.entry(s) {
            e.insert(s);
            queue.push_back(s);
        }
    }
    while let Some(n) = queue.pop_front() {
        let loops = loops_of(n, &mut loop_cache);
        let calls = graph.nodes[n].item.calls.clone();
        for call in &calls {
            let covered = loops
                .iter()
                .any(|l| l.polls && call.offset >= l.body.0 && call.offset < l.body.1);
            if covered {
                continue;
            }
            for t in graph.resolve_site(n, &call.callee) {
                if let std::collections::btree_map::Entry::Vacant(e) = parent.entry(t) {
                    e.insert(n);
                    queue.push_back(t);
                }
            }
        }
    }

    // 4. Flag substantial, non-polling, non-covered loops.
    let visited: Vec<usize> = parent.keys().copied().collect();
    for &n in &visited {
        let node = &graph.nodes[n];
        let Some(file) = by_path.get(node.file.as_str()) else {
            continue;
        };
        if !file.crate_name().is_some_and(|c| FLAG_CRATES.contains(&c)) {
            continue;
        }
        let Some(toks) = tok_map.get(node.file.as_str()) else {
            continue;
        };
        let loops = loops_of(n, &mut loop_cache);
        for l in &loops {
            if l.polls {
                continue;
            }
            // Covered by an enclosing polling loop in the same fn.
            if loops
                .iter()
                .any(|o| o.polls && o.start < l.start && l.body.1 <= o.body.1)
            {
                continue;
            }
            if !is_substantial(graph, n, toks, l) {
                continue;
            }
            let text = line_text(&file.content, l.start);
            if allowlist.covers(&mut used, &node.file, "loop", text) {
                continue;
            }
            let entry = graph
                .witness(&parent, n)
                .first()
                .cloned()
                .unwrap_or_default();
            let label = label_of
                .iter()
                .find(|(&s, _)| graph.nodes[s].item.qualified == entry)
                .map(|(_, l)| l.as_str())
                .unwrap_or("?");
            let kind = match l.kind {
                LoopKind::Loop => "loop",
                LoopKind::While => "while",
                LoopKind::For => "for",
            };
            findings.push(Finding {
                lint: "cancel-responsive",
                path: node.file.clone(),
                line: l.line,
                message: format!(
                    "`{kind}` loop does per-subscription work without polling the cancel \
                     flag; reachable from `{label}` via {} — poll `is_cancelled_hot()` or \
                     call a cancellable callee each iteration",
                    graph.witness(&parent, n).join(" -> ")
                ),
            });
        }
    }

    findings.extend(allowlist.unused(&used, allowlist_path, "cancel-responsive"));
    findings.sort_by(|a, b| (&a.path, a.line, &a.message).cmp(&(&b.path, b.line, &b.message)));
    findings.dedup();
    findings
}

/// Builds the CFG for `node` and resolves each loop's polling status.
fn compute_loops(
    graph: &CallGraph,
    node: usize,
    tok_map: &BTreeMap<&str, Vec<Token<'_>>>,
    polls: &[bool],
    by_path: &BTreeMap<&str, &SourceFile>,
) -> Vec<LoopRec> {
    let item = &graph.nodes[node].item;
    let Some(body) = item.body else {
        return Vec::new();
    };
    let (Some(toks), Some(file)) = (
        tok_map.get(graph.nodes[node].file.as_str()),
        by_path.get(graph.nodes[node].file.as_str()),
    ) else {
        return Vec::new();
    };
    let code = lexer::code(toks);
    let cfg = Cfg::build(&code, body, &file.content);
    cfg.loops
        .iter()
        .map(|l| {
            let polls_here = item.calls.iter().any(|c| {
                if c.offset < l.body.0 || c.offset >= l.body.1 {
                    return false;
                }
                let name = match &c.callee {
                    Callee::Path(segs) => segs.last().map(String::as_str),
                    Callee::Method { name, .. } => Some(name.as_str()),
                };
                if name.is_some_and(|n| POLL_NAMES.contains(&n)) {
                    return true;
                }
                graph
                    .resolve_site(node, &c.callee)
                    .iter()
                    .any(|&t| polls[t])
            });
            LoopRec {
                kind: l.kind,
                start: l.start,
                body: l.body,
                line: l.line,
                polls: polls_here,
            }
        })
        .collect()
}

/// True when the loop does per-subscription-scale work: its header or
/// body mentions a scale identifier AND it calls into the workspace.
fn is_substantial(graph: &CallGraph, node: usize, toks: &[Token<'_>], l: &LoopRec) -> bool {
    let item = &graph.nodes[node].item;
    let calls_workspace = item.calls.iter().any(|c| {
        c.offset >= l.start
            && c.offset < l.body.1
            && !graph.resolve_site(node, &c.callee).is_empty()
    });
    if !calls_workspace {
        return false;
    }
    toks.iter()
        .filter(|t| t.kind == TokenKind::Ident && t.start >= l.start && t.end <= l.body.1)
        .any(|t| {
            let lower = t.text.to_ascii_lowercase();
            SCALE_KEYWORDS.iter().any(|k| lower.contains(k))
        })
}

/// Hidden per-kind tallies are not needed: everything reports under
/// `cancel.findings` via the CLI's extra counters.
#[cfg(test)]
mod tests {
    use super::*;

    fn pass(files: &[(&str, &str)], entries: &[(&str, &str)], allow: &str) -> Vec<Finding> {
        let files: Vec<SourceFile> = files.iter().map(|(p, c)| SourceFile::new(p, c)).collect();
        let graph = CallGraph::build(&files);
        let al = Allowlist::parse("allow.txt", allow, &CANCEL_SPEC);
        run(&files, &graph, entries, &al, "allow.txt")
    }

    const ENTRY: &[(&str, &str)] = &[("a::drive", "drive")];

    #[test]
    fn unpolled_scale_loop_is_flagged_with_witness() {
        let got = pass(
            &[(
                "crates/core/src/a.rs",
                "pub fn drive(subs: &[u64]) { inner(subs); }\n\
                 pub fn inner(subs: &[u64]) { for s in subs { work(*s); } }\n\
                 pub fn work(_s: u64) {}",
            )],
            ENTRY,
            "",
        );
        assert_eq!(got.len(), 1, "{got:?}");
        assert!(got[0].message.contains("`for` loop"));
        assert!(got[0].message.contains("drive"));
        assert!(got[0].message.contains("greenps_core::a::inner"));
    }

    #[test]
    fn direct_poll_in_the_loop_is_compliant() {
        let got = pass(
            &[(
                "crates/core/src/a.rs",
                "pub fn drive(ctx: &Ctx, subs: &[u64]) {\n\
                   for s in subs { if ctx.is_cancelled_hot() { return; } work(*s); }\n\
                 }\n\
                 pub fn work(_s: u64) {}",
            )],
            ENTRY,
            "",
        );
        assert!(got.is_empty(), "{got:?}");
    }

    #[test]
    fn transitively_polling_callee_is_compliant() {
        let got = pass(
            &[(
                "crates/core/src/a.rs",
                "pub fn drive(ctx: &Ctx, subs: &[u64]) { for s in subs { step(ctx, *s); } }\n\
                 pub fn step(ctx: &Ctx, s: u64) { check(ctx); work(s); }\n\
                 pub fn check(ctx: &Ctx) { ctx.is_cancelled(); }\n\
                 pub fn work(_s: u64) {}",
            )],
            ENTRY,
            "",
        );
        assert!(got.is_empty(), "{got:?}");
    }

    #[test]
    fn loops_below_a_polling_loop_are_covered() {
        // `drive`'s wave loop polls; the per-zone scan it calls (and
        // any loops inside) is bounded by one wave.
        let got = pass(
            &[(
                "crates/core/src/a.rs",
                "pub fn drive(ctx: &Ctx, zones: &[u64]) {\n\
                   for z in zones { if ctx.is_cancelled_hot() { return; } scan(*z); }\n\
                 }\n\
                 pub fn scan(zone: u64) { let units = [zone]; for u in units { work(u); } }\n\
                 pub fn work(_u: u64) {}",
            )],
            ENTRY,
            "",
        );
        assert!(got.is_empty(), "{got:?}");
    }

    #[test]
    fn inner_loop_inside_polling_loop_same_fn_is_covered() {
        let got = pass(
            &[(
                "crates/core/src/a.rs",
                "pub fn drive(ctx: &Ctx, zones: &[u64]) {\n\
                   for z in zones {\n\
                     if ctx.is_cancelled_hot() { return; }\n\
                     for unit in 0..*z { work(unit); }\n\
                   }\n\
                 }\n\
                 pub fn work(_u: u64) {}",
            )],
            ENTRY,
            "",
        );
        assert!(got.is_empty(), "{got:?}");
    }

    #[test]
    fn bounded_arithmetic_loops_are_not_substantial() {
        let got = pass(
            &[(
                "crates/core/src/a.rs",
                "pub fn drive(subs: &[u64]) -> u64 {\n\
                   let mut acc = 0;\n\
                   for s in subs { acc += *s; }\n\
                   acc\n\
                 }",
            )],
            ENTRY,
            "",
        );
        assert!(got.is_empty(), "{got:?}");
    }

    #[test]
    fn non_scale_loops_are_out_of_scope() {
        let got = pass(
            &[(
                "crates/core/src/a.rs",
                "pub fn drive(names: &[u64]) { for n in names { work(*n); } }\n\
                 pub fn work(_n: u64) {}",
            )],
            ENTRY,
            "",
        );
        assert!(got.is_empty(), "{got:?}");
    }

    #[test]
    fn phase_run_impls_are_entries() {
        let got = pass(
            &[(
                "crates/core/src/a.rs",
                "pub trait Phase { fn run(&mut self); }\n\
                 pub struct P;\n\
                 impl Phase for P {\n\
                   fn run(&mut self) { let subs = [1u64]; for s in subs { work(s); } }\n\
                 }\n\
                 pub fn work(_s: u64) {}",
            )],
            &[],
            "",
        );
        assert_eq!(got.len(), 1, "{got:?}");
        assert!(got[0].message.contains("Phase::run"));
    }

    #[test]
    fn delivery_layer_loops_are_traversed_but_not_flagged() {
        // An unpolled scale loop in the broker crate is traversed but
        // not reported: only `core` is held to the polling contract.
        let got = pass(
            &[(
                "crates/broker/src/b.rs",
                "pub fn drive(subs: &[u64]) { for s in subs { emit(*s); } }\n\
                 pub fn emit(_s: u64) {}",
            )],
            &[("b::drive", "drive")],
            "",
        );
        assert!(got.is_empty(), "{got:?}");

        // But a poll living in a lower-layer callee still credits the
        // core loop that calls it — the graph is traversed everywhere.
        let polled = pass(
            &[
                (
                    "crates/core/src/a.rs",
                    "pub fn drive(ctx: &Ctx, subs: &[u64]) { for s in subs { touch(ctx, *s); } }",
                ),
                (
                    "crates/profile/src/b.rs",
                    "pub fn touch(ctx: &Ctx, _s: u64) { ctx.is_cancelled_hot(); }",
                ),
            ],
            ENTRY,
            "",
        );
        assert!(polled.is_empty(), "{polled:?}");
        let unpolled = pass(
            &[
                (
                    "crates/core/src/a.rs",
                    "pub fn drive(ctx: &Ctx, subs: &[u64]) { for s in subs { touch(ctx, *s); } }",
                ),
                (
                    "crates/profile/src/b.rs",
                    "pub fn touch(_ctx: &Ctx, _s: u64) {}",
                ),
            ],
            ENTRY,
            "",
        );
        assert_eq!(unpolled.len(), 1, "{unpolled:?}");
    }

    #[test]
    fn allowlist_covers_and_stale_entries_fail() {
        let src =
            "pub fn drive(subs: &[u64]) { for s in subs { work(*s); } }\npub fn work(_s: u64) {}";
        let covered = pass(
            &[("crates/core/src/a.rs", src)],
            ENTRY,
            "crates/core/src/a.rs loop for -- bounded by feed batching\n",
        );
        assert!(covered.is_empty(), "{covered:?}");
        let stale = pass(
            &[("crates/core/src/a.rs", "pub fn drive() {}")],
            ENTRY,
            "crates/core/src/a.rs loop for -- gone\n",
        );
        assert_eq!(stale.len(), 1, "{stale:?}");
        assert!(stale[0].message.contains("stale"));
    }
}
