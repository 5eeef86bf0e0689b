//! Deterministic workspace call graph (DESIGN.md §9.2).
//!
//! Built from [`crate::parser`] output over non-test library code:
//! nodes are function items, edges are resolved call sites. Resolution
//! is necessarily heuristic — this is a token-level analysis with no
//! type checker — and errs on the side of *no edge* when the receiver
//! type is known to be foreign (std containers, primitives) and on the
//! side of *all same-named candidates* when nothing is known, so that
//! reachability analyses (hot-path allocation, cancel responsiveness)
//! over-approximate rather than silently miss paths through the
//! workspace.
//!
//! The graph is deterministic: nodes are sorted by qualified name and
//! location, edges are a sorted de-duplicated set, and the JSON export
//! (`greenps-callgraph/1`) is byte-stable across runs — CI asserts
//! this by exporting twice and comparing.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::parser::{self, Callee, FnItem, ParsedFile, Receiver, TypeKind, Visibility};
use crate::SourceFile;

/// Methods so overwhelmingly likely to be std/container calls that an
/// *untyped* receiver never resolves them to workspace functions.
/// Typed receivers bypass this list: `cache.get(…)` with `cache:
/// PairCache` still resolves to `PairCache::get`.
const COMMON_STD_METHODS: &[&str] = &[
    "abs",
    "all",
    "and_then",
    "any",
    "as_bytes",
    "as_micros",
    "as_millis",
    "as_nanos",
    "as_ref",
    "as_secs",
    "as_str",
    "binary_search",
    "ceil",
    "chain",
    "chars",
    "chunks",
    "clear",
    "clone",
    "cloned",
    "cmp",
    "collect",
    "contains",
    "contains_key",
    "copied",
    "count",
    "dedup",
    "drain",
    "ends_with",
    "entry",
    "enumerate",
    "eq",
    "expect",
    "extend",
    "filter",
    "filter_map",
    "find",
    "first",
    "flat_map",
    "flatten",
    "floor",
    "fmt",
    "fold",
    "get",
    "get_mut",
    "get_or_insert_with",
    "hash",
    "insert",
    "into_iter",
    "is_empty",
    "is_none",
    "is_some",
    "iter",
    "iter_mut",
    "join",
    "keys",
    "last",
    "len",
    "map",
    "max",
    "max_by_key",
    "min",
    "min_by_key",
    "next",
    "ok",
    "parse",
    "partial_cmp",
    "pop",
    "pop_front",
    "position",
    "powi",
    "push",
    "push_back",
    "push_str",
    "remove",
    "replace",
    "resize",
    "retain",
    "rev",
    "round",
    "skip",
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "sort_unstable_by",
    "split",
    "split_off",
    "split_whitespace",
    "sqrt",
    "starts_with",
    "sum",
    "swap_remove",
    "take",
    "then",
    "then_some",
    "to_owned",
    "to_string",
    "to_vec",
    "trim",
    "trunc",
    "truncate",
    "unwrap",
    "unwrap_or",
    "unwrap_or_default",
    "unwrap_or_else",
    "values",
    "values_mut",
    "windows",
    "with_capacity",
    "zip",
];

/// A named workspace type with its field-type heads (structs only).
#[derive(Debug, Clone)]
pub struct TypeInfo {
    /// Struct, enum or trait.
    pub kind: TypeKind,
    /// Field name → type head, for named-field structs.
    pub fields: BTreeMap<String, String>,
}

/// One graph node: a parsed function item plus its file.
#[derive(Debug, Clone)]
pub struct Node {
    /// The parsed item.
    pub item: FnItem,
    /// Repo-relative path of the defining file.
    pub file: String,
}

/// The workspace call graph.
#[derive(Debug, Default)]
pub struct CallGraph {
    /// Nodes sorted by `(qualified, file, line)`.
    pub nodes: Vec<Node>,
    /// Sorted, de-duplicated `(caller, callee)` index pairs.
    pub edges: Vec<(usize, usize)>,
    /// Forward adjacency, parallel to `nodes`.
    pub adj: Vec<Vec<usize>>,
    /// Workspace type registry (structs/enums/traits by bare name).
    pub types: BTreeMap<String, TypeInfo>,
    /// Bare function name → node indices (candidate lookup).
    pub by_name: BTreeMap<String, Vec<usize>>,
}

impl CallGraph {
    /// Builds the graph from workspace sources. Only non-test functions
    /// in library code participate; `tests/`, `benches/`, bins and
    /// `#[cfg(test)]` regions are excluded.
    pub fn build(files: &[SourceFile]) -> CallGraph {
        let mut nodes: Vec<Node> = Vec::new();
        let mut types: BTreeMap<String, TypeInfo> = BTreeMap::new();
        let parsed: Vec<(&SourceFile, ParsedFile)> = files
            .iter()
            .filter(|f| f.is_library_code())
            .map(|f| (f, parser::parse_file(f)))
            .collect();
        for (file, p) in &parsed {
            for t in &p.types {
                types.entry(t.name.clone()).or_insert_with(|| TypeInfo {
                    kind: t.kind,
                    fields: BTreeMap::new(),
                });
                if let Some(info) = types.get_mut(&t.name) {
                    for (f, ty) in &t.fields {
                        info.fields.entry(f.clone()).or_insert_with(|| ty.clone());
                    }
                }
            }
            for item in &p.fns {
                if item.is_test {
                    continue;
                }
                nodes.push(Node {
                    item: item.clone(),
                    file: file.path.clone(),
                });
            }
        }
        nodes.sort_by(|a, b| {
            (&a.item.qualified, &a.file, a.item.line).cmp(&(
                &b.item.qualified,
                &b.file,
                b.item.line,
            ))
        });

        let mut g = CallGraph {
            nodes,
            edges: Vec::new(),
            adj: Vec::new(),
            types,
            by_name: BTreeMap::new(),
        };
        // Bare-name index for candidate lookup.
        for (i, n) in g.nodes.iter().enumerate() {
            g.by_name.entry(n.item.name.clone()).or_default().push(i);
        }
        let mut edges: BTreeSet<(usize, usize)> = BTreeSet::new();
        for caller in 0..g.nodes.len() {
            let calls = g.nodes[caller].item.calls.clone();
            for call in &calls {
                for callee in g.resolve_site(caller, &call.callee) {
                    if callee != caller {
                        edges.insert((caller, callee));
                    }
                }
            }
        }
        g.edges = edges.into_iter().collect();
        g.adj = vec![Vec::new(); g.nodes.len()];
        for &(a, b) in &g.edges {
            g.adj[a].push(b);
        }
        g
    }

    /// Crate segment of a node's qualified name (`greenps_core`).
    fn crate_of(&self, idx: usize) -> &str {
        self.nodes[idx]
            .item
            .qualified
            .split("::")
            .next()
            .unwrap_or("")
    }

    /// True when a *static* call from `caller`'s crate into `callee`'s
    /// crate is possible under the DESIGN.md §3 layering DAG
    /// ([`crate::layering::ALLOWED`], transitively). Same-crate calls
    /// are always possible. Dynamic dispatch is exempt from this check
    /// at the call sites that can express it (trait receivers and
    /// untyped fan-out onto trait impls): a low crate may legitimately
    /// call up into an impl it never names, through a vtable for a
    /// trait it owns — that is exactly how `simnet` drives `broker`.
    fn layering_ok(&self, caller: usize, callee: usize) -> bool {
        let from = self.crate_of(caller);
        let to = self.crate_of(callee);
        if from == to {
            return true;
        }
        let short = |q: &str| q.strip_prefix("greenps_").unwrap_or(q).to_string();
        let (from, to) = (short(from), short(to));
        let mut stack = vec![from];
        let mut seen: BTreeSet<String> = BTreeSet::new();
        while let Some(c) = stack.pop() {
            if c == to {
                return true;
            }
            if !seen.insert(c.clone()) {
                continue;
            }
            if let Some((_, deps)) = crate::layering::ALLOWED.iter().find(|(k, _)| *k == c) {
                stack.extend(deps.iter().map(|d| d.to_string()));
            }
        }
        false
    }

    /// Resolves one call site of `caller` to candidate node indices —
    /// the same resolution that built the edges, exposed so the
    /// CFG-based lints can ask which callees a *specific* site (by
    /// offset) may reach.
    pub fn resolve_site(&self, caller: usize, callee: &Callee) -> Vec<usize> {
        let by_name = &self.by_name;
        let item = &self.nodes[caller].item;
        match callee {
            Callee::Path(raw) => {
                // Normalize: `crate` → caller crate, `Self` → impl type,
                // leading `self`/`super` dropped (suffix match absorbs
                // the remaining ambiguity).
                let mut segs: Vec<String> = Vec::new();
                for (i, s) in raw.iter().enumerate() {
                    match s.as_str() {
                        "crate" if i == 0 => segs.push(self.crate_of(caller).to_string()),
                        "self" | "super" if i == 0 => {}
                        "Self" => {
                            if let Some(ty) = &item.self_ty {
                                segs.push(ty.clone());
                            }
                        }
                        _ => segs.push(s.clone()),
                    }
                }
                let Some(last) = segs.last() else {
                    return Vec::new();
                };
                let Some(cands) = by_name.get(last.as_str()) else {
                    return Vec::new();
                };
                if segs.len() == 1 {
                    // A bare name only reaches free functions; prefer
                    // the caller's own crate when it defines one.
                    let free: Vec<usize> = cands
                        .iter()
                        .copied()
                        .filter(|&i| self.nodes[i].item.self_ty.is_none())
                        .filter(|&i| self.layering_ok(caller, i))
                        .collect();
                    let same_crate: Vec<usize> = free
                        .iter()
                        .copied()
                        .filter(|&i| self.crate_of(i) == self.crate_of(caller))
                        .collect();
                    return if same_crate.is_empty() {
                        free
                    } else {
                        same_crate
                    };
                }
                cands
                    .iter()
                    .copied()
                    .filter(|&i| {
                        let q: Vec<&str> = self.nodes[i].item.qualified.split("::").collect();
                        q.len() >= segs.len()
                            && q[q.len() - segs.len()..]
                                .iter()
                                .zip(&segs)
                                .all(|(a, b)| *a == b.as_str())
                    })
                    .filter(|&i| self.layering_ok(caller, i))
                    .collect()
            }
            Callee::Method { name, receiver } => {
                let recv_ty: Option<String> = match receiver {
                    Receiver::SelfDirect => item.self_ty.clone(),
                    Receiver::SelfField(f) => item
                        .self_ty
                        .as_ref()
                        .and_then(|ty| self.types.get(ty))
                        .and_then(|info| info.fields.get(f).cloned()),
                    Receiver::Var(v) => {
                        // Last typed `let` wins over the parameter.
                        let from_let = item
                            .lets
                            .iter()
                            .rev()
                            .find(|(n, _)| n == v)
                            .map(|(_, t)| t.clone());
                        from_let.or_else(|| {
                            item.params
                                .iter()
                                .find(|(n, _)| n == v)
                                .map(|(_, t)| t.clone())
                        })
                    }
                    Receiver::Unknown => None,
                };
                let cands = by_name.get(name.as_str()).map(Vec::as_slice).unwrap_or(&[]);
                match recv_ty {
                    Some(ty) => match self.types.get(&ty).map(|t| t.kind) {
                        Some(TypeKind::Trait) => cands
                            .iter()
                            .copied()
                            .filter(|&i| self.nodes[i].item.trait_name.as_deref() == Some(&ty))
                            .collect(),
                        Some(_) => cands
                            .iter()
                            .copied()
                            .filter(|&i| self.nodes[i].item.self_ty.as_deref() == Some(&ty))
                            .filter(|&i| self.layering_ok(caller, i))
                            .collect(),
                        // Known-foreign receiver (std container, primitive,
                        // generic parameter): no workspace edge.
                        None => Vec::new(),
                    },
                    None => {
                        if COMMON_STD_METHODS.contains(&name.as_str()) {
                            return Vec::new();
                        }
                        // Fan out, but only where the call could really
                        // happen: a static call needs the layering DAG
                        // to permit the dependency; a trait-impl method
                        // stays reachable regardless (dyn dispatch).
                        cands
                            .iter()
                            .copied()
                            .filter(|&i| self.nodes[i].item.has_self)
                            .filter(|&i| {
                                self.nodes[i].item.trait_name.is_some()
                                    || self.layering_ok(caller, i)
                            })
                            .collect()
                    }
                }
            }
        }
    }

    /// Node indices whose qualified name ends with the `::`-separated
    /// `suffix` (whole segments).
    pub fn find_suffix(&self, suffix: &str) -> Vec<usize> {
        let want: Vec<&str> = suffix.split("::").collect();
        (0..self.nodes.len())
            .filter(|&i| {
                let q: Vec<&str> = self.nodes[i].item.qualified.split("::").collect();
                q.len() >= want.len() && q[q.len() - want.len()..] == want[..]
            })
            .collect()
    }

    /// Breadth-first search from `starts`, never expanding `blocked`
    /// nodes. Returns `parent[i]` for every reached node (`parent` of a
    /// start is itself), in deterministic order.
    pub fn bfs(&self, starts: &[usize], blocked: &BTreeSet<usize>) -> BTreeMap<usize, usize> {
        let mut parent: BTreeMap<usize, usize> = BTreeMap::new();
        let mut queue: VecDeque<usize> = VecDeque::new();
        for &s in starts {
            if !blocked.contains(&s) && !parent.contains_key(&s) {
                parent.insert(s, s);
                queue.push_back(s);
            }
        }
        while let Some(n) = queue.pop_front() {
            for &m in &self.adj[n] {
                if blocked.contains(&m) || parent.contains_key(&m) {
                    continue;
                }
                parent.insert(m, n);
                queue.push_back(m);
            }
        }
        parent
    }

    /// The witness path from a BFS start to `node`, as qualified names.
    pub fn witness(&self, parent: &BTreeMap<usize, usize>, node: usize) -> Vec<String> {
        let mut path = vec![node];
        let mut cur = node;
        while let Some(&p) = parent.get(&cur) {
            if p == cur {
                break;
            }
            path.push(p);
            cur = p;
        }
        path.reverse();
        path.iter()
            .map(|&i| self.nodes[i].item.qualified.clone())
            .collect()
    }

    /// Exports the graph as byte-stable `greenps-callgraph/1` JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n  \"schema\": \"greenps-callgraph/1\",\n  \"nodes\": [\n");
        for (i, n) in self.nodes.iter().enumerate() {
            let vis = match n.item.vis {
                Visibility::Public => "pub",
                Visibility::Crate => "crate",
                Visibility::Private => "private",
            };
            out.push_str(&format!(
                "    {{\"id\": {}, \"fn\": \"{}\", \"file\": \"{}\", \"line\": {}, \"vis\": \"{}\"}}{}\n",
                i,
                esc(&n.item.qualified),
                esc(&n.file),
                n.item.line,
                vis,
                if i + 1 < self.nodes.len() { "," } else { "" }
            ));
        }
        out.push_str("  ],\n  \"edges\": [\n");
        for (i, (a, b)) in self.edges.iter().enumerate() {
            out.push_str(&format!(
                "    [{}, {}]{}\n",
                a,
                b,
                if i + 1 < self.edges.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

fn esc(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph(files: &[(&str, &str)]) -> CallGraph {
        let files: Vec<SourceFile> = files.iter().map(|(p, c)| SourceFile::new(p, c)).collect();
        CallGraph::build(&files)
    }

    fn idx(g: &CallGraph, q: &str) -> usize {
        g.nodes
            .iter()
            .position(|n| n.item.qualified == q)
            .unwrap_or_else(|| panic!("missing node {q}"))
    }

    fn has_edge(g: &CallGraph, from: &str, to: &str) -> bool {
        g.edges.contains(&(idx(g, from), idx(g, to)))
    }

    #[test]
    fn resolves_crate_paths_and_bare_names() {
        let g = graph(&[
            (
                "crates/core/src/a.rs",
                "pub fn entry() { crate::b::helper(); local(); }\nfn local() {}",
            ),
            ("crates/core/src/b.rs", "pub fn helper() {}"),
        ]);
        assert!(has_edge(
            &g,
            "greenps_core::a::entry",
            "greenps_core::b::helper"
        ));
        assert!(has_edge(
            &g,
            "greenps_core::a::entry",
            "greenps_core::a::local"
        ));
    }

    #[test]
    fn bare_names_prefer_the_callers_crate() {
        let g = graph(&[
            (
                "crates/core/src/a.rs",
                "pub fn go() { helper(); }\nfn helper() {}",
            ),
            ("crates/profile/src/b.rs", "pub fn helper() {}"),
        ]);
        assert!(has_edge(
            &g,
            "greenps_core::a::go",
            "greenps_core::a::helper"
        ));
        assert!(!has_edge(
            &g,
            "greenps_core::a::go",
            "greenps_profile::b::helper"
        ));
    }

    #[test]
    fn layering_dag_prunes_impossible_static_edges() {
        let g = graph(&[
            (
                "crates/core/src/a.rs",
                // Untyped receiver: `covers` would fan out everywhere.
                "pub fn go(x: &Mystery) { x.thing().covers(); only_here(); }",
            ),
            (
                "crates/analysis/src/b.rs",
                // `core` cannot depend on `analysis`: neither the
                // inherent method nor the free fn may receive an edge.
                "pub struct Allowlist;\nimpl Allowlist { pub fn covers(&self) {} }\npub fn only_here() {}",
            ),
        ]);
        assert!(!has_edge(
            &g,
            "greenps_core::a::go",
            "greenps_analysis::b::Allowlist::covers"
        ));
        assert!(!has_edge(
            &g,
            "greenps_core::a::go",
            "greenps_analysis::b::only_here"
        ));
    }

    #[test]
    fn layering_dag_keeps_dyn_dispatch_up_edges() {
        // `simnet` depends only on `telemetry`, yet its dispatcher must
        // reach a `broker` trait impl through the vtable.
        let g = graph(&[
            (
                "crates/simnet/src/a.rs",
                "pub trait Process { fn on_message(&mut self); }\npub fn dispatch(p: &mut dyn Process) { p.on_message(); }",
            ),
            (
                "crates/broker/src/b.rs",
                "pub struct Broker;\nimpl crate::a::Process for Broker { fn on_message(&mut self) {} }",
            ),
        ]);
        assert!(has_edge(
            &g,
            "greenps_simnet::a::dispatch",
            "greenps_broker::b::Broker::on_message"
        ));
    }

    #[test]
    fn typed_receivers_resolve_methods() {
        let g = graph(&[(
            "crates/core/src/a.rs",
            r#"
            pub struct Pool { cache: Cache }
            pub struct Cache;
            impl Cache { pub fn get(&self) {} }
            impl Pool {
                pub fn run(&self, c: &Cache) {
                    self.cache.get();
                    c.get();
                    let d: Cache = make();
                    d.get();
                }
            }
            pub fn make() -> Cache { Cache }
            "#,
        )]);
        // All three receiver shapes (self.field, param, let) resolve to
        // the workspace method, not dropped as std `get`.
        assert!(has_edge(
            &g,
            "greenps_core::a::Pool::run",
            "greenps_core::a::Cache::get"
        ));
        assert!(has_edge(
            &g,
            "greenps_core::a::Pool::run",
            "greenps_core::a::make"
        ));
    }

    #[test]
    fn untyped_common_method_names_get_no_edges() {
        let g = graph(&[(
            "crates/core/src/a.rs",
            r#"
            pub struct Cache;
            impl Cache { pub fn get(&self) {} }
            pub fn run(xs: &Mystery) { xs.thing().get(); }
            "#,
        )]);
        // Receiver is a call chain (unknown) and `get` is a common std
        // name — conservatively no edge.
        assert!(!has_edge(
            &g,
            "greenps_core::a::run",
            "greenps_core::a::Cache::get"
        ));
    }

    #[test]
    fn untyped_distinctive_method_names_fan_out() {
        let g = graph(&[(
            "crates/core/src/a.rs",
            r#"
            pub struct Engine;
            impl Engine { pub fn attempt_merge(&self) {} }
            pub fn run(x: &Mystery) { x.thing().attempt_merge(); }
            "#,
        )]);
        assert!(has_edge(
            &g,
            "greenps_core::a::run",
            "greenps_core::a::Engine::attempt_merge"
        ));
    }

    #[test]
    fn trait_receivers_reach_all_impls() {
        let g = graph(&[(
            "crates/simnet/src/a.rs",
            r#"
            pub trait Process { fn on_message(&mut self); }
            pub struct BrokerProc;
            impl Process for BrokerProc { fn on_message(&mut self) { work(); } }
            pub struct ClientProc;
            impl Process for ClientProc { fn on_message(&mut self) {} }
            fn work() {}
            pub fn dispatch(p: &mut dyn Process) { p.on_message(); }
            "#,
        )]);
        assert!(has_edge(
            &g,
            "greenps_simnet::a::dispatch",
            "greenps_simnet::a::BrokerProc::on_message"
        ));
        assert!(has_edge(
            &g,
            "greenps_simnet::a::dispatch",
            "greenps_simnet::a::ClientProc::on_message"
        ));
        assert!(has_edge(
            &g,
            "greenps_simnet::a::BrokerProc::on_message",
            "greenps_simnet::a::work"
        ));
    }

    #[test]
    fn std_typed_receivers_get_no_edges() {
        let g = graph(&[(
            "crates/core/src/a.rs",
            r#"
            pub struct Cache;
            impl Cache { pub fn insert(&self) {} }
            pub fn run(m: &mut Vec<u64>) { m.insert(); }
            "#,
        )]);
        assert!(!has_edge(
            &g,
            "greenps_core::a::run",
            "greenps_core::a::Cache::insert"
        ));
    }

    #[test]
    fn test_code_is_excluded() {
        let g = graph(&[(
            "crates/core/src/a.rs",
            "pub fn lib() {}\n#[cfg(test)]\nmod tests { fn t() { super::lib(); } }",
        )]);
        assert_eq!(g.nodes.len(), 1);
        assert!(g.edges.is_empty());
    }

    #[test]
    fn bfs_and_witness_paths() {
        let g = graph(&[(
            "crates/core/src/a.rs",
            "pub fn a() { b(); }\nfn b() { c(); }\nfn c() {}\nfn d() {}",
        )]);
        let start = idx(&g, "greenps_core::a::a");
        let parent = g.bfs(&[start], &BTreeSet::new());
        let c = idx(&g, "greenps_core::a::c");
        assert!(parent.contains_key(&c));
        assert!(!parent.contains_key(&idx(&g, "greenps_core::a::d")));
        assert_eq!(
            g.witness(&parent, c),
            vec![
                "greenps_core::a::a",
                "greenps_core::a::b",
                "greenps_core::a::c"
            ]
        );
        // Blocking b cuts the path.
        let blocked: BTreeSet<usize> = [idx(&g, "greenps_core::a::b")].into();
        assert!(!g.bfs(&[start], &blocked).contains_key(&c));
    }

    #[test]
    fn json_export_is_stable_and_well_formed() {
        let files = [("crates/core/src/a.rs", "pub fn a() { b(); }\nfn b() {}")];
        let g1 = graph(&files);
        let g2 = graph(&files);
        let j1 = g1.to_json();
        assert_eq!(j1, g2.to_json());
        assert!(j1.starts_with("{\n  \"schema\": \"greenps-callgraph/1\""));
        assert!(j1.contains("\"fn\": \"greenps_core::a::a\""));
        assert!(j1.contains("[0, 1]"));
    }

    #[test]
    fn find_suffix_matches_whole_segments() {
        let g = graph(&[(
            "crates/core/src/cram.rs",
            "pub struct Engine;\nimpl Engine { pub fn attempt(&self) {} }\npub fn scan_partner() {}",
        )]);
        assert_eq!(g.find_suffix("Engine::attempt").len(), 1);
        assert_eq!(g.find_suffix("cram::scan_partner").len(), 1);
        assert_eq!(g.find_suffix("tempt").len(), 0);
    }
}
