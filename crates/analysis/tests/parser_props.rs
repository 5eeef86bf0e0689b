//! Property-based test of the item parser: inserting comments and
//! whitespace between tokens must never change the parsed structure.
//!
//! Trivia is only inserted where the original source already separates
//! two tokens — splitting an adjacent pair would legitimately change
//! the token stream (`-` `>` is only an arrow when the bytes touch).

use greenps_analysis::lexer::tokenize;
use greenps_analysis::parser::{parse_file, Callee, FnItem, ParsedFile};
use greenps_analysis::SourceFile;
use proptest::prelude::*;

/// Realistic snippets covering the parser's item shapes: modules, impl
/// blocks, traits, closures, turbofish, nested fns, typed lets.
const SOURCES: &[&str] = &[
    "pub fn top() {}\nmod inner { pub(crate) fn deep(a: u64) -> usize { a as usize } }",
    r#"
    pub struct Pool { cache: Cache, names: Vec<String> }
    pub struct Cache;
    impl Cache { pub fn get(&self) -> u64 { 7 } }
    impl Pool {
        pub fn run(&mut self, c: &Cache) -> u64 {
            let d: Cache = make();
            self.cache.get() + c.get() + d.get()
        }
    }
    pub fn make() -> Cache { Cache }
    "#,
    r#"
    pub trait Closeness { fn closeness(&self, a: u64, b: u64) -> f64; }
    pub struct Ios;
    impl Closeness for Ios {
        fn closeness(&self, a: u64, b: u64) -> f64 { (a.min(b)) as f64 }
    }
    pub fn drive(m: &dyn Closeness) -> f64 { m.closeness(1, 2) }
    "#,
    r#"
    pub fn fan(items: &[u64], threads: usize) -> Vec<u64> {
        let mut out: Vec<u64> = Vec::<u64>::with_capacity(items.len());
        items.iter().for_each(|x| out.push(helper(*x, threads)));
        fn helper(v: u64, t: usize) -> u64 { v + t as u64 }
        format!("{}", out.len());
        out
    }
    "#,
    r#"
    #[cfg(test)]
    mod tests {
        pub fn only_in_tests() { crate::fan(&[], 0); }
    }
    pub fn outside() -> bool { true }
    "#,
];

/// Trivia variants that are safe anywhere two tokens are already
/// separated: every line comment terminates itself with a newline.
const TRIVIA: &[&str] = &[
    " ",
    "\n",
    "\t\t",
    "/* inserted */",
    "// inserted\n",
    "/* multi\n   line */ ",
];

/// Re-renders `src` with extra trivia inside every pre-existing
/// inter-token gap, chosen by cycling through `seed`.
fn insert_trivia(src: &str, seed: &[u8]) -> String {
    let toks = tokenize(src);
    let mut out = String::with_capacity(src.len() * 2);
    let mut prev_end = 0usize;
    for (i, t) in toks.iter().enumerate() {
        if t.start > prev_end {
            out.push_str(&src[prev_end..t.start]);
            let pick = seed[i % seed.len()] as usize % TRIVIA.len();
            out.push_str(TRIVIA[pick]);
        }
        out.push_str(t.text);
        prev_end = t.end;
    }
    out.push_str(&src[prev_end..]);
    out
}

/// Offset- and line-independent projection of one parsed function.
fn fn_summary(f: &FnItem) -> String {
    let calls: Vec<String> = f
        .calls
        .iter()
        .map(|c| match &c.callee {
            Callee::Path(segs) => format!("path:{}", segs.join("::")),
            Callee::Method { name, receiver } => format!("method:{name}:{receiver:?}"),
        })
        .collect();
    let macros: Vec<&str> = f.macros.iter().map(|m| m.name.as_str()).collect();
    format!(
        "{} self_ty={:?} trait={:?} has_self={} vis={:?} params={:?} lets={:?} \
         calls={calls:?} macros={macros:?} test={} has_body={}",
        f.qualified,
        f.self_ty,
        f.trait_name,
        f.has_self,
        f.vis,
        f.params,
        f.lets,
        f.is_test,
        f.body.is_some(),
    )
}

fn summary(p: &ParsedFile) -> Vec<String> {
    let mut out: Vec<String> = p.fns.iter().map(fn_summary).collect();
    out.extend(
        p.types
            .iter()
            .map(|t| format!("type {:?} {} fields={:?}", t.kind, t.name, t.fields)),
    );
    out
}

proptest! {
    /// Parsing is invariant under comment/whitespace insertion at
    /// token boundaries that the source already separates.
    #[test]
    fn parse_stable_under_trivia(
        src_idx in 0usize..SOURCES.len(),
        seed in proptest::collection::vec(0u8..u8::MAX, 1..48),
    ) {
        let src = SOURCES.get(src_idx).expect("index drawn from range");
        let mutated = insert_trivia(src, &seed);
        let base = parse_file(&SourceFile::new("crates/core/src/m.rs", src));
        let got = parse_file(&SourceFile::new("crates/core/src/m.rs", &mutated));
        prop_assert_eq!(summary(&base), summary(&got));
    }
}

/// The trivia re-renderer really changes the text (sanity check that
/// the property is not vacuous).
#[test]
fn trivia_insertion_changes_the_text() {
    let src = SOURCES.first().expect("non-empty corpus");
    let mutated = insert_trivia(src, &[3]);
    assert_ne!(*src, mutated);
    assert!(mutated.contains("/* inserted */"));
}
