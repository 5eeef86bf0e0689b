//! A recursive-descent item/expression parser over the token stream.
//!
//! Built on [`crate::lexer`], this recovers just enough structure for
//! interprocedural analysis: function items with their module paths,
//! impl blocks (inherent and trait) with method receivers, struct
//! field types, and the call / method-call / macro expressions inside
//! each function body. It is not a full Rust parser — generics are
//! skipped, patterns are reduced to their first identifier, and types
//! are reduced to a *head* identifier (`&mut Vec<GifKey>` → `Vec`,
//! `Box<dyn Closeness>` → `Closeness`) — but it never fails: unknown
//! constructs are skipped token-wise, so analysis degrades to "no
//! information" instead of erroring.
//!
//! Everything downstream (the call graph and the interprocedural
//! passes) consumes [`ParsedFile`]s; see [`crate::callgraph`].

use crate::lexer::{self, Token, TokenKind};
use crate::SourceFile;

/// Item visibility, reduced to what the analyses need.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Visibility {
    /// Plain `pub`.
    Public,
    /// `pub(crate)`, `pub(super)`, `pub(in …)`.
    Crate,
    /// No visibility modifier.
    Private,
}

/// Kind of a named type item.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TypeKind {
    /// `struct`.
    Struct,
    /// `enum` or `union`.
    Enum,
    /// `trait`.
    Trait,
}

/// A named type (struct/enum/trait) with its field types when known.
#[derive(Debug, Clone)]
pub struct TypeItem {
    /// Struct, enum or trait.
    pub kind: TypeKind,
    /// Bare type name (no module path).
    pub name: String,
    /// `(field name, type head)` pairs for named-field structs.
    pub fields: Vec<(String, String)>,
    /// 1-based line of the declaration.
    pub line: usize,
}

/// Receiver shape of a method call, as far as tokens reveal it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Receiver {
    /// `self.m(…)`.
    SelfDirect,
    /// `self.field.m(…)` — carries the field name.
    SelfField(String),
    /// `ident.m(…)` — a local variable or parameter.
    Var(String),
    /// Anything else (chained calls, literals, nested fields…).
    Unknown,
}

/// What a call expression targets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Callee {
    /// `a::b::f(…)` — the `::`-separated path segments.
    Path(Vec<String>),
    /// `recv.m(…)`.
    Method {
        /// Method name.
        name: String,
        /// Receiver shape.
        receiver: Receiver,
    },
}

/// One call expression inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Call target.
    pub callee: Callee,
    /// Byte offset of the call in the source file.
    pub offset: usize,
}

/// One macro invocation (`name!…`) inside a function body.
#[derive(Debug, Clone)]
pub struct MacroSite {
    /// Macro name (without `!`).
    pub name: String,
    /// Byte offset of the invocation.
    pub offset: usize,
}

/// A parsed function item.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Bare function name.
    pub name: String,
    /// Fully qualified name: `crate::module::[Type::]name`.
    pub qualified: String,
    /// Impl type head for methods/associated fns (`impl Engine` →
    /// `Engine`); for trait-declaration methods this is the trait name.
    pub self_ty: Option<String>,
    /// Trait being implemented (`impl Closeness for X`) or declared.
    pub trait_name: Option<String>,
    /// True when the parameter list has a `self` receiver.
    pub has_self: bool,
    /// Item visibility.
    pub vis: Visibility,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Byte span of the body braces, `None` for bodyless declarations.
    pub body: Option<(usize, usize)>,
    /// `(name, type head)` of each non-self parameter.
    pub params: Vec<(String, String)>,
    /// `(name, type head)` of explicitly typed `let` bindings, in
    /// lexical order.
    pub lets: Vec<(String, String)>,
    /// Call expressions in the body (closures included, nested fns
    /// excluded — those are separate items).
    pub calls: Vec<CallSite>,
    /// Macro invocations in the body.
    pub macros: Vec<MacroSite>,
    /// True when the item sits inside a `#[cfg(test)]` region.
    pub is_test: bool,
}

/// Parse result of one source file.
#[derive(Debug, Clone, Default)]
pub struct ParsedFile {
    /// Function items, in source order.
    pub fns: Vec<FnItem>,
    /// Type items, in source order.
    pub types: Vec<TypeItem>,
}

/// Keywords that look like calls when followed by `(`.
const EXPR_KEYWORDS: &[&str] = &[
    "if", "else", "while", "for", "loop", "match", "return", "break", "continue", "in", "as",
    "move", "ref", "mut", "let", "unsafe", "where", "dyn", "impl", "fn", "use", "pub", "await",
];

/// Maps a workspace-relative file path to `(crate segment, modules)`,
/// e.g. `crates/core/src/cram.rs` → `("greenps_core", ["cram"])` and
/// `src/lib.rs` → `("greenps", [])`.
pub fn module_path(path: &str) -> (String, Vec<String>) {
    let (crate_name, rest) = if let Some(rest) = path.strip_prefix("crates/") {
        match rest.split_once('/') {
            Some((dir, rest)) => (format!("greenps_{}", dir.replace('-', "_")), rest),
            None => ("greenps".to_string(), rest),
        }
    } else {
        ("greenps".to_string(), path)
    };
    let rest = rest.strip_prefix("src/").unwrap_or(rest);
    let rest = rest.strip_suffix(".rs").unwrap_or(rest);
    let mut modules: Vec<String> = Vec::new();
    for seg in rest.split('/') {
        if seg == "lib" || seg == "main" || seg == "mod" || seg.is_empty() {
            continue;
        }
        modules.push(seg.to_string());
    }
    // `src/<dir>/mod.rs` keeps the dir; `src/<dir>/<m>.rs` keeps both —
    // handled by the split above since `mod` is dropped and dirs kept.
    (crate_name, modules)
}

/// Reduces a type token slice to its head identifier, unwrapping
/// references, parens, `dyn`/`impl`, and the std smart pointers
/// (`Box`/`Rc`/`Arc`) whose methods auto-deref to the inner type.
pub fn type_head(toks: &[&Token<'_>]) -> Option<String> {
    let mut i = 0;
    loop {
        let t = toks.get(i)?;
        if t.is_punct('&')
            || t.is_punct('(')
            || t.is_punct('[')
            || t.is_punct('\'')
            || t.kind == TokenKind::Lifetime
        {
            i += 1;
            continue;
        }
        if t.kind == TokenKind::Ident {
            match t.text {
                "mut" | "dyn" | "impl" | "const" => {
                    i += 1;
                    continue;
                }
                "Box" | "Rc" | "Arc" => {
                    // Unwrap one generic level: `Box<dyn T>` → `T`.
                    if toks.get(i + 1).is_some_and(|n| n.is_punct('<')) {
                        i += 2;
                        continue;
                    }
                    return Some(t.text.to_string());
                }
                _ => {
                    // Path types: take the LAST segment before generics,
                    // e.g. `crate::engine::PairCache<K>` → `PairCache`.
                    let mut head = t.text;
                    let mut j = i + 1;
                    while toks.get(j).is_some_and(|p| p.is_punct(':'))
                        && toks.get(j + 1).is_some_and(|p| p.is_punct(':'))
                        && toks.get(j + 2).is_some_and(|p| p.kind == TokenKind::Ident)
                    {
                        head = toks[j + 2].text;
                        j += 3;
                    }
                    return Some(head.to_string());
                }
            }
        }
        return None;
    }
}

/// Parses one source file. Never fails; constructs the parser does not
/// understand are skipped.
pub fn parse_file(src: &SourceFile) -> ParsedFile {
    let all = lexer::tokenize(&src.content);
    let test_regions = lexer::test_regions(&all);
    let code: Vec<&Token<'_>> = lexer::code(&all);
    let (crate_name, modules) = module_path(&src.path);
    let mut out = ParsedFile::default();
    let mut p = Parser {
        toks: &code,
        i: 0,
        src: &src.content,
        test_regions: &test_regions,
        crate_name,
        out: &mut out,
    };
    let mut modules = modules;
    p.items(&mut modules, None, usize::MAX);
    out
}

/// Impl-block context while parsing items.
#[derive(Debug, Clone)]
struct ImplCtx {
    self_ty: String,
    trait_name: Option<String>,
}

struct Parser<'a, 'b> {
    toks: &'b [&'b Token<'a>],
    i: usize,
    src: &'a str,
    test_regions: &'b [(usize, usize)],
    crate_name: String,
    out: &'b mut ParsedFile,
}

impl<'a> Parser<'a, '_> {
    fn at(&self, i: usize) -> Option<&Token<'a>> {
        self.toks.get(i).copied()
    }

    fn is_kw(&self, i: usize, kw: &str) -> bool {
        self.at(i).is_some_and(|t| t.is_ident(kw))
    }

    fn is_p(&self, i: usize, c: char) -> bool {
        self.at(i).is_some_and(|t| t.is_punct(c))
    }

    /// Index just past the group opened by the delimiter at `open`
    /// (`(`/`[`/`{`), i.e. past its matching closer.
    fn skip_group(&self, open: usize) -> usize {
        let (o, c) = match self.at(open) {
            Some(t) if t.is_punct('(') => ('(', ')'),
            Some(t) if t.is_punct('[') => ('[', ']'),
            Some(t) if t.is_punct('{') => ('{', '}'),
            _ => return open + 1,
        };
        let mut depth = 0usize;
        let mut j = open;
        while let Some(t) = self.at(j) {
            if t.is_punct(o) {
                depth += 1;
            } else if t.is_punct(c) {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
            j += 1;
        }
        self.toks.len()
    }

    /// Index just past a `<…>` generics group starting at `open`
    /// (which must be `<`). `->` inside (fn-trait bounds) is handled.
    fn skip_angles(&self, open: usize) -> usize {
        let mut depth = 0usize;
        let mut j = open;
        while let Some(t) = self.at(j) {
            if t.is_punct('<') {
                depth += 1;
            } else if t.is_punct('>') {
                // `->` return arrows inside bounds don't close angles.
                let arrow = j > 0
                    && self
                        .at(j - 1)
                        .is_some_and(|p| p.is_punct('-') && p.end == t.start);
                if !arrow {
                    depth -= 1;
                    if depth == 0 {
                        return j + 1;
                    }
                }
            }
            j += 1;
        }
        self.toks.len()
    }

    fn line_of(&self, offset: usize) -> usize {
        crate::line_of(self.src, offset)
    }

    fn in_test(&self, offset: usize) -> bool {
        lexer::in_regions(offset, self.test_regions)
    }

    /// Parses items until `limit` (exclusive token index) or EOF.
    fn items(&mut self, modules: &mut Vec<String>, impl_ctx: Option<&ImplCtx>, limit: usize) {
        let mut vis = Visibility::Private;
        while self.i < self.toks.len().min(limit) {
            let t = self.toks[self.i];
            if t.is_ident("pub") {
                vis = if self.is_p(self.i + 1, '(') {
                    self.i = self.skip_group(self.i + 1);
                    Visibility::Crate
                } else {
                    self.i += 1;
                    Visibility::Public
                };
                continue;
            }
            if t.is_ident("mod")
                && self
                    .at(self.i + 1)
                    .is_some_and(|n| n.kind == TokenKind::Ident)
            {
                let name = self.at(self.i + 1).map(|n| n.text.to_string());
                if self.is_p(self.i + 2, '{') {
                    let end = self.skip_group(self.i + 2);
                    self.i += 3; // into the block
                    if let Some(name) = name {
                        modules.push(name);
                        self.items(modules, impl_ctx, end - 1);
                        modules.pop();
                    }
                    self.i = end;
                } else {
                    self.i += 2; // `mod name;`
                }
                vis = Visibility::Private;
                continue;
            }
            if t.is_ident("impl") {
                self.i += 1;
                if self.is_p(self.i, '<') {
                    self.i = self.skip_angles(self.i);
                }
                // First type path: either the impl type or the trait.
                let first = self.type_path();
                let ctx = if self.is_kw(self.i, "for") {
                    self.i += 1;
                    let ty = self.type_path();
                    ImplCtx {
                        self_ty: ty.unwrap_or_default(),
                        trait_name: first,
                    }
                } else {
                    ImplCtx {
                        self_ty: first.unwrap_or_default(),
                        trait_name: None,
                    }
                };
                // Skip where-clause to the block.
                while self.i < self.toks.len() && !self.is_p(self.i, '{') {
                    self.i += 1;
                }
                if self.is_p(self.i, '{') {
                    let end = self.skip_group(self.i);
                    self.i += 1;
                    self.items(modules, Some(&ctx), end - 1);
                    self.i = end;
                }
                vis = Visibility::Private;
                continue;
            }
            if t.is_ident("trait")
                && self
                    .at(self.i + 1)
                    .is_some_and(|n| n.kind == TokenKind::Ident)
            {
                let name = self.toks[self.i + 1].text.to_string();
                self.out.types.push(TypeItem {
                    kind: TypeKind::Trait,
                    name: name.clone(),
                    fields: Vec::new(),
                    line: self.line_of(t.start),
                });
                self.i += 2;
                while self.i < self.toks.len() && !self.is_p(self.i, '{') && !self.is_p(self.i, ';')
                {
                    if self.is_p(self.i, '<') {
                        self.i = self.skip_angles(self.i);
                    } else {
                        self.i += 1;
                    }
                }
                if self.is_p(self.i, '{') {
                    let end = self.skip_group(self.i);
                    self.i += 1;
                    // Trait methods: self_ty = trait name, trait = trait.
                    let ctx = ImplCtx {
                        self_ty: name.clone(),
                        trait_name: Some(name),
                    };
                    self.items(modules, Some(&ctx), end - 1);
                    self.i = end;
                }
                vis = Visibility::Private;
                continue;
            }
            if (t.is_ident("struct") || t.is_ident("enum") || t.is_ident("union"))
                && self
                    .at(self.i + 1)
                    .is_some_and(|n| n.kind == TokenKind::Ident)
            {
                self.struct_or_enum(t.is_ident("struct"));
                vis = Visibility::Private;
                continue;
            }
            if t.is_ident("fn") {
                self.fn_item(modules, impl_ctx, vis);
                vis = Visibility::Private;
                continue;
            }
            // Skip other groups wholesale (const initializers, arrays…).
            if t.is_punct('{') || t.is_punct('(') || t.is_punct('[') {
                self.i = self.skip_group(self.i);
                continue;
            }
            if t.is_punct(';') {
                vis = Visibility::Private;
            }
            self.i += 1;
        }
    }

    /// Parses a type path at the cursor, returning its head ident and
    /// leaving the cursor after the path (generics skipped).
    fn type_path(&mut self) -> Option<String> {
        let mut head: Option<String> = None;
        while let Some(t) = self.at(self.i) {
            if t.kind == TokenKind::Ident && !t.is_ident("for") && !t.is_ident("where") {
                head = Some(t.text.to_string());
                self.i += 1;
                if self.is_p(self.i, ':') && self.is_p(self.i + 1, ':') {
                    self.i += 2;
                    continue;
                }
                if self.is_p(self.i, '<') {
                    self.i = self.skip_angles(self.i);
                }
                break;
            }
            if t.is_punct('&') || t.kind == TokenKind::Lifetime || t.is_punct('(') {
                if t.is_punct('(') {
                    self.i = self.skip_group(self.i);
                } else {
                    self.i += 1;
                }
                continue;
            }
            break;
        }
        head
    }

    fn struct_or_enum(&mut self, is_struct: bool) {
        let kw = self.toks[self.i];
        let name = self.toks[self.i + 1].text.to_string();
        let line = self.line_of(kw.start);
        self.i += 2;
        if self.is_p(self.i, '<') {
            self.i = self.skip_angles(self.i);
        }
        while self.i < self.toks.len()
            && !self.is_p(self.i, '{')
            && !self.is_p(self.i, '(')
            && !self.is_p(self.i, ';')
        {
            self.i += 1;
        }
        let mut fields = Vec::new();
        if self.is_p(self.i, '{') {
            let end = self.skip_group(self.i);
            if is_struct {
                // Named fields: `name: Type,` at depth 1.
                let mut j = self.i + 1;
                while j < end - 1 {
                    let t = self.toks[j];
                    if t.kind == TokenKind::Ident
                        && !t.is_ident("pub")
                        && self.is_p(j + 1, ':')
                        && !self.is_p(j + 2, ':')
                    {
                        // Collect the type tokens to the field-level comma.
                        let mut k = j + 2;
                        let ty_start = k;
                        while k < end - 1 {
                            let tt = self.toks[k];
                            if tt.is_punct(',') {
                                break;
                            }
                            if tt.is_punct('<') {
                                k = self.skip_angles(k);
                            } else if tt.is_punct('(') || tt.is_punct('[') || tt.is_punct('{') {
                                k = self.skip_group(k);
                            } else {
                                k += 1;
                            }
                        }
                        if let Some(head) = type_head(&self.toks[ty_start..k]) {
                            fields.push((t.text.to_string(), head));
                        }
                        j = k;
                        continue;
                    }
                    if t.is_punct('(') || t.is_punct('[') {
                        j = self.skip_group(j);
                        continue;
                    }
                    j += 1;
                }
            }
            self.i = end;
        } else if self.is_p(self.i, '(') {
            self.i = self.skip_group(self.i); // tuple struct
        }
        self.out.types.push(TypeItem {
            kind: if is_struct {
                TypeKind::Struct
            } else {
                TypeKind::Enum
            },
            name,
            fields,
            line,
        });
    }

    fn fn_item(&mut self, modules: &mut Vec<String>, impl_ctx: Option<&ImplCtx>, vis: Visibility) {
        let fn_tok = self.toks[self.i];
        // `fn(` is a fn-pointer type, not an item.
        let Some(name_tok) = self.at(self.i + 1).filter(|t| t.kind == TokenKind::Ident) else {
            self.i += 1;
            return;
        };
        let name = name_tok.text.to_string();
        self.i += 2;
        if self.is_p(self.i, '<') {
            self.i = self.skip_angles(self.i);
        }
        // Parameters.
        let mut has_self = false;
        let mut params: Vec<(String, String)> = Vec::new();
        if self.is_p(self.i, '(') {
            let end = self.skip_group(self.i);
            let mut j = self.i + 1;
            // Split on commas at group depth 0 (relative to the list).
            let mut seg_start = j;
            let mut segments: Vec<(usize, usize)> = Vec::new();
            while j < end - 1 {
                let t = self.toks[j];
                if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
                    j = self.skip_group(j);
                    continue;
                }
                if t.is_punct('<') {
                    j = self.skip_angles(j);
                    continue;
                }
                if t.is_punct(',') {
                    segments.push((seg_start, j));
                    seg_start = j + 1;
                }
                j += 1;
            }
            if seg_start < end - 1 {
                segments.push((seg_start, end - 1));
            }
            for (s, e) in segments {
                let seg = &self.toks[s..e];
                if seg.iter().take(3).any(|t| t.is_ident("self")) {
                    has_self = true;
                    continue;
                }
                // First ident = pattern name; type after the first `:`.
                let pat = seg
                    .iter()
                    .find(|t| {
                        t.kind == TokenKind::Ident && !t.is_ident("mut") && !t.is_ident("ref")
                    })
                    .map(|t| t.text.to_string());
                let colon = seg.iter().position(|t| t.is_punct(':'));
                if let (Some(pat), Some(c)) = (pat, colon) {
                    if let Some(head) = type_head(&seg[c + 1..]) {
                        params.push((pat, head));
                    }
                }
            }
            self.i = end;
        }
        // Return type and where clause, skipped to the body.
        while self.i < self.toks.len() && !self.is_p(self.i, '{') && !self.is_p(self.i, ';') {
            if self.is_p(self.i, '<') {
                self.i = self.skip_angles(self.i);
            } else if self.is_p(self.i, '(') || self.is_p(self.i, '[') {
                self.i = self.skip_group(self.i);
            } else {
                self.i += 1;
            }
        }

        let mut item = FnItem {
            name: name.clone(),
            qualified: String::new(),
            self_ty: impl_ctx
                .map(|c| c.self_ty.clone())
                .filter(|s| !s.is_empty()),
            trait_name: impl_ctx.and_then(|c| c.trait_name.clone()),
            has_self,
            vis,
            line: self.line_of(fn_tok.start),
            body: None,
            params,
            lets: Vec::new(),
            calls: Vec::new(),
            macros: Vec::new(),
            is_test: self.in_test(fn_tok.start),
        };
        let mut q = vec![self.crate_name.clone()];
        q.extend(modules.iter().cloned());
        if let Some(ty) = &item.self_ty {
            q.push(ty.clone());
        }
        q.push(name);
        item.qualified = q.join("::");

        if self.is_p(self.i, '{') {
            let end = self.skip_group(self.i);
            item.body = Some((self.toks[self.i].start, self.toks[end - 1].end));
            let body_start = self.i + 1;
            self.i = end;
            // Push the item first so nested fns appear after it.
            let idx = self.out.fns.len();
            self.out.fns.push(item);
            let mut calls = Vec::new();
            let mut macros = Vec::new();
            let mut lets = Vec::new();
            self.body_facts(
                body_start,
                end - 1,
                modules,
                &mut calls,
                &mut macros,
                &mut lets,
            );
            let it = &mut self.out.fns[idx];
            it.calls = calls;
            it.macros = macros;
            it.lets = lets;
        } else {
            if self.is_p(self.i, ';') {
                self.i += 1;
            }
            self.out.fns.push(item);
        }
    }

    /// Extracts calls, macros and typed lets from the token range
    /// `[start, end)`; nested `fn` items are parsed as separate items
    /// and excluded from the enclosing body's facts.
    #[allow(clippy::too_many_arguments)]
    fn body_facts(
        &mut self,
        start: usize,
        end: usize,
        modules: &mut Vec<String>,
        calls: &mut Vec<CallSite>,
        macros: &mut Vec<MacroSite>,
        lets: &mut Vec<(String, String)>,
    ) {
        let mut j = start;
        while j < end {
            let t = self.toks[j];
            // Nested function item.
            if t.is_ident("fn")
                && self.at(j + 1).is_some_and(|n| n.kind == TokenKind::Ident)
                && !self.at(j.wrapping_sub(1)).is_some_and(|p| p.is_punct('.'))
            {
                let save = self.i;
                self.i = j;
                self.fn_item(modules, None, Visibility::Private);
                j = self.i;
                self.i = save;
                continue;
            }
            // Typed let binding: `let [mut] name : Type = …`.
            if t.is_ident("let") {
                let mut k = j + 1;
                if self.is_kw(k, "mut") {
                    k += 1;
                }
                if self.at(k).is_some_and(|n| n.kind == TokenKind::Ident)
                    && self.is_p(k + 1, ':')
                    && !self.is_p(k + 2, ':')
                {
                    let name = self.toks[k].text.to_string();
                    let ty_start = k + 2;
                    let mut m = ty_start;
                    while m < end {
                        let tt = self.toks[m];
                        if tt.is_punct('=') || tt.is_punct(';') {
                            break;
                        }
                        if tt.is_punct('<') {
                            m = self.skip_angles(m);
                        } else if tt.is_punct('(') || tt.is_punct('[') || tt.is_punct('{') {
                            m = self.skip_group(m);
                        } else {
                            m += 1;
                        }
                    }
                    if let Some(head) = type_head(&self.toks[ty_start..m]) {
                        lets.push((name, head));
                    }
                }
                j += 1;
                continue;
            }
            // Method call: `.name(` or `.name::<…>(`.
            if t.is_punct('.') && self.at(j + 1).is_some_and(|n| n.kind == TokenKind::Ident) {
                let name_tok = self.toks[j + 1];
                let mut k = j + 2;
                if self.is_p(k, ':') && self.is_p(k + 1, ':') && self.is_p(k + 2, '<') {
                    k = self.skip_angles(k + 2);
                }
                if self.is_p(k, '(') {
                    calls.push(CallSite {
                        callee: Callee::Method {
                            name: name_tok.text.to_string(),
                            receiver: self.receiver_of(j),
                        },
                        offset: name_tok.start,
                    });
                }
                j += 2;
                continue;
            }
            // Path call or macro, starting at an ident that does not
            // continue a path or follow a dot.
            if t.kind == TokenKind::Ident
                && !EXPR_KEYWORDS.contains(&t.text)
                && !self.prev_is_path_or_dot(j)
            {
                let mut segs = vec![t.text.to_string()];
                let mut k = j + 1;
                loop {
                    if self.is_p(k, ':') && self.is_p(k + 1, ':') {
                        if self.at(k + 2).is_some_and(|n| n.kind == TokenKind::Ident) {
                            segs.push(self.toks[k + 2].text.to_string());
                            k += 3;
                            continue;
                        }
                        if self.is_p(k + 2, '<') {
                            k = self.skip_angles(k + 2);
                            continue;
                        }
                    }
                    break;
                }
                if self.is_p(k, '!') && segs.len() == 1 {
                    macros.push(MacroSite {
                        name: segs.pop().unwrap_or_default(),
                        offset: t.start,
                    });
                } else if self.is_p(k, '(') {
                    calls.push(CallSite {
                        callee: Callee::Path(segs),
                        offset: t.start,
                    });
                }
                j = k.max(j + 1);
                continue;
            }
            j += 1;
        }
    }

    /// True when the token before `j` continues a path (`::`) or is a
    /// field/method dot — i.e. an ident at `j` is not a path start.
    fn prev_is_path_or_dot(&self, j: usize) -> bool {
        if j == 0 {
            return false;
        }
        let p = self.toks[j - 1];
        p.is_punct('.') || (p.is_punct(':') && j >= 2 && self.toks[j - 2].is_punct(':'))
    }

    /// Receiver shape of the method call whose dot is at index `dot`.
    fn receiver_of(&self, dot: usize) -> Receiver {
        // Walk back over an `a.b.c` chain.
        let mut chain: Vec<&str> = Vec::new();
        let mut j = dot;
        loop {
            if j == 0 {
                break;
            }
            let prev = self.toks[j - 1];
            if prev.kind == TokenKind::Ident && !EXPR_KEYWORDS.contains(&prev.text) {
                chain.push(prev.text);
                if j >= 2 && self.toks[j - 2].is_punct('.') {
                    j -= 2;
                    continue;
                }
                // Path receiver (`a::b.m(…)`) — treat as unknown.
                if j >= 2 && self.toks[j - 2].is_punct(':') {
                    return Receiver::Unknown;
                }
                break;
            }
            return Receiver::Unknown;
        }
        chain.reverse();
        match chain.as_slice() {
            ["self"] => Receiver::SelfDirect,
            ["self", field] => Receiver::SelfField((*field).to_string()),
            [var] => Receiver::Var((*var).to_string()),
            _ => Receiver::Unknown,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(path: &str, src: &str) -> ParsedFile {
        parse_file(&SourceFile::new(path, src))
    }

    fn find<'a>(p: &'a ParsedFile, q: &str) -> &'a FnItem {
        p.fns
            .iter()
            .find(|f| f.qualified == q)
            .unwrap_or_else(|| panic!("missing {q}; have {:?}", qualified(p)))
    }

    fn qualified(p: &ParsedFile) -> Vec<&str> {
        p.fns.iter().map(|f| f.qualified.as_str()).collect()
    }

    #[test]
    fn module_paths_from_file_paths() {
        assert_eq!(
            module_path("crates/core/src/cram.rs"),
            ("greenps_core".into(), vec!["cram".into()])
        );
        assert_eq!(
            module_path("crates/core/src/lib.rs"),
            ("greenps_core".into(), vec![])
        );
        assert_eq!(module_path("src/lib.rs"), ("greenps".into(), vec![]));
        assert_eq!(
            module_path("crates/profile/src/sub/mod.rs"),
            ("greenps_profile".into(), vec!["sub".into()])
        );
        assert_eq!(
            module_path("crates/profile/src/sub/inner.rs"),
            ("greenps_profile".into(), vec!["sub".into(), "inner".into()])
        );
    }

    #[test]
    fn free_fns_and_inline_modules() {
        let p = parse(
            "crates/core/src/x.rs",
            "pub fn top() {}\nmod inner { pub(crate) fn deep(a: u64) -> usize { 0 } }",
        );
        let top = find(&p, "greenps_core::x::top");
        assert_eq!(top.vis, Visibility::Public);
        assert!(top.body.is_some());
        let deep = find(&p, "greenps_core::x::inner::deep");
        assert_eq!(deep.vis, Visibility::Crate);
        assert_eq!(deep.params, vec![("a".to_string(), "u64".to_string())]);
    }

    #[test]
    fn impl_blocks_and_receivers() {
        let p = parse(
            "crates/core/src/x.rs",
            r#"
            struct Engine { pool: Pool, cache: PairCache<u64> }
            impl Engine {
                pub fn run(&mut self) { self.pool.scan(); self.step(); }
                fn step(&mut self) {}
            }
            impl std::fmt::Display for Engine {
                fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result { Ok(()) }
            }
            "#,
        );
        let run = find(&p, "greenps_core::x::Engine::run");
        assert!(run.has_self);
        assert_eq!(run.vis, Visibility::Public);
        assert_eq!(run.self_ty.as_deref(), Some("Engine"));
        assert_eq!(run.trait_name, None);
        let fmt = find(&p, "greenps_core::x::Engine::fmt");
        assert_eq!(fmt.trait_name.as_deref(), Some("Display"));
        // Struct fields with generic types reduce to heads.
        let ty = p.types.iter().find(|t| t.name == "Engine").unwrap();
        assert_eq!(
            ty.fields,
            vec![
                ("pool".to_string(), "Pool".to_string()),
                ("cache".to_string(), "PairCache".to_string())
            ]
        );
        // Receivers.
        let recvs: Vec<_> = run.calls.iter().map(|c| &c.callee).collect();
        assert_eq!(
            recvs,
            vec![
                &Callee::Method {
                    name: "scan".into(),
                    receiver: Receiver::SelfField("pool".into())
                },
                &Callee::Method {
                    name: "step".into(),
                    receiver: Receiver::SelfDirect
                },
            ]
        );
    }

    #[test]
    fn trait_decls_and_default_methods() {
        let p = parse(
            "crates/simnet/src/x.rs",
            "pub trait Process { fn on_message(&mut self, m: Msg); fn tick(&self) -> u64 { 0 } }",
        );
        let decl = find(&p, "greenps_simnet::x::Process::on_message");
        assert!(decl.body.is_none());
        assert_eq!(decl.trait_name.as_deref(), Some("Process"));
        let tick = find(&p, "greenps_simnet::x::Process::tick");
        assert!(tick.body.is_some());
    }

    #[test]
    fn path_calls_turbofish_and_macros() {
        let p = parse(
            "crates/core/src/x.rs",
            r#"
            fn f() {
                crate::engine::shard_map(items, 4, g);
                Vec::<u64>::with_capacity(9);
                collect::<Vec<_>>();
                format!("x {}", helper(1));
                let v = vec![1, 2];
            }
            "#,
        );
        let f = find(&p, "greenps_core::x::f");
        let paths: Vec<Vec<String>> = f
            .calls
            .iter()
            .filter_map(|c| match &c.callee {
                Callee::Path(p) => Some(p.clone()),
                _ => None,
            })
            .collect();
        assert!(paths.contains(&vec!["crate".into(), "engine".into(), "shard_map".into()]));
        assert!(paths.contains(&vec!["Vec".into(), "with_capacity".into()]));
        assert!(paths.contains(&vec!["collect".into()]));
        assert!(paths.contains(&vec!["helper".into()]));
        let macros: Vec<&str> = f.macros.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(macros, vec!["format", "vec"]);
    }

    #[test]
    fn closures_attribute_calls_to_enclosing_fn() {
        let p = parse(
            "crates/core/src/x.rs",
            r#"
            fn outer(xs: &[u64]) -> Vec<u64> {
                xs.iter().map(|x: &u64| helper(*x)).filter(|v| inner.check(v)).collect()
            }
            "#,
        );
        let f = find(&p, "greenps_core::x::outer");
        let names: Vec<String> = f
            .calls
            .iter()
            .map(|c| match &c.callee {
                Callee::Path(p) => p.join("::"),
                Callee::Method { name, .. } => format!(".{name}"),
            })
            .collect();
        assert_eq!(
            names,
            vec![".iter", ".map", "helper", ".filter", ".check", ".collect"]
        );
    }

    #[test]
    fn nested_fns_are_separate_items() {
        let p = parse(
            "crates/core/src/x.rs",
            "fn outer() { fn inner() { deep(); } shallow(); }",
        );
        let outer = find(&p, "greenps_core::x::outer");
        let inner = find(&p, "greenps_core::x::inner");
        let call_names = |f: &FnItem| -> Vec<String> {
            f.calls
                .iter()
                .filter_map(|c| match &c.callee {
                    Callee::Path(p) => Some(p.join("::")),
                    _ => None,
                })
                .collect()
        };
        assert_eq!(call_names(outer), vec!["shallow"]);
        assert_eq!(call_names(inner), vec!["deep"]);
    }

    #[test]
    fn nested_raw_strings_in_call_args() {
        let p = parse(
            "crates/core/src/x.rs",
            r###"fn f() { g(r#"a "quoted" arg with } brace"#, h(1)); }"###,
        );
        let f = find(&p, "greenps_core::x::f");
        let paths: Vec<String> = f
            .calls
            .iter()
            .filter_map(|c| match &c.callee {
                Callee::Path(p) => Some(p.join("::")),
                _ => None,
            })
            .collect();
        assert_eq!(paths, vec!["g", "h"]);
    }

    #[test]
    fn method_chains_have_unknown_receiver_after_calls() {
        let p = parse(
            "crates/core/src/x.rs",
            "fn f(pool: &Pool) { pool.poset().children(3); pool.scan(); }",
        );
        let f = find(&p, "greenps_core::x::f");
        let m: Vec<(String, Receiver)> = f
            .calls
            .iter()
            .filter_map(|c| match &c.callee {
                Callee::Method { name, receiver } => Some((name.clone(), receiver.clone())),
                _ => None,
            })
            .collect();
        assert_eq!(
            m,
            vec![
                ("poset".to_string(), Receiver::Var("pool".to_string())),
                ("children".to_string(), Receiver::Unknown),
                ("scan".to_string(), Receiver::Var("pool".to_string())),
            ]
        );
    }

    #[test]
    fn typed_lets_and_param_heads() {
        let p = parse(
            "crates/core/src/x.rs",
            r#"
            fn f(m: &dyn Closeness, xs: &mut Vec<(u64, f64)>, b: Box<dyn Matcher>) {
                let n: usize = xs.len();
                let mut acc: f64 = 0.0;
                let untyped = 3;
            }
            "#,
        );
        let f = find(&p, "greenps_core::x::f");
        assert_eq!(
            f.params,
            vec![
                ("m".to_string(), "Closeness".to_string()),
                ("xs".to_string(), "Vec".to_string()),
                ("b".to_string(), "Matcher".to_string()),
            ]
        );
        assert_eq!(
            f.lets,
            vec![
                ("n".to_string(), "usize".to_string()),
                ("acc".to_string(), "f64".to_string()),
            ]
        );
    }

    #[test]
    fn cfg_test_regions_mark_items() {
        let p = parse(
            "crates/core/src/x.rs",
            "fn lib_fn() {}\n#[cfg(test)]\nmod tests { fn test_helper() {} }",
        );
        assert!(!find(&p, "greenps_core::x::lib_fn").is_test);
        assert!(find(&p, "greenps_core::x::tests::test_helper").is_test);
    }

    #[test]
    fn generic_fns_with_where_clauses_and_fn_bounds() {
        let p = parse(
            "crates/core/src/x.rs",
            r#"
            pub fn shard_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
            where
                T: Sync,
                F: Fn(&T) -> R + Sync,
            {
                run(items)
            }
            "#,
        );
        let f = find(&p, "greenps_core::x::shard_map");
        assert_eq!(f.params.len(), 3);
        assert_eq!(f.params[1], ("threads".to_string(), "usize".to_string()));
        assert_eq!(f.calls.len(), 1);
    }
}
