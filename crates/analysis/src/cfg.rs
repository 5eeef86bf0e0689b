//! Intraprocedural control-flow graphs (DESIGN.md §9.3).
//!
//! Built from the same code-token stream the item [`crate::parser`]
//! consumes, [`Cfg::build`] recovers basic blocks for one function
//! body: `loop`/`while`/`for` loops (with back edges and recorded
//! [`LoopInfo`] spans), `if`/`else if`/`else` chains, `match` arms,
//! labeled `break`/`continue`, and the early-exit edges of `return`
//! and the `?` operator. It is a token-level over-approximation, not a
//! full parser: unknown constructs degrade to straight-line code, and
//! statements after a jump stay attributed to the jumping block, so
//! every real execution path is covered by some CFG path (extra paths
//! are possible, missing paths are not). That bias is deliberate —
//! the lints built on top ([`crate::cancel_responsive`],
//! [`crate::loop_growth`]) are *may*-analyses where a spurious path
//! costs precision, never soundness.

use crate::lexer::{Token, TokenKind};
use crate::line_of;

/// What kind of loop a [`LoopInfo`] describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoopKind {
    /// `loop { … }`.
    Loop,
    /// `while cond { … }` (including `while let`).
    While,
    /// `for pat in iter { … }`.
    For,
}

/// One loop discovered while building the CFG.
#[derive(Debug, Clone)]
pub struct LoopInfo {
    /// Loop flavor.
    pub kind: LoopKind,
    /// Block index of the loop head (condition re-evaluation point).
    pub head: usize,
    /// Byte offset of the loop keyword in the source file.
    pub start: usize,
    /// Byte span of the loop body braces in the source file.
    pub body: (usize, usize),
    /// 1-based line of the loop keyword.
    pub line: usize,
}

/// One basic block: straight-line token ranges plus successor edges.
#[derive(Debug, Clone, Default)]
pub struct Block {
    /// Token-index ranges (into the caller's code-token slice) this
    /// block covers, in flow order. A join block may cover none.
    pub ranges: Vec<(usize, usize)>,
    /// Successor block indices, de-duplicated, in insertion order.
    pub succs: Vec<usize>,
}

/// Control-flow graph of one function body.
#[derive(Debug, Clone)]
pub struct Cfg {
    /// Blocks; index 0 is the entry, [`Cfg::exit`] the exit.
    pub blocks: Vec<Block>,
    /// Index of the synthetic exit block (no tokens, no successors).
    pub exit: usize,
    /// Loops in source order (outer before inner).
    pub loops: Vec<LoopInfo>,
}

/// Loop context while building: where `break`/`continue` jump.
struct LoopCtx {
    label: Option<String>,
    break_to: usize,
    continue_to: usize,
}

struct Builder<'a, 'b> {
    toks: &'b [&'b Token<'a>],
    src: &'a str,
    blocks: Vec<Block>,
    loops: Vec<LoopInfo>,
    exit: usize,
}

impl Cfg {
    /// Builds the CFG for the body braces at byte span `body` (as
    /// recorded by [`crate::parser::FnItem::body`]). `toks` must be
    /// the *code* token slice of the whole file (comments stripped,
    /// see [`crate::lexer::code`]); block ranges index into it.
    pub fn build(toks: &[&Token<'_>], body: (usize, usize), src: &str) -> Cfg {
        let lo = toks.partition_point(|t| t.start <= body.0);
        let hi = toks.partition_point(|t| t.end < body.1);
        let mut b = Builder {
            toks,
            src,
            blocks: vec![Block::default(), Block::default()],
            loops: Vec::new(),
            exit: 1,
        };
        let mut stack = Vec::new();
        let last = b.seq(lo, hi, 0, &mut stack);
        b.edge(last, 1);
        Cfg {
            blocks: b.blocks,
            exit: 1,
            loops: b.loops,
        }
    }
}

impl<'a> Builder<'a, '_> {
    fn at(&self, i: usize) -> Option<&Token<'a>> {
        self.toks.get(i).copied()
    }

    fn is_kw(&self, i: usize, kw: &str) -> bool {
        self.at(i).is_some_and(|t| t.is_ident(kw))
    }

    fn is_p(&self, i: usize, c: char) -> bool {
        self.at(i).is_some_and(|t| t.is_punct(c))
    }

    fn new_block(&mut self) -> usize {
        self.blocks.push(Block::default());
        self.blocks.len() - 1
    }

    fn edge(&mut self, from: usize, to: usize) {
        let succs = &mut self.blocks[from].succs;
        if !succs.contains(&to) {
            succs.push(to);
        }
    }

    fn push_range(&mut self, block: usize, lo: usize, hi: usize) {
        if lo < hi {
            self.blocks[block].ranges.push((lo, hi));
        }
    }

    /// Index just past the `(`/`[`/`{` group opened at `open`.
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

    /// First `{` at paren/bracket depth 0 in `[from, hi)` — the body
    /// opener of an `if`/`while`/`for`/`match` header (Rust forbids
    /// bare struct literals in that position, so the first such brace
    /// is the body).
    fn find_block_open(&self, from: usize, hi: usize) -> Option<usize> {
        let mut j = from;
        while j < hi {
            let t = self.toks[j];
            if t.is_punct('(') || t.is_punct('[') {
                j = self.skip_group(j);
                continue;
            }
            if t.is_punct('{') {
                return Some(j);
            }
            j += 1;
        }
        None
    }

    /// Builds blocks for tokens `[lo, hi)` starting in block `cur`;
    /// returns the block live at the end of the range.
    fn seq(&mut self, lo: usize, hi: usize, mut cur: usize, stack: &mut Vec<LoopCtx>) -> usize {
        let mut run = lo;
        let mut j = lo;
        let mut label: Option<String> = None;
        while j < hi {
            let t = self.toks[j];
            // A loop label: `'outer: loop { … }`.
            if t.kind == TokenKind::Lifetime && self.is_p(j + 1, ':') {
                label = Some(t.text.to_string());
                j += 2;
                continue;
            }
            // Nested `fn` items are separate CFGs; skip them whole.
            if t.is_ident("fn")
                && self.at(j + 1).is_some_and(|n| n.kind == TokenKind::Ident)
                && !(j > 0 && self.toks[j - 1].is_punct('.'))
            {
                self.push_range(cur, run, j);
                let mut k = j + 2;
                while k < hi && !self.is_p(k, '{') && !self.is_p(k, ';') {
                    k = if self.is_p(k, '(') || self.is_p(k, '[') {
                        self.skip_group(k)
                    } else {
                        k + 1
                    };
                }
                j = if self.is_p(k, '{') {
                    self.skip_group(k)
                } else {
                    k + 1
                };
                run = j;
                continue;
            }
            if t.is_ident("loop") && self.is_p(j + 1, '{') {
                self.push_range(cur, run, j);
                let body_end = self.skip_group(j + 1);
                let head = self.new_block();
                let after = self.new_block();
                self.edge(cur, head);
                self.loops.push(LoopInfo {
                    kind: LoopKind::Loop,
                    head,
                    start: t.start,
                    body: (self.toks[j + 1].start, self.toks[body_end - 1].end),
                    line: line_of(self.src, t.start),
                });
                stack.push(LoopCtx {
                    label: label.take(),
                    break_to: after,
                    continue_to: head,
                });
                let end = self.seq(j + 2, body_end - 1, head, stack);
                stack.pop();
                self.edge(end, head);
                cur = after;
                j = body_end;
                run = j;
                continue;
            }
            if t.is_ident("while") || t.is_ident("for") {
                let Some(open) = self.find_block_open(j + 1, hi) else {
                    j += 1;
                    continue;
                };
                self.push_range(cur, run, j);
                let body_end = self.skip_group(open);
                let head = self.new_block();
                // The condition / iterator expression re-evaluates at
                // the head on every iteration.
                self.push_range(head, j, open);
                self.edge(cur, head);
                let body = self.new_block();
                let after = self.new_block();
                self.edge(head, body);
                self.edge(head, after);
                self.loops.push(LoopInfo {
                    kind: if t.is_ident("while") {
                        LoopKind::While
                    } else {
                        LoopKind::For
                    },
                    head,
                    start: t.start,
                    body: (self.toks[open].start, self.toks[body_end - 1].end),
                    line: line_of(self.src, t.start),
                });
                stack.push(LoopCtx {
                    label: label.take(),
                    break_to: after,
                    continue_to: head,
                });
                let end = self.seq(open + 1, body_end - 1, body, stack);
                stack.pop();
                self.edge(end, head);
                cur = after;
                j = body_end;
                run = j;
                continue;
            }
            if t.is_ident("if") {
                if self.find_block_open(j + 1, hi).is_none() {
                    j += 1;
                    continue;
                }
                self.push_range(cur, run, j);
                let join = self.new_block();
                j = self.if_chain(j, hi, cur, join, stack);
                cur = join;
                run = j;
                continue;
            }
            if t.is_ident("match") {
                let Some(open) = self.find_block_open(j + 1, hi) else {
                    j += 1;
                    continue;
                };
                self.push_range(cur, run, j);
                // Scrutinee evaluates once, in the current block.
                self.push_range(cur, j, open);
                let mend = self.skip_group(open);
                let join = self.new_block();
                let mut any = false;
                let mut a = open + 1;
                while a + 1 < mend {
                    // Pattern (and guard) up to the `=>`.
                    let pat = a;
                    while a + 1 < mend
                        && !(self.is_p(a, '=')
                            && self.is_p(a + 1, '>')
                            && self.toks[a].end == self.toks[a + 1].start)
                    {
                        a = if self.is_p(a, '(') || self.is_p(a, '[') || self.is_p(a, '{') {
                            self.skip_group(a)
                        } else {
                            a + 1
                        };
                    }
                    if a + 1 >= mend {
                        break;
                    }
                    self.push_range(cur, pat, a);
                    let arm = self.new_block();
                    self.edge(cur, arm);
                    any = true;
                    a += 2;
                    let (alo, ahi, next) = if self.is_p(a, '{') {
                        let e = self.skip_group(a);
                        (a + 1, e - 1, if self.is_p(e, ',') { e + 1 } else { e })
                    } else {
                        let s = a;
                        let mut b = a;
                        while b + 1 < mend && !self.is_p(b, ',') {
                            b = if self.is_p(b, '(') || self.is_p(b, '[') || self.is_p(b, '{') {
                                self.skip_group(b)
                            } else {
                                b + 1
                            };
                        }
                        (s, b, if self.is_p(b, ',') { b + 1 } else { b })
                    };
                    let end = self.seq(alo, ahi, arm, stack);
                    self.edge(end, join);
                    a = next;
                }
                if !any {
                    self.edge(cur, join);
                }
                cur = join;
                j = mend;
                run = j;
                continue;
            }
            if t.is_ident("return") {
                self.edge(cur, self.exit);
                j += 1;
                continue;
            }
            if t.is_ident("break") || t.is_ident("continue") {
                let want = self
                    .at(j + 1)
                    .filter(|n| n.kind == TokenKind::Lifetime)
                    .map(|n| n.text.to_string());
                let target = stack
                    .iter()
                    .rev()
                    .find(|c| want.is_none() || c.label == want)
                    .map(|c| {
                        if t.is_ident("break") {
                            c.break_to
                        } else {
                            c.continue_to
                        }
                    });
                if let Some(target) = target {
                    self.edge(cur, target);
                }
                j += 1;
                continue;
            }
            // `?` adds an early-return edge without ending the block.
            if t.is_punct('?') {
                self.edge(cur, self.exit);
                j += 1;
                continue;
            }
            // A bare brace group is a nested scope (or a struct
            // literal, which is harmless to recurse into): flow
            // continues through it in the current block.
            if t.is_punct('{') {
                self.push_range(cur, run, j);
                let end = self.skip_group(j);
                cur = self.seq(j + 1, end - 1, cur, stack);
                j = end;
                run = j;
                continue;
            }
            if t.is_punct('(') || t.is_punct('[') {
                // Groups may contain control flow via closures; walk
                // through them in the current block.
                self.push_range(cur, run, j + 1);
                let end = self.skip_group(j);
                cur = self.seq(j + 1, end - 1, cur, stack);
                self.push_range(cur, end - 1, end);
                j = end;
                run = j;
                continue;
            }
            j += 1;
        }
        self.push_range(cur, run, hi);
        cur
    }

    /// Builds an `if`/`else if`/`else` chain whose `if` keyword is at
    /// `j`, joining every branch at `join`; returns the next token.
    fn if_chain(
        &mut self,
        j: usize,
        hi: usize,
        cur: usize,
        join: usize,
        stack: &mut Vec<LoopCtx>,
    ) -> usize {
        let Some(open) = self.find_block_open(j + 1, hi) else {
            self.edge(cur, join);
            return j + 1;
        };
        // Condition tokens evaluate in the current block.
        self.push_range(cur, j, open);
        let body_end = self.skip_group(open);
        let then = self.new_block();
        self.edge(cur, then);
        let end = self.seq(open + 1, body_end - 1, then, stack);
        self.edge(end, join);
        let k = body_end;
        if self.is_kw(k, "else") {
            if self.is_kw(k + 1, "if") {
                return self.if_chain(k + 1, hi, cur, join, stack);
            }
            if self.is_p(k + 1, '{') {
                let else_end = self.skip_group(k + 1);
                let els = self.new_block();
                self.edge(cur, els);
                let end = self.seq(k + 2, else_end - 1, els, stack);
                self.edge(end, join);
                return else_end;
            }
        }
        // No else: condition may fall through.
        self.edge(cur, join);
        k
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer;
    use crate::parser::parse_file;
    use crate::SourceFile;

    /// Builds the CFG of the named function in `src`.
    fn cfg_of(src: &str, name: &str) -> Cfg {
        let file = SourceFile::new("crates/core/src/x.rs", src);
        let parsed = parse_file(&file);
        let item = parsed
            .fns
            .iter()
            .find(|f| f.name == name)
            .unwrap_or_else(|| panic!("missing fn {name}"));
        let toks = lexer::tokenize(&file.content);
        let code = lexer::code(&toks);
        Cfg::build(&code, item.body.expect("body"), &file.content)
    }

    /// True when `to` is reachable from block 0.
    fn reachable(cfg: &Cfg, to: usize) -> bool {
        let mut seen = vec![false; cfg.blocks.len()];
        let mut stack = vec![0usize];
        while let Some(b) = stack.pop() {
            if seen[b] {
                continue;
            }
            seen[b] = true;
            for &s in &cfg.blocks[b].succs {
                stack.push(s);
            }
        }
        seen[to]
    }

    #[test]
    fn straight_line_has_entry_to_exit() {
        let cfg = cfg_of("fn f() { helper(); other(); }", "f");
        assert!(cfg.loops.is_empty());
        assert_eq!(cfg.blocks[0].succs, vec![cfg.exit]);
        assert!(!cfg.blocks[0].ranges.is_empty());
    }

    #[test]
    fn while_loop_has_back_edge_and_info() {
        let cfg = cfg_of(
            "fn f(n: u32) {\n  let mut i = 0;\n  while i < n { i += 1; }\n}",
            "f",
        );
        assert_eq!(cfg.loops.len(), 1);
        let l = &cfg.loops[0];
        assert_eq!(l.kind, LoopKind::While);
        assert_eq!(l.line, 3);
        // Head branches into body and after; some block loops back.
        assert_eq!(cfg.blocks[l.head].succs.len(), 2);
        assert!(cfg
            .blocks
            .iter()
            .any(|b| b.succs.contains(&l.head) && !b.ranges.is_empty()));
        assert!(reachable(&cfg, cfg.exit));
    }

    #[test]
    fn loop_kinds_and_nesting_are_recorded() {
        let cfg = cfg_of(
            "fn f(xs: &[u32]) { loop { for x in xs { while *x > 0 { work(x); } } } }",
            "f",
        );
        let kinds: Vec<LoopKind> = cfg.loops.iter().map(|l| l.kind).collect();
        assert_eq!(kinds, vec![LoopKind::Loop, LoopKind::For, LoopKind::While]);
        // Inner bodies nest inside outer body spans.
        assert!(cfg.loops[0].body.0 < cfg.loops[1].body.0);
        assert!(cfg.loops[1].body.1 <= cfg.loops[0].body.1);
    }

    #[test]
    fn plain_loop_without_break_leaves_exit_unreachable() {
        let cfg = cfg_of("fn f() { loop { tick(); } }", "f");
        assert!(!reachable(&cfg, cfg.exit));
    }

    #[test]
    fn break_makes_loop_exit_reachable() {
        let cfg = cfg_of(
            "fn f() { loop { if done() { break; } tick(); } after(); }",
            "f",
        );
        assert!(reachable(&cfg, cfg.exit));
    }

    #[test]
    fn labeled_break_targets_the_outer_loop() {
        let cfg = cfg_of(
            "fn f() { 'outer: loop { loop { break 'outer; } } after(); }",
            "f",
        );
        // The inner loop's `after` is unreachable; the outer's is.
        assert!(reachable(&cfg, cfg.exit));
        // Exactly one block jumps to the outer loop's after-block.
        let outer_head = cfg.loops[0].head;
        assert!(reachable(&cfg, outer_head));
    }

    #[test]
    fn question_mark_and_return_edge_to_exit() {
        let cfg = cfg_of(
            "fn f() -> Result<(), E> { let x = step()?; if x == 0 { return Ok(()); } go(); Ok(()) }",
            "f",
        );
        // Entry block carries the `?` edge to exit.
        assert!(cfg.blocks[0].succs.contains(&cfg.exit));
    }

    #[test]
    fn match_arms_branch_and_rejoin() {
        let cfg = cfg_of(
            "fn f(x: u32) -> u32 { let y = match x { 0 => zero(), 1 => { one() } _ => rest(x), }; y }",
            "f",
        );
        // Three arm blocks hang off the entry block.
        assert!(cfg.blocks[0].succs.len() >= 3, "{:?}", cfg.blocks[0].succs);
        assert!(reachable(&cfg, cfg.exit));
    }

    #[test]
    fn closure_bodies_stay_in_flow() {
        let cfg = cfg_of(
            "fn f(xs: &[u32]) { xs.iter().for_each(|x| { handle(x); }); done(); }",
            "f",
        );
        // The closure's call tokens appear in some reachable block.
        let toks_of = |cfg: &Cfg| -> usize {
            cfg.blocks
                .iter()
                .map(|b| b.ranges.iter().map(|(l, h)| h - l).sum::<usize>())
                .sum()
        };
        assert!(toks_of(&cfg) > 0);
        assert!(reachable(&cfg, cfg.exit));
    }

    #[test]
    fn nested_fns_are_excluded_from_the_outer_cfg() {
        let cfg = cfg_of("fn f() { fn inner() { loop { spin(); } } tick(); }", "f");
        assert!(cfg.loops.is_empty());
        assert!(reachable(&cfg, cfg.exit));
    }
}
