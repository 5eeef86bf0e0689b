//! Predicates — the atoms of the content-based subscription language.
//!
//! A predicate constrains a single attribute, e.g. `[volume,>,1000]` or
//! `[symbol,=,'YHOO']`. Subscriptions and advertisements are
//! conjunctions of predicates (see [`crate::filter`]).
//!
//! Besides evaluation against publication values, predicates support the
//! *overlap* relation that advertisement-based routing needs:
//! `p.overlaps(q)` means some value satisfies both.

use crate::value::Value;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;

/// Comparison operator of a predicate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Op {
    /// Equal, `=`.
    Eq,
    /// Not equal, `!=` (string and numeric domains).
    Neq,
    /// Less than, `<` (numeric).
    Lt,
    /// Less than or equal, `<=` (numeric).
    Le,
    /// Greater than, `>` (numeric).
    Gt,
    /// Greater than or equal, `>=` (numeric).
    Ge,
    /// String prefix match, `str-prefix`.
    Prefix,
    /// String suffix match, `str-suffix`.
    Suffix,
    /// String containment, `str-contains`.
    Contains,
    /// Attribute presence, `isPresent` — the value operand is ignored.
    /// Advertisements use this to declare an attribute without bounding it.
    Present,
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Op::Eq => "=",
            Op::Neq => "!=",
            Op::Lt => "<",
            Op::Le => "<=",
            Op::Gt => ">",
            Op::Ge => ">=",
            Op::Prefix => "str-prefix",
            Op::Suffix => "str-suffix",
            Op::Contains => "str-contains",
            Op::Present => "isPresent",
        };
        f.write_str(s)
    }
}

/// A single attribute constraint, e.g. `[volume,>,1000]`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Predicate {
    /// Attribute name, e.g. `volume`.
    pub attr: String,
    /// Comparison operator.
    pub op: Op,
    /// Operand the attribute is compared against.
    pub value: Value,
}

impl Predicate {
    /// Creates a predicate.
    pub fn new(attr: impl Into<String>, op: Op, value: impl Into<Value>) -> Self {
        Self {
            attr: attr.into(),
            op,
            value: value.into(),
        }
    }

    /// Shorthand for an equality predicate.
    pub fn eq(attr: impl Into<String>, value: impl Into<Value>) -> Self {
        Self::new(attr, Op::Eq, value)
    }

    /// Shorthand for a presence predicate (used by advertisements).
    pub fn present(attr: impl Into<String>) -> Self {
        Self::new(attr, Op::Present, Value::Bool(true))
    }

    /// Evaluates the predicate against a published value for the same
    /// attribute. Returns `false` on domain mismatch (a string predicate
    /// never matches a numeric value).
    pub fn eval(&self, published: &Value) -> bool {
        match self.op {
            Op::Present => true,
            Op::Eq => published == &self.value,
            Op::Neq => published.same_domain(&self.value) && published != &self.value,
            Op::Lt | Op::Le | Op::Gt | Op::Ge => match published.partial_cmp_value(&self.value) {
                Some(ord) => match self.op {
                    Op::Lt => ord == Ordering::Less,
                    Op::Le => ord != Ordering::Greater,
                    Op::Gt => ord == Ordering::Greater,
                    _ => ord != Ordering::Less,
                },
                None => false,
            },
            Op::Prefix => match (published.as_str(), self.value.as_str()) {
                (Some(p), Some(v)) => p.starts_with(v),
                _ => false,
            },
            Op::Suffix => match (published.as_str(), self.value.as_str()) {
                (Some(p), Some(v)) => p.ends_with(v),
                _ => false,
            },
            Op::Contains => match (published.as_str(), self.value.as_str()) {
                (Some(p), Some(v)) => p.contains(v),
                _ => false,
            },
        }
    }

    /// True when some value can satisfy both predicates.
    ///
    /// Conservative: it may report `true` for a disjoint pair (never
    /// `false` for an overlapping one), which is the safe direction for
    /// routing.
    pub fn overlaps(&self, other: &Predicate) -> bool {
        if self.attr != other.attr {
            // Different attributes constrain different dimensions; a
            // publication can satisfy both.
            return true;
        }
        if self.op == Op::Present || other.op == Op::Present {
            return true;
        }
        if !self.value.same_domain(&other.value) {
            return false;
        }
        use Op::*;
        match (self.op, other.op) {
            (Eq, Eq) => self.value == other.value,
            (Eq, _) => other.eval(&self.value),
            (_, Eq) => self.eval(&other.value),
            (Lt | Le, Lt | Le) | (Gt | Ge, Gt | Ge) => true,
            (Lt, Gt) | (Le, Gt) => gt(&self.value, &other.value),
            (Lt, Ge) => gt(&self.value, &other.value),
            (Le, Ge) => ge(&self.value, &other.value),
            (Gt, Lt) | (Gt, Le) => lt(&self.value, &other.value),
            (Ge, Lt) => lt(&self.value, &other.value),
            (Ge, Le) => le(&self.value, &other.value),
            (Neq, _) | (_, Neq) => true,
            // String pattern operators: assume overlap unless provably
            // equality-incompatible (handled by the Eq arms above).
            _ => true,
        }
    }
}

fn lt(a: &Value, b: &Value) -> bool {
    a.partial_cmp_value(b) == Some(Ordering::Less)
}
fn le(a: &Value, b: &Value) -> bool {
    matches!(
        a.partial_cmp_value(b),
        Some(Ordering::Less | Ordering::Equal)
    )
}
fn gt(a: &Value, b: &Value) -> bool {
    a.partial_cmp_value(b) == Some(Ordering::Greater)
}
fn ge(a: &Value, b: &Value) -> bool {
    matches!(
        a.partial_cmp_value(b),
        Some(Ordering::Greater | Ordering::Equal)
    )
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{},{},{}]", self.attr, self.op, self.value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(attr: &str, op: Op, v: impl Into<Value>) -> Predicate {
        Predicate::new(attr, op, v)
    }

    #[test]
    fn eval_equality_and_inequality() {
        let sym = Predicate::eq("symbol", "YHOO");
        assert!(sym.eval(&Value::str("YHOO")));
        assert!(!sym.eval(&Value::str("GOOG")));

        let vol = p("volume", Op::Gt, 1000i64);
        assert!(vol.eval(&Value::Int(6200)));
        assert!(!vol.eval(&Value::Int(1000)));
        assert!(vol.eval(&Value::Float(1000.5)));
    }

    #[test]
    fn eval_rejects_domain_mismatch() {
        let vol = p("volume", Op::Gt, 1000i64);
        assert!(!vol.eval(&Value::str("big")));
        let neq = p("symbol", Op::Neq, "YHOO");
        assert!(neq.eval(&Value::str("GOOG")));
        assert!(
            !neq.eval(&Value::Int(5)),
            "!= across domains is not a match"
        );
    }

    #[test]
    fn eval_string_operators() {
        assert!(p("s", Op::Prefix, "YH").eval(&Value::str("YHOO")));
        assert!(!p("s", Op::Prefix, "HO").eval(&Value::str("YHOO")));
        assert!(p("s", Op::Suffix, "OO").eval(&Value::str("YHOO")));
        assert!(p("s", Op::Contains, "HO").eval(&Value::str("YHOO")));
        assert!(p("s", Op::Present, true).eval(&Value::Int(1)));
    }

    #[test]
    fn overlap_numeric() {
        // x < 10 and x > 5 overlap; x < 5 and x > 10 do not
        assert!(p("x", Op::Lt, 10i64).overlaps(&p("x", Op::Gt, 5i64)));
        assert!(!p("x", Op::Lt, 5i64).overlaps(&p("x", Op::Gt, 10i64)));
        // boundary: x <= 5 and x >= 5 overlap at 5
        assert!(p("x", Op::Le, 5i64).overlaps(&p("x", Op::Ge, 5i64)));
        // x < 5 and x >= 5 do not
        assert!(!p("x", Op::Lt, 5i64).overlaps(&p("x", Op::Ge, 5i64)));
    }

    #[test]
    fn overlap_equality() {
        assert!(Predicate::eq("s", "YHOO").overlaps(&Predicate::eq("s", "YHOO")));
        assert!(!Predicate::eq("s", "YHOO").overlaps(&Predicate::eq("s", "GOOG")));
        assert!(Predicate::eq("x", 7i64).overlaps(&p("x", Op::Lt, 10i64)));
        assert!(!Predicate::eq("x", 17i64).overlaps(&p("x", Op::Lt, 10i64)));
    }

    #[test]
    fn overlap_different_attributes_is_true() {
        assert!(Predicate::eq("a", 1i64).overlaps(&Predicate::eq("b", 2i64)));
    }

    #[test]
    fn display_matches_padres_syntax() {
        assert_eq!(p("volume", Op::Gt, 1000i64).to_string(), "[volume,>,1000]");
        assert_eq!(
            Predicate::eq("symbol", "YHOO").to_string(),
            "[symbol,=,'YHOO']"
        );
    }
}
