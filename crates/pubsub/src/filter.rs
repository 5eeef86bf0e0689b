//! Filters — conjunctions of predicates.
//!
//! Both subscriptions and advertisements are [`Filter`]s:
//!
//! * a **subscription** filter describes the publications a subscriber
//!   wants, e.g. `[class,=,'STOCK'],[symbol,=,'YHOO'],[low,<,18.0]`;
//! * an **advertisement** filter describes the publications a publisher
//!   will emit, usually with presence or range predicates.
//!
//! Filters support evaluation against publications, plus the *covering*
//! and *overlap* relations needed by advertisement-based routing and the
//! poset of Phase 2.

use crate::message::Publication;
use crate::predicate::{Op, Predicate};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// A conjunction of [`Predicate`]s over distinct or repeated attributes.
///
/// Filters are shared immutable values, like a publication's
/// attributes: cloning one bumps a reference count, so a subscription
/// forwarded through many brokers, recorded in their routing indexes
/// and reported in a BIA is one predicate allocation, not one per copy.
/// The builder methods copy on write only while the value is shared.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Filter {
    predicates: Arc<Vec<Predicate>>,
}

impl Filter {
    /// Creates an empty filter, which matches every publication.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a filter from predicates.
    pub fn from_predicates(predicates: impl IntoIterator<Item = Predicate>) -> Self {
        Self {
            predicates: Arc::new(predicates.into_iter().collect()),
        }
    }

    /// Appends a predicate (builder style).
    #[must_use]
    pub fn and(mut self, predicate: Predicate) -> Self {
        Arc::make_mut(&mut self.predicates).push(predicate);
        self
    }

    /// The predicates of this filter.
    pub fn predicates(&self) -> &[Predicate] {
        &self.predicates
    }

    /// Number of predicates.
    pub fn len(&self) -> usize {
        self.predicates.len()
    }

    /// True when the filter has no predicates (matches everything).
    pub fn is_empty(&self) -> bool {
        self.predicates.is_empty()
    }

    /// Evaluates the filter against a publication: every predicate must
    /// be satisfied by the publication's value for its attribute, and
    /// the attribute must be present.
    pub fn matches(&self, publication: &Publication) -> bool {
        self.predicates
            .iter()
            .all(|p| publication.get(&p.attr).is_some_and(|v| p.eval(v)))
    }

    /// True when every publication matching `other` also matches `self`
    /// (conservative — only provable coverings return `true`).
    ///
    /// A filter covers another when each of its predicates is implied by
    /// some predicate of the other filter on the same attribute.
    pub fn covers(&self, other: &Filter) -> bool {
        self.predicates
            .iter()
            .all(|p1| other.predicates.iter().any(|p2| p1.covers(p2)))
    }

    /// True when some publication can match both filters (conservative —
    /// only provably disjoint pairs return `false`).
    pub fn overlaps(&self, other: &Filter) -> bool {
        for p1 in self.predicates.iter() {
            for p2 in other.predicates.iter() {
                if p1.attr == p2.attr && !p1.overlaps(p2) {
                    return false;
                }
            }
        }
        true
    }

    /// Subscription-to-advertisement intersection test used by routing:
    /// a subscription can only be satisfied by a publisher whose
    /// advertisement (a) declares every attribute the subscription
    /// constrains and (b) overlaps it value-wise.
    pub fn intersects_advertisement(&self, adv: &Filter) -> bool {
        let declares = |attr: &str| adv.predicates.iter().any(|p| p.attr == attr);
        self.predicates.iter().all(|p| declares(&p.attr)) && self.overlaps(adv)
    }

    /// Classifies the relationship between two filters from the
    /// *language* (the classical poset approach the paper contrasts
    /// with its bit-vector method). Conservative in the covering tests,
    /// so `Equal`/`Superset`/`Subset` are only reported when provable;
    /// `Empty` is reported only when the filters provably cannot both
    /// match a publication.
    pub fn relationship(&self, other: &Filter) -> FilterRelation {
        let ab = self.covers(other);
        let ba = other.covers(self);
        match (ab, ba) {
            (true, true) => FilterRelation::Equal,
            (true, false) => FilterRelation::Superset,
            (false, true) => FilterRelation::Subset,
            (false, false) => {
                if self.overlaps(other) {
                    FilterRelation::Intersect
                } else {
                    FilterRelation::Empty
                }
            }
        }
    }

    /// Approximate serialized size in bytes for bandwidth accounting.
    pub fn wire_size(&self) -> usize {
        self.predicates
            .iter()
            .map(|p| p.attr.len() + 1 + p.value.wire_size())
            .sum()
    }

    /// A canonical string form usable as a hash/equality key.
    pub fn canonical_key(&self) -> String {
        let mut parts: Vec<String> = self.predicates.iter().map(|p| p.to_string()).collect();
        parts.sort();
        parts.join(",")
    }
}

impl FromIterator<Predicate> for Filter {
    fn from_iter<T: IntoIterator<Item = Predicate>>(iter: T) -> Self {
        Self::from_predicates(iter)
    }
}

impl Extend<Predicate> for Filter {
    fn extend<T: IntoIterator<Item = Predicate>>(&mut self, iter: T) {
        Arc::make_mut(&mut self.predicates).extend(iter);
    }
}

impl fmt::Display for Filter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, p) in self.predicates.iter().enumerate() {
            if i > 0 {
                f.write_str(",")?;
            }
            write!(f, "{p}")?;
        }
        Ok(())
    }
}

/// How two filters relate, derived from the subscription language (cf.
/// `greenps_profile`'s bit-vector `Relation`, which the paper uses
/// instead to stay language-independent).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FilterRelation {
    /// Each filter provably covers the other.
    Equal,
    /// `self` provably covers `other`.
    Superset,
    /// `other` provably covers `self`.
    Subset,
    /// Neither covers the other but they may share matches.
    Intersect,
    /// Provably disjoint.
    Empty,
}

/// Builds the stock-quote subscription template from the paper:
/// `[class,=,'STOCK'],[symbol,=,<symbol>]`.
pub fn stock_template(symbol: &str) -> Filter {
    Filter::new()
        .and(Predicate::eq("class", "STOCK"))
        .and(Predicate::eq("symbol", symbol))
}

/// Builds the paper's advertisement for a stock publisher: class and
/// symbol pinned, every numeric/derived attribute declared present.
pub fn stock_advertisement(symbol: &str) -> Filter {
    let mut f = stock_template(symbol);
    for attr in [
        "open",
        "high",
        "low",
        "close",
        "volume",
        "date",
        "openClose%Diff",
        "highLow%Diff",
        "closeEqualsLow",
        "closeEqualsHigh",
    ] {
        f = f.and(Predicate::new(attr, Op::Present, true));
    }
    f
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{AdvId, MsgId};
    use crate::message::Publication;
    use crate::value::Value;

    fn yhoo_pub() -> Publication {
        Publication::builder(AdvId::new(1), MsgId::new(75))
            .attr("class", "STOCK")
            .attr("symbol", "YHOO")
            .attr("open", 18.37)
            .attr("low", 18.37)
            .attr("volume", 6200i64)
            .build()
    }

    #[test]
    fn empty_filter_matches_everything() {
        assert!(Filter::new().matches(&yhoo_pub()));
    }

    #[test]
    fn template_matches_same_symbol_only() {
        assert!(stock_template("YHOO").matches(&yhoo_pub()));
        assert!(!stock_template("GOOG").matches(&yhoo_pub()));
    }

    #[test]
    fn missing_attribute_fails_match() {
        let f = Filter::new().and(Predicate::eq("nonexistent", 1i64));
        assert!(!f.matches(&yhoo_pub()));
    }

    #[test]
    fn inequality_template_from_paper() {
        // 60% of subscriptions add an inequality attribute, e.g. [low,<,x]
        let f = stock_template("YHOO").and(Predicate::new("low", Op::Lt, 19.0));
        assert!(f.matches(&yhoo_pub()));
        let tight = stock_template("YHOO").and(Predicate::new("low", Op::Lt, 18.0));
        assert!(!tight.matches(&yhoo_pub()));
    }

    #[test]
    fn covering_between_templates() {
        let broad = stock_template("YHOO");
        let narrow = stock_template("YHOO").and(Predicate::new("low", Op::Lt, 18.0));
        assert!(broad.covers(&narrow));
        assert!(!narrow.covers(&broad));
        assert!(broad.covers(&broad));
    }

    #[test]
    fn empty_filter_covers_all() {
        assert!(Filter::new().covers(&stock_template("YHOO")));
        assert!(!stock_template("YHOO").covers(&Filter::new()));
    }

    #[test]
    fn overlap_between_sibling_ranges() {
        let lo = stock_template("YHOO").and(Predicate::new("low", Op::Lt, 20.0));
        let hi = stock_template("YHOO").and(Predicate::new("low", Op::Gt, 10.0));
        assert!(lo.overlaps(&hi));
        let disjoint = stock_template("YHOO").and(Predicate::new("low", Op::Gt, 30.0));
        assert!(!lo.overlaps(&disjoint));
    }

    #[test]
    fn different_symbols_do_not_overlap() {
        assert!(!stock_template("YHOO").overlaps(&stock_template("GOOG")));
    }

    #[test]
    fn subscription_advertisement_intersection() {
        let adv = stock_advertisement("YHOO");
        let sub = stock_template("YHOO").and(Predicate::new("low", Op::Lt, 19.0));
        assert!(sub.intersects_advertisement(&adv));
        // wrong symbol
        assert!(!stock_template("GOOG").intersects_advertisement(&adv));
        // attribute the advertisement does not declare
        let odd = stock_template("YHOO").and(Predicate::eq("undeclared", 1i64));
        assert!(!odd.intersects_advertisement(&adv));
    }

    #[test]
    fn filter_relationship_classification() {
        use super::FilterRelation;
        let broad = stock_template("YHOO");
        let narrow = stock_template("YHOO").and(Predicate::new("low", Op::Lt, 18.0));
        assert_eq!(broad.relationship(&narrow), FilterRelation::Superset);
        assert_eq!(narrow.relationship(&broad), FilterRelation::Subset);
        assert_eq!(broad.relationship(&broad.clone()), FilterRelation::Equal);
        assert_eq!(
            stock_template("YHOO").relationship(&stock_template("GOOG")),
            FilterRelation::Empty
        );
        let lo = stock_template("YHOO").and(Predicate::new("low", Op::Lt, 20.0));
        let hi = stock_template("YHOO").and(Predicate::new("low", Op::Gt, 10.0));
        assert_eq!(lo.relationship(&hi), FilterRelation::Intersect);
    }

    #[test]
    fn display_matches_paper_example() {
        let f = Filter::new()
            .and(Predicate::eq("class", "STOCK"))
            .and(Predicate::eq("symbol", "YHOO"));
        assert_eq!(f.to_string(), "[class,=,'STOCK'],[symbol,=,'YHOO']");
    }

    #[test]
    fn canonical_key_is_order_insensitive() {
        let a = Filter::new()
            .and(Predicate::eq("class", "STOCK"))
            .and(Predicate::eq("symbol", "YHOO"));
        let b = Filter::new()
            .and(Predicate::eq("symbol", "YHOO"))
            .and(Predicate::eq("class", "STOCK"));
        assert_eq!(a.canonical_key(), b.canonical_key());
    }

    #[test]
    fn wire_size_counts_attrs_and_values() {
        let f = Filter::new().and(Predicate::eq("symbol", "YHOO"));
        assert_eq!(f.wire_size(), "symbol".len() + 1 + "YHOO".len());
    }

    #[test]
    fn collect_from_iterator() {
        let f: Filter = vec![Predicate::eq("a", 1i64)].into_iter().collect();
        assert_eq!(f.len(), 1);
        let mut g = Filter::new();
        g.extend(vec![Predicate::eq("b", Value::Int(2))]);
        assert_eq!(g.len(), 1);
    }
}
