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
//!
//! Every filter also carries a fixed-size summary of its predicates,
//! kept current by each builder, from which
//! [`Filter::intersects_advertisement`] rejects most disjoint
//! subscription/advertisement pairs before the exact test
//! (DESIGN.md §8.2).

use crate::index::Key;
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
/// The summary lives in the same allocation; `Debug`, `Display` and
/// `==` see the predicates only.
#[derive(Clone, Default, Serialize, Deserialize)]
pub struct Filter {
    body: Arc<Body>,
}

/// What a [`Filter`] points at.
#[derive(Clone, Default)]
struct Body {
    summary: Summary,
    predicates: Vec<Predicate>,
}

impl Body {
    /// Appends predicates and adds them, and only them, to the summary.
    fn extend(&mut self, predicates: impl IntoIterator<Item = Predicate>) {
        let start = self.predicates.len();
        self.predicates.extend(predicates);
        let added = self.predicates.get(start..).unwrap_or_default();
        self.summary.note(start, added);
    }
}

/// How many equality predicates a [`Summary`] fingerprints: the first
/// this many in predicate order.
const FINGERPRINTS: usize = 4;

/// A fixed-size digest of a filter's predicates, for rejecting
/// subscription/advertisement pairs without comparing names. Every
/// hash is FNV-1a (64-bit, folded to 16), so a summary is the same in
/// every process.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Summary {
    /// Bloom of the attribute names: bit `h % 64` for each name's
    /// folded hash `h`.
    names: u64,
    /// Per fingerprinted equality predicate, its attribute name's
    /// folded hash above the folded hash of its operand's [`Key`].
    /// Equal values have equal keys, so unequal operand halves prove
    /// unequal operands.
    eq: [u32; FINGERPRINTS],
    /// Position among the predicates of each fingerprinted predicate.
    at: [u8; FINGERPRINTS],
    /// Fingerprints in use.
    len: u8,
}

impl Summary {
    /// Adds `predicates`, which sit at positions `start..` of their
    /// filter. An equality predicate past position 255 is not
    /// fingerprinted; fewer fingerprints only reject less.
    fn note(&mut self, start: usize, predicates: &[Predicate]) {
        for (position, p) in (start..).zip(predicates) {
            let name = fold16(fnv1a(FNV_OFFSET, p.attr.as_bytes()));
            self.names |= 1u64 << (name & 63);
            let next = usize::from(self.len);
            let free = self.eq.get_mut(next).zip(self.at.get_mut(next));
            if let (Op::Eq, Some((fingerprint, at)), Ok(position)) =
                (p.op, free, u8::try_from(position))
            {
                *fingerprint = name << 16 | fold16(key_hash(Key::of(&p.value)));
                *at = position;
                self.len += 1;
            }
        }
    }

    /// `(fingerprint, predicate position)` of each fingerprint in use.
    fn fingerprints(&self) -> impl Iterator<Item = (u32, usize)> + '_ {
        self.eq
            .iter()
            .zip(&self.at)
            .take(usize::from(self.len))
            .map(|(&fingerprint, &at)| (fingerprint, usize::from(at)))
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0100_0000_01b3;
/// The attribute half of a fingerprint.
const ATTR_HALF: u32 = 0xffff_0000;

fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(hash, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
}

/// FNV's xor-folding down to 16 bits: the four 16-bit lanes of `hash`
/// xored. (Its top bits alone would not do: names that differ in their
/// last byte, `attr0` and `attr1`, share their top 16 bits.)
fn fold16(hash: u64) -> u32 {
    let [a, b, c, d, e, f, g, h] = hash.to_be_bytes();
    let lanes = [[a, b], [c, d], [e, f], [g, h]].map(u16::from_be_bytes);
    u32::from(lanes.iter().fold(0, |folded, lane| folded ^ lane))
}

/// FNV-1a of an operand key, its domain tag first.
fn key_hash(key: Key<'_>) -> u64 {
    match key {
        Key::Bool(b) => fnv1a(FNV_OFFSET, &[0, u8::from(b)]),
        Key::Num(bits) => fnv1a(fnv1a(FNV_OFFSET, &[1]), &bits.to_le_bytes()),
        Key::Str(s) => fnv1a(fnv1a(FNV_OFFSET, &[2]), s.as_bytes()),
    }
}

impl Filter {
    /// Creates an empty filter, which matches every publication.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a filter from predicates.
    pub fn from_predicates(predicates: impl IntoIterator<Item = Predicate>) -> Self {
        let predicates: Vec<Predicate> = predicates.into_iter().collect();
        let mut summary = Summary::default();
        summary.note(0, &predicates);
        Self {
            body: Arc::new(Body {
                summary,
                predicates,
            }),
        }
    }

    /// Appends a predicate (builder style).
    #[must_use]
    pub fn and(mut self, predicate: Predicate) -> Self {
        Arc::make_mut(&mut self.body).extend([predicate]);
        self
    }

    /// The predicates of this filter.
    pub fn predicates(&self) -> &[Predicate] {
        &self.body.predicates
    }

    /// Number of predicates.
    pub fn len(&self) -> usize {
        self.predicates().len()
    }

    /// True when the filter has no predicates (matches everything).
    pub fn is_empty(&self) -> bool {
        self.predicates().is_empty()
    }

    /// Evaluates the filter against a publication: every predicate must
    /// be satisfied by the publication's value for its attribute, and
    /// the attribute must be present.
    pub fn matches(&self, publication: &Publication) -> bool {
        self.predicates()
            .iter()
            .all(|p| publication.get(&p.attr).is_some_and(|v| p.eval(v)))
    }

    /// True when every publication matching `other` also matches `self`
    /// (conservative — only provable coverings return `true`).
    ///
    /// A filter covers another when each of its predicates is implied by
    /// some predicate of the other filter on the same attribute.
    pub fn covers(&self, other: &Filter) -> bool {
        self.predicates()
            .iter()
            .all(|p1| other.predicates().iter().any(|p2| p1.covers(p2)))
    }

    /// True when some publication can match both filters (conservative —
    /// only provably disjoint pairs return `false`).
    pub fn overlaps(&self, other: &Filter) -> bool {
        for p1 in self.predicates() {
            for p2 in other.predicates() {
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
    ///
    /// The summaries are compared first and settle a pair only when
    /// they prove it disjoint (`summary_rejects`); every other pair
    /// gets the exact test, so the answer is the exact test's whatever
    /// the hashes do.
    pub fn intersects_advertisement(&self, adv: &Filter) -> bool {
        if self.summary_rejects(adv) {
            return false;
        }
        let declares = |attr: &str| adv.predicates().iter().any(|p| p.attr == attr);
        self.predicates().iter().all(|p| declares(&p.attr)) && self.overlaps(adv)
    }

    /// True when the summaries prove `self` cannot intersect `adv`:
    /// (a) one of `self`'s name bloom bits is missing from `adv`'s, so
    /// some attribute is undeclared; or (b) two fingerprinted equality
    /// predicates hash to one attribute and different operand keys and
    /// their attribute names are equal — compared exactly, so a hash
    /// collision between names never rejects.
    pub(crate) fn summary_rejects(&self, adv: &Filter) -> bool {
        let (sub, adv) = (&*self.body, &*adv.body);
        if sub.summary.names & !adv.summary.names != 0 {
            return true;
        }
        sub.summary.fingerprints().any(|(s, at)| {
            adv.summary.fingerprints().any(|(a, adv_at)| {
                s != a
                    && (s ^ a) & ATTR_HALF == 0
                    && match (sub.predicates.get(at), adv.predicates.get(adv_at)) {
                        (Some(p), Some(q)) => p.attr == q.attr,
                        _ => false,
                    }
            })
        })
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
        self.predicates()
            .iter()
            .map(|p| p.attr.len() + 1 + p.value.wire_size())
            .sum()
    }

    /// A canonical string form usable as a hash/equality key.
    pub fn canonical_key(&self) -> String {
        let mut parts: Vec<String> = self.predicates().iter().map(|p| p.to_string()).collect();
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
        Arc::make_mut(&mut self.body).extend(iter);
    }
}

impl PartialEq for Filter {
    fn eq(&self, other: &Self) -> bool {
        self.predicates() == other.predicates()
    }
}

impl fmt::Debug for Filter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Filter")
            .field("predicates", &self.predicates())
            .finish()
    }
}

impl fmt::Display for Filter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, p) in self.predicates().iter().enumerate() {
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
    fn a_filter_is_one_pointer_to_one_allocation() {
        assert_eq!(std::mem::size_of::<Filter>(), 8);
        assert_eq!(std::mem::size_of::<Summary>(), 32);
        let f = stock_template("YHOO");
        let g = f.clone();
        assert!(Arc::ptr_eq(&f.body, &g.body));
    }

    #[test]
    fn every_builder_leaves_the_summary_a_fresh_one_would_have() {
        let preds = vec![
            Predicate::new("low", Op::Lt, 3.0),
            Predicate::eq("class", "STOCK"),
            Predicate::eq("n", 0i64),
            Predicate::eq("n", -0.0),
            Predicate::eq("flag", true),
            Predicate::eq("symbol", "YHOO"),
            Predicate::present("volume"),
        ];
        let fresh = Filter::from_predicates(preds.clone());
        assert_eq!(fresh.body.summary.len, 4, "only the first four");
        let by_and = preds.iter().cloned().fold(Filter::new(), Filter::and);
        let collected: Filter = preds.iter().cloned().collect();
        let mut extended = Filter::from_predicates(preds[..2].to_vec());
        let shared = extended.clone();
        extended.extend(preds[2..].iter().cloned());
        for f in [&by_and, &collected, &extended] {
            assert_eq!(f, &fresh);
            assert_eq!(f.body.summary, fresh.body.summary);
        }
        // The copy that was shared when `extend` ran is untouched.
        assert_eq!(
            shared.body.summary,
            Filter::from_predicates(preds[..2].to_vec()).body.summary
        );
        // `0` and `-0.0` are equal values: one fingerprint.
        let [_, zero, neg_zero, _] = fresh.body.summary.eq;
        assert_eq!(zero, neg_zero);
    }

    #[test]
    fn debug_prints_the_predicates_only() {
        let f = Filter::new().and(Predicate::eq("symbol", "YHOO"));
        assert_eq!(
            format!("{f:?}"),
            format!("Filter {{ predicates: {:?} }}", f.predicates())
        );
    }

    #[test]
    fn the_summary_rejects_another_symbol_and_passes_the_same_one_on() {
        let adv = stock_advertisement("YHOO");
        let other = stock_template("GOOG").and(Predicate::new("low", Op::Lt, 19.0));
        assert!(other.summary_rejects(&adv), "Eq/Eq conflict on symbol");
        assert!(!other.intersects_advertisement(&adv));
        let same = stock_template("YHOO").and(Predicate::new("low", Op::Lt, 19.0));
        assert!(!same.summary_rejects(&adv), "left to the exact test");
        assert!(same.intersects_advertisement(&adv));
        // Present on one side only: no fingerprint, the exact test decides.
        let wide = Filter::new().and(Predicate::present("symbol"));
        assert!(!wide.summary_rejects(&adv));
        // An undeclared attribute is caught by the name bloom.
        let odd = stock_template("YHOO").and(Predicate::eq("undeclared", 1i64));
        assert!(odd.summary_rejects(&adv));
    }

    /// Two names whose folded hashes are equal, found by searching
    /// `attr0, attr1, …`.
    const COLLIDING: (&str, &str) = ("attr56", "attr71");

    #[test]
    fn colliding_attribute_names_are_told_apart_before_rejecting() {
        let (a, b) = COLLIDING;
        assert_ne!(a, b);
        let folded = |s: &str| fold16(fnv1a(FNV_OFFSET, s.as_bytes()));
        assert_eq!(folded(a), folded(b), "the pinned pair still collides");
        // Fingerprints equal in the attribute half, different in the
        // operand half — but the names differ, so nothing is proven.
        let sub = Filter::new().and(Predicate::eq(a, 1i64));
        let adv = Filter::new()
            .and(Predicate::eq(b, 2i64))
            .and(Predicate::present(a));
        let (s, v) = (sub.body.summary.eq[0], adv.body.summary.eq[0]);
        assert_eq!(s & ATTR_HALF, v & ATTR_HALF);
        assert_ne!(s, v);
        assert!(!sub.summary_rejects(&adv));
        assert!(sub.intersects_advertisement(&adv));
        // The same operands on one name are a proven conflict.
        let same_name = Filter::new()
            .and(Predicate::eq(a, 2i64))
            .and(Predicate::present(b));
        assert!(sub.summary_rejects(&same_name));
        assert!(!sub.intersects_advertisement(&same_name));
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
