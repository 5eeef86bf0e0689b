//! Matching engines: given a publication, find the matching
//! subscriptions.
//!
//! Two implementations share the [`Matcher`] behaviour:
//!
//! * [`NaiveMatcher`] scans every filter — the reference oracle of the
//!   tests and the benchmark;
//! * [`BucketMatcher`] is the engine brokers use, or rather its
//!   hop-less face: a thin wrapper over the crate's one routing index
//!   (`index.rs`; the same structure
//!   [`crate::routing::RoutingTables`] holds with real next hops) in
//!   which every subscription belongs to a single hop group that
//!   reports all of its matches. Filters are bucketed under their
//!   rarest equality predicate, entries evaluate their predicates
//!   against attribute values resolved once per publication, and the
//!   `&self` match path neither allocates nor rebuilds.

use crate::filter::Filter;
use crate::ids::SubId;
use crate::index::RoutingIndex;
use crate::message::{Publication, Subscription};
use std::collections::BTreeMap;

/// Common behaviour of matching engines.
pub trait Matcher {
    /// Registers a filter under a subscription id.
    ///
    /// Re-inserting an id replaces the previous filter.
    fn insert(&mut self, id: SubId, filter: Filter);

    /// Removes a subscription; returns `true` if it was present.
    fn remove(&mut self, id: SubId) -> bool;

    /// Returns the ids of all subscriptions matching the publication.
    fn matches(&self, publication: &Publication) -> Vec<SubId>;

    /// Number of registered subscriptions.
    fn len(&self) -> usize;

    /// True when no subscriptions are registered.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Reference matcher that scans all filters linearly.
#[derive(Debug, Clone, Default)]
pub struct NaiveMatcher {
    filters: BTreeMap<SubId, Filter>,
}

impl NaiveMatcher {
    /// Creates an empty matcher.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Matcher for NaiveMatcher {
    fn insert(&mut self, id: SubId, filter: Filter) {
        self.filters.insert(id, filter);
    }

    fn remove(&mut self, id: SubId) -> bool {
        self.filters.remove(&id).is_some()
    }

    fn matches(&self, publication: &Publication) -> Vec<SubId> {
        let mut out: Vec<SubId> = self
            .filters
            .iter()
            .filter(|(_, f)| f.matches(publication))
            .map(|(id, _)| *id)
            .collect();
        out.sort_unstable();
        out
    }

    fn len(&self) -> usize {
        self.filters.len()
    }
}

/// Bucket-indexed matcher: the routing index with every subscription
/// in one hop group that reports all of its matches. Each filter is
/// indexed under its *least common* equality predicate, so a
/// publication only evaluates the filters whose discriminating
/// `(attribute, value)` pair it actually carries. On the paper's stock
/// workload this reduces per-publication work from "every subscription
/// sharing `[class,=,'STOCK']`" to "the subscriptions of one symbol" —
/// the difference between simulating 80 brokers in minutes and in
/// seconds.
///
/// Filters with no equality predicate fall back to a scan list.
/// Inserts and removals since the last build sit on a short change
/// list the match reads too, so every match is current; the `&mut`
/// entry points ([`BucketMatcher::ensure_built`],
/// [`BucketMatcher::matches_mut`]) fold them into the index.
#[derive(Debug, Clone, Default)]
pub struct BucketMatcher {
    index: RoutingIndex<()>,
}

impl BucketMatcher {
    /// Creates an empty matcher.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of index buckets (diagnostic; folds changes in first).
    pub fn bucket_count(&mut self) -> usize {
        self.index.ensure_built();
        self.index.bucket_count()
    }

    /// Like [`Matcher::matches`] but folds every change into the index
    /// first.
    pub fn matches_mut(&mut self, publication: &Publication) -> Vec<SubId> {
        self.index.ensure_built();
        self.matches(publication)
    }

    /// Appends the matching subscription ids to `out` (cleared first),
    /// sorted. The allocation-free match path: bucket lookups borrow
    /// the publication's attribute and value strings, and callers reuse
    /// `out` across publications.
    ///
    /// Changes not yet folded in (see [`BucketMatcher::ensure_built`])
    /// are scanned one by one.
    pub fn matches_into(&self, publication: &Publication, out: &mut Vec<SubId>) {
        self.index.all_matches_into(publication, out);
    }

    /// Folds every insert and removal into the index now (call after a
    /// subscribe burst so later `&self` matches use the index rather
    /// than a scan of the changes).
    pub fn ensure_built(&mut self) {
        self.index.ensure_built();
    }
}

impl Matcher for BucketMatcher {
    fn insert(&mut self, id: SubId, filter: Filter) {
        self.index.insert(Subscription::new(id, filter), ());
    }

    fn remove(&mut self, id: SubId) -> bool {
        self.index.remove(id).is_some()
    }

    fn matches(&self, publication: &Publication) -> Vec<SubId> {
        // An owned-result convenience over `matches_into`; hot callers
        // reuse a buffer through that entry point instead.
        let mut out: Vec<SubId> = Vec::new();
        self.matches_into(publication, &mut out);
        out
    }

    fn len(&self) -> usize {
        self.index.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::stock_template;
    use crate::ids::{AdvId, MsgId};
    use crate::predicate::{Op, Predicate};
    use crate::value::Value;

    fn quote(symbol: &str, low: f64, volume: i64) -> Publication {
        Publication::builder(AdvId::new(1), MsgId::new(1))
            .attr("class", "STOCK")
            .attr("symbol", symbol)
            .attr("low", low)
            .attr("volume", volume)
            .build()
    }

    fn engines() -> (NaiveMatcher, BucketMatcher) {
        (NaiveMatcher::new(), BucketMatcher::new())
    }

    /// The naive scan's answer, checked against the bucket matcher's
    /// `&self` path (changes unfolded) and its built index.
    fn both_match(naive: &NaiveMatcher, bucket: &mut BucketMatcher, p: &Publication) -> Vec<SubId> {
        let a = naive.matches(p);
        assert_eq!(a, bucket.matches(p), "engines disagree on {p} (unfolded)");
        assert_eq!(a, bucket.matches_mut(p), "engines disagree on {p}");
        a
    }

    #[test]
    fn exact_and_range_matching() {
        let (mut n, mut c) = engines();
        for m in [&mut n as &mut dyn Matcher, &mut c] {
            m.insert(SubId::new(1), stock_template("YHOO"));
            m.insert(
                SubId::new(2),
                stock_template("YHOO").and(Predicate::new("low", Op::Lt, 18.0)),
            );
            m.insert(SubId::new(3), stock_template("GOOG"));
        }
        let hits = both_match(&n, &mut c, &quote("YHOO", 17.5, 100));
        assert_eq!(hits, vec![SubId::new(1), SubId::new(2)]);
        let hits = both_match(&n, &mut c, &quote("YHOO", 19.0, 100));
        assert_eq!(hits, vec![SubId::new(1)]);
        let hits = both_match(&n, &mut c, &quote("GOOG", 1.0, 100));
        assert_eq!(hits, vec![SubId::new(3)]);
    }

    #[test]
    fn empty_filter_matches_everything() {
        let (mut n, mut c) = engines();
        n.insert(SubId::new(9), Filter::new());
        c.insert(SubId::new(9), Filter::new());
        let hits = both_match(&n, &mut c, &quote("YHOO", 1.0, 1));
        assert_eq!(hits, vec![SubId::new(9)]);
    }

    #[test]
    fn remove_unregisters() {
        let (mut n, mut c) = engines();
        n.insert(SubId::new(1), stock_template("YHOO"));
        c.insert(SubId::new(1), stock_template("YHOO"));
        assert!(n.remove(SubId::new(1)));
        assert!(c.remove(SubId::new(1)));
        assert!(!c.remove(SubId::new(1)));
        assert!(both_match(&n, &mut c, &quote("YHOO", 1.0, 1)).is_empty());
        assert_eq!(c.len(), 0);
        assert!(c.is_empty());
    }

    #[test]
    fn reinsert_replaces_filter() {
        let (mut n, mut c) = engines();
        for m in [&mut n as &mut dyn Matcher, &mut c] {
            m.insert(SubId::new(1), stock_template("YHOO"));
            m.insert(SubId::new(1), stock_template("GOOG"));
        }
        assert!(both_match(&n, &mut c, &quote("YHOO", 1.0, 1)).is_empty());
        assert_eq!(
            both_match(&n, &mut c, &quote("GOOG", 1.0, 1)),
            vec![SubId::new(1)]
        );
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn volume_inequality_subscriptions() {
        let (mut n, mut c) = engines();
        for m in [&mut n as &mut dyn Matcher, &mut c] {
            m.insert(
                SubId::new(1),
                stock_template("YHOO").and(Predicate::new("volume", Op::Gt, 1000i64)),
            );
        }
        assert_eq!(
            both_match(&n, &mut c, &quote("YHOO", 5.0, 6200)),
            vec![SubId::new(1)]
        );
        assert!(both_match(&n, &mut c, &quote("YHOO", 5.0, 500)).is_empty());
    }

    #[test]
    fn bucket_matcher_agrees_with_naive() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(17);
        let symbols = ["YHOO", "GOOG", "IBM"];
        let mut naive = NaiveMatcher::new();
        let mut bucket = BucketMatcher::new();
        for i in 0..150 {
            let sym = symbols[rng.gen_range(0..symbols.len())];
            let mut f = stock_template(sym);
            if rng.gen_bool(0.6) {
                let attr = ["low", "high", "volume"][rng.gen_range(0..3)];
                let op = [Op::Lt, Op::Gt, Op::Le, Op::Ge][rng.gen_range(0..4)];
                f = f.and(Predicate::new(attr, op, rng.gen_range(0.0..100.0)));
            }
            naive.insert(SubId::new(i), f.clone());
            bucket.insert(SubId::new(i), f);
        }
        // One matcher with an empty filter (scan list).
        naive.insert(SubId::new(900), Filter::new());
        bucket.insert(SubId::new(900), Filter::new());
        for k in 0..100 {
            let sym = symbols[k % symbols.len()];
            let p = Publication::builder(AdvId::new(1), MsgId::new(1))
                .attr("class", "STOCK")
                .attr("symbol", sym)
                .attr("low", (k as f64) % 100.0)
                .attr("high", rng.gen_range(0.0..100.0))
                .attr("volume", rng.gen_range(0.0..100.0))
                .build();
            // `&self` with the changes unfolded, then the built index.
            assert_eq!(naive.matches(&p), bucket.matches(&p), "unfolded, pub {k}");
            assert_eq!(naive.matches(&p), bucket.matches_mut(&p), "pub {k}");
            assert_eq!(naive.matches(&p), bucket.matches(&p));
            bucket.insert(SubId::new(901), Filter::new());
            bucket.remove(SubId::new(901));
        }
        assert!(bucket.bucket_count() >= symbols.len());
        assert!(bucket.remove(SubId::new(900)));
        assert!(!bucket.remove(SubId::new(900)));
        assert_eq!(bucket.len(), 150);
    }

    /// Equality buckets are keyed the way `Value::eq` compares: by
    /// number, not by spelling.
    #[test]
    fn numeric_equality_buckets_follow_value_equality() {
        let cases = [
            ("x", Value::Float(0.0), Value::Float(-0.0)),
            ("y", Value::Int(i64::MAX), Value::Float(i64::MAX as f64)),
            ("z", Value::Int(18), Value::Float(18.0)),
            ("b", Value::Bool(true), Value::Bool(true)),
        ];
        for (attr, operand, published) in cases {
            let filter = Filter::new().and(Predicate::eq(attr, operand));
            let p = Publication::builder(AdvId::new(1), MsgId::new(1))
                .attr(attr, published)
                .build();
            let mut naive = NaiveMatcher::new();
            let mut bucket = BucketMatcher::new();
            naive.insert(SubId::new(1), filter.clone());
            bucket.insert(SubId::new(1), filter.clone());
            assert_eq!(naive.matches(&p), vec![SubId::new(1)], "{filter} on {p}");
            assert_eq!(
                bucket.matches_mut(&p),
                vec![SubId::new(1)],
                "{filter} on {p}"
            );
            assert_eq!(
                bucket.bucket_count(),
                1,
                "{filter} is bucketed, not scanned"
            );
        }
    }

    #[test]
    fn bucket_matcher_indexes_under_rarest_predicate() {
        // 99 subs share class=STOCK; each has a unique symbol. The
        // symbol predicate must be chosen, keeping buckets tiny.
        let mut bucket = BucketMatcher::new();
        for i in 0..99u64 {
            bucket.insert(SubId::new(i), stock_template(&format!("S{i}")));
        }
        assert_eq!(bucket.bucket_count(), 99);
        let p = Publication::builder(AdvId::new(1), MsgId::new(1))
            .attr("class", "STOCK")
            .attr("symbol", "S42")
            .build();
        assert_eq!(bucket.matches_mut(&p), vec![SubId::new(42)]);
    }
}
