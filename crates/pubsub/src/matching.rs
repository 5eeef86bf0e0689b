//! Matching engines: given a publication, find the matching
//! subscriptions.
//!
//! Three implementations share the [`Matcher`] behaviour:
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
//!   `&self` match path neither allocates nor rebuilds;
//! * [`CountingMatcher`] implements the classic predicate-counting
//!   algorithm with per-attribute predicate sharing — a comparison
//!   baseline for the benches, not on any serving path. Identical
//!   predicates appearing in many subscriptions (e.g. the
//!   `[class,=,'STOCK']` predicate in every stock subscription) are
//!   evaluated once per publication.

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

/// Identifier of a shared predicate inside [`CountingMatcher`].
type PredId = usize;

#[derive(Debug, Clone)]
struct SharedPredicate {
    predicate: crate::predicate::Predicate,
    /// Subscriptions containing this predicate, with multiplicity 1.
    subscribers: Vec<SubId>,
}

/// Predicate-counting matcher with per-attribute predicate sharing.
#[derive(Debug, Clone, Default)]
pub struct CountingMatcher {
    /// Shared predicate table.
    predicates: Vec<SharedPredicate>,
    /// Canonical predicate string -> predicate id.
    by_key: BTreeMap<String, PredId>,
    /// Attribute -> predicate ids constraining it.
    by_attr: BTreeMap<String, Vec<PredId>>,
    /// Subscription -> number of predicates it must satisfy.
    required: BTreeMap<SubId, usize>,
    /// Subscriptions with empty filters (match everything).
    match_all: Vec<SubId>,
    /// Kept for removal and introspection.
    filters: BTreeMap<SubId, Filter>,
}

impl CountingMatcher {
    /// Creates an empty matcher.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the stored filter for a subscription, if present.
    pub fn filter(&self, id: SubId) -> Option<&Filter> {
        self.filters.get(&id)
    }

    /// Number of distinct shared predicates (diagnostic).
    pub fn shared_predicate_count(&self) -> usize {
        self.predicates
            .iter()
            .filter(|p| !p.subscribers.is_empty())
            .count()
    }
}

impl Matcher for CountingMatcher {
    fn insert(&mut self, id: SubId, filter: Filter) {
        if self.filters.contains_key(&id) {
            self.remove(id);
        }
        if filter.is_empty() {
            self.match_all.push(id);
        } else {
            self.required.insert(id, filter.len());
            for pred in filter.predicates() {
                let key = pred.to_string();
                let pid = match self.by_key.get(&key) {
                    Some(&pid) => pid,
                    None => {
                        let pid = self.predicates.len();
                        self.predicates.push(SharedPredicate {
                            predicate: pred.clone(),
                            subscribers: Vec::new(),
                        });
                        self.by_key.insert(key, pid);
                        self.by_attr.entry(pred.attr.clone()).or_default().push(pid);
                        pid
                    }
                };
                if let Some(shared) = self.predicates.get_mut(pid) {
                    shared.subscribers.push(id);
                }
            }
        }
        self.filters.insert(id, filter);
    }

    fn remove(&mut self, id: SubId) -> bool {
        let Some(filter) = self.filters.remove(&id) else {
            return false;
        };
        if filter.is_empty() {
            self.match_all.retain(|&s| s != id);
        } else {
            self.required.remove(&id);
            for pred in filter.predicates() {
                if let Some(shared) = self
                    .by_key
                    .get(&pred.to_string())
                    .and_then(|&pid| self.predicates.get_mut(pid))
                {
                    let subs = &mut shared.subscribers;
                    if let Some(pos) = subs.iter().position(|&s| s == id) {
                        subs.swap_remove(pos);
                    }
                }
            }
        }
        true
    }

    fn matches(&self, publication: &Publication) -> Vec<SubId> {
        let mut counts: BTreeMap<SubId, usize> = BTreeMap::new();
        for (attr, value) in publication.iter() {
            if let Some(pids) = self.by_attr.get(attr) {
                for &pid in pids {
                    let Some(shared) = self.predicates.get(pid) else {
                        continue;
                    };
                    if shared.subscribers.is_empty() {
                        continue;
                    }
                    if shared.predicate.eval(value) {
                        for &sub in &shared.subscribers {
                            *counts.entry(sub).or_insert(0) += 1;
                        }
                    }
                }
            }
        }
        let mut out: Vec<SubId> = counts
            .into_iter()
            .filter(|(sub, n)| self.required.get(sub) == Some(n))
            .map(|(sub, _)| sub)
            .collect();
        out.extend_from_slice(&self.match_all);
        out.sort_unstable();
        out.dedup();
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
/// Filters with no equality predicate fall back to a scan list. The
/// index is rebuilt lazily after inserts/removals, on the `&mut` entry
/// points only ([`BucketMatcher::ensure_built`],
/// [`BucketMatcher::matches_mut`]).
#[derive(Debug, Clone, Default)]
pub struct BucketMatcher {
    index: RoutingIndex<()>,
}

impl BucketMatcher {
    /// Creates an empty matcher.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of index buckets (diagnostic; rebuilds if stale).
    pub fn bucket_count(&mut self) -> usize {
        self.index.ensure_built();
        self.index.bucket_count()
    }

    /// Like [`Matcher::matches`] but rebuilds the index in place first.
    pub fn matches_mut(&mut self, publication: &Publication) -> Vec<SubId> {
        self.index.ensure_built();
        self.matches(publication)
    }

    /// Appends the matching subscription ids to `out` (cleared first),
    /// sorted. The allocation-free match path: bucket lookups borrow
    /// the publication's attribute and value strings, and callers reuse
    /// `out` across publications.
    ///
    /// The index must be fresh (see [`BucketMatcher::ensure_built`]);
    /// a stale index matches against the last built state.
    pub fn matches_into(&self, publication: &Publication, out: &mut Vec<SubId>) {
        self.index.all_matches_into(publication, out);
    }

    /// Rebuilds the index now if stale (call after a subscribe burst so
    /// later `&self` matches use the index rather than a linear scan).
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
        // `&self` never builds: a stale index is answered by scanning
        // the store, which is already in id order.
        if self.index.is_stale() {
            return self
                .index
                .iter()
                .filter(|(sub, _)| sub.filter.matches(publication))
                .map(|(sub, _)| sub.id)
                .collect();
        }
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

    fn engines() -> (NaiveMatcher, CountingMatcher) {
        (NaiveMatcher::new(), CountingMatcher::new())
    }

    fn both_match(naive: &NaiveMatcher, counting: &CountingMatcher, p: &Publication) -> Vec<SubId> {
        let a = naive.matches(p);
        let b = counting.matches(p);
        assert_eq!(a, b, "engines disagree on {p}");
        a
    }

    #[test]
    fn exact_and_range_matching() {
        let (mut n, mut c) = engines();
        for (m, engine) in [(&mut n as &mut dyn Matcher, "n"), (&mut c, "c")] {
            let _ = engine;
            m.insert(SubId::new(1), stock_template("YHOO"));
            m.insert(
                SubId::new(2),
                stock_template("YHOO").and(Predicate::new("low", Op::Lt, 18.0)),
            );
            m.insert(SubId::new(3), stock_template("GOOG"));
        }
        let hits = both_match(&n, &c, &quote("YHOO", 17.5, 100));
        assert_eq!(hits, vec![SubId::new(1), SubId::new(2)]);
        let hits = both_match(&n, &c, &quote("YHOO", 19.0, 100));
        assert_eq!(hits, vec![SubId::new(1)]);
        let hits = both_match(&n, &c, &quote("GOOG", 1.0, 100));
        assert_eq!(hits, vec![SubId::new(3)]);
    }

    #[test]
    fn empty_filter_matches_everything() {
        let (mut n, mut c) = engines();
        n.insert(SubId::new(9), Filter::new());
        c.insert(SubId::new(9), Filter::new());
        let hits = both_match(&n, &c, &quote("YHOO", 1.0, 1));
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
        assert!(both_match(&n, &c, &quote("YHOO", 1.0, 1)).is_empty());
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
        assert!(both_match(&n, &c, &quote("YHOO", 1.0, 1)).is_empty());
        assert_eq!(
            both_match(&n, &c, &quote("GOOG", 1.0, 1)),
            vec![SubId::new(1)]
        );
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn shared_predicates_are_deduplicated() {
        let mut c = CountingMatcher::new();
        for i in 0..100 {
            c.insert(SubId::new(i), stock_template("YHOO"));
        }
        // 100 subscriptions share exactly two predicates.
        assert_eq!(c.shared_predicate_count(), 2);
        assert_eq!(c.matches(&quote("YHOO", 1.0, 1)).len(), 100);
        assert!(c.filter(SubId::new(5)).is_some());
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
            both_match(&n, &c, &quote("YHOO", 5.0, 6200)),
            vec![SubId::new(1)]
        );
        assert!(both_match(&n, &c, &quote("YHOO", 5.0, 500)).is_empty());
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
            if rng.gen_bool(0.5) {
                f = f.and(Predicate::new("low", Op::Lt, rng.gen_range(0.0..100.0)));
            }
            naive.insert(SubId::new(i), f.clone());
            bucket.insert(SubId::new(i), f);
        }
        // One matcher with an empty filter (scan list).
        naive.insert(SubId::new(900), Filter::new());
        bucket.insert(SubId::new(900), Filter::new());
        for k in 0..100 {
            let sym = symbols[k % symbols.len()];
            let p = quote(sym, (k as f64) % 100.0, 10);
            // `&self` on the stale index (a scan of the store), then
            // the built index.
            assert_eq!(naive.matches(&p), bucket.matches(&p), "stale, pub {k}");
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

    #[test]
    fn engines_agree_on_random_workload() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        let symbols = ["YHOO", "GOOG", "IBM", "MSFT"];
        let (mut n, mut c) = engines();
        for i in 0..200 {
            let sym = symbols[rng.gen_range(0..symbols.len())];
            let mut f = stock_template(sym);
            if rng.gen_bool(0.6) {
                let attr = ["low", "high", "volume"][rng.gen_range(0..3)];
                let op = [Op::Lt, Op::Gt, Op::Le, Op::Ge][rng.gen_range(0..4)];
                f = f.and(Predicate::new(attr, op, rng.gen_range(0.0..100.0)));
            }
            n.insert(SubId::new(i), f.clone());
            c.insert(SubId::new(i), f);
        }
        for _ in 0..200 {
            let sym = symbols[rng.gen_range(0..symbols.len())];
            let p = Publication::builder(AdvId::new(1), MsgId::new(1))
                .attr("class", "STOCK")
                .attr("symbol", sym)
                .attr("low", rng.gen_range(0.0..100.0))
                .attr("high", rng.gen_range(0.0..100.0))
                .attr("volume", rng.gen_range(0.0..100.0))
                .build();
            both_match(&n, &c, &p);
        }
    }
}
