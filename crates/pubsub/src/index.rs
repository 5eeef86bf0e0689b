//! The routing index: the one structure a broker matches publications
//! against, shared by [`crate::routing::RoutingTables`] and
//! [`crate::matching::BucketMatcher`].
//!
//! **Store.** Every subscription is held once, with the hop it arrived
//! from, in a `SubId`-ordered map. A [`Filter`] is a shared immutable
//! value, so the index entries below hold reference-count bumps of the
//! stored filter, not copies.
//!
//! **Layout.** The built index is a sorted table of attribute names
//! (position = *slot*); each attribute owns its equality buckets,
//! sorted by operand key. A filter is indexed under its *least common*
//! equality predicate, so a publication only visits the filters whose
//! discriminating `(attribute, value)` pair it carries; filters with no
//! equality predicate sit on a scan list. All `(hop, SubId, filter)`
//! entries live in one vector sorted by `(bucket, hop, SubId)`; a
//! bucket is a range of it, in which the entries of one next hop are
//! contiguous and in ascending id order.
//!
//! **Walk.** A publication's attribute values are resolved by name at
//! most once per walk and remembered by slot; entries then evaluate
//! their predicates by slot instead of scanning the publication by
//! attribute name per predicate per candidate. Each
//! bucket is walked group-wise: the group of the hop the publication
//! came from is skipped unevaluated, a client hop reports every match
//! (deliveries and CBC profiles are per subscription), and any other
//! hop stops at its first match — one witness answers for the whole
//! neighbour. Because groups are in ascending `SubId` order that
//! witness is the hop's *lowest* matching subscription, which is what
//! lets callers reproduce the send order of a full match ("ascending
//! lowest matching `SubId` per hop") without computing the full match.
//!
//! **Build.** Inserts and removals only touch the store and mark the
//! index stale; [`RoutingIndex::ensure_built`] rebuilds it on the
//! `&mut` path. The `&self` walk never builds or clones anything.

use crate::filter::Filter;
use crate::ids::SubId;
use crate::message::{Publication, Subscription};
use crate::predicate::Op;
use crate::value::Value;
use std::collections::BTreeMap;
use std::ops::Range;

/// How many attribute slots a walk memoises values for (on the stack).
/// Predicates on attributes beyond this many distinct names fall back
/// to a lookup by name per evaluation.
const RESOLVED_SLOTS: usize = 32;

/// Slot stored for a predicate whose attribute has no memo slot.
const BY_NAME: u8 = u8::MAX;

/// Bucket key of an equality operand. Values equal under `Value::eq`
/// always have equal keys: numbers are keyed by their `f64` image with
/// `-0.0` folded into `0.0`, the comparison `Int`-vs-`Float` equality
/// uses. Distinct values may share a key (`i64::MAX` and
/// `i64::MAX - 1` do); that only costs a filter evaluation, since
/// candidates are always verified against the whole filter. A
/// [`Filter`]'s equality fingerprints hash these keys, so the same
/// holds for them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Key<'a> {
    Bool(bool),
    Num(u64),
    Str(&'a str),
}

impl<'a> Key<'a> {
    pub(crate) fn of(value: &'a Value) -> Self {
        if let Some(s) = value.as_str() {
            Key::Str(s)
        } else if let Some(x) = value.as_f64() {
            Key::Num((x + 0.0).to_bits())
        } else {
            Key::Bool(value.as_bool() == Some(true))
        }
    }
}

/// One indexed subscription.
#[derive(Debug, Clone)]
struct Entry<H> {
    /// Ordinal of the bucket the entry is indexed under; the primary
    /// sort key of `entries`.
    bucket: usize,
    hop: H,
    id: SubId,
    filter: Filter,
    /// Where this entry's predicate slots start in `pred_slots`.
    slots_at: usize,
}

/// One attribute of the index; its position in `attrs` is its slot.
#[derive(Debug, Clone)]
struct Attr {
    name: String,
    /// Equality buckets on this attribute as ranges of `entries`,
    /// sorted by [`Key`] of the operand.
    buckets: Vec<(Value, Range<usize>)>,
}

/// Subscriptions stored once and indexed for matching, grouped by next
/// hop (module docs).
#[derive(Debug, Clone)]
pub(crate) struct RoutingIndex<H> {
    subs: BTreeMap<SubId, (Subscription, H)>,
    dirty: bool,
    /// Sorted by name.
    attrs: Vec<Attr>,
    /// Every indexed subscription, sorted by `(bucket, hop, SubId)`.
    entries: Vec<Entry<H>>,
    /// The entries with no equality predicate to bucket them under.
    scan: Range<usize>,
    /// Per entry, the slot of each of its predicates' attributes
    /// (or [`BY_NAME`]), in predicate order.
    pred_slots: Vec<u8>,
}

impl<H> Default for RoutingIndex<H> {
    fn default() -> Self {
        Self {
            subs: BTreeMap::new(),
            dirty: false,
            attrs: Vec::new(),
            entries: Vec::new(),
            scan: 0..0,
            pred_slots: Vec::new(),
        }
    }
}

impl<H: Clone + Ord> RoutingIndex<H> {
    /// Stores a subscription arriving from `hop`, replacing any earlier
    /// one with the same id.
    pub(crate) fn insert(&mut self, sub: Subscription, hop: H) {
        self.subs.insert(sub.id, (sub, hop));
        self.dirty = true;
    }

    /// Removes a subscription; returns it with its hop if present.
    pub(crate) fn remove(&mut self, id: SubId) -> Option<(Subscription, H)> {
        let removed = self.subs.remove(&id);
        self.dirty |= removed.is_some();
        removed
    }

    /// A stored subscription and its hop.
    pub(crate) fn get(&self, id: SubId) -> Option<&(Subscription, H)> {
        self.subs.get(&id)
    }

    /// Stored subscriptions with their hops, in id order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &(Subscription, H)> {
        self.subs.values()
    }

    /// Number of stored subscriptions.
    pub(crate) fn len(&self) -> usize {
        self.subs.len()
    }

    /// True when the built index does not reflect the store.
    pub(crate) fn is_stale(&self) -> bool {
        self.dirty
    }

    /// Number of equality buckets in the built index.
    pub(crate) fn bucket_count(&self) -> usize {
        self.attrs.iter().map(|a| a.buckets.len()).sum()
    }

    /// Rebuilds the index now if stale.
    pub(crate) fn ensure_built(&mut self) {
        if self.dirty {
            self.rebuild();
        }
    }

    fn rebuild(&mut self) {
        /// An equality `(attribute, operand)` pair some filter carries.
        struct Pair<'a> {
            frequency: usize,
            /// Position in `(attribute, key)` order.
            ordinal: usize,
            operand: &'a Value,
        }
        let mut slot_of: BTreeMap<&str, usize> = BTreeMap::new();
        let mut pairs: BTreeMap<(&str, Key<'_>), Pair<'_>> = BTreeMap::new();
        let mut pred_count = 0;
        for (sub, _) in self.subs.values() {
            for p in sub.filter.predicates() {
                slot_of.entry(p.attr.as_str()).or_insert(0);
                if p.op == Op::Eq {
                    pairs
                        .entry((p.attr.as_str(), Key::of(&p.value)))
                        .or_insert(Pair {
                            frequency: 0,
                            ordinal: 0,
                            operand: &p.value,
                        })
                        .frequency += 1;
                }
            }
            pred_count += sub.filter.len();
        }
        for (slot, at) in slot_of.values_mut().enumerate() {
            *at = slot;
        }
        for (ordinal, pair) in pairs.values_mut().enumerate() {
            pair.ordinal = ordinal;
        }
        // The scan list sorts after every bucket.
        let scan_ordinal = pairs.len();

        self.entries.clear();
        self.entries.reserve_exact(self.subs.len());
        self.pred_slots.clear();
        self.pred_slots.reserve_exact(pred_count);
        for (sub, hop) in self.subs.values() {
            // Index under the rarest equality predicate (the first of
            // them in predicate order on a tie).
            let rarest = sub
                .filter
                .predicates()
                .iter()
                .filter(|p| p.op == Op::Eq)
                .filter_map(|p| pairs.get(&(p.attr.as_str(), Key::of(&p.value))))
                .min_by_key(|pair| pair.frequency);
            self.entries.push(Entry {
                bucket: rarest.map_or(scan_ordinal, |pair| pair.ordinal),
                hop: hop.clone(),
                id: sub.id,
                filter: sub.filter.clone(),
                slots_at: self.pred_slots.len(),
            });
            self.pred_slots
                .extend(sub.filter.predicates().iter().map(|p| {
                    slot_of
                        .get(p.attr.as_str())
                        .filter(|&&slot| slot < RESOLVED_SLOTS)
                        .and_then(|&slot| u8::try_from(slot).ok())
                        .unwrap_or(BY_NAME)
                }));
        }
        // Entries were pushed in id order; the stable sort keeps it
        // within each (bucket, hop).
        self.entries
            .sort_by(|a, b| (a.bucket, &a.hop).cmp(&(b.bucket, &b.hop)));

        self.attrs.clear();
        self.attrs.extend(slot_of.keys().map(|name| Attr {
            name: (*name).to_string(),
            buckets: Vec::new(),
        }));
        // `pairs` iterates in ordinal order, the order of the bucket runs
        // in `entries`, so every attribute's buckets arrive in key order.
        let mut start = 0;
        for ((name, _), pair) in &pairs {
            let end = self.entries.partition_point(|e| e.bucket <= pair.ordinal);
            let attr = slot_of.get(name).and_then(|&s| self.attrs.get_mut(s));
            if let Some(attr) = attr.filter(|_| end > start) {
                attr.buckets.push((pair.operand.clone(), start..end));
            }
            start = end;
        }
        self.scan = start..self.entries.len();
        self.dirty = false;
    }

    /// Matches `publication` against the *built* index (a stale index
    /// answers for the state it was last built from), hop group by hop
    /// group. The group of `from` is skipped without evaluating
    /// anything. For a hop `is_client` accepts, `visit` sees every
    /// matching subscription; for any other hop it sees the first —
    /// the hop's lowest matching `SubId` in that bucket — and the rest
    /// of the group is skipped. A hop with entries in several visited
    /// buckets is reported once per bucket.
    ///
    /// `visit` receives the hop, the matching subscription and whether
    /// the hop is a client. Nothing here allocates.
    pub(crate) fn walk<C, V>(
        &self,
        publication: &Publication,
        from: Option<&H>,
        is_client: C,
        mut visit: V,
    ) where
        C: Fn(&H) -> bool,
        V: FnMut(&H, SubId, bool),
    {
        let mut values = Resolved {
            publication,
            by_slot: [None; RESOLVED_SLOTS],
        };
        for (slot, attr) in self.attrs.iter().enumerate() {
            if attr.buckets.is_empty() {
                continue;
            }
            let Some(key) = values.get(slot, &attr.name).map(Key::of) else {
                continue;
            };
            let hit = attr
                .buckets
                .binary_search_by(|(operand, _)| Key::of(operand).cmp(&key));
            if let Some((_, range)) = hit.ok().and_then(|i| attr.buckets.get(i)) {
                self.walk_range(range, &mut values, from, &is_client, &mut visit);
            }
        }
        self.walk_range(&self.scan, &mut values, from, &is_client, &mut visit);
    }

    /// Every matching subscription whatever its hop, in id order, into
    /// `out` (cleared first): the walk with one report-everything group.
    pub(crate) fn all_matches_into(&self, publication: &Publication, out: &mut Vec<SubId>) {
        out.clear();
        self.walk(publication, None, |_| true, |_, id, _| out.push(id));
        out.sort_unstable();
    }

    /// One bucket (or the scan list) of [`RoutingIndex::walk`].
    fn walk_range<C, V>(
        &self,
        range: &Range<usize>,
        values: &mut Resolved<'_>,
        from: Option<&H>,
        is_client: &C,
        visit: &mut V,
    ) where
        C: Fn(&H) -> bool,
        V: FnMut(&H, SubId, bool),
    {
        let mut rest = self.entries.get(range.clone()).unwrap_or_default();
        while let Some(first) = rest.first() {
            let hop = &first.hop;
            let (group, others) = rest.split_at(rest.iter().take_while(|e| e.hop == *hop).count());
            rest = others;
            if from == Some(hop) {
                continue;
            }
            let client = is_client(hop);
            for entry in group {
                if self.entry_matches(entry, values) {
                    visit(hop, entry.id, client);
                    if !client {
                        break;
                    }
                }
            }
        }
    }

    /// Full filter evaluation of one entry.
    fn entry_matches(&self, entry: &Entry<H>, values: &mut Resolved<'_>) -> bool {
        let predicates = entry.filter.predicates();
        let slots = self.pred_slots.get(entry.slots_at..).unwrap_or_default();
        predicates.iter().zip(slots).all(|(p, &slot)| {
            values
                .get(usize::from(slot), &p.attr)
                .is_some_and(|v| p.eval(v))
        })
    }
}

/// A publication's attribute values by index slot, each looked up by
/// name at most once per walk. Slots beyond [`RESOLVED_SLOTS`] are
/// looked up by name every time.
struct Resolved<'p> {
    publication: &'p Publication,
    /// `None` until first asked for; then the lookup's result.
    by_slot: [Option<Option<&'p Value>>; RESOLVED_SLOTS],
}

impl<'p> Resolved<'p> {
    fn get(&mut self, slot: usize, name: &str) -> Option<&'p Value> {
        let publication = self.publication;
        match self.by_slot.get_mut(slot) {
            Some(memo) => *memo.get_or_insert_with(|| publication.get(name)),
            None => publication.get(name),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{AdvId, MsgId};
    use crate::predicate::Predicate;

    fn matches(index: &RoutingIndex<u8>, p: &Publication) -> Vec<(u8, SubId)> {
        let mut out = Vec::new();
        index.walk(p, None, |_| true, |hop, id, _| out.push((*hop, id)));
        out
    }

    #[test]
    fn attributes_beyond_the_resolved_slots_are_looked_up_by_name() {
        // 70 distinct attributes: most sort beyond the memo slots, both
        // as bucket attributes and as plain predicates.
        let mut index: RoutingIndex<u8> = RoutingIndex::default();
        let mut publication = Publication::builder(AdvId::new(1), MsgId::new(1));
        for i in 0..70u64 {
            let attr = format!("a{i:02}");
            index.insert(
                Subscription::new(
                    SubId::new(i),
                    Filter::new()
                        .and(Predicate::eq(attr.clone(), "v"))
                        .and(Predicate::new("a69", Op::Ge, 1i64)),
                ),
                0,
            );
            let value: Value = if i == 69 { 2i64.into() } else { "v".into() };
            publication = publication.attr(attr, value);
        }
        index.ensure_built();
        assert_eq!(index.attrs.len(), 70);
        let got = matches(&index, &publication.build());
        // Sub 69 asks a69 = 'v' but a69 is numeric: every other one matches.
        let want: Vec<(u8, SubId)> = (0..69).map(|i| (0, SubId::new(i))).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn stale_walk_answers_for_the_last_build() {
        let mut index: RoutingIndex<u8> = RoutingIndex::default();
        index.insert(
            Subscription::new(SubId::new(1), Filter::new().and(Predicate::eq("k", "v"))),
            3,
        );
        index.ensure_built();
        assert!(index.remove(SubId::new(1)).is_some());
        assert!(index.is_stale());
        let p = Publication::builder(AdvId::new(1), MsgId::new(1))
            .attr("k", "v")
            .build();
        assert_eq!(matches(&index, &p), vec![(3, SubId::new(1))]);
        index.ensure_built();
        assert!(matches(&index, &p).is_empty());
    }
}
