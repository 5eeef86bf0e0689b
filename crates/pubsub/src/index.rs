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
//! **Changes.** The built index absorbs changes beside it instead of
//! being rebuilt per change. An insert goes onto a short `pending` list
//! kept in `(hop, SubId)` order; a removal of a built entry sets a
//! tombstone on it, and a removal of a pending entry deletes it (a
//! re-insert does both). The walk skips tombstoned entries — a
//! tombstone does not end a hop group, the walk goes on to the hop's
//! next live match — and then walks `pending` by the same group rules,
//! so every `&self` walk answers for the current store. The index is
//! rebuilt from the store on the `&mut` path
//! ([`RoutingIndex::prepare`]) only once pending entries plus
//! tombstones pass [`change_budget`], or once the pending list has been
//! scanned about as often as a rebuild would cost. Past the budget the
//! index stops buffering: a bulk install costs one rebuild, and until
//! then a `&self` walk answers from the store.

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

/// Pending-entry evaluations one rebuilt entry is worth: a rebuild
/// costs ≈ 0.55 µs per entry and a pending evaluation ≈ 25–30 ns
/// (DESIGN §8.2). Once the `&mut` walks since the last build have
/// scanned this many pending entries per stored subscription, the
/// pending list has cost as much as folding it in, so it is folded in;
/// a table that stops changing therefore ends with an empty list.
const SCAN_COST_RATIO: usize = 20;

/// How many changes (pending entries plus tombstones) an index of
/// `len` subscriptions holds beside its built part before it rebuilds:
/// `max(16, len / 32)`. Measured against other splits on the
/// `reconfigure` gather in DESIGN §8.2; a smaller budget rebuilds more
/// entries, a larger one scans more pending entries per publication.
fn change_budget(len: usize) -> usize {
    (len / 32).max(16)
}

/// How often an index has been rebuilt, and over how many entries in
/// total: the cost the change budget amortises.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RebuildCounts {
    /// From-scratch rebuilds.
    pub rebuilds: u64,
    /// Subscriptions indexed over all of those rebuilds.
    pub entries: u64,
}

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
    /// More changed than the budget holds: `pending` is dropped, walks
    /// answer from the store, and the next [`RoutingIndex::prepare`]
    /// rebuilds.
    dirty: bool,
    /// Sorted by name.
    attrs: Vec<Attr>,
    /// Every indexed subscription, sorted by `(bucket, hop, SubId)`.
    entries: Vec<Entry<H>>,
    /// The entries with no equality predicate to bucket them under.
    scan: Range<usize>,
    /// Per entry, the slot of each of its predicates' attributes
    /// (or [`BY_NAME`]), in predicate order; pending entries' slots are
    /// appended after the built ones.
    pred_slots: Vec<u8>,
    /// Subscriptions inserted since the build, sorted by `(hop, SubId)`.
    pending: Vec<Entry<H>>,
    /// One bit per position of `entries`, set once the entry there was
    /// removed or replaced: the walk skips it. Sized on the first
    /// tombstone after a build.
    dead: Vec<u64>,
    /// Set bits in `dead`.
    tombstones: usize,
    /// Pending entries the `&mut` walks have scanned since the build.
    pending_scanned: usize,
    counts: RebuildCounts,
    /// Tests pin the change budget; such an index never folds pending
    /// entries in for their scan cost.
    #[cfg(test)]
    forced_budget: Option<usize>,
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
            pending: Vec::new(),
            dead: Vec::new(),
            tombstones: 0,
            pending_scanned: 0,
            counts: RebuildCounts::default(),
            #[cfg(test)]
            forced_budget: None,
        }
    }
}

impl<H: Clone + Ord> RoutingIndex<H> {
    /// An empty index whose change budget is `budget` whatever its
    /// size (`usize::MAX`: never rebuild on the `&mut` path).
    #[cfg(test)]
    pub(crate) fn with_change_budget(budget: usize) -> Self {
        Self {
            forced_budget: Some(budget),
            ..Self::default()
        }
    }

    fn budget(&self) -> usize {
        #[cfg(test)]
        if let Some(budget) = self.forced_budget {
            return budget;
        }
        change_budget(self.subs.len())
    }

    /// Stores a subscription arriving from `hop`, replacing any earlier
    /// one with the same id.
    pub(crate) fn insert(&mut self, sub: Subscription, hop: H) {
        let (id, filter) = (sub.id, sub.filter.clone());
        if let Some((old, old_hop)) = self.subs.insert(id, (sub, hop.clone())) {
            self.forget(id, &old.filter, &old_hop);
        }
        if !self.dirty {
            let at = self
                .pending
                .partition_point(|e| (&e.hop, e.id) < (&hop, id));
            let slots_at = self.pred_slots.len();
            let attrs = &self.attrs;
            self.pred_slots.extend(filter.predicates().iter().map(|p| {
                attrs
                    .binary_search_by(|a| a.name.as_str().cmp(&p.attr))
                    .ok()
                    .filter(|&slot| slot < RESOLVED_SLOTS)
                    .and_then(|slot| u8::try_from(slot).ok())
                    .unwrap_or(BY_NAME)
            }));
            self.pending.insert(
                at,
                Entry {
                    bucket: 0,
                    hop,
                    id,
                    filter,
                    slots_at,
                },
            );
        }
        self.check_budget();
    }

    /// Removes a subscription; returns it with its hop if present.
    pub(crate) fn remove(&mut self, id: SubId) -> Option<(Subscription, H)> {
        let removed = self.subs.remove(&id);
        if let Some((old, old_hop)) = &removed {
            self.forget(id, &old.filter, old_hop);
            self.check_budget();
        }
        removed
    }

    /// Takes the stored subscription `id` (with `filter`, from `hop`)
    /// out of the index: deletes its pending entry, or tombstones its
    /// built one.
    fn forget(&mut self, id: SubId, filter: &Filter, hop: &H) {
        if self.dirty {
            return;
        }
        if let Some(at) = self.pending.iter().position(|e| e.id == id) {
            self.pending.remove(at);
        } else if let Some(at) = self.built_position(id, filter, hop) {
            self.dead.resize(self.entries.len().div_ceil(64), 0);
            if let Some(word) = self.dead.get_mut(at / 64) {
                *word |= 1 << (at % 64);
                self.tombstones += 1;
            }
        }
    }

    /// Where the built entry of subscription `id` is: in the bucket of
    /// one of its equality predicates, or on the scan list; found by
    /// binary search, since each bucket is sorted by `(hop, SubId)`.
    fn built_position(&self, id: SubId, filter: &Filter, hop: &H) -> Option<usize> {
        let buckets = filter
            .predicates()
            .iter()
            .filter(|p| p.op == Op::Eq)
            .filter_map(|p| {
                let attr = self
                    .attrs
                    .binary_search_by(|a| a.name.as_str().cmp(&p.attr))
                    .ok()
                    .and_then(|slot| self.attrs.get(slot))?;
                let key = Key::of(&p.value);
                let at = attr
                    .buckets
                    .binary_search_by(|(operand, _)| Key::of(operand).cmp(&key))
                    .ok()?;
                attr.buckets.get(at).map(|(_, range)| range.clone())
            });
        buckets.chain([self.scan.clone()]).find_map(|range| {
            let start = range.start;
            let group = self.entries.get(range)?;
            group
                .binary_search_by(|e| (&e.hop, e.id).cmp(&(hop, id)))
                .ok()
                .map(|at| start + at)
        })
    }

    /// Past the change budget, stops buffering: the next
    /// [`RoutingIndex::prepare`] rebuilds from the store.
    fn check_budget(&mut self) {
        if !self.dirty && self.pending.len() + self.tombstones > self.budget() {
            self.dirty = true;
            self.pending = Vec::new();
        }
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

    /// Number of equality buckets in the built index.
    pub(crate) fn bucket_count(&self) -> usize {
        self.attrs.iter().map(|a| a.buckets.len()).sum()
    }

    /// Rebuilds and rebuilt entries so far.
    pub(crate) fn rebuild_counts(&self) -> RebuildCounts {
        self.counts
    }

    /// Folds every change into the built index now: afterwards nothing
    /// is pending or tombstoned.
    pub(crate) fn ensure_built(&mut self) {
        if self.dirty || self.tombstones > 0 || !self.pending.is_empty() {
            self.rebuild();
        }
    }

    /// Readies the index for a walk on the `&mut` path: rebuilds when
    /// the change budget is exhausted, or when the pending list has
    /// been scanned as much as a rebuild costs (module docs).
    pub(crate) fn prepare(&mut self) {
        self.pending_scanned = self.pending_scanned.saturating_add(self.pending.len());
        let scanned_out = self.pending_scanned > SCAN_COST_RATIO.saturating_mul(self.subs.len());
        #[cfg(test)]
        let scanned_out = scanned_out && self.forced_budget.is_none();
        if self.dirty || scanned_out {
            self.rebuild();
        }
    }

    fn rebuild(&mut self) {
        self.counts.rebuilds += 1;
        self.counts.entries += self.subs.len() as u64;
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
        self.pending.clear();
        self.dead.clear();
        self.tombstones = 0;
        self.pending_scanned = 0;
    }

    /// Matches `publication` against the current store, hop group by
    /// hop group: the built buckets it hits (skipping tombstones), the
    /// scan list, then the pending list. The group of `from` is skipped
    /// without evaluating anything. For a hop `is_client` accepts,
    /// `visit` sees every matching subscription; for any other hop it
    /// sees the first — the hop's lowest live matching `SubId` in that
    /// bucket or list — and the rest of the group is skipped. A hop
    /// with matches in several visited buckets or lists is reported
    /// once per bucket or list. Past the change budget (until the next
    /// rebuild) the walk scans the store in id order instead, and
    /// reports every match.
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
        if self.dirty {
            for (sub, hop) in self.subs.values() {
                if from != Some(hop) && sub.filter.matches(publication) {
                    visit(hop, sub.id, is_client(hop));
                }
            }
            return;
        }
        let mut values = Resolved {
            publication,
            by_slot: [None; RESOLVED_SLOTS],
        };
        // Without tombstones the liveness test is constant, and the
        // walk compiles to the plain group loop.
        if self.tombstones == 0 {
            self.walk_built(&mut values, from, &is_client, &mut visit, |_| true);
        } else {
            let dead = self.dead.as_slice();
            let live = |i: usize| dead.get(i / 64).is_none_or(|w| w >> (i % 64) & 1 == 0);
            self.walk_built(&mut values, from, &is_client, &mut visit, live);
        }
        if !self.pending.is_empty() {
            let pending = (self.pending.as_slice(), 0);
            self.walk_group(
                pending,
                &|_| true,
                &mut values,
                from,
                &is_client,
                &mut visit,
            );
        }
    }

    /// The built part of [`RoutingIndex::walk`]: the buckets the
    /// publication hits, then the scan list; `live` says whether the
    /// entry at a position is not tombstoned.
    fn walk_built<C, V, L>(
        &self,
        values: &mut Resolved<'_>,
        from: Option<&H>,
        is_client: &C,
        visit: &mut V,
        live: L,
    ) where
        C: Fn(&H) -> bool,
        V: FnMut(&H, SubId, bool),
        L: Fn(usize) -> bool,
    {
        let built = |range: &Range<usize>| {
            let entries = self.entries.get(range.clone()).unwrap_or_default();
            (entries, range.start)
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
                self.walk_group(built(range), &live, values, from, is_client, visit);
            }
        }
        self.walk_group(built(&self.scan), &live, values, from, is_client, visit);
    }

    /// Every matching subscription whatever its hop, in id order, into
    /// `out` (cleared first): the walk with one report-everything group.
    pub(crate) fn all_matches_into(&self, publication: &Publication, out: &mut Vec<SubId>) {
        out.clear();
        self.walk(publication, None, |_| true, |_, id, _| out.push(id));
        out.sort_unstable();
    }

    /// One bucket, the scan list or the pending list of
    /// [`RoutingIndex::walk`]: entries sorted by `(hop, SubId)`, the
    /// first at position `at`, each skipped unless `live` at its
    /// position.
    fn walk_group<C, V, L>(
        &self,
        (mut rest, mut at): (&[Entry<H>], usize),
        live: &L,
        values: &mut Resolved<'_>,
        from: Option<&H>,
        is_client: &C,
        visit: &mut V,
    ) where
        C: Fn(&H) -> bool,
        V: FnMut(&H, SubId, bool),
        L: Fn(usize) -> bool,
    {
        while let Some(first) = rest.first() {
            let hop = &first.hop;
            let (group, others) = rest.split_at(rest.iter().take_while(|e| e.hop == *hop).count());
            let start = at;
            rest = others;
            at += group.len();
            if from == Some(hop) {
                continue;
            }
            let client = is_client(hop);
            for (k, entry) in group.iter().enumerate() {
                if live(start + k) && self.entry_matches(entry, values) {
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

    fn keyed(id: u64, value: &str) -> Subscription {
        Subscription::new(SubId::new(id), Filter::new().and(Predicate::eq("k", value)))
    }

    /// Every `&self` walk answers for the current store: a removal is
    /// a tombstone the walk skips, a re-insert a pending entry it
    /// scans, and neither waits for a rebuild.
    #[test]
    fn walk_answers_for_the_current_store() {
        let mut index: RoutingIndex<u8> = RoutingIndex::default();
        index.insert(keyed(1, "v"), 3);
        index.insert(keyed(2, "v"), 3);
        index.ensure_built();
        let p = Publication::builder(AdvId::new(1), MsgId::new(1))
            .attr("k", "v")
            .build();
        let one = |index: &RoutingIndex<u8>| {
            let mut out = Vec::new();
            index.walk(&p, None, |_| false, |hop, id, _| out.push((*hop, id)));
            out
        };
        assert_eq!(one(&index), vec![(3, SubId::new(1))]);
        // A tombstoned witness does not end its hop group.
        assert!(index.remove(SubId::new(1)).is_some());
        assert_eq!(one(&index), vec![(3, SubId::new(2))]);
        assert_eq!(matches(&index, &p), vec![(3, SubId::new(2))]);
        // Re-inserted from another hop: the old entry is dead, the new
        // one pending.
        index.insert(keyed(2, "v"), 4);
        assert_eq!(matches(&index, &p), vec![(4, SubId::new(2))]);
        index.insert(keyed(1, "w"), 3);
        assert_eq!(matches(&index, &p), vec![(4, SubId::new(2))]);
        index.insert(keyed(5, "v"), 4);
        assert_eq!(one(&index), vec![(4, SubId::new(2))]);
        assert!(index.remove(SubId::new(2)).is_some());
        assert_eq!(matches(&index, &p), vec![(4, SubId::new(5))]);
        assert_eq!(index.rebuild_counts().rebuilds, 1, "no change rebuilt it");
        index.ensure_built();
        assert_eq!(matches(&index, &p), vec![(4, SubId::new(5))]);
    }

    /// N inserts, each followed by a `&mut` walk, rebuild once per
    /// change budget — not once per insert.
    #[test]
    fn interleaved_inserts_rebuild_once_per_budget() {
        let n = 400;
        let mut index: RoutingIndex<u8> = RoutingIndex::default();
        let p = Publication::builder(AdvId::new(1), MsgId::new(1))
            .attr("k", "v")
            .build();
        for i in 0..n {
            index.insert(keyed(i, if i % 2 == 0 { "v" } else { "w" }), (i % 3) as u8);
            index.prepare();
            let mut got = Vec::new();
            index.all_matches_into(&p, &mut got);
            let want: Vec<SubId> = (0..=i).step_by(2).map(SubId::new).collect();
            assert_eq!(got, want);
        }
        let bound = n.div_ceil(change_budget(n as usize) as u64) + 1;
        let counts = index.rebuild_counts();
        assert!(counts.rebuilds <= bound, "{counts:?} > {bound}");
        assert!(counts.entries < n * n / 2 / 8, "{counts:?}");
    }

    /// Past the budget the index stops buffering: a bulk install costs
    /// one rebuild, and the walk meanwhile scans the store.
    #[test]
    fn bulk_install_rebuilds_once() {
        let mut index: RoutingIndex<u8> = RoutingIndex::default();
        for i in 0..1_000 {
            index.insert(keyed(i, "v"), 0);
        }
        assert!(index.pending.is_empty(), "nothing buffered past the budget");
        let p = Publication::builder(AdvId::new(1), MsgId::new(1))
            .attr("k", "v")
            .build();
        assert_eq!(matches(&index, &p).len(), 1_000);
        index.prepare();
        index.prepare();
        assert_eq!(
            index.rebuild_counts(),
            RebuildCounts {
                rebuilds: 1,
                entries: 1_000
            }
        );
        assert_eq!(matches(&index, &p).len(), 1_000);
    }

    /// A table that stops changing folds its pending list in once the
    /// walks have scanned it as much as a rebuild costs.
    #[test]
    fn scanned_pending_entries_are_folded_in() {
        let mut index: RoutingIndex<u8> = RoutingIndex::default();
        for i in 0..4 {
            index.insert(keyed(i, "v"), 0);
        }
        let mut walks = 0;
        while !index.pending.is_empty() {
            index.prepare();
            walks += 1;
        }
        assert_eq!(walks, SCAN_COST_RATIO + 1);
        assert_eq!(index.rebuild_counts().rebuilds, 1);
    }
}
