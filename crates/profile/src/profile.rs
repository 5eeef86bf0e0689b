//! Subscription and publisher profiles (paper §III-B).
//!
//! A subscription profile holds one [`ShiftingBitVector`] per publisher
//! (advertisement) the subscription received publications from. A
//! publisher profile carries the advertisement id, publication rate,
//! bandwidth consumption and the last message id sent — everything CROC
//! needs to estimate subscription loads without assuming any workload
//! distribution.

use crate::bitvec::{PairCardinalities, ShiftingBitVector, DEFAULT_CAPACITY};
use greenps_pubsub::ids::{AdvId, MsgId};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// Publications sinked by one subscription, per publisher.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct SubscriptionProfile {
    vectors: BTreeMap<AdvId, ShiftingBitVector>,
    #[serde(default = "default_capacity")]
    capacity: usize,
}

fn default_capacity() -> usize {
    DEFAULT_CAPACITY
}

impl SubscriptionProfile {
    /// Creates an empty profile with the paper's default bit-vector
    /// capacity (1,280 bits).
    pub fn new() -> Self {
        Self::with_capacity(default_capacity())
    }

    /// Creates an empty profile whose bit vectors hold `capacity` bits.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            vectors: BTreeMap::new(),
            capacity,
        }
    }

    /// The bit-vector capacity newly recorded publishers receive.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Records receipt of a publication identified by `(adv, msg_id)`.
    pub fn record(&mut self, adv: AdvId, msg_id: MsgId) {
        self.vectors
            .entry(adv)
            .or_insert_with(|| ShiftingBitVector::new(self.capacity))
            .record(msg_id.raw());
    }

    /// Installs a prebuilt bit vector for a publisher (test/bench
    /// convenience mirroring the paper's figures).
    pub fn insert_vector(&mut self, adv: AdvId, vector: ShiftingBitVector) {
        self.vectors.insert(adv, vector);
    }

    /// The bit vector for one publisher, if any publications from it
    /// were received.
    pub fn vector(&self, adv: AdvId) -> Option<&ShiftingBitVector> {
        self.vectors.get(&adv)
    }

    /// Iterates over `(publisher, bit vector)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (AdvId, &ShiftingBitVector)> {
        self.vectors.iter().map(|(a, v)| (*a, v))
    }

    /// The publishers this subscription received from.
    pub fn publishers(&self) -> impl Iterator<Item = AdvId> + '_ {
        self.vectors.keys().copied()
    }

    /// Number of per-publisher vectors.
    pub fn publisher_count(&self) -> usize {
        self.vectors.len()
    }

    /// Total set bits across all publishers — `|S|`.
    pub fn count_ones(&self) -> usize {
        self.vectors
            .values()
            .map(ShiftingBitVector::count_ones)
            .sum()
    }

    /// True when no publication was recorded.
    pub fn is_empty(&self) -> bool {
        self.vectors.values().all(ShiftingBitVector::is_empty)
    }

    /// All pairwise cardinalities (`|∩|`, `|∪|`, `|S1|`, `|S2|`, and
    /// derived `|⊕|`) summed across publishers, one batch popcount pass
    /// per shared vector — the profile-level entry point of the
    /// closeness engine's kernel. Every [`crate::ClosenessMetric`]
    /// routes through this instead of separate
    /// `intersect_count`/`union_count`/`count_ones` walks.
    pub fn pair_cardinalities(&self, other: &Self) -> PairCardinalities {
        let mut total = PairCardinalities::default();
        for (adv, v) in &self.vectors {
            total = total.plus(match other.vectors.get(adv) {
                Some(o) => v.pair_cardinalities(o),
                None => PairCardinalities::left_only(v.count_ones()),
            });
        }
        for (adv, o) in &other.vectors {
            if !self.vectors.contains_key(adv) {
                total = total.plus(PairCardinalities::right_only(o.count_ones()));
            }
        }
        total
    }

    /// `|S1 ∩ S2|` summed across publishers.
    pub fn intersect_count(&self, other: &Self) -> usize {
        self.vectors
            .iter()
            .filter_map(|(adv, v)| other.vectors.get(adv).map(|o| v.zip_count(o, |a, b| a & b)))
            .sum()
    }

    /// `|S1 ∪ S2|` summed across publishers.
    pub fn union_count(&self, other: &Self) -> usize {
        let mut total = 0;
        for (adv, v) in &self.vectors {
            total += match other.vectors.get(adv) {
                Some(o) => v.zip_count(o, |a, b| a | b),
                None => v.count_ones(),
            };
        }
        total += other
            .vectors
            .iter()
            .filter(|(adv, _)| !self.vectors.contains_key(adv))
            .map(|(_, o)| o.count_ones())
            .sum::<usize>();
        total
    }

    /// `|S1 ⊕ S2|` summed across publishers.
    pub fn xor_count(&self, other: &Self) -> usize {
        self.union_count(other) - self.intersect_count(other)
    }

    /// Merges another profile into this one with bitwise OR —
    /// clustering two subscriptions into one (Figure 1).
    pub fn or_assign(&mut self, other: &Self) {
        for (adv, v) in &other.vectors {
            match self.vectors.get_mut(adv) {
                Some(mine) => mine.or_assign(v),
                None => {
                    self.vectors.insert(*adv, v.clone());
                }
            }
        }
    }

    /// The OR of two profiles as a new profile.
    #[must_use]
    pub fn or(&self, other: &Self) -> Self {
        let mut out = self.clone();
        out.or_assign(other);
        out
    }

    /// Relationship between two profiles, computed from the bit vectors
    /// rather than the subscription language (paper §IV-C.2 and the
    /// online appendix).
    pub fn relationship(&self, other: &Self) -> Relation {
        let inter = self.intersect_count(other);
        if inter == 0 {
            return Relation::Empty;
        }
        let c1 = self.count_ones();
        let c2 = other.count_ones();
        match (inter == c1, inter == c2) {
            (true, true) => Relation::Equal,
            (false, true) => Relation::Superset,
            (true, false) => Relation::Subset,
            (false, false) => Relation::Intersect,
        }
    }

    /// Estimates the load this profile's subscription imposes, given the
    /// publishers' profiles (paper §III-B's example: 10 of 100 bits set,
    /// publisher at 50 msg/s and 50 kB/s → 5 msg/s and 5 kB/s).
    pub fn estimate_load(&self, publishers: &PublisherTable) -> Load {
        let mut load = Load::ZERO;
        for (adv, v) in &self.vectors {
            let Some(p) = publishers.get(*adv) else {
                continue;
            };
            let fraction = fraction_of(v, p.last_msg_id);
            load.rate += fraction * p.rate;
            load.bandwidth += fraction * p.bandwidth;
        }
        load
    }

    /// Estimated *rate increase* of adding `other` to this profile:
    /// `rate(self ∪ other) - rate(self)`, touching only the publishers
    /// `other` mentions. With a running total this turns the allocation
    /// feasibility test from O(|advs(self)|) into O(|advs(other)|) —
    /// the inner loop of CRAM's repeated BIN PACKING runs.
    pub fn estimate_rate_delta(&self, other: &Self, publishers: &PublisherTable) -> f64 {
        let mut delta = 0.0;
        for (adv, o) in &other.vectors {
            let Some(p) = publishers.get(*adv) else {
                continue;
            };
            let ones_new = o.count_ones();
            if ones_new == 0 {
                continue;
            }
            let fraction = |ones: usize, first: u64, cap: usize| -> f64 {
                if ones == 0 {
                    return 0.0;
                }
                let observed = p
                    .last_msg_id
                    .raw()
                    .saturating_sub(first)
                    .saturating_add(1)
                    .min(cap as u64)
                    .max(ones as u64);
                ones as f64 / observed as f64
            };
            match self.vectors.get(adv) {
                Some(mine) => {
                    let old = fraction(mine.count_ones(), mine.first_id(), mine.capacity());
                    let new = fraction(
                        mine.zip_count(o, |a, b| a | b),
                        mine.first_id().min(o.first_id()),
                        mine.capacity().max(o.capacity()),
                    );
                    delta += (new - old) * p.rate;
                }
                None => {
                    delta += fraction(ones_new, o.first_id(), o.capacity()) * p.rate;
                }
            }
        }
        delta
    }

    /// Estimates the load of `self ∪ other` without materializing the
    /// union profile — the hot path of every allocation feasibility
    /// test.
    pub fn estimate_union_load(&self, other: &Self, publishers: &PublisherTable) -> Load {
        let mut load = Load::ZERO;
        let mut add = |adv: AdvId, ones: usize, first: u64, cap: usize| {
            let Some(p) = publishers.get(adv) else { return };
            if ones == 0 {
                return;
            }
            let observed = p
                .last_msg_id
                .raw()
                .saturating_sub(first)
                .saturating_add(1)
                .min(cap as u64)
                .max(ones as u64);
            let fraction = ones as f64 / observed as f64;
            load.rate += fraction * p.rate;
            load.bandwidth += fraction * p.bandwidth;
        };
        for (adv, v) in &self.vectors {
            match other.vectors.get(adv) {
                Some(o) => add(
                    *adv,
                    v.zip_count(o, |a, b| a | b),
                    v.first_id().min(o.first_id()),
                    v.capacity().max(o.capacity()),
                ),
                None => add(*adv, v.count_ones(), v.first_id(), v.capacity()),
            }
        }
        for (adv, o) in &other.vectors {
            if !self.vectors.contains_key(adv) {
                add(*adv, o.count_ones(), o.first_id(), o.capacity());
            }
        }
        load
    }
}

/// Fraction of a publisher's recent publications this vector recorded.
///
/// The denominator is the number of observable slots: ids from the
/// window start through the publisher's last sent message, capped at
/// the vector capacity.
pub fn fraction_of(v: &ShiftingBitVector, last_msg_id: MsgId) -> f64 {
    let ones = v.count_ones();
    if ones == 0 {
        return 0.0;
    }
    let observed = last_msg_id
        .raw()
        .saturating_sub(v.first_id())
        .saturating_add(1)
        .min(v.capacity() as u64)
        .max(ones as u64);
    ones as f64 / observed as f64
}

/// How two profiles relate, derived from their bit vectors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Relation {
    /// Identical publication sets.
    Equal,
    /// `self`'s publication set strictly contains `other`'s.
    Superset,
    /// `self`'s publication set is strictly contained in `other`'s.
    Subset,
    /// Non-empty overlap, neither contains the other.
    Intersect,
    /// No common publications.
    Empty,
}

impl Relation {
    /// Derives the relation from precomputed pair cardinalities — the
    /// same decision procedure as [`SubscriptionProfile::relationship`]
    /// (`|∩| = 0` → empty; otherwise compare `|∩|` against `|S1|` and
    /// `|S2|`), so the [`crate::kernel::ArenaKernel`] can classify a
    /// pair without re-walking the profiles.
    #[must_use]
    pub fn from_cardinalities(c: PairCardinalities) -> Relation {
        if c.and == 0 {
            return Relation::Empty;
        }
        match (c.and == c.left, c.and == c.right) {
            (true, true) => Relation::Equal,
            (false, true) => Relation::Superset,
            (true, false) => Relation::Subset,
            (false, false) => Relation::Intersect,
        }
    }

    /// The same relation seen from the other profile's side.
    #[must_use]
    pub fn flip(self) -> Relation {
        match self {
            Relation::Superset => Relation::Subset,
            Relation::Subset => Relation::Superset,
            r => r,
        }
    }
}

/// A publisher's profile: identity, rates and the synchronization
/// counter (paper §III-B).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PublisherProfile {
    /// The publisher's advertisement id.
    pub adv_id: AdvId,
    /// Publication rate in messages per second.
    pub rate: f64,
    /// Bandwidth consumption in bytes per second.
    pub bandwidth: f64,
    /// Message id of the last publication sent.
    pub last_msg_id: MsgId,
}

impl PublisherProfile {
    /// Creates a publisher profile.
    pub fn new(adv_id: AdvId, rate: f64, bandwidth: f64, last_msg_id: MsgId) -> Self {
        Self {
            adv_id,
            rate,
            bandwidth,
            last_msg_id,
        }
    }

    /// Mean publication size in bytes.
    pub fn mean_msg_size(&self) -> f64 {
        if self.rate <= 0.0 {
            0.0
        } else {
            self.bandwidth / self.rate
        }
    }
}

/// All publishers known to CROC, keyed by advertisement id.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct PublisherTable {
    publishers: BTreeMap<AdvId, PublisherProfile>,
}

impl PublisherTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts or replaces a publisher profile.
    pub fn insert(&mut self, profile: PublisherProfile) {
        self.publishers.insert(profile.adv_id, profile);
    }

    /// Looks up a publisher.
    pub fn get(&self, adv: AdvId) -> Option<&PublisherProfile> {
        self.publishers.get(&adv)
    }

    /// Iterates over profiles.
    pub fn iter(&self) -> impl Iterator<Item = &PublisherProfile> {
        self.publishers.values()
    }

    /// Number of publishers.
    pub fn len(&self) -> usize {
        self.publishers.len()
    }

    /// True when no publishers are known.
    pub fn is_empty(&self) -> bool {
        self.publishers.is_empty()
    }

    /// Total publication rate across all publishers.
    pub fn total_rate(&self) -> f64 {
        self.publishers.values().map(|p| p.rate).sum()
    }

    /// Merges another table, keeping the entry with the larger
    /// `last_msg_id` on conflict (BIA aggregation).
    pub fn merge(&mut self, other: &PublisherTable) {
        for p in other.publishers.values() {
            match self.publishers.get(&p.adv_id) {
                Some(mine) if mine.last_msg_id >= p.last_msg_id => {}
                _ => self.insert(*p),
            }
        }
    }
}

impl FromIterator<PublisherProfile> for PublisherTable {
    fn from_iter<T: IntoIterator<Item = PublisherProfile>>(iter: T) -> Self {
        let mut t = Self::new();
        for p in iter {
            t.insert(p);
        }
        t
    }
}

/// Estimated rate and bandwidth requirement of a subscription, cluster
/// or broker.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Load {
    /// Messages per second.
    pub rate: f64,
    /// Bytes per second.
    pub bandwidth: f64,
}

impl Load {
    /// Zero load.
    pub const ZERO: Load = Load {
        rate: 0.0,
        bandwidth: 0.0,
    };

    /// Creates a load.
    pub fn new(rate: f64, bandwidth: f64) -> Self {
        Self { rate, bandwidth }
    }

    /// Component-wise sum.
    #[must_use]
    pub fn plus(self, other: Load) -> Load {
        Load {
            rate: self.rate + other.rate,
            bandwidth: self.bandwidth + other.bandwidth,
        }
    }

    /// Scales both components.
    #[must_use]
    pub fn scaled(self, k: f64) -> Load {
        Load {
            rate: self.rate * k,
            bandwidth: self.bandwidth * k,
        }
    }
}

impl std::ops::Add for Load {
    type Output = Load;
    fn add(self, rhs: Load) -> Load {
        self.plus(rhs)
    }
}

impl std::ops::AddAssign for Load {
    fn add_assign(&mut self, rhs: Load) {
        *self = self.plus(rhs);
    }
}

impl fmt::Display for Load {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2} msg/s, {:.0} B/s", self.rate, self.bandwidth)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bv(first: u64, bits: &[bool]) -> ShiftingBitVector {
        ShiftingBitVector::from_bits(bits.len().max(1), first, bits)
    }

    fn adv(n: u64) -> AdvId {
        AdvId::new(n)
    }

    #[test]
    fn record_builds_per_publisher_vectors() {
        let mut p = SubscriptionProfile::with_capacity(16);
        p.record(adv(1), MsgId::new(75));
        p.record(adv(1), MsgId::new(76));
        p.record(adv(2), MsgId::new(144));
        assert_eq!(p.publisher_count(), 2);
        assert_eq!(p.count_ones(), 3);
        assert!(p.vector(adv(1)).unwrap().contains(75));
        assert!(p.vector(adv(3)).is_none());
        assert!(!p.is_empty());
    }

    #[test]
    fn figure_1_profile_clustering() {
        // S1 = {Adv1: 11100@75, Adv2: 11111@144}
        // S2 = {Adv1: 00111@75, Adv3: 00100@2}
        let mut s1 = SubscriptionProfile::with_capacity(5);
        s1.insert_vector(adv(1), bv(75, &[true, true, true, false, false]));
        s1.insert_vector(adv(2), bv(144, &[true, true, true, true, true]));
        let mut s2 = SubscriptionProfile::with_capacity(5);
        s2.insert_vector(adv(1), bv(75, &[false, false, true, true, true]));
        s2.insert_vector(adv(3), bv(2, &[false, false, true, false, false]));

        let merged = s1.or(&s2);
        assert_eq!(merged.publisher_count(), 3);
        assert_eq!(merged.vector(adv(1)).unwrap().count_ones(), 5);
        assert_eq!(merged.vector(adv(2)).unwrap().count_ones(), 5);
        assert_eq!(merged.vector(adv(3)).unwrap().count_ones(), 1);
        assert_eq!(merged.count_ones(), 11);

        assert_eq!(s1.intersect_count(&s2), 1);
        assert_eq!(s1.union_count(&s2), 11);
        assert_eq!(s1.xor_count(&s2), 10);
    }

    #[test]
    fn relationships() {
        let mut a = SubscriptionProfile::with_capacity(8);
        a.insert_vector(adv(1), bv(0, &[true, true, true, false]));
        let mut b = SubscriptionProfile::with_capacity(8);
        b.insert_vector(adv(1), bv(0, &[true, true, false, false]));
        let mut c = SubscriptionProfile::with_capacity(8);
        c.insert_vector(adv(1), bv(0, &[false, false, false, true]));
        let mut d = SubscriptionProfile::with_capacity(8);
        d.insert_vector(adv(2), bv(0, &[true, false, false, false]));

        assert_eq!(a.relationship(&a.clone()), Relation::Equal);
        assert_eq!(a.relationship(&b), Relation::Superset);
        assert_eq!(b.relationship(&a), Relation::Subset);
        assert_eq!(a.relationship(&c), Relation::Empty);
        assert_eq!(a.relationship(&d), Relation::Empty);
        let mixed = b.or(&c); // {0,1,3} vs a {0,1,2} → intersect
        assert_eq!(a.relationship(&mixed), Relation::Intersect);
        assert_eq!(Relation::Superset.flip(), Relation::Subset);
        assert_eq!(Relation::Intersect.flip(), Relation::Intersect);
    }

    #[test]
    fn paper_load_estimation_example() {
        // "a subscription with 10 out of 100 bits set in a bit vector
        // corresponding to a publisher whose publication rate is
        // 50 msg/s and bandwidth is 50 kB/s → 5 msg/s and 5 kB/s."
        let mut bits = vec![false; 100];
        for slot in bits.iter_mut().take(10) {
            *slot = true;
        }
        let mut s = SubscriptionProfile::with_capacity(100);
        s.insert_vector(adv(1), bv(0, &bits));
        let publishers: PublisherTable = [PublisherProfile::new(
            adv(1),
            50.0,
            50_000.0,
            MsgId::new(99), // 100 observable slots
        )]
        .into_iter()
        .collect();
        let load = s.estimate_load(&publishers);
        assert!((load.rate - 5.0).abs() < 1e-9);
        assert!((load.bandwidth - 5_000.0).abs() < 1e-9);
    }

    #[test]
    fn load_estimation_with_short_observation() {
        // Only 10 slots observed, 5 set → fraction 0.5 even though the
        // vector could hold 100.
        let mut s = SubscriptionProfile::with_capacity(100);
        let mut v = ShiftingBitVector::starting_at(100, 0);
        for id in 0..5 {
            v.record(id * 2);
        }
        s.insert_vector(adv(1), v);
        let publishers: PublisherTable =
            [PublisherProfile::new(adv(1), 10.0, 1000.0, MsgId::new(9))]
                .into_iter()
                .collect();
        let load = s.estimate_load(&publishers);
        assert!((load.rate - 5.0).abs() < 1e-9);
    }

    #[test]
    fn unknown_publisher_contributes_nothing() {
        let mut s = SubscriptionProfile::with_capacity(8);
        s.insert_vector(adv(9), bv(0, &[true]));
        assert_eq!(s.estimate_load(&PublisherTable::new()), Load::ZERO);
    }

    #[test]
    fn publisher_table_merge_keeps_freshest() {
        let mut a = PublisherTable::new();
        a.insert(PublisherProfile::new(adv(1), 1.0, 10.0, MsgId::new(5)));
        let mut b = PublisherTable::new();
        b.insert(PublisherProfile::new(adv(1), 2.0, 20.0, MsgId::new(9)));
        b.insert(PublisherProfile::new(adv(2), 3.0, 30.0, MsgId::new(1)));
        a.merge(&b);
        assert_eq!(a.len(), 2);
        assert_eq!(a.get(adv(1)).unwrap().rate, 2.0);
        assert_eq!(a.total_rate(), 5.0);
        assert!(!a.is_empty());
        assert_eq!(a.iter().count(), 2);
    }

    #[test]
    fn mean_msg_size() {
        let p = PublisherProfile::new(adv(1), 50.0, 50_000.0, MsgId::new(0));
        assert_eq!(p.mean_msg_size(), 1000.0);
        let idle = PublisherProfile::new(adv(1), 0.0, 0.0, MsgId::new(0));
        assert_eq!(idle.mean_msg_size(), 0.0);
    }

    #[test]
    fn load_arithmetic() {
        let mut l = Load::new(1.0, 10.0) + Load::new(2.0, 20.0);
        l += Load::new(1.0, 1.0);
        assert_eq!(l, Load::new(4.0, 31.0));
        assert_eq!(l.scaled(2.0), Load::new(8.0, 62.0));
        assert_eq!(Load::new(1.5, 100.0).to_string(), "1.50 msg/s, 100 B/s");
    }

    #[test]
    fn profiles_equal_and_hashable_for_gifs() {
        use std::collections::HashSet;
        let mut a = SubscriptionProfile::with_capacity(8);
        a.insert_vector(adv(1), bv(0, &[true, false, true]));
        let b = a.clone();
        let mut set = HashSet::new();
        set.insert(a);
        assert!(set.contains(&b));
    }
}
