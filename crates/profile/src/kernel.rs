//! The closeness kernel — the one batch popcount path behind every
//! built-in metric evaluation.
//!
//! A metric evaluation asks a single question — "what are the pair
//! cardinalities of the profiles stored under these two keys?" — and
//! [`ArenaKernel`] answers it from one contiguous [`BitsetArena`]: every
//! per-publisher bit window of every keyed profile is a fixed-stride
//! row, so a pair evaluation is a streaming popcount over adjacent rows
//! with zero allocation.
//!
//! The rows go through the same word-level routine as
//! [`SubscriptionProfile::pair_cardinalities`], which is therefore the
//! kernel's oracle: the tests below hold the two equal — and with them
//! every metric value derived via
//! [`crate::ClosenessMetric::from_cardinalities`] — across strides,
//! overflow, row reuse and key replacement.

use crate::arena::{BitsetArena, RowId};
use crate::bitvec::{pair_cardinalities_windows, PairCardinalities, ShiftingBitVector};
use crate::profile::SubscriptionProfile;
use greenps_pubsub::ids::AdvId;
use std::collections::BTreeMap;

/// Where one per-publisher bit window of a keyed profile lives.
#[derive(Debug, Clone, Copy)]
enum Leg {
    /// A fixed-stride arena row.
    Row(RowId),
    /// A slot in the oversize side store.
    Overflow(usize),
}

#[derive(Debug, Clone, Copy)]
struct LegRef {
    adv: AdvId,
    leg: Leg,
    ones: usize,
}

/// Batch cardinality provider over keyed subscription profiles:
/// per-publisher windows packed into one contiguous [`BitsetArena`];
/// windows wider than the stride fall back to an oversize side store,
/// so any stride is correct. A pair evaluation is a merge-join over
/// two `AdvId`-sorted leg lists — shared publishers stream both rows
/// through the word kernel, single-sided publishers use their cached
/// popcount — and performs **zero** allocations.
///
/// Keys are engine-chosen opaque `u64`s (CRAM uses its GIF keys). A
/// lookup of an unknown key behaves as an empty profile.
#[derive(Debug)]
pub struct ArenaKernel {
    arena: BitsetArena,
    overflow: Vec<Option<ShiftingBitVector>>,
    overflow_free: Vec<usize>,
    entries: BTreeMap<u64, Vec<LegRef>>,
}

impl ArenaKernel {
    /// Creates an empty kernel with the given arena row stride in bits.
    pub fn new(stride_bits: usize) -> Self {
        Self {
            arena: BitsetArena::new(stride_bits),
            overflow: Vec::new(),
            overflow_free: Vec::new(),
            entries: BTreeMap::new(),
        }
    }

    /// Row capacity of the backing arena in bits.
    pub fn stride_bits(&self) -> usize {
        self.arena.stride_bits()
    }

    /// Number of windows that did not fit the stride and live in the
    /// side store (a diagnostics hook: a well-chosen stride keeps this
    /// at zero).
    pub fn overflow_len(&self) -> usize {
        self.overflow.iter().filter(|s| s.is_some()).count()
    }

    fn free_legs(&mut self, legs: &[LegRef]) {
        for l in legs {
            match l.leg {
                Leg::Row(id) => self.arena.remove(id),
                Leg::Overflow(i) => {
                    if let Some(slot) = self.overflow.get_mut(i) {
                        if slot.take().is_some() {
                            self.overflow_free.push(i);
                        }
                    }
                }
            }
        }
    }

    /// Resolves a leg to its raw `(words, first_id, window_end)` view.
    fn view(&self, leg: Leg) -> Option<(&[u64], u64, u64)> {
        match leg {
            Leg::Row(id) => self.arena.row(id),
            Leg::Overflow(i) => {
                let v = self.overflow.get(i)?.as_ref()?;
                Some((v.words(), v.first_id(), v.window_end()))
            }
        }
    }

    fn leg_pair(&self, a: LegRef, b: LegRef) -> PairCardinalities {
        match (self.view(a.leg), self.view(b.leg)) {
            (Some(ra), Some(rb)) => pair_cardinalities_windows(ra, rb),
            (Some(_), None) => PairCardinalities::left_only(a.ones),
            (None, Some(_)) => PairCardinalities::right_only(b.ones),
            (None, None) => PairCardinalities::default(),
        }
    }

    /// Stores (or replaces) the profile under `key`.
    pub fn insert(&mut self, key: u64, profile: &SubscriptionProfile) {
        if let Some(old) = self.entries.remove(&key) {
            self.free_legs(&old);
        }
        let mut legs = Vec::with_capacity(profile.publisher_count());
        // `SubscriptionProfile::iter` walks a BTreeMap, so legs come out
        // sorted by AdvId — the order the merge-join relies on.
        for (adv, v) in profile.iter() {
            let ones = v.count_ones();
            let leg = match self.arena.try_insert(v) {
                Some(id) => Leg::Row(id),
                None => {
                    let i = match self.overflow_free.pop() {
                        Some(i) => i,
                        None => {
                            self.overflow.push(None);
                            self.overflow.len() - 1
                        }
                    };
                    if let Some(slot) = self.overflow.get_mut(i) {
                        *slot = Some(v.clone());
                    }
                    Leg::Overflow(i)
                }
            };
            legs.push(LegRef { adv, leg, ones });
        }
        self.entries.insert(key, legs);
    }

    /// Drops the profile stored under `key` (no-op when absent).
    pub fn remove(&mut self, key: u64) {
        if let Some(legs) = self.entries.remove(&key) {
            self.free_legs(&legs);
        }
    }

    /// Pair cardinalities of the profiles under `a` and `b`, summed
    /// across publishers — the single pass all four closeness metrics
    /// are derived from.
    pub fn pair_cardinalities(&self, a: u64, b: u64) -> PairCardinalities {
        let empty: &[LegRef] = &[];
        let la = self.entries.get(&a).map_or(empty, Vec::as_slice);
        let lb = self.entries.get(&b).map_or(empty, Vec::as_slice);
        let mut total = PairCardinalities::default();
        let (mut i, mut j) = (0, 0);
        // Merge-join over the AdvId-sorted leg lists, mirroring
        // `SubscriptionProfile::pair_cardinalities`' two-map walk.
        while let (Some(x), Some(y)) = (la.get(i), lb.get(j)) {
            total = total.plus(match x.adv.cmp(&y.adv) {
                std::cmp::Ordering::Equal => {
                    i += 1;
                    j += 1;
                    self.leg_pair(*x, *y)
                }
                std::cmp::Ordering::Less => {
                    i += 1;
                    PairCardinalities::left_only(x.ones)
                }
                std::cmp::Ordering::Greater => {
                    j += 1;
                    PairCardinalities::right_only(y.ones)
                }
            });
        }
        while let Some(x) = la.get(i) {
            total = total.plus(PairCardinalities::left_only(x.ones));
            i += 1;
        }
        while let Some(y) = lb.get(j) {
            total = total.plus(PairCardinalities::right_only(y.ones));
            j += 1;
        }
        total
    }

    /// Number of stored profiles.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no profile is stored.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DEFAULT_CAPACITY;
    use greenps_pubsub::ids::MsgId;
    use proptest::prelude::*;

    /// 0–3 publishers over windows narrower and wider than a 64-bit
    /// row; ids past the capacity shift the window, so first ids differ.
    fn arb_profile() -> impl Strategy<Value = SubscriptionProfile> {
        (
            proptest::sample::select(vec![1usize, 40, 64, 130, 199]),
            proptest::collection::vec(
                (0u64..4, proptest::collection::btree_set(0u64..260, 0..30)),
                0..4,
            ),
        )
            .prop_map(|(cap, legs)| {
                let mut p = SubscriptionProfile::with_capacity(cap);
                for (adv, ids) in legs {
                    for id in ids {
                        p.record(AdvId::new(adv), MsgId::new(id));
                    }
                }
                p
            })
    }

    /// What the profile walk says about two optional profiles — an
    /// absent key reads as an empty profile.
    fn walk(a: Option<&SubscriptionProfile>, b: Option<&SubscriptionProfile>) -> PairCardinalities {
        match (a, b) {
            (Some(pa), Some(pb)) => pa.pair_cardinalities(pb),
            (Some(pa), None) => PairCardinalities::left_only(pa.count_ones()),
            (None, Some(pb)) => PairCardinalities::right_only(pb.count_ones()),
            (None, None) => PairCardinalities::default(),
        }
    }

    proptest! {
        /// Seam oracle for profile storage: under interleaved insert /
        /// replace (`Some`) and remove (`None`) over a small key space,
        /// every pair the kernel can be asked about — live, removed or
        /// never seen — equals `SubscriptionProfile::pair_cardinalities`
        /// over a plain map of the same profiles, for a stride every
        /// wide window overflows (1 and 64 round to one word) and for
        /// the auto-sized stride CRAM uses (the widest window).
        #[test]
        fn kernel_agrees_with_profile_walk(
            ops in proptest::collection::vec(
                (0u64..5, prop_oneof![
                    arb_profile().prop_map(Some),
                    arb_profile().prop_map(Some),
                    Just(None),
                ]),
                1..24,
            ),
        ) {
            let auto = ops
                .iter()
                .filter_map(|(_, p)| p.as_ref())
                .flat_map(|p| p.iter())
                .map(|(_, v)| v.capacity())
                .max()
                .unwrap_or(DEFAULT_CAPACITY);
            for stride in [1, 64, auto] {
                let mut kernel = ArenaKernel::new(stride);
                let mut model: BTreeMap<u64, SubscriptionProfile> = BTreeMap::new();
                for (key, op) in &ops {
                    match op {
                        Some(p) => {
                            kernel.insert(*key, p);
                            model.insert(*key, p.clone());
                        }
                        None => {
                            kernel.remove(*key);
                            model.remove(key);
                        }
                    }
                    prop_assert_eq!(kernel.len(), model.len());
                    for a in 0..5 {
                        for b in 0..5 {
                            prop_assert_eq!(
                                kernel.pair_cardinalities(a, b),
                                walk(model.get(&a), model.get(&b)),
                                "stride {} pair ({}, {})", stride, a, b
                            );
                        }
                    }
                }
                if stride == auto {
                    prop_assert_eq!(kernel.overflow_len(), 0, "auto stride fits every window");
                }
            }
        }
    }

    /// Freed rows and side-store slots are reused, not leaked: churning
    /// one key leaves the arena at one profile's footprint.
    #[test]
    fn remove_and_reinsert_reuses_rows_and_overflow_slots() {
        let mut wide = SubscriptionProfile::with_capacity(200);
        let mut narrow = SubscriptionProfile::with_capacity(64);
        for id in [3, 70, 150] {
            wide.record(AdvId::new(1), MsgId::new(id));
            narrow.record(AdvId::new(2), MsgId::new(id % 64));
        }
        let mut k = ArenaKernel::new(64);
        for round in 0..4u64 {
            k.insert(round, &wide);
            k.insert(round, &narrow); // replacing frees the old legs
            k.insert(round, &wide);
            assert_eq!(k.overflow_len(), 1);
            assert_eq!(k.overflow.len(), 1, "side-store slot reused");
            k.remove(round);
            assert!(k.is_empty());
            assert_eq!(k.overflow_len(), 0);
            assert_eq!(k.arena.len(), 0);
        }
    }
}
