//! Bounded, shifting bit vectors (paper §III-B).
//!
//! A bit vector records which publications of one publisher a
//! subscription received. Bit `i` corresponds to the publication whose
//! message id is `first_id + i`. The vector has a bounded capacity
//! (default 1,280 bits); recording an id beyond the window shifts the
//! window forward just enough to place the new id in the last bit,
//! discarding the oldest bits — exactly the paper's example: capacity
//! 10, `first_id` 100, incoming id 119 → shift by 10, set index 9,
//! `first_id` becomes 110.

#![expect(
    clippy::indexing_slicing,
    reason = "word index bounded by the vector's own capacity invariant"
)]

use serde::{Deserialize, Serialize};
use std::fmt;
use std::hash::{Hash, Hasher};

const WORD_BITS: usize = 64;

/// Narrows an in-window id offset to an index. Every caller guards the
/// offset against the window span first, so the value always fits; the
/// saturating fallback means a (32-bit-target) overflow would hit the
/// subsequent bounds check instead of silently truncating. On 64-bit
/// targets this compiles to a no-op.
fn idx(offset: u64) -> usize {
    usize::try_from(offset).unwrap_or(usize::MAX)
}

/// Default bit vector capacity from the paper.
pub const DEFAULT_CAPACITY: usize = 1_280;

/// A bounded bit vector over a shifting window of publication ids.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ShiftingBitVector {
    first_id: u64,
    capacity: usize,
    words: Vec<u64>,
}

/// A bit window borrowed as raw parts: bit `i` of `words` (LSB-first)
/// is id `first_id + i`. `words` may stop short of `capacity` where
/// only zero words would follow ([`ShiftingBitVector::trimmed`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowRef<'a> {
    /// Id of bit 0.
    pub first_id: u64,
    /// Capacity in bits of the vector the window was taken from.
    pub capacity: usize,
    /// The bits, trailing zero words possibly left off.
    pub words: &'a [u64],
}

impl WindowRef<'_> {
    /// One past the last id the window can hold.
    pub fn window_end(&self) -> u64 {
        self.first_id + self.capacity as u64
    }
}

impl Default for ShiftingBitVector {
    fn default() -> Self {
        Self::new(DEFAULT_CAPACITY)
    }
}

impl ShiftingBitVector {
    /// Creates an empty vector with the given capacity in bits, starting
    /// at id 0.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        Self::starting_at(capacity, 0)
    }

    /// Creates an empty vector whose window starts at `first_id`.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn starting_at(capacity: usize, first_id: u64) -> Self {
        assert!(capacity > 0, "bit vector capacity must be positive");
        let words = capacity.div_ceil(WORD_BITS);
        Self {
            first_id,
            capacity,
            words: vec![0; words],
        }
    }

    /// Builds a vector from a window start and explicit bits, mirroring
    /// the paper's figures (`bits[i]` set means id `first_id + i`
    /// received).
    ///
    /// # Panics
    /// Panics if `bits` is longer than `capacity` or `capacity` is zero.
    pub fn from_bits(capacity: usize, first_id: u64, bits: &[bool]) -> Self {
        assert!(bits.len() <= capacity, "more bits than capacity");
        let mut v = Self::starting_at(capacity, first_id);
        for (i, &b) in bits.iter().enumerate() {
            if b {
                v.set_index(i);
            }
        }
        v
    }

    /// Id corresponding to bit index 0 — the paper's per-vector counter.
    pub fn first_id(&self) -> u64 {
        self.first_id
    }

    /// Capacity in bits.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// One past the last id the window can currently hold.
    pub fn window_end(&self) -> u64 {
        self.first_id + self.capacity as u64
    }

    fn set_index(&mut self, i: usize) {
        debug_assert!(i < self.capacity);
        self.words[i / WORD_BITS] |= 1u64 << (i % WORD_BITS);
    }

    /// Records receipt of publication `id`.
    ///
    /// Returns `false` when the id predates the window (too old to
    /// record); the paper's protocol never needs those bits again.
    pub fn record(&mut self, id: u64) -> bool {
        if id < self.first_id {
            return false;
        }
        if id >= self.window_end() {
            let shift = id - self.window_end() + 1;
            self.shift_forward(shift);
        }
        self.set_index(idx(id - self.first_id));
        true
    }

    /// Shifts the window forward by `shift` ids, discarding the oldest
    /// bits (the paper's left-shift when the first bit is the MSB).
    pub fn shift_forward(&mut self, shift: u64) {
        if shift >= self.capacity as u64 {
            self.words.iter_mut().for_each(|w| *w = 0);
        } else {
            let shift = idx(shift);
            let word_off = shift / WORD_BITS;
            let bit_off = shift % WORD_BITS;
            let n = self.words.len();
            for i in 0..n {
                let lo = self.words.get(i + word_off).copied().unwrap_or(0);
                let hi = self.words.get(i + word_off + 1).copied().unwrap_or(0);
                self.words[i] = if bit_off == 0 {
                    lo
                } else {
                    (lo >> bit_off) | (hi << (WORD_BITS - bit_off))
                };
            }
            self.mask_tail();
        }
        self.first_id += shift;
    }

    fn mask_tail(&mut self) {
        let valid = self.capacity % WORD_BITS;
        if valid != 0 {
            let last = self.words.len() - 1;
            self.words[last] &= (1u64 << valid) - 1;
        }
    }

    /// True when publication `id` is recorded.
    pub fn contains(&self, id: u64) -> bool {
        if id < self.first_id || id >= self.window_end() {
            return false;
        }
        let i = idx(id - self.first_id);
        self.words[i / WORD_BITS] >> (i % WORD_BITS) & 1 == 1
    }

    /// Number of set bits — `|S|` in the closeness formulas.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True when no bit is set.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Iterates over the recorded publication ids in ascending order.
    pub fn iter_ids(&self) -> impl Iterator<Item = u64> + '_ {
        self.words.iter().enumerate().flat_map(move |(wi, &w)| {
            let first = self.first_id;
            let mut word = w;
            std::iter::from_fn(move || {
                if word == 0 {
                    return None;
                }
                let bit = word.trailing_zeros() as usize;
                word &= word - 1;
                Some(first + (wi * WORD_BITS + bit) as u64)
            })
        })
    }

    /// All pairwise cardinalities (`|∩|`, `|∪|`, `|self|`, `|other|`)
    /// gathered in a **single** word-level pass — the batch popcount
    /// kernel every closeness metric routes through. `|⊕|` is derived
    /// (`|∪| − |∩|`), so one pass serves all four metrics.
    pub fn pair_cardinalities(&self, other: &Self) -> PairCardinalities {
        pair_cardinalities_windows(
            (&self.words, self.first_id, self.window_end()),
            (&other.words, other.first_id, other.window_end()),
        )
    }

    pub(crate) fn zip_count(&self, other: &Self, f: impl Fn(u64, u64) -> u64) -> usize {
        if self.first_id == other.first_id {
            // Fast path: aligned windows (the common case thanks to
            // publisher message-id synchronization).
            let n = self.words.len().max(other.words.len());
            let mut count = 0;
            for i in 0..n {
                let a = self.words.get(i).copied().unwrap_or(0);
                let b = other.words.get(i).copied().unwrap_or(0);
                count += f(a, b).count_ones() as usize;
            }
            count
        } else {
            let (lo, hi_end) = combined_window(self, other);
            let words = idx(hi_end - lo).div_ceil(WORD_BITS);
            (0..words)
                .map(|i| f(self.window_word(lo, i), other.window_word(lo, i)).count_ones() as usize)
                .sum()
        }
    }

    /// True when every id recorded here is also recorded in `other`.
    pub fn is_subset_of(&self, other: &Self) -> bool {
        self.zip_count(other, |a, b| a & b) == self.count_ones()
    }

    /// Bitwise set equality (ignores window placement).
    pub fn same_ids(&self, other: &Self) -> bool {
        self.zip_count(other, |a, b| a ^ b) == 0
    }

    /// Raw backing words, LSB-first from `first_id`. The arena kernel
    /// copies these into its contiguous pool.
    pub(crate) fn words(&self) -> &[u64] {
        &self.words
    }

    /// This vector as a [`WindowRef`] without its trailing zero words:
    /// a profiling window that saw a few dozen ids of its 1 280 keeps
    /// one or two words of twenty.
    pub fn trimmed(&self) -> WindowRef<'_> {
        let used = self
            .words
            .iter()
            .rposition(|&w| w != 0)
            .map_or(0, |i| i + 1);
        WindowRef {
            first_id: self.first_id,
            capacity: self.capacity,
            words: self.words.get(..used).unwrap_or_default(),
        }
    }

    /// `|self ∩ other|` as id sets, whatever the two windows' placement,
    /// in one pass over `other`'s words — so `|self ∪ other|` is
    /// `|self| + |other| − this` at the cost of the shorter side.
    pub fn intersect_count(&self, other: WindowRef<'_>) -> usize {
        if self.first_id == other.first_id {
            return self
                .words
                .iter()
                .zip(other.words)
                .map(|(a, b)| (a & b).count_ones() as usize)
                .sum();
        }
        other
            .words
            .iter()
            .enumerate()
            .filter(|(_, &w)| w != 0)
            .map(|(i, &w)| {
                let at = other.first_id.saturating_add((i * WORD_BITS) as u64);
                (w & bits_at(&self.words, self.first_id, at)).count_ones() as usize
            })
            .sum()
    }

    /// Overwrites `self` with `other`'s window and bits, reusing the
    /// existing word buffer so repeated copies in a packing loop stay
    /// allocation-free once the buffer has grown to size.
    pub fn copy_from_window(&mut self, other: WindowRef<'_>) {
        self.first_id = other.first_id;
        self.capacity = other.capacity;
        self.words.clear();
        self.words.extend_from_slice(other.words);
        self.words.resize(other.capacity.div_ceil(WORD_BITS), 0);
    }

    /// Word `i` of this vector's bits re-aligned to a window starting
    /// at `first`, which must not exceed `first_id`; bits outside this
    /// vector's own window read as zero.
    ///
    /// This is the streaming counterpart of [`Self::aligned_words`] for
    /// the read-only set operations: misaligned popcount scans shift
    /// words on the fly instead of materializing a realigned copy, so
    /// the closeness kernels never allocate.
    fn window_word(&self, first: u64, i: usize) -> u64 {
        window_word_in(&self.words, self.first_id, first, i)
    }

    /// Materializes this vector's bits inside an arbitrary window
    /// `[first, first + words*64)`; bits outside this vector's own
    /// window read as zero. Only the merge path ([`Self::or_assign`])
    /// uses this — reads go through [`Self::window_word`].
    fn aligned_words(&self, first: u64, words: usize) -> Vec<u64> {
        aligned_words_in(&self.words, self.first_id, first, words)
    }

    /// Merges `other` into `self` with bitwise OR (clustering two
    /// subscriptions, Figure 1 of the paper). The merged window covers
    /// both inputs; if their union spans more than this vector's
    /// capacity, the oldest bits are discarded.
    pub fn or_assign(&mut self, other: &Self) {
        self.or_assign_window(other.trimmed());
    }

    /// [`Self::or_assign`] from a borrowed window.
    pub fn or_assign_window(&mut self, other: WindowRef<'_>) {
        // Fast path: identical windows (the common case — vectors of
        // one experiment share first_id and capacity) is a pure
        // word-level OR.
        if self.first_id == other.first_id && self.capacity == other.capacity {
            for (w, o) in self.words.iter_mut().zip(other.words) {
                *w |= o;
            }
            return;
        }
        let lo = self.first_id.min(other.first_id);
        let hi_end = self.window_end().max(other.window_end());
        let span = hi_end - lo;
        let first = if span > self.capacity as u64 {
            hi_end - self.capacity as u64
        } else {
            lo
        };
        let words = self.capacity.div_ceil(WORD_BITS);
        let mut merged = self.aligned_words(first, words);
        let theirs = aligned_words_in(other.words, other.first_id, first, words);
        for (m, o) in merged.iter_mut().zip(theirs) {
            *m |= o;
        }
        self.first_id = first;
        self.words = merged;
        self.mask_tail();
    }

    /// Returns the OR of two vectors as a new vector (capacity of
    /// `self`).
    #[must_use]
    pub fn or(&self, other: &Self) -> Self {
        let mut out = self.clone();
        out.or_assign(other);
        out
    }
}

/// Result of the batch popcount kernel: every cardinality the four
/// closeness metrics need, computed from one pass over a vector pair
/// (see [`ShiftingBitVector::pair_cardinalities`]). Component-wise sums
/// accumulate per-publisher pairs into profile-level totals.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PairCardinalities {
    /// `|A ∩ B|`.
    pub and: usize,
    /// `|A ∪ B|`.
    pub or: usize,
    /// `|A|`.
    pub left: usize,
    /// `|B|`.
    pub right: usize,
}

impl PairCardinalities {
    /// `|A ⊕ B|`, derived as `|∪| − |∩|`.
    pub fn xor(self) -> usize {
        self.or - self.and
    }

    /// Component-wise sum (accumulation across publishers).
    #[must_use]
    pub fn plus(self, other: Self) -> Self {
        Self {
            and: self.and + other.and,
            or: self.or + other.or,
            left: self.left + other.left,
            right: self.right + other.right,
        }
    }

    /// Cardinalities of a pair whose right side is empty (`B = ∅`).
    pub fn left_only(count: usize) -> Self {
        Self {
            and: 0,
            or: count,
            left: count,
            right: 0,
        }
    }

    /// Cardinalities of a pair whose left side is empty (`A = ∅`).
    pub fn right_only(count: usize) -> Self {
        Self {
            and: 0,
            or: count,
            left: 0,
            right: count,
        }
    }
}

fn combined_window(a: &ShiftingBitVector, b: &ShiftingBitVector) -> (u64, u64) {
    (
        a.first_id.min(b.first_id),
        a.window_end().max(b.window_end()),
    )
}

/// Word `i` of a raw bit-window re-aligned to a window starting at
/// `target_first`, which must not exceed `own_first`; bits outside the
/// source window read as zero. Shared by [`ShiftingBitVector`] and the
/// arena kernel so both streaming popcount paths produce identical
/// words.
pub(crate) fn window_word_in(words: &[u64], own_first: u64, target_first: u64, i: usize) -> u64 {
    debug_assert!(target_first <= own_first);
    let delta = idx(own_first - target_first);
    let (wo, bo) = (delta / WORD_BITS, delta % WORD_BITS);
    let word = |j: Option<usize>| -> u64 { j.and_then(|j| words.get(j).copied()).unwrap_or(0) };
    let lo = word(i.checked_sub(wo));
    if bo == 0 {
        lo
    } else {
        let hi = word(i.checked_sub(wo + 1));
        (lo << bo) | (hi >> (WORD_BITS - bo))
    }
}

/// The 64 bits of a raw bit-window (`words` from `own_first`) that
/// start at id `at`, wherever `at` lies; bits outside the window read
/// as zero.
fn bits_at(words: &[u64], own_first: u64, at: u64) -> u64 {
    let word = |j: usize| -> u64 { words.get(j).copied().unwrap_or(0) };
    if at >= own_first {
        let offset = idx(at - own_first);
        let (wo, bo) = (offset / WORD_BITS, offset % WORD_BITS);
        if bo == 0 {
            word(wo)
        } else {
            (word(wo) >> bo) | (word(wo.saturating_add(1)) << (WORD_BITS - bo))
        }
    } else {
        let back = own_first - at;
        if back >= WORD_BITS as u64 {
            0
        } else {
            word(0) << back
        }
    }
}

/// A raw bit-window's ids inside the window `[first, first + words*64)`
/// as words; ids outside it are dropped.
fn aligned_words_in(words: &[u64], own_first: u64, first: u64, n: usize) -> Vec<u64> {
    let mut out = vec![0u64; n];
    for (wi, &w) in words.iter().enumerate() {
        let mut word = w;
        while word != 0 {
            let bit = word.trailing_zeros() as usize;
            word &= word - 1;
            let id = own_first + (wi * WORD_BITS + bit) as u64;
            if id >= first {
                let i = idx(id - first);
                if i < n * WORD_BITS {
                    out[i / WORD_BITS] |= 1 << (i % WORD_BITS);
                }
            }
        }
    }
    out
}

/// The batch popcount kernel over two raw bit-windows, each given as
/// `(words, first_id, window_end)`. [`ShiftingBitVector`] and the
/// contiguous arena both route through this single implementation, so
/// the two layouts are word-for-word identical by construction.
pub(crate) fn pair_cardinalities_windows(
    a: (&[u64], u64, u64),
    b: (&[u64], u64, u64),
) -> PairCardinalities {
    let (a_words, a_first, a_end) = a;
    let (b_words, b_first, b_end) = b;
    let mut out = PairCardinalities::default();
    let mut accum = |x: u64, y: u64| {
        out.and += (x & y).count_ones() as usize;
        out.or += (x | y).count_ones() as usize;
        out.left += x.count_ones() as usize;
        out.right += y.count_ones() as usize;
    };
    if a_first == b_first {
        // Fast path: aligned windows (the common case thanks to
        // publisher message-id synchronization).
        let n = a_words.len().max(b_words.len());
        for i in 0..n {
            let x = a_words.get(i).copied().unwrap_or(0);
            let y = b_words.get(i).copied().unwrap_or(0);
            accum(x, y);
        }
    } else {
        let lo = a_first.min(b_first);
        let hi_end = a_end.max(b_end);
        let words = idx(hi_end - lo).div_ceil(WORD_BITS);
        for i in 0..words {
            accum(
                window_word_in(a_words, a_first, lo, i),
                window_word_in(b_words, b_first, lo, i),
            );
        }
    }
    out
}

impl PartialOrd for ShiftingBitVector {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for ShiftingBitVector {
    /// Lexicographic order over the recorded id sets (consistent with
    /// the set-based equality).
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.iter_ids().cmp(other.iter_ids())
    }
}

impl PartialEq for ShiftingBitVector {
    fn eq(&self, other: &Self) -> bool {
        self.same_ids(other)
    }
}

impl Eq for ShiftingBitVector {}

impl Hash for ShiftingBitVector {
    fn hash<H: Hasher>(&self, state: &mut H) {
        for id in self.iter_ids() {
            id.hash(state);
        }
    }
}

impl fmt::Display for ShiftingBitVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}+", self.first_id)?;
        let show = self.capacity.min(64);
        for i in 0..show {
            let set = self.contains(self.first_id + i as u64);
            f.write_str(if set { "1" } else { "0" })?;
        }
        if self.capacity > show {
            f.write_str("…")?;
        }
        f.write_str("]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn records_within_window() {
        let mut v = ShiftingBitVector::starting_at(10, 100);
        assert!(v.record(100));
        assert!(v.record(105));
        assert!(v.contains(100));
        assert!(v.contains(105));
        assert!(!v.contains(101));
        assert_eq!(v.count_ones(), 2);
    }

    #[test]
    fn paper_shift_example() {
        // "if the bit vector length is 10 while the counter representing
        // the first bit is 100, and an incoming publication has a
        // publication ID of 119, then shift the bit vector by 10 bits,
        // set the bit at index 9, and update the counter to 110."
        let mut v = ShiftingBitVector::starting_at(10, 100);
        v.record(103);
        v.record(119);
        assert_eq!(v.first_id(), 110);
        assert!(v.contains(119));
        assert!(!v.contains(103), "old bit shifted out");
        assert_eq!(v.count_ones(), 1);
    }

    #[test]
    fn shift_preserves_recent_bits() {
        let mut v = ShiftingBitVector::starting_at(10, 0);
        for id in [5, 7, 9] {
            v.record(id);
        }
        v.record(12); // shift by 3: window now [3, 13)
        assert_eq!(v.first_id(), 3);
        for id in [5, 7, 9, 12] {
            assert!(v.contains(id), "id {id} lost");
        }
        assert_eq!(v.count_ones(), 4);
    }

    #[test]
    fn too_old_ids_are_rejected() {
        let mut v = ShiftingBitVector::starting_at(10, 100);
        assert!(!v.record(99));
        assert!(v.is_empty());
    }

    #[test]
    fn giant_shift_clears_everything_old() {
        let mut v = ShiftingBitVector::starting_at(128, 0);
        for id in 0..128 {
            v.record(id);
        }
        v.record(10_000);
        assert_eq!(v.count_ones(), 1);
        assert!(v.contains(10_000));
        assert_eq!(v.first_id(), 10_000 - 127);
    }

    #[test]
    fn figure_1_clustering_example() {
        // S1: Adv1 bits 11100 at 75;       Adv2 bits 11111 at 144
        // S2: Adv1 bits 00111 at 75;       Adv3 bits 00100 at 2
        // S1+S2: Adv1 = 11111, Adv2 = 11111, Adv3 = 00100
        let s1_adv1 = ShiftingBitVector::from_bits(5, 75, &[true, true, true, false, false]);
        let s2_adv1 = ShiftingBitVector::from_bits(5, 75, &[false, false, true, true, true]);
        let merged = s1_adv1.or(&s2_adv1);
        assert_eq!(merged.count_ones(), 5);
        assert_eq!(
            merged.iter_ids().collect::<Vec<_>>(),
            vec![75, 76, 77, 78, 79]
        );
        // intersection of S1 and S2 on Adv1 is the single id 77
        let c = s1_adv1.pair_cardinalities(&s2_adv1);
        assert_eq!((c.and, c.xor(), c.or), (1, 4, 5));
    }

    #[test]
    fn set_ops_with_misaligned_windows() {
        let mut a = ShiftingBitVector::starting_at(16, 0);
        let mut b = ShiftingBitVector::starting_at(16, 8);
        for id in [4, 9, 10] {
            a.record(id);
        }
        for id in [9, 10, 20] {
            b.record(id);
        }
        let c = a.pair_cardinalities(&b);
        assert_eq!(c.and, 2); // 9, 10
        assert_eq!(c.or, 4); // 4, 9, 10, 20
        assert_eq!(c.xor(), 2); // 4, 20
        assert!(!a.is_subset_of(&b));
        let sub = {
            let mut s = ShiftingBitVector::starting_at(16, 6);
            s.record(9);
            s
        };
        assert!(sub.is_subset_of(&a));
    }

    #[test]
    fn or_assign_keeps_most_recent_on_overflow() {
        let mut a = ShiftingBitVector::starting_at(10, 0);
        a.record(0);
        a.record(5);
        let mut b = ShiftingBitVector::starting_at(10, 12);
        b.record(15);
        a.or_assign(&b); // union window [0,22) spans 22 > 10 → keep [12,22)
        assert_eq!(a.first_id(), 12);
        assert!(a.contains(15));
        assert!(!a.contains(5));
        assert_eq!(a.count_ones(), 1);
    }

    #[test]
    fn equality_and_hash_ignore_window_placement() {
        use std::collections::hash_map::DefaultHasher;
        let mut a = ShiftingBitVector::starting_at(64, 0);
        let mut b = ShiftingBitVector::starting_at(64, 3);
        for id in [10, 20, 30] {
            a.record(id);
            b.record(id);
        }
        assert_eq!(a, b);
        let hash = |v: &ShiftingBitVector| {
            let mut h = DefaultHasher::new();
            v.hash(&mut h);
            h.finish()
        };
        assert_eq!(hash(&a), hash(&b));
        b.record(40);
        assert_ne!(a, b);
    }

    #[test]
    fn iter_ids_round_trips() {
        let mut v = ShiftingBitVector::starting_at(200, 50);
        let ids = [50u64, 63, 64, 65, 127, 128, 200, 249];
        for &id in &ids {
            v.record(id);
        }
        assert_eq!(v.iter_ids().collect::<Vec<_>>(), ids);
    }

    #[test]
    fn display_is_compact() {
        let mut v = ShiftingBitVector::starting_at(5, 75);
        v.record(75);
        v.record(77);
        assert_eq!(v.to_string(), "[75+10100]");
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = ShiftingBitVector::new(0);
    }

    #[test]
    fn pair_cardinalities_match_the_id_sets() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        for case in 0..60 {
            let cap = rng.gen_range(1..300usize);
            // Mix aligned and misaligned windows.
            let first_a = rng.gen_range(0..50u64);
            let first_b = if case % 2 == 0 {
                first_a
            } else {
                rng.gen_range(0..50u64)
            };
            let mut a = ShiftingBitVector::starting_at(cap, first_a);
            let mut b = ShiftingBitVector::starting_at(cap, first_b);
            for _ in 0..rng.gen_range(0..80) {
                a.record(first_a + rng.gen_range(0..cap as u64));
            }
            for _ in 0..rng.gen_range(0..80) {
                b.record(first_b + rng.gen_range(0..cap as u64));
            }
            let c = a.pair_cardinalities(&b);
            // Ground truth from the id sets, independent of the
            // word-level streaming paths.
            let sa: BTreeSet<u64> = a.iter_ids().collect();
            let sb: BTreeSet<u64> = b.iter_ids().collect();
            assert_eq!(c.and, sa.intersection(&sb).count());
            assert_eq!(c.or, sa.union(&sb).count());
            assert_eq!(c.xor(), sa.symmetric_difference(&sb).count());
            assert_eq!(c.left, a.count_ones());
            assert_eq!(c.right, b.count_ones());
            // Symmetry of the kernel.
            let r = b.pair_cardinalities(&a);
            assert_eq!(
                (r.and, r.or, r.left, r.right),
                (c.and, c.or, c.right, c.left)
            );
        }
    }

    /// The trimmed window reads as the whole vector: its intersection
    /// gives the kernel's `|∪|` through `|a| + |b| − |a ∩ b|`, and
    /// copying or OR-ing it in leaves what the full vector would, for
    /// aligned, misaligned, differently sized and truncating windows.
    #[test]
    fn trimmed_windows_count_and_merge_like_the_vector() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(11);
        for case in 0..400 {
            let cap_a = [64, 100, 130, 300][rng.gen_range(0..4)];
            let cap_b = if case % 3 == 0 {
                cap_a
            } else {
                [64, 100, 130, 300][rng.gen_range(0..4)]
            };
            let first_a = rng.gen_range(0..200u64);
            let first_b = match case % 4 {
                0 => first_a,
                _ => rng.gen_range(0..400u64),
            };
            // Ids confined to the start of a window leave zero words
            // to trim.
            let span_b = if case % 2 == 0 {
                cap_b as u64
            } else {
                (cap_b as u64).min(40)
            };
            let mut a = ShiftingBitVector::starting_at(cap_a, first_a);
            let mut b = ShiftingBitVector::starting_at(cap_b, first_b);
            for _ in 0..rng.gen_range(0..60) {
                a.record(first_a + rng.gen_range(0..cap_a as u64));
            }
            for _ in 0..rng.gen_range(0..60) {
                b.record(first_b + rng.gen_range(0..span_b));
            }
            let w = b.trimmed();
            assert!(w.words.last().is_none_or(|&x| x != 0));
            assert!(w.words.len() <= b.words().len());
            let union = a.count_ones() + b.count_ones() - a.intersect_count(w);
            assert_eq!(union, a.pair_cardinalities(&b).or, "case {case}");
            let mut copied = ShiftingBitVector::new(1);
            copied.copy_from_window(w);
            assert_eq!(
                (copied.first_id(), copied.capacity(), copied.words()),
                (b.first_id(), b.capacity(), b.words())
            );
            // OR-ing keeps the union's ids that fit the newest
            // `cap_a`-wide window covering both.
            let mut merged = a.clone();
            merged.or_assign_window(w);
            let lo = first_a.min(first_b);
            let hi_end = a.window_end().max(b.window_end());
            let first = lo.max(hi_end.saturating_sub(cap_a as u64));
            let want: Vec<u64> = a
                .iter_ids()
                .chain(b.iter_ids())
                .filter(|&id| id >= first && id < first + cap_a as u64)
                .collect::<BTreeSet<u64>>()
                .into_iter()
                .collect();
            assert_eq!(merged.first_id(), first, "case {case}");
            assert_eq!(merged.iter_ids().collect::<Vec<_>>(), want, "case {case}");
        }
    }

    #[test]
    fn pair_cardinalities_accumulate() {
        let a = PairCardinalities {
            and: 1,
            or: 5,
            left: 3,
            right: 3,
        };
        let b = PairCardinalities::left_only(4).plus(PairCardinalities::right_only(2));
        let total = a.plus(b);
        assert_eq!(total.and, 1);
        assert_eq!(total.or, 11);
        assert_eq!(total.left, 7);
        assert_eq!(total.right, 5);
        assert_eq!(total.xor(), 10);
    }

    #[test]
    fn model_based_random_ops() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..50 {
            let cap = rng.gen_range(1..200usize);
            let mut v = ShiftingBitVector::new(cap);
            let mut model: BTreeSet<u64> = BTreeSet::new();
            let mut id = 0u64;
            for _ in 0..300 {
                id += rng.gen_range(0..5);
                if v.record(id) {
                    model.insert(id);
                }
                // model: drop ids outside current window
                let first = v.first_id();
                model.retain(|&m| m >= first);
            }
            assert_eq!(
                v.iter_ids().collect::<Vec<_>>(),
                model.iter().copied().collect::<Vec<_>>()
            );
            assert_eq!(v.count_ones(), model.len());
        }
    }
}
