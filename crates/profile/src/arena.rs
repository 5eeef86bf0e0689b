//! Contiguous bitset arena — the cache-friendly backing store for the
//! closeness engine's hot path.
//!
//! CRAM's closest-pair search spends nearly all of its popcount time
//! streaming over pairs of bit windows. Storing each window in its own
//! heap `Vec` (one per [`ShiftingBitVector`]) scatters them across the
//! heap, so every pair evaluation is a pointer chase. The arena instead
//! keeps all windows in **one** contiguous `Vec<u64>` of fixed-stride
//! rows: a pair evaluation reads two adjacent slices of the same
//! allocation, which stays resident in L1/L2 across a tile of
//! evaluations and never allocates.
//!
//! Rows are addressed by a small copyable [`RowId`] handle. Freed rows
//! go on a free list and are reused, so the arena's footprint tracks
//! the number of live profiles, not the insertion count.
//!
//! The word-level popcount routine is literally shared with
//! [`ShiftingBitVector::pair_cardinalities`] (both call the same
//! `pair_cardinalities_windows` helper), so arena-backed cardinalities
//! are identical to the per-profile walk by construction — the property
//! the kernel's proptest ([`crate::kernel`]) pins down.

use crate::bitvec::{pair_cardinalities_windows, PairCardinalities, ShiftingBitVector};

const WORD_BITS: usize = 64;

/// Handle to one fixed-stride row in a [`BitsetArena`].
///
/// Handles are only meaningful for the arena that issued them; using a
/// stale handle after [`BitsetArena::remove`] reads as an empty row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RowId(u32);

#[derive(Debug, Clone, Copy, Default)]
struct RowMeta {
    live: bool,
    first_id: u64,
    window_end: u64,
    ones: usize,
}

/// One contiguous `Vec<u64>` pool of fixed-stride bit windows.
#[derive(Debug, Clone)]
pub struct BitsetArena {
    stride_words: usize,
    stride_bits: usize,
    words: Vec<u64>,
    meta: Vec<RowMeta>,
    free: Vec<RowId>,
    live: usize,
}

impl BitsetArena {
    /// Creates an empty arena whose rows hold `stride_bits` bits each
    /// (rounded up to whole words; at least one word).
    pub fn new(stride_bits: usize) -> Self {
        let stride_words = stride_bits.div_ceil(WORD_BITS).max(1);
        Self {
            stride_words,
            stride_bits: stride_words * WORD_BITS,
            words: Vec::new(),
            meta: Vec::new(),
            free: Vec::new(),
            live: 0,
        }
    }

    /// Row capacity in bits (the fixed stride, rounded up to words).
    pub fn stride_bits(&self) -> usize {
        self.stride_bits
    }

    /// Number of live rows.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when no rows are live.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Copies a bit vector into a fresh row and returns its handle, or
    /// `None` when the vector's window capacity exceeds the stride (the
    /// caller keeps such oversize vectors in a side store).
    pub fn try_insert(&mut self, v: &ShiftingBitVector) -> Option<RowId> {
        if v.capacity() > self.stride_bits || v.words().len() > self.stride_words {
            return None;
        }
        let id = match self.free.pop() {
            Some(id) => id,
            None => {
                let id = RowId(u32::try_from(self.meta.len()).ok()?);
                self.words.resize(self.words.len() + self.stride_words, 0);
                self.meta.push(RowMeta::default());
                id
            }
        };
        let start = id.0 as usize * self.stride_words;
        if let Some(row) = self.words.get_mut(start..start + self.stride_words) {
            let src = v.words();
            for (i, w) in row.iter_mut().enumerate() {
                *w = src.get(i).copied().unwrap_or(0);
            }
        }
        if let Some(m) = self.meta.get_mut(id.0 as usize) {
            *m = RowMeta {
                live: true,
                first_id: v.first_id(),
                window_end: v.window_end(),
                ones: v.count_ones(),
            };
        }
        self.live += 1;
        Some(id)
    }

    /// Releases a row for reuse. Removing a dead or unknown handle is a
    /// no-op.
    pub fn remove(&mut self, id: RowId) {
        if let Some(m) = self.meta.get_mut(id.0 as usize) {
            if m.live {
                m.live = false;
                self.free.push(id);
                self.live -= 1;
            }
        }
    }

    /// Cached popcount of a row (zero for dead handles).
    pub fn ones(&self, id: RowId) -> usize {
        match self.meta.get(id.0 as usize) {
            Some(m) if m.live => m.ones,
            _ => 0,
        }
    }

    /// The row's raw window as `(words, first_id, window_end)`, or
    /// `None` for dead handles.
    pub fn row(&self, id: RowId) -> Option<(&[u64], u64, u64)> {
        let m = self.meta.get(id.0 as usize).filter(|m| m.live)?;
        let start = id.0 as usize * self.stride_words;
        let words = self.words.get(start..start + self.stride_words)?;
        Some((words, m.first_id, m.window_end))
    }

    /// Streaming popcount over two rows — the arena-side batch kernel.
    /// Dead handles read as empty windows. Allocation-free.
    pub fn pair_cardinalities(&self, a: RowId, b: RowId) -> PairCardinalities {
        match (self.row(a), self.row(b)) {
            (Some(ra), Some(rb)) => pair_cardinalities_windows(ra, rb),
            (Some(_), None) => PairCardinalities::left_only(self.ones(a)),
            (None, Some(_)) => PairCardinalities::right_only(self.ones(b)),
            (None, None) => PairCardinalities::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vector(first: u64, ids: &[u64]) -> ShiftingBitVector {
        let mut v = ShiftingBitVector::starting_at(128, first);
        for &id in ids {
            v.record(id);
        }
        v
    }

    #[test]
    fn insert_and_read_back_round_trips() {
        let mut arena = BitsetArena::new(128);
        let v = vector(10, &[10, 75, 100]);
        let id = arena.try_insert(&v).unwrap();
        assert_eq!(arena.ones(id), 3);
        let (words, first, end) = arena.row(id).unwrap();
        assert_eq!(first, 10);
        assert_eq!(end, 10 + 128);
        assert_eq!(words.len(), 2);
        assert_eq!(arena.len(), 1);
    }

    #[test]
    fn oversize_vectors_are_rejected() {
        let mut arena = BitsetArena::new(64);
        let v = ShiftingBitVector::starting_at(1280, 0);
        assert!(arena.try_insert(&v).is_none());
        assert!(arena.is_empty());
    }

    #[test]
    fn cardinalities_match_bitvec_kernel() {
        let mut arena = BitsetArena::new(256);
        // Mix aligned and misaligned windows, as CRAM's profiles do.
        let cases = [
            (vector(0, &[1, 2, 64, 130]), vector(0, &[2, 64, 200])),
            (vector(0, &[5, 9]), vector(8, &[9, 20, 200])),
            (vector(40, &[41]), vector(3, &[41, 99])),
        ];
        for (a, b) in &cases {
            let ra = arena.try_insert(a).unwrap();
            let rb = arena.try_insert(b).unwrap();
            assert_eq!(arena.pair_cardinalities(ra, rb), a.pair_cardinalities(b));
        }
    }

    #[test]
    fn freed_rows_are_reused_and_read_empty() {
        let mut arena = BitsetArena::new(128);
        let a = arena.try_insert(&vector(0, &[1, 2, 3])).unwrap();
        let words_before = {
            arena.try_insert(&vector(0, &[9])).unwrap();
            arena.len()
        };
        arena.remove(a);
        assert_eq!(arena.ones(a), 0);
        assert!(arena.row(a).is_none());
        let b = arena.try_insert(&vector(0, &[7])).unwrap();
        assert_eq!(b, a, "free list reuses the slot");
        assert_eq!(arena.len(), words_before);
        assert_eq!(arena.ones(b), 1);
        // Double-remove is a no-op.
        arena.remove(a);
        arena.remove(a);
        assert_eq!(arena.len(), words_before - 1);
    }
}
