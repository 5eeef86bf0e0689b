//! The closeness engine: a sharded map over worker threads and a
//! memoized pair-closeness cache.
//!
//! CRAM and the PAIRWISE baselines spend almost all their time scanning
//! candidate pairs and evaluating a closeness measure on each. This
//! module factors that work into two reusable pieces:
//!
//! * [`shard_map`] — partitions a slice of work items across scoped
//!   worker threads (`std::thread::scope`) and returns per-item
//!   results **in input order**, so callers observe exactly the
//!   sequential result regardless of thread count (PAIRWISE's scans,
//!   and the zones of [`crate::zones`]);
//! * [`PairCache`] — a symmetric memo table of pair-closeness values
//!   keyed by ordered key pairs, with whole-key invalidation for keys
//!   whose profile changed (merged or deleted GIFs) and a hard entry
//!   budget so adversarial workloads (XOR full scans over large pools)
//!   cannot exhaust memory.
//!
//! Determinism contract: `shard_map(items, t, f)` equals
//! `items.iter().map(f).collect()` for every `t`, because shards are
//! contiguous chunks joined in order and `f` only reads shared
//! snapshot state. Callers keep their own tie-breaking rules; the
//! engine never reorders. The thread count is the caller's decision:
//! how many items make a worker worth spawning depends on what an item
//! costs (one row scan for PAIRWISE, one whole zone for
//! [`crate::zones`]), which only the caller knows.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Maximum number of distinct pairs the cache will hold. Beyond this
/// the cache deterministically stops admitting new entries (existing
/// entries keep being served), bounding memory on full-scan metrics
/// over large pools. 2^20 pairs ≈ 32 MB of key/value storage.
pub const PAIR_CACHE_BUDGET: usize = 1 << 20;

/// Number of worker threads the machine can usefully run, with a
/// conservative fallback of 1 when parallelism cannot be queried.
pub fn available_threads() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Applies `f` to every item of `items`, fanning contiguous shards out
/// across up to `threads` scoped worker threads, and returns the
/// results in input order.
///
/// With `threads <= 1` (or at most one item) this degenerates to a
/// plain sequential map — the parallel path is bit-identical to it by
/// construction, so callers can treat the thread count as a pure
/// performance knob.
pub fn shard_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    if threads <= 1 || items.len() <= 1 {
        return items.iter().map(f).collect();
    }
    let chunk = items.len().div_ceil(threads);
    let fref = &f;
    std::thread::scope(|s| {
        let handles: Vec<_> = items
            .chunks(chunk)
            .map(|shard| s.spawn(move || shard.iter().map(fref).collect::<Vec<R>>()))
            .collect();
        let mut out = Vec::with_capacity(items.len());
        for h in handles {
            match h.join() {
                Ok(part) => out.extend(part),
                // A worker's panic is the caller's: re-raise it.
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        out
    })
}

/// A symmetric memo table of pair-closeness values.
///
/// Entries are stored under both key orders so `invalidate(k)` can drop
/// every pair touching `k` in one row removal plus its backrefs. The
/// cache is *correctness-neutral*: a hit returns exactly what the
/// measure computed earlier for the same profiles, and callers must
/// invalidate any key whose profile changes (CRAM does so for merged
/// and deleted GIFs; blacklisted pairs keep their entries because the
/// underlying profiles are unchanged).
#[derive(Debug)]
pub struct PairCache<K: Ord + Copy> {
    rows: BTreeMap<K, BTreeMap<K, f64>>,
    pairs: usize,
    /// Entry budget, [`PAIR_CACHE_BUDGET`] outside this module's tests.
    budget: usize,
    /// Lookup tallies. Atomics because [`PairCache::get`] runs
    /// concurrently on PAIRWISE's [`shard_map`] workers over a frozen
    /// cache; the totals are still thread-count-deterministic because
    /// every worker performs the same lookups regardless of sharding.
    hits: AtomicU64,
    misses: AtomicU64,
}

/// Lookup statistics of a [`PairCache`]: how often [`PairCache::get`]
/// found an entry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that returned a cached closeness.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
}

impl<K: Ord + Copy> Default for PairCache<K> {
    fn default() -> Self {
        PairCache {
            rows: BTreeMap::new(),
            pairs: 0,
            budget: PAIR_CACHE_BUDGET,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }
}

impl<K: Ord + Copy> PairCache<K> {
    /// Number of distinct pairs currently cached.
    pub fn len(&self) -> usize {
        self.pairs
    }

    /// True when no pairs are cached.
    pub fn is_empty(&self) -> bool {
        self.pairs == 0
    }

    /// Looks up the cached closeness for the pair `(a, b)` (order
    /// insensitive), tallying the outcome into [`PairCache::stats`].
    pub fn get(&self, a: K, b: K) -> Option<f64> {
        let found = self.peek(a, b);
        if found.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        found
    }

    /// Lookup without touching the hit/miss tallies (internal upkeep
    /// such as the insert budget check must not skew them).
    fn peek(&self, a: K, b: K) -> Option<f64> {
        self.rows.get(&a).and_then(|row| row.get(&b)).copied()
    }

    /// Hit/miss tallies accumulated by [`PairCache::get`] since
    /// construction.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// Inserts a closeness value for the pair `(a, b)`. New pairs are
    /// dropped once [`PAIR_CACHE_BUDGET`] distinct pairs are held;
    /// re-inserting an existing pair always updates it.
    pub fn insert(&mut self, a: K, b: K, closeness: f64) {
        if self.peek(a, b).is_none() && self.pairs >= self.budget {
            return;
        }
        let fresh = self
            .rows
            .entry(a)
            .or_default()
            .insert(b, closeness)
            .is_none();
        self.rows.entry(b).or_default().insert(a, closeness);
        if fresh {
            self.pairs += 1;
        }
    }

    /// Drops every cached pair touching `k` — surviving pairs stay warm
    /// across merges — when `k`'s profile changes or `k` disappears
    /// from the pool.
    pub fn invalidate(&mut self, k: K) {
        if let Some(row) = self.rows.remove(&k) {
            self.pairs -= row.len();
            for partner in row.keys() {
                if let Some(back) = self.rows.get_mut(partner) {
                    back.remove(&k);
                    if back.is_empty() {
                        self.rows.remove(partner);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_map_matches_sequential_for_all_thread_counts() {
        let items: Vec<u64> = (0..103).collect();
        let expected: Vec<u64> = items.iter().map(|x| x * x + 1).collect();
        for threads in [0usize, 1, 2, 3, 4, 7, 8, 64, 200] {
            let got = shard_map(&items, threads, |x| x * x + 1);
            assert_eq!(got, expected, "threads={threads}");
        }
    }

    #[test]
    fn shard_map_handles_empty_and_single() {
        let empty: Vec<u32> = Vec::new();
        assert!(shard_map(&empty, 4, |x| *x).is_empty());
        assert_eq!(shard_map(&[9u32], 4, |x| x + 1), vec![10]);
    }

    /// The thread count is honoured as given: a handful of coarse items
    /// (one zone each, for `zoned_allocate`) must still fan out.
    #[test]
    fn shard_map_fans_out_over_few_items() {
        let items = [0u8; 8];
        let ids = shard_map(&items, 4, |_| std::thread::current().id());
        let distinct: std::collections::HashSet<_> = ids.into_iter().collect();
        assert!(distinct.len() > 1, "ran on {distinct:?}");
    }

    #[test]
    fn shard_map_borrows_shared_state() {
        let table: Vec<u64> = (0..50).map(|i| i * 10).collect();
        let idx: Vec<usize> = (0..50).rev().collect();
        let got = shard_map(&idx, 4, |i| table.get(*i).copied().unwrap_or(0));
        let want: Vec<u64> = idx.iter().map(|i| (*i as u64) * 10).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn pair_cache_symmetric_roundtrip() {
        let mut c: PairCache<u64> = PairCache::default();
        assert!(c.is_empty());
        c.insert(3, 7, 1.5);
        assert_eq!(c.get(3, 7), Some(1.5));
        assert_eq!(c.get(7, 3), Some(1.5));
        assert_eq!(c.len(), 1);
        c.insert(7, 3, 2.5); // reversed order updates, not duplicates
        assert_eq!(c.get(3, 7), Some(2.5));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn pair_cache_self_pair() {
        let mut c: PairCache<u64> = PairCache::default();
        c.insert(5, 5, 9.0);
        assert_eq!(c.get(5, 5), Some(9.0));
        assert_eq!(c.len(), 1);
        c.invalidate(5);
        assert_eq!(c.get(5, 5), None);
        assert!(c.is_empty());
    }

    #[test]
    fn pair_cache_invalidate_drops_all_pairs_touching_key() {
        let mut c: PairCache<u64> = PairCache::default();
        c.insert(1, 2, 0.1);
        c.insert(1, 3, 0.2);
        c.insert(2, 3, 0.3);
        assert_eq!(c.len(), 3);
        c.invalidate(1);
        assert_eq!(c.get(1, 2), None);
        assert_eq!(c.get(2, 1), None);
        assert_eq!(c.get(1, 3), None);
        assert_eq!(c.get(2, 3), Some(0.3));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn pair_cache_stats_count_hits_and_misses() {
        let mut c: PairCache<u64> = PairCache::default();
        assert_eq!(c.stats(), CacheStats::default());
        c.insert(1, 2, 0.5);
        assert!(c.get(1, 2).is_some());
        assert!(c.get(2, 1).is_some());
        assert!(c.get(1, 3).is_none());
        let stats = c.stats();
        assert_eq!(stats, CacheStats { hits: 2, misses: 1 });
        // Inserting again (budget check included) must not skew stats.
        c.insert(1, 2, 0.7);
        c.insert(4, 5, 0.9);
        assert_eq!(c.stats(), stats);
    }

    #[test]
    fn pair_cache_budget_is_enforced_deterministically() {
        let mut c: PairCache<u64> = PairCache {
            budget: 2,
            ..PairCache::default()
        };
        c.insert(1, 2, 0.1);
        c.insert(1, 3, 0.2);
        c.insert(1, 4, 0.3); // over budget → dropped
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(1, 4), None);
        // Existing entries always update even at the budget.
        c.insert(2, 1, 42.0);
        assert_eq!(c.get(1, 2), Some(42.0));
        assert_eq!(c.len(), 2);
        // Invalidation frees budget for new pairs.
        c.invalidate(3);
        c.insert(1, 4, 0.3);
        assert_eq!(c.get(1, 4), Some(0.3));
    }
}
