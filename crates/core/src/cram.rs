//! CRAM — Clustering with Resource Awareness and Minimization
//! (paper §IV-C).
//!
//! CRAM repeatedly clusters the pair of subscriptions with the highest
//! non-zero closeness, re-running the BIN PACKING allocation test after
//! every clustering step; failed clusterings are undone and
//! blacklisted, and the best successful allocation (fewest brokers,
//! most-clustered on ties) is returned when no positive-closeness pair
//! remains.
//!
//! All three of the paper's optimizations are implemented and can be
//! toggled for the ablation experiments:
//!
//! 1. **GIF grouping** — subscriptions with equal bit vectors share a
//!    Group of Identical Filters; clustering operates on GIF pairs.
//! 2. **Search pruning** — each GIF tracks only its closest partner,
//!    found by a breadth-first poset walk that prunes empty-relationship
//!    subtrees and stops descending once closeness starts to decrease
//!    (not applicable to the XOR metric, which cannot distinguish empty
//!    relationships — the reason it is ≥75% slower).
//! 3. **One-to-many clustering** — before pairwise-merging two
//!    intersecting GIFs, try clustering each GIF with a greedy
//!    set-cover selection of its covered GIFs (the CGS).
//!
//! There is one engine, and its closest-pair search — CRAM's hot loop —
//! is one sequential routine: a refresh round rescans every stale GIF
//! against the pair-closeness cache as it stood when the round began.
//! Four mechanisms make it fast, and each is held to a bit-exact oracle
//! at its own seam by the tests rather than by a second engine kept
//! alive end to end:
//!
//! * **profile storage** — GIF profiles live as rows of one contiguous
//!   [`ArenaKernel`] (stride sized from the widest window in the
//!   initial pool); oracle: `SubscriptionProfile::pair_cardinalities`
//!   (the kernel's proptest in `greenps_profile`);
//! * **allocation test** — a persistent `FastPacker` fed from an
//!   incrementally maintained `pack_order` unit list through
//!   `MergedOrder`; oracle: the `#[cfg(test)]` collect-re-sort-re-pack
//!   packer in [`crate::capacity`];
//! * **best allocation** — only the packing *recipe* of the best test
//!   is kept and `materialize_recipe` runs once at the end; oracle: a
//!   from-scratch pack of the committed pool after every merge;
//! * **tiling and the pair cache** — GIF keys are grouped into
//!   `DEFAULT_TILE`-wide tiles whose OR-summary profiles let the
//!   poset scan reject a whole tile of candidates with one intersect
//!   pass, and pair closenesses are memoized in a
//!   [`crate::engine::PairCache`] whose entries are invalidated only
//!   for pairs touching a merged-away GIF (blacklisted pairs keep
//!   theirs — the underlying profiles never changed); oracle: the
//!   untiled scan, which must reach the identical allocation with at
//!   least as many closeness computations.
//!
//! What a caller can set is what the paper ablates: the metric and
//! optimizations 2 and 3.
//!
//! Entry point: [`CramBuilder`].

#![expect(
    clippy::indexing_slicing,
    reason = "unit-pool slots are dense indices maintained alongside the pool"
)]

use crate::capacity::{materialize_recipe, pack_order, FastPacker, PackRecord};
use crate::engine::PairCache;
use crate::model::{AllocError, Allocation, AllocationInput, Unit};
use crate::pipeline::CancelToken;
use crate::sorting::units_from_input;
use greenps_profile::{
    ArenaKernel, ClosenessMetric, Poset, Relation, ShiftingBitVector, SubscriptionProfile,
    DEFAULT_CAPACITY,
};
use greenps_pubsub::ids::{AdvId, BrokerId};
use greenps_telemetry::{names, EventSink, Histogram, Registry, Span};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Key of a GIF inside the CRAM pool.
pub(crate) type GifKey = u64;
/// Key of a unit inside the CRAM pool.
type UnitKey = u64;

/// Tile width (GIF keys per tile) for whole-tile pruning. Only
/// `closeness_computations` depends on it — a rejected tile is exactly
/// a set of candidates whose closeness is provably zero — so it is a
/// constant, not an option; the in-module tests vary
/// [`CramBuilder`]'s private copy to hold tiled and untiled scans to
/// the same allocation.
const DEFAULT_TILE: usize = 64;

/// CRAM configuration.
#[derive(Debug, Clone, Copy)]
pub struct CramConfig {
    /// Closeness metric (paper evaluates all four).
    pub metric: ClosenessMetric,
    /// Optimization 3: one-to-many CGS clustering.
    pub one_to_many: bool,
    /// Optimization 2: poset search pruning (when the metric allows).
    pub poset_pruning: bool,
}

impl CramConfig {
    /// The paper's default configuration for a metric: all optimizations
    /// on.
    pub fn with_metric(metric: ClosenessMetric) -> Self {
        Self {
            metric,
            one_to_many: true,
            poset_pruning: true,
        }
    }
}

impl Default for CramConfig {
    fn default() -> Self {
        Self::with_metric(ClosenessMetric::Ios)
    }
}

/// Counters reported alongside a CRAM allocation (experiment E7/E8).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CramStats {
    /// Total subscriptions in the pool.
    pub subscriptions: usize,
    /// GIFs after grouping equal profiles (optimization 1; the paper
    /// reports up to 61% reduction at 8,000 subscriptions).
    pub initial_gifs: usize,
    /// Main-loop iterations executed.
    pub iterations: usize,
    /// Successful clustering merges.
    pub merges: usize,
    /// Merges undone after a failed allocation test.
    pub failed_merges: usize,
    /// One-to-many (CGS) merges among the successful ones.
    pub one_to_many_merges: usize,
    /// Closeness computations performed (the paper's ~5,000,000 →
    /// ~280,000 pruning headline).
    pub closeness_computations: u64,
    /// Profile-relationship computations performed by the poset.
    pub poset_relation_ops: u64,
    /// Units (clusters) remaining when the algorithm terminated — the
    /// cluster count PAIRWISE-K borrows.
    pub final_units: usize,
}

#[derive(Debug, Clone)]
struct Gif {
    profile: SubscriptionProfile,
    /// Unit keys, kept sorted by (out_bandwidth, first sub id) ascending
    /// — "lightest" first.
    units: Vec<UnitKey>,
}

/// Lazily-maintained index of GIF-key tiles for whole-tile rejection.
///
/// GIF keys are grouped into fixed-width tiles (`key / tile`); each
/// tile keeps the OR-union of its members' profiles as an aggregate
/// summary. During a poset scan, a tile whose summary is disjoint from
/// the scanning GIF's profile can be rejected with one intersect pass:
/// the summary covers every member, so each member's closeness is
/// provably zero under the empty-pruning metrics — exactly the subtree
/// prune the per-candidate `c == 0` branch would take, minus the
/// per-candidate evaluations.
///
/// Membership changes only mark a bucket dirty; summaries are rebuilt
/// lazily before each scan round. When rebuilding, every per-publisher
/// window is widened to the members' combined extent so the union can
/// never truncate — truncation would break the `summary ⊇ member`
/// invariant the rejection's soundness rests on.
struct TileIndex {
    /// Tile width in GIF keys; `0` disables the index entirely.
    tile: usize,
    buckets: BTreeMap<u64, TileBucket>,
    /// Buckets whose summary is stale (membership changed).
    dirty: BTreeSet<u64>,
}

#[derive(Default)]
struct TileBucket {
    members: BTreeSet<GifKey>,
    summary: SubscriptionProfile,
}

impl TileIndex {
    fn new(tile: usize) -> Self {
        Self {
            tile,
            buckets: BTreeMap::new(),
            dirty: BTreeSet::new(),
        }
    }

    fn enabled(&self) -> bool {
        self.tile > 0
    }

    fn bucket_of(&self, g: GifKey) -> u64 {
        g / self.tile.max(1) as u64
    }

    fn on_insert(&mut self, g: GifKey) {
        if !self.enabled() {
            return;
        }
        let b = self.bucket_of(g);
        self.buckets.entry(b).or_default().members.insert(g);
        self.dirty.insert(b);
    }

    fn on_remove(&mut self, g: GifKey) {
        if !self.enabled() {
            return;
        }
        let b = self.bucket_of(g);
        if let Some(bucket) = self.buckets.get_mut(&b) {
            bucket.members.remove(&g);
            if bucket.members.is_empty() {
                self.buckets.remove(&b);
                self.dirty.remove(&b);
            } else {
                self.dirty.insert(b);
            }
        }
    }

    /// The bucket's aggregate summary, valid only after [`Self::rebuild`].
    fn summary(&self, b: u64) -> Option<&SubscriptionProfile> {
        self.buckets.get(&b).map(|bucket| &bucket.summary)
    }

    /// Recomputes the summaries of all dirty buckets.
    fn rebuild(&mut self, gifs: &BTreeMap<GifKey, Gif>) {
        while let Some(b) = self.dirty.pop_first() {
            if let Some(bucket) = self.buckets.get_mut(&b) {
                bucket.summary = summarize(&bucket.members, gifs);
            }
        }
    }
}

/// OR-union of the members' profiles, with each per-publisher window
/// widened to the members' combined extent so no member bit is ever
/// truncated away (the `summary ⊇ member` invariant).
fn summarize(members: &BTreeSet<GifKey>, gifs: &BTreeMap<GifKey, Gif>) -> SubscriptionProfile {
    let mut extents: BTreeMap<AdvId, (u64, u64)> = BTreeMap::new();
    for g in members {
        let Some(gif) = gifs.get(g) else { continue };
        for (adv, v) in gif.profile.iter() {
            let e = extents.entry(adv).or_insert((v.first_id(), v.window_end()));
            e.0 = e.0.min(v.first_id());
            e.1 = e.1.max(v.window_end());
        }
    }
    let mut wide: BTreeMap<AdvId, ShiftingBitVector> = extents
        .into_iter()
        .map(|(adv, (lo, hi))| {
            let bits = usize::try_from(hi.saturating_sub(lo)).unwrap_or(usize::MAX);
            (adv, ShiftingBitVector::starting_at(bits.max(1), lo))
        })
        .collect();
    for g in members {
        let Some(gif) = gifs.get(g) else { continue };
        for (adv, v) in gif.profile.iter() {
            if let Some(w) = wide.get_mut(&adv) {
                w.or_assign(v);
            }
        }
    }
    let mut summary = SubscriptionProfile::new();
    for (adv, v) in wide {
        summary.insert_vector(adv, v);
    }
    summary
}

struct Pool {
    units: BTreeMap<UnitKey, Arc<Unit>>,
    gifs: BTreeMap<GifKey, Gif>,
    /// Profile → GIF lookup. A `BTreeMap` (not `HashMap`) so that no
    /// iteration over this table — present or future — can depend on
    /// hash order; CRAM's determinism contract forbids hash-ordered
    /// decisions anywhere in the merge loop.
    by_profile: BTreeMap<SubscriptionProfile, GifKey>,
    poset: Poset<GifKey>,
    /// Batch cardinality provider over the live GIF profiles — the
    /// popcount half of every built-in metric evaluation.
    kernel: ArenaKernel,
    /// Tile summaries for whole-tile rejection (inert when `tile` is 0).
    tiles: TileIndex,
    next_unit: UnitKey,
    next_gif: GifKey,
}

impl Pool {
    fn build(units: Vec<Unit>, tile: usize, cancel: &CancelToken) -> Result<Self, AllocError> {
        // Rows as wide as the widest window in the initial pool. A
        // wider window would fall back to the kernel's side store, so
        // this is a sizing choice, not a correctness condition.
        let stride = units
            .iter()
            .flat_map(|u| u.profile.iter())
            .map(|(_, v)| v.capacity())
            .max()
            .unwrap_or(DEFAULT_CAPACITY);
        let mut pool = Pool {
            units: BTreeMap::new(),
            gifs: BTreeMap::new(),
            by_profile: BTreeMap::new(),
            poset: Poset::new(),
            kernel: ArenaKernel::new(stride),
            tiles: TileIndex::new(tile),
            next_unit: 0,
            next_gif: 0,
        };
        for u in units {
            if cancel.is_cancelled_hot() {
                return Err(AllocError::Cancelled);
            }
            pool.add_unit(u);
        }
        Ok(pool)
    }

    #[expect(
        clippy::expect_used,
        reason = "GIF keys are inserted or found immediately before the fetch"
    )]
    fn add_unit(&mut self, unit: Unit) -> (UnitKey, GifKey) {
        let uk = self.next_unit;
        self.next_unit += 1;
        let gk = match self.by_profile.get(&unit.profile) {
            Some(&gk) => gk,
            None => {
                let gk = self.next_gif;
                self.next_gif += 1;
                self.by_profile.insert(unit.profile.clone(), gk);
                self.gifs.insert(
                    gk,
                    Gif {
                        profile: unit.profile.clone(),
                        units: Vec::new(),
                    },
                );
                self.poset.insert(gk, unit.profile.clone());
                self.kernel.insert(gk, &unit.profile);
                self.tiles.on_insert(gk);
                gk
            }
        };
        let gif = self
            .gifs
            .get_mut(&gk)
            .expect("gif inserted above or found via by_profile");
        let pos = gif
            .units
            .binary_search_by(|k| {
                let u = &self.units[k];
                u.out_bandwidth
                    .total_cmp(&unit.out_bandwidth)
                    .then(u.subs.first().cmp(&unit.subs.first()))
            })
            .unwrap_or_else(|e| e);
        gif.units.insert(pos, uk);
        self.units.insert(uk, Arc::new(unit));
        (uk, gk)
    }

    /// Removes a unit; deletes its GIF (and poset node, kernel entry,
    /// tile membership) when emptied. Returns the unit and whether the
    /// GIF was deleted.
    #[expect(
        clippy::expect_used,
        reason = "GIF keys are inserted or found immediately before the fetch"
    )]
    fn remove_unit(&mut self, gk: GifKey, uk: UnitKey) -> (Arc<Unit>, bool) {
        let unit = self.units.remove(&uk).expect("unknown unit");
        let gif = self.gifs.get_mut(&gk).expect("unknown gif");
        gif.units.retain(|&k| k != uk);
        if gif.units.is_empty() {
            let gif = self.gifs.remove(&gk).expect("gif fetched above");
            self.by_profile.remove(&gif.profile);
            self.poset.remove(gk);
            self.kernel.remove(gk);
            self.tiles.on_remove(gk);
            (unit, true)
        } else {
            (unit, false)
        }
    }

    /// The lightest (smallest output bandwidth) unit of a GIF.
    fn lightest(&self, gk: GifKey) -> UnitKey {
        self.gifs[&gk].units[0]
    }
}

/// Builder-style entry point for CRAM — the one way to run it.
///
/// Sets what the paper ablates: the closeness metric
/// ([`CramBuilder::new`]) and the O2/O3 optimization toggles. Every
/// metric evaluates through the pool's [`ArenaKernel`] (one batch
/// popcount pass + scalar arithmetic).
///
/// ```
/// use greenps_core::cram::CramBuilder;
/// use greenps_core::model::AllocationInput;
/// use greenps_profile::ClosenessMetric;
///
/// let input = AllocationInput::new();
/// let (alloc, stats) = CramBuilder::new(ClosenessMetric::Ios)
///     .poset_pruning(true)
///     .run(&input)?;
/// assert_eq!(alloc.broker_count(), 0);
/// assert_eq!(stats.initial_gifs, 0);
/// # Ok::<(), greenps_core::model::AllocError>(())
/// ```
pub struct CramBuilder {
    metric: ClosenessMetric,
    one_to_many: bool,
    poset_pruning: bool,
    /// Tile width for whole-tile candidate rejection (`0` scans
    /// untiled); [`DEFAULT_TILE`] outside this module's tests.
    tile: usize,
    telemetry: Registry,
    cancel: CancelToken,
}

impl CramBuilder {
    /// CRAM with a paper metric, all optimizations on.
    pub fn new(metric: ClosenessMetric) -> Self {
        CramBuilder {
            metric,
            one_to_many: true,
            poset_pruning: true,
            tile: DEFAULT_TILE,
            telemetry: Registry::disabled(),
            cancel: CancelToken::never(),
        }
    }

    /// Builder from a [`CramConfig`] (the form the ablation experiments
    /// and [`crate::overlay::AllocatorKind::Cram`] carry around).
    pub fn from_config(config: CramConfig) -> Self {
        Self::new(config.metric)
            .one_to_many(config.one_to_many)
            .poset_pruning(config.poset_pruning)
    }

    /// Threads a cancellation token into the run: the merge loop, the
    /// baseline packing, and the pool build all poll it and stop with
    /// [`AllocError::Cancelled`]. The default is a never-cancelled
    /// token, so untoken'd runs behave exactly as before.
    #[must_use]
    pub fn cancel_token(mut self, cancel: &CancelToken) -> Self {
        self.cancel = cancel.clone();
        self
    }

    /// Reports into `registry`: the `cram.run` span, per-scan timings,
    /// GIF-merge/blacklist trace events, and — after the run — the
    /// closeness-computation and pair-cache counters. Observation only:
    /// the allocation and [`CramStats`] are bit-identical with any
    /// registry, including [`Registry::disabled`] (the default).
    #[must_use]
    pub fn telemetry(mut self, registry: &Registry) -> Self {
        self.telemetry = registry.clone();
        self
    }

    /// Toggles optimization 3 (one-to-many CGS clustering).
    #[must_use]
    pub fn one_to_many(mut self, on: bool) -> Self {
        self.one_to_many = on;
        self
    }

    /// Toggles optimization 2 (poset search pruning; only effective
    /// when the metric supports empty-relationship pruning).
    #[must_use]
    pub fn poset_pruning(mut self, on: bool) -> Self {
        self.poset_pruning = on;
        self
    }

    /// Runs CRAM over an allocation input.
    ///
    /// # Errors
    /// Fails when even the unclustered BIN PACKING allocation is
    /// infeasible, mirroring the paper's initialization step.
    pub fn run(&self, input: &AllocationInput) -> Result<(Allocation, CramStats), AllocError> {
        self.run_units(input, units_from_input(input))
    }

    /// Runs CRAM over prebuilt units (used recursively by Phase 3).
    ///
    /// # Errors
    /// Fails when the initial unclustered allocation is infeasible.
    pub fn run_units(
        &self,
        input: &AllocationInput,
        units: Vec<Unit>,
    ) -> Result<(Allocation, CramStats), AllocError> {
        let span = Span::enter(&self.telemetry, &names::CRAM_RUN);
        let mut engine = Engine::new(self, input, units)?;
        if !engine.run() {
            // Cancelled mid-merge: no partial allocation escapes.
            span.finish();
            return Err(AllocError::Cancelled);
        }
        engine.stats.poset_relation_ops = engine.pool.poset.relation_ops();
        engine.stats.final_units = engine.pool.units.len();
        self.report(&engine);
        span.finish();
        // A unit the pool still holds is cloned; one merged away since
        // it was picked is moved.
        let picks = engine.best.picks.into_iter().map(|(broker, units)| {
            let units = units
                .into_iter()
                .map(|u| Arc::try_unwrap(u).unwrap_or_else(|shared| (*shared).clone()))
                .collect();
            (broker, units)
        });
        Ok((materialize_recipe(picks, &input.publishers), engine.stats))
    }

    /// Publishes the run's counters. Every one adds, so the runs sharing
    /// a registry (the zones of a zoned allocation, the cells of an
    /// experiment grid) sum. Pure observation of already-final values,
    /// after the allocation is decided.
    fn report(&self, engine: &Engine) {
        if !self.telemetry.is_enabled() {
            return;
        }
        let t = &self.telemetry;
        let stats = &engine.stats;
        t.counter(&names::CRAM_CLOSENESS_COMPUTATIONS)
            .add(stats.closeness_computations);
        t.counter(&names::CRAM_ITERATIONS)
            .add(stats.iterations as u64);
        t.counter(&names::CRAM_MERGES).add(stats.merges as u64);
        t.counter(&names::CRAM_FAILED_MERGES)
            .add(stats.failed_merges as u64);
        t.counter(&names::CRAM_ONE_TO_MANY_MERGES)
            .add(stats.one_to_many_merges as u64);
        t.counter(&names::CRAM_INITIAL_GIFS)
            .add(stats.initial_gifs as u64);
        t.counter(&names::CRAM_FINAL_UNITS)
            .add(stats.final_units as u64);
        t.counter(&names::CRAM_PACKS).add(engine.packs);
        t.counter(&names::CRAM_PACKS_FAILED)
            .add(engine.packs_failed);
        t.counter(&names::CRAM_TILE_CHECKS).add(engine.tile_checks);
        t.counter(&names::CRAM_TILE_PRUNED).add(engine.tile_pruned);
        let cache = engine.cache.stats();
        t.counter(&names::PAIR_CACHE_HITS).add(cache.hits);
        t.counter(&names::PAIR_CACHE_MISSES).add(cache.misses);
    }
}

struct Engine {
    pool: Pool,
    metric: ClosenessMetric,
    one_to_many: bool,
    poset_pruning: bool,
    /// Cached closest partner per GIF.
    partners: BTreeMap<GifKey, Option<(GifKey, f64)>>,
    /// GIFs whose cached partner must be recomputed.
    stale: BTreeSet<GifKey>,
    blacklist: BTreeSet<(GifKey, GifKey)>,
    /// Memoized pair closenesses; invalidated only for merged-away
    /// GIFs (blacklisting leaves profiles — and hence entries — valid).
    cache: PairCache<GifKey>,
    stats: CramStats,
    best: BestAlloc,
    /// The allocation test's packer: built once per run, reset per
    /// pack by an epoch bump.
    packer: FastPacker,
    /// Live pool units sorted by [`pack_order`], each with its flat
    /// pack record, maintained by [`Engine::commit`], so a test
    /// performs no sorting, no per-test collection and no record
    /// building beyond the trial merged unit's.
    order: Vec<PackEntry>,
    /// The trial merged unit's pack record, rebuilt in place per test.
    merged_record: PackRecord,
    /// Allocation tests packed, and those that failed (telemetry only).
    packs: u64,
    packs_failed: u64,
    /// Whole-tile summary checks performed (telemetry only).
    tile_checks: u64,
    /// Frontier candidates rejected tile-at-a-time (telemetry only).
    tile_pruned: u64,
    /// Telemetry: per-scan wall times (µs).
    scan_timer: Histogram,
    /// Telemetry: merge/blacklist trace events.
    events: EventSink,
    /// Reusable scan buffers for [`Engine::refresh_round`].
    scan_scratch: ScanScratch,
    /// Reusable sorted removed-unit buffer for the feasibility tests.
    removed_buf: Vec<UnitKey>,
    /// Reusable descent/cover/removal buffers for [`Engine::attempt_cgs`].
    cgs_scratch: CgsScratch,
    /// Polled once per merge iteration; a tripped token stops the run.
    cancel: CancelToken,
}

fn pair_key(a: GifKey, b: GifKey) -> (GifKey, GifKey) {
    (a.min(b), a.max(b))
}

/// One entry of the persistently-sorted unit list.
struct PackEntry {
    key: UnitKey,
    unit: Arc<Unit>,
    record: PackRecord,
}

/// The best allocation seen so far, as its packing *recipe* — which
/// broker got which units, in placement order. [`materialize_recipe`]
/// turns it into an [`Allocation`] once, when the run ends, instead of
/// after every improvement.
struct BestAlloc {
    brokers: usize,
    picks: Vec<(BrokerId, Vec<Arc<Unit>>)>,
}

/// Streams the sorted unit list with `removed` keys filtered out and
/// one trial merged unit spliced in at its [`pack_order`] position,
/// each unit with a tag the caller chose (its position in the list).
/// Ties go to the survivors, matching a stable sort over survivors
/// chained with the merged unit last (the order is strict across a live
/// pool anyway — unit subscription lists are disjoint and non-empty).
struct MergedOrder<'u, I: Iterator<Item = (usize, &'u Unit)>> {
    inner: std::iter::Peekable<I>,
    merged: Option<(usize, &'u Unit)>,
}

impl<'u, I: Iterator<Item = (usize, &'u Unit)>> Iterator for MergedOrder<'u, I> {
    type Item = (usize, &'u Unit);

    fn next(&mut self) -> Option<Self::Item> {
        match self.merged {
            Some((_, m)) => match self.inner.peek() {
                Some((_, u)) if pack_order(u, m) != std::cmp::Ordering::Greater => {
                    self.inner.next()
                }
                _ => self.merged.take(),
            },
            None => self.inner.next(),
        }
    }
}

/// Reusable working memory for [`Engine::scan_partner`]: the poset BFS
/// frontier and visited set plus the pair closenesses computed so far
/// in the round (cache misses, inserted into the cache after the
/// round's last scan). The engine owns one, so consecutive scans reuse
/// the same heap buffers instead of allocating per scan — the
/// pair-evaluation path stays allocation-free in steady state.
#[derive(Debug, Default)]
struct ScanScratch {
    frontier: Vec<(GifKey, f64)>,
    visited: BTreeSet<GifKey>,
    /// `(g, candidate, closeness)` triples computed by this round's
    /// scans, in scan order.
    computed: Vec<(GifKey, GifKey, f64)>,
    /// Measure evaluations performed by this round's scans.
    computations: u64,
    /// Per-scan memo of tile-summary disjointness, keyed by bucket —
    /// one summary intersect per touched tile per scan.
    tile_state: BTreeMap<u64, bool>,
    /// Whole-tile summary checks performed by this round's scans.
    tile_checks: u64,
    /// Frontier candidates rejected tile-at-a-time.
    tile_pruned: u64,
}

/// Reusable working memory for [`Engine::attempt_cgs`]: the poset
/// descent (frontier + visited set), the descendant worklist, the
/// greedy cover selection, and the removal list handed to
/// [`Engine::commit`]. CGS attempts run once per intersecting pair, so
/// reusing these buffers keeps the pair-evaluation path free of
/// per-attempt allocations.
#[derive(Debug, Default)]
struct CgsScratch {
    /// Descendants of the parent GIF, consumed by the greedy cover.
    remaining: Vec<GifKey>,
    frontier: Vec<GifKey>,
    seen: BTreeSet<GifKey>,
    /// The selected cover, in selection order.
    cgs: Vec<GifKey>,
    /// `(gif, unit)` pairs removed by the committed merge.
    removals: Vec<(GifKey, UnitKey)>,
}

impl Engine {
    /// Initialization (paper §IV-C): group the units into the GIF pool,
    /// then allocate them without clustering on the engine's own packer
    /// — abort when even that fails — and mark every GIF stale for the
    /// first partner scan. The baseline seeds `best`, which keeps the
    /// fallback guarantee. Both the pool build and the baseline pack
    /// poll the cancel token once per unit.
    fn new(
        builder: &CramBuilder,
        input: &AllocationInput,
        units: Vec<Unit>,
    ) -> Result<Self, AllocError> {
        let subscriptions = units.iter().map(Unit::sub_count).sum();
        let pool = Pool::build(units, builder.tile, &builder.cancel)?;
        let mut packer = FastPacker::new(&input.brokers, &input.publishers);
        // The order BIN PACKING sorts its units into: the pool holds
        // them in input order, and the sort is stable.
        let mut order: Vec<PackEntry> = pool
            .units
            .iter()
            .map(|(&key, u)| PackEntry {
                key,
                unit: Arc::clone(u),
                record: packer.record(u),
            })
            .collect();
        order.sort_by(|a, b| pack_order(&a.unit, &b.unit));
        packer.pack_polled(order.iter().map(|e| &e.record), &builder.cancel, |at| {
            order[at].unit.subs.clone()
        })?;
        let best = BestAlloc {
            brokers: packer.used_brokers(),
            picks: packer
                .picks()
                .map(|(broker, at)| {
                    let units = at.iter().map(|&i| Arc::clone(&order[i].unit)).collect();
                    (broker, units)
                })
                .collect(),
        };
        Ok(Engine {
            metric: builder.metric,
            one_to_many: builder.one_to_many,
            poset_pruning: builder.poset_pruning,
            partners: BTreeMap::new(),
            stale: pool.gifs.keys().copied().collect(),
            blacklist: BTreeSet::new(),
            cache: PairCache::default(),
            stats: CramStats {
                subscriptions,
                initial_gifs: pool.gifs.len(),
                ..CramStats::default()
            },
            best,
            packer,
            order,
            merged_record: PackRecord::default(),
            packs: 0,
            packs_failed: 0,
            pool,
            tile_checks: 0,
            tile_pruned: 0,
            scan_timer: builder.telemetry.histogram(&names::CRAM_SCAN_US),
            scan_scratch: ScanScratch::default(),
            removed_buf: Vec::new(),
            cgs_scratch: CgsScratch::default(),
            events: builder.telemetry.ring(&names::CRAM_RING),
            cancel: builder.cancel.clone(),
        })
    }

    /// Runs the merge iteration to fixpoint. Returns `false` when the
    /// cancellation token tripped before convergence (one poll per
    /// merge iteration bounds the stop latency to a single
    /// refresh/attempt round).
    fn run(&mut self) -> bool {
        loop {
            if self.cancel.is_cancelled_hot() {
                return false;
            }
            if self.step().is_none() {
                return true;
            }
        }
    }

    /// One merge iteration: refresh the stale partners, attempt the
    /// globally closest pair, blacklist it on failure. Returns the pair
    /// and whether its merge was committed, or `None` when no
    /// positive-closeness pair remains.
    fn step(&mut self) -> Option<(GifKey, GifKey, bool)> {
        self.refresh_partners();
        let (g, h, _closeness) = self.global_best()?;
        self.stats.iterations += 1;
        let committed = self.attempt(g, h);
        if committed {
            self.events
                .emit_with(&names::GIF_MERGE, || format!("g{g}+g{h}"));
        } else {
            self.events
                .emit_with(&names::PAIR_BLACKLIST, || format!("g{g}+g{h}"));
            self.blacklist.insert(pair_key(g, h));
            self.stats.failed_merges += 1;
            self.stale.insert(g);
            if g != h {
                self.stale.insert(h);
            }
        }
        Some((g, h, committed))
    }

    /// Recomputes the cached partner of every stale GIF in one
    /// [`Engine::refresh_round`]; GIFs merged away since they were
    /// marked drop their cached partner instead.
    fn refresh_partners(&mut self) {
        let mut stale = std::mem::take(&mut self.stale);
        stale.retain(|g| {
            let live = self.pool.gifs.contains_key(g);
            if !live {
                self.partners.remove(g);
            }
            live
        });
        if !stale.is_empty() {
            self.refresh_round(stale);
        }
    }

    /// One refresh round: scans each of `gifs` for its closest partner,
    /// in order. Every scan reads the pair cache as it stood when the
    /// round began; the closenesses the round computes go in only after
    /// its last scan. Which pairs hit the cache — and so
    /// `closeness_computations` — depends on that rule.
    fn refresh_round(&mut self, gifs: impl IntoIterator<Item = GifKey>) {
        self.pool.tiles.rebuild(&self.pool.gifs);
        let mut scratch = std::mem::take(&mut self.scan_scratch);
        for g in gifs {
            let partner = self.scan_partner(&mut scratch, g);
            self.partners.insert(g, partner);
        }
        for (g, cand, c) in scratch.computed.drain(..) {
            self.cache.insert(g, cand, c);
        }
        self.stats.closeness_computations += std::mem::take(&mut scratch.computations);
        self.tile_checks += std::mem::take(&mut scratch.tile_checks);
        self.tile_pruned += std::mem::take(&mut scratch.tile_pruned);
        self.scan_scratch = scratch;
    }

    /// Whole-tile rejection applies only on the poset-pruned search: a
    /// disjoint summary proves member closeness is zero because the
    /// metrics derive from pair cardinalities.
    fn use_tiles(&self) -> bool {
        self.poset_pruning && self.pool.tiles.enabled() && self.metric.supports_empty_pruning()
    }

    /// Finds the closest non-blacklisted partner of `g` (optimization 2
    /// when the metric allows). The pair cache is only read here: computed
    /// closenesses and the evaluation tally accumulate in `scratch` for
    /// [`Engine::refresh_round`] to apply.
    ///
    /// Ties break to the lowest candidate key, matching the scan order
    /// over the `BTreeMap` pool.
    fn scan_partner(&self, scratch: &mut ScanScratch, g: GifKey) -> Option<(GifKey, f64)> {
        // The timer guard reads the clock only when telemetry is on, and it
        // cannot influence the outcome.
        let timer = self.scan_timer.start_timer();
        let (pool, metric, blacklist, cache) =
            (&self.pool, self.metric, &self.blacklist, &self.cache);
        let use_tiles = self.use_tiles();
        let g_profile = &pool.gifs[&g].profile;
        let ScanScratch {
            frontier,
            visited,
            computed,
            computations,
            tile_state,
            tile_checks,
            tile_pruned,
        } = scratch;
        let mut eval = |cand: GifKey| -> f64 {
            if let Some(c) = cache.get(g, cand) {
                return c;
            }
            *computations += 1;
            // One batch popcount pass through the kernel, then scalar
            // arithmetic.
            let c = metric.from_cardinalities(pool.kernel.pair_cardinalities(g, cand));
            computed.push((g, cand, c));
            c
        };
        let mut best: Option<(GifKey, f64)> = None;
        let mut consider = |cand: GifKey, c: f64| {
            if c <= 0.0 || blacklist.contains(&pair_key(g, cand)) {
                return;
            }
            if cand == g && pool.gifs[&g].units.len() < 2 {
                return;
            }
            match best {
                Some((bk, bc)) if bc > c || (bc == c && bk <= cand) => {}
                _ => best = Some((cand, c)),
            }
        };

        if self.poset_pruning && metric.supports_empty_pruning() {
            // BFS from the roots; prune empty subtrees and stop
            // descending once closeness decreases.
            frontier.clear();
            frontier.extend(pool.poset.roots().map(|r| (r, 0.0)));
            visited.clear();
            tile_state.clear();
            let mut i = 0;
            while i < frontier.len() {
                let (n, parent_c) = frontier[i];
                i += 1;
                if !visited.insert(n) {
                    continue;
                }
                if use_tiles {
                    let b = pool.tiles.bucket_of(n);
                    let disjoint = match tile_state.get(&b) {
                        Some(&d) => d,
                        None => {
                            *tile_checks += 1;
                            let d = pool
                                .tiles
                                .summary(b)
                                .is_some_and(|s| g_profile.intersect_count(s) == 0);
                            tile_state.insert(b, d);
                            d
                        }
                    };
                    if disjoint {
                        // Whole-tile rejection: the summary covers every
                        // member of the tile, so a disjoint summary proves
                        // closeness 0 for this candidate — exactly the
                        // `c == 0.0` subtree prune below, minus the eval.
                        *tile_pruned += 1;
                        continue;
                    }
                }
                let c = eval(n);
                if c == 0.0 {
                    continue; // empty relationship: prune subtree
                }
                consider(n, c);
                if c >= parent_c {
                    frontier.extend(pool.poset.children(n).map(|ch| (ch, c)));
                }
            }
        } else {
            for &cand in pool.gifs.keys() {
                let c = eval(cand);
                consider(cand, c);
            }
        }
        timer.stop();
        best
    }

    fn global_best(&mut self) -> Option<(GifKey, GifKey, f64)> {
        loop {
            let best = self
                .partners
                .iter()
                .filter_map(|(&g, p)| p.map(|(h, c)| (g, h, c)))
                .max_by(|a, b| a.2.total_cmp(&b.2).then(b.0.cmp(&a.0)))?;
            let (g, h, _) = best;
            // Validate staleness: partner may have been merged away or
            // blacklisted since it was cached.
            let valid = self.pool.gifs.contains_key(&h)
                && !self.blacklist.contains(&pair_key(g, h))
                && (g != h || self.pool.gifs[&g].units.len() >= 2);
            if valid {
                return Some(best);
            }
            // Revalidation is a refresh round of one GIF.
            self.refresh_round([g]);
            if self.partners[&g].is_none() {
                self.partners.remove(&g);
                if self.partners.is_empty() {
                    return None;
                }
            }
        }
    }

    /// Closeness of two ad-hoc profiles (CGS unions and the like) —
    /// these never live in the kernel, so they take the per-profile
    /// pass here (same `f64` by construction).
    fn closeness(&mut self, a: &SubscriptionProfile, b: &SubscriptionProfile) -> f64 {
        self.stats.closeness_computations += 1;
        self.metric.closeness(a, b)
    }

    /// Cache-aware closeness between two live GIFs' profiles.
    fn pair_closeness(&mut self, g: GifKey, h: GifKey) -> f64 {
        if let Some(c) = self.cache.get(g, h) {
            return c;
        }
        self.stats.closeness_computations += 1;
        let c = self
            .metric
            .from_cardinalities(self.pool.kernel.pair_cardinalities(g, h));
        self.cache.insert(g, h, c);
        c
    }

    /// Tests whether the pool with `removed` units replaced by `merged`
    /// still allocates; on success records the allocation when it is at
    /// least as good (broker count) as the best seen — later ties win
    /// because more clustering means less duplicated traffic. Keeping
    /// the best rather than merely the last successful scheme preserves
    /// the paper's fallback guarantee while making CRAM never allocate
    /// more brokers than plain BIN PACKING.
    ///
    /// `removed` must be sorted ascending (the callers reuse
    /// [`Engine::removed_buf`] for it).
    fn test_and_record(&mut self, removed: &[UnitKey], merged: &Unit) -> bool {
        self.packer.record_into(merged, &mut self.merged_record);
        let (order, merged_record) = (&self.order, &self.merged_record);
        // The merged unit's tag is one past the list.
        let live = order
            .iter()
            .enumerate()
            .filter(|(_, e)| removed.binary_search(&e.key).is_err())
            .map(|(i, e)| (i, &*e.unit));
        let stream = MergedOrder {
            inner: live.peekable(),
            merged: Some((order.len(), merged)),
        };
        let records = stream.map(|(i, _)| (i, order.get(i).map_or(merged_record, |e| &e.record)));
        self.packs += 1;
        if self.packer.pack(records).is_err() {
            self.packs_failed += 1;
            return false;
        }
        let used = self.packer.used_brokers();
        if used <= self.best.brokers {
            // Units are taken by handle only now; the merged unit is
            // wrapped once, if it was placed at all.
            let mut merged_unit: Option<Arc<Unit>> = None;
            let mut handle = |i: usize| match order.get(i) {
                Some(e) => Arc::clone(&e.unit),
                None => Arc::clone(merged_unit.get_or_insert_with(|| Arc::new(merged.clone()))),
            };
            self.best.brokers = used;
            self.best.picks.clear();
            for (broker, at) in self.packer.picks() {
                let units = at.iter().map(|&i| handle(i)).collect();
                self.best.picks.push((broker, units));
            }
        }
        true
    }

    /// Commits a merge: removes `removals` (gif, unit) pairs, inserts
    /// the merged unit, and invalidates affected partner and
    /// pair-closeness caches. Only GIFs merged away (deleted) lose
    /// their cache entries — a surviving GIF's profile is unchanged by
    /// losing a unit, so its cached closenesses remain exact.
    fn commit(&mut self, removals: impl IntoIterator<Item = (GifKey, UnitKey)>, merged: Unit) {
        let mut touched: BTreeSet<GifKey> = BTreeSet::new();
        for (gk, uk) in removals {
            let (unit, gif_deleted) = self.pool.remove_unit(gk, uk);
            match self.order.binary_search_by(|e| pack_order(&e.unit, &unit)) {
                Ok(pos) => {
                    self.order.remove(pos);
                }
                // Unreachable under the strict pack order; fall
                // back to dropping by key to stay safe.
                Err(_) => self.order.retain(|e| e.key != uk),
            }
            if gif_deleted {
                self.partners.remove(&gk);
                self.cache.invalidate(gk);
                // Any GIF whose cached partner was gk must recompute.
                // `partners` and `stale` are disjoint fields, so this
                // marks them directly without collecting.
                for (&k, p) in &self.partners {
                    if matches!(p, Some((h, _)) if *h == gk) {
                        self.stale.insert(k);
                    }
                }
            } else {
                touched.insert(gk);
            }
        }
        let (new_uk, new_gif) = self.pool.add_unit(merged);
        if let Some(u) = self.pool.units.get(&new_uk) {
            let pos = self
                .order
                .binary_search_by(|e| pack_order(&e.unit, u))
                .unwrap_or_else(|p| p);
            self.order.insert(
                pos,
                PackEntry {
                    key: new_uk,
                    unit: Arc::clone(u),
                    record: self.packer.record(u),
                },
            );
        }
        touched.insert(new_gif);
        self.stale.extend(touched);
        self.stats.merges += 1;
    }

    /// One clustering attempt on the pair `(g, h)`; returns `true` when
    /// a merge was committed.
    fn attempt(&mut self, g: GifKey, h: GifKey) -> bool {
        if g == h {
            return self.attempt_equal(g);
        }
        // One kernel pass classifies the pair — same decision procedure
        // as `SubscriptionProfile::relationship`.
        let rel = Relation::from_cardinalities(self.pool.kernel.pair_cardinalities(g, h));
        match rel {
            Relation::Equal => self.attempt_equal(g),
            Relation::Superset => self.attempt_covering(g, h),
            Relation::Subset => self.attempt_covering(h, g),
            Relation::Intersect => {
                if self.one_to_many && (self.attempt_cgs(g, h) || self.attempt_cgs(h, g)) {
                    self.stats.one_to_many_merges += 1;
                    return true;
                }
                self.attempt_pairwise(g, h)
            }
            Relation::Empty => false,
        }
    }

    /// Equal relationship: binary-search the largest allocatable cluster
    /// of the GIF's own units (lightest first).
    #[expect(
        clippy::expect_used,
        reason = "the early return above guarantees at least two units"
    )]
    fn attempt_equal(&mut self, g: GifKey) -> bool {
        let units = self.pool.gifs[&g].units.clone();
        if units.len() < 2 {
            return false;
        }
        let merged_of = |pool: &Pool, k: usize| -> Unit {
            let mut it = units[..k].iter();
            let first =
                (*pool.units[it.next().expect("attempt_equal requires >= 2 units")]).clone();
            it.fold(first, |acc, uk| acc.merge(&pool.units[uk]))
        };
        let feasible = |engine: &mut Self, k: usize| -> bool {
            let mut removed = std::mem::take(&mut engine.removed_buf);
            removed.clear();
            removed.extend(units[..k].iter().copied());
            removed.sort_unstable();
            let m = merged_of(&engine.pool, k);
            let ok = engine.test_and_record(&removed, &m);
            engine.removed_buf = removed;
            ok
        };
        if !feasible(self, 2) {
            return false;
        }
        let (mut lo, mut hi) = (2usize, units.len());
        while lo < hi {
            let mid = (lo + hi).div_ceil(2);
            if feasible(self, mid) {
                lo = mid;
            } else {
                hi = mid - 1;
            }
        }
        // The last successful probe was exactly size `lo` — probes only
        // raise `lo` on success and the pool is frozen during the search
        // — so `best` already reflects the pool committed below.
        let k = lo;
        let merged = merged_of(&self.pool, k);
        self.commit(units[..k].iter().map(|&uk| (g, uk)), merged);
        true
    }

    /// Superset/subset relationship: cluster the lightest unit of the
    /// covering GIF with a binary-searched prefix of the covered GIF's
    /// units (sorted ascending by bandwidth).
    fn attempt_covering(&mut self, cover: GifKey, covered: GifKey) -> bool {
        let cover_unit = self.pool.lightest(cover);
        let covered_units = self.pool.gifs[&covered].units.clone();
        let merged_of = |pool: &Pool, m: usize| -> Unit {
            covered_units[..m]
                .iter()
                .fold((*pool.units[&cover_unit]).clone(), |acc, uk| {
                    acc.merge(&pool.units[uk])
                })
        };
        let feasible = |engine: &mut Self, m: usize| -> bool {
            let mut removed = std::mem::take(&mut engine.removed_buf);
            removed.clear();
            removed.extend(covered_units[..m].iter().copied());
            removed.push(cover_unit);
            removed.sort_unstable();
            let u = merged_of(&engine.pool, m);
            let ok = engine.test_and_record(&removed, &u);
            engine.removed_buf = removed;
            ok
        };
        if !feasible(self, 1) {
            return false;
        }
        let (mut lo, mut hi) = (1usize, covered_units.len());
        while lo < hi {
            let mid = (lo + hi).div_ceil(2);
            if feasible(self, mid) {
                lo = mid;
            } else {
                hi = mid - 1;
            }
        }
        // As in `attempt_equal`: the last successful probe was size `lo`.
        let m = lo;
        let merged = merged_of(&self.pool, m);
        self.commit(
            covered_units[..m]
                .iter()
                .map(|&uk| (covered, uk))
                .chain(std::iter::once((cover, cover_unit))),
            merged,
        );
        true
    }

    /// Pairwise intersect merge: lightest unit from each GIF.
    fn attempt_pairwise(&mut self, g: GifKey, h: GifKey) -> bool {
        let ug = self.pool.lightest(g);
        let uh = self.pool.lightest(h);
        let merged = self.pool.units[&ug].merge(&self.pool.units[&uh]);
        let mut removed = std::mem::take(&mut self.removed_buf);
        removed.clear();
        removed.extend([ug, uh]);
        removed.sort_unstable();
        let ok = self.test_and_record(&removed, &merged);
        self.removed_buf = removed;
        if !ok {
            return false;
        }
        self.commit([(g, ug), (h, uh)], merged);
        true
    }

    /// Optimization 3: try clustering `g` with a greedy set-cover
    /// selection of its covered GIFs (the CGS), bounded by the load of
    /// the original candidate pair `(g, h)`. A thin wrapper that swaps
    /// the reusable CGS buffers in and out around the real work, so the
    /// descent/cover/removal vectors are not reallocated per attempt.
    fn attempt_cgs(&mut self, g: GifKey, h: GifKey) -> bool {
        let mut scratch = std::mem::take(&mut self.cgs_scratch);
        let ok = self.attempt_cgs_with(g, h, &mut scratch);
        self.cgs_scratch = scratch;
        ok
    }

    fn attempt_cgs_with(&mut self, g: GifKey, h: GifKey, scratch: &mut CgsScratch) -> bool {
        // Covered GIFs = poset descendants of g. `remaining` doubles as
        // the descendant accumulator and the set-cover worklist.
        let CgsScratch {
            remaining,
            frontier,
            seen,
            cgs,
            removals,
        } = scratch;
        remaining.clear();
        frontier.clear();
        seen.clear();
        cgs.clear();
        removals.clear();
        frontier.extend(self.pool.poset.children(g));
        while let Some(n) = frontier.pop() {
            if seen.insert(n) {
                remaining.push(n);
                frontier.extend(self.pool.poset.children(n));
            }
        }
        if remaining.is_empty() {
            return false;
        }
        // A CGS takes at most every descendant, and removals one more
        // entry for the parent itself.
        cgs.reserve(remaining.len());
        removals.reserve(remaining.len() + 1);

        let g_unit = self.pool.lightest(g);
        let budget = self.pool.units[&g_unit].out_bandwidth
            + self.pool.units[&self.pool.lightest(h)].out_bandwidth;

        // Greedy set cover over the descendants' profiles: repeatedly
        // take the GIF contributing the most bits not already in the
        // CGS, until the next addition would exceed the pair's load.
        // (`SubscriptionProfile::new` is an empty map + capacity — it
        // does not allocate until bits are recorded into it.)
        let mut cgs_union = SubscriptionProfile::new();
        let mut total_bw = self.pool.units[&g_unit].out_bandwidth;
        loop {
            let mut best: Option<(usize, usize)> = None; // (new_bits, idx)
            for (i, &d) in remaining.iter().enumerate() {
                let p = &self.pool.gifs[&d].profile;
                let new_bits = cgs_union.union_count(p) - cgs_union.count_ones();
                if new_bits > 0 {
                    match best {
                        Some((nb, _)) if nb >= new_bits => {}
                        _ => best = Some((new_bits, i)),
                    }
                }
            }
            let Some((_, i)) = best else { break };
            let d = remaining.swap_remove(i);
            let d_unit = self.pool.lightest(d);
            let bw = self.pool.units[&d_unit].out_bandwidth;
            if total_bw + bw > budget {
                break; // terminating condition: fair load comparison
            }
            total_bw += bw;
            cgs_union.or_assign(&self.pool.gifs[&d].profile);
            cgs.push(d);
        }
        if cgs.is_empty() {
            return false;
        }

        // The CGS is valid only when its closeness with the parent GIF
        // beats the original pair's closeness. The (g, h) value is a
        // GIF pair, so it is served from (and fills) the pair cache;
        // the CGS union is an ad-hoc profile and is measured directly.
        let g_profile = self.pool.gifs[&g].profile.clone();
        let pair_c = self.pair_closeness(g, h);
        let cgs_c = self.closeness(&g_profile, &cgs_union);
        if cgs_c <= pair_c {
            return false;
        }

        // Merge the parent's lightest unit with each CGS GIF's lightest.
        removals.push((g, g_unit));
        let mut merged = (*self.pool.units[&g_unit]).clone();
        for &d in cgs.iter() {
            let uk = self.pool.lightest(d);
            merged = merged.merge(&self.pool.units[&uk]);
            removals.push((d, uk));
        }
        let mut removed = std::mem::take(&mut self.removed_buf);
        removed.clear();
        removed.extend(removals.iter().map(|(_, uk)| *uk));
        removed.sort_unstable();
        let ok = self.test_and_record(&removed, &merged);
        self.removed_buf = removed;
        if !ok {
            return false;
        }
        self.commit(removals.drain(..), merged);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capacity::oracle::RefPacker;
    use crate::model::{BrokerSpec, LinearFn, SubscriptionEntry};
    use greenps_profile::{PublisherProfile, PublisherTable, ShiftingBitVector};
    use greenps_pubsub::ids::{AdvId, BrokerId, MsgId, SubId};
    use greenps_pubsub::Filter;
    use proptest::prelude::*;

    fn never() -> CancelToken {
        CancelToken::never()
    }

    fn publishers() -> PublisherTable {
        [PublisherProfile::new(
            AdvId::new(1),
            100.0,
            100_000.0,
            MsgId::new(99),
        )]
        .into_iter()
        .collect()
    }

    fn entry(id: u64, ids: &[u64]) -> SubscriptionEntry {
        let mut v = ShiftingBitVector::starting_at(100, 0);
        for &x in ids {
            v.record(x);
        }
        let mut p = SubscriptionProfile::with_capacity(100);
        p.insert_vector(AdvId::new(1), v);
        SubscriptionEntry::new(SubId::new(id), Filter::new(), p)
    }

    fn brokers(n: u64, bw: f64) -> Vec<BrokerSpec> {
        (0..n)
            .map(|i| {
                BrokerSpec::new(
                    BrokerId::new(i),
                    format!("b{i}"),
                    LinearFn::new(0.0001, 0.0),
                    bw,
                )
            })
            .collect()
    }

    fn run(input: &AllocationInput, metric: ClosenessMetric) -> (Allocation, CramStats) {
        CramBuilder::new(metric).run(input).unwrap()
    }

    /// 12 identical subscriptions cluster down to a handful of brokers.
    #[test]
    fn equal_subscriptions_collapse() {
        let subs: Vec<SubscriptionEntry> = (0..12)
            .map(|i| entry(i, &(0..20).collect::<Vec<_>>()))
            .collect();
        // Each sub needs 20 kB/s; brokers hold 100 kB/s → ≥3 brokers
        // minimum (12×20/100 = 2.4 → but strict inequality → 3).
        let input = AllocationInput {
            brokers: brokers(12, 100_000.0),
            subscriptions: subs,
            publishers: publishers(),
        };
        let baseline = crate::sorting::bin_packing(&input).unwrap().broker_count();
        for metric in ClosenessMetric::ALL {
            let (alloc, stats) = run(&input, metric);
            assert_eq!(alloc.sub_count(), 12, "{metric}");
            assert!(
                alloc.broker_count() <= baseline,
                "{metric}: {} vs baseline {}",
                alloc.broker_count(),
                baseline
            );
            assert_eq!(stats.initial_gifs, 1, "{metric}: all profiles equal");
            assert!(stats.merges > 0, "{metric}");
        }
    }

    /// Two disjoint interest groups: clustering stays within groups.
    #[test]
    fn disjoint_groups_cluster_independently() {
        let mut subs = Vec::new();
        for i in 0..6 {
            subs.push(entry(i, &(0..10).collect::<Vec<_>>()));
        }
        for i in 6..12 {
            subs.push(entry(i, &(50..60).collect::<Vec<_>>()));
        }
        let input = AllocationInput {
            brokers: brokers(12, 80_000.0),
            subscriptions: subs,
            publishers: publishers(),
        };
        let (alloc, _) = run(&input, ClosenessMetric::Ios);
        assert_eq!(alloc.sub_count(), 12);
        // Each group needs 60 kB/s total → one broker per group.
        assert_eq!(alloc.broker_count(), 2);
        // No broker mixes the two interest groups (input rate 10 msg/s
        // each — mixing would read 20).
        for load in &alloc.loads {
            assert!(load.in_rate < 10.5, "groups were mixed: {}", load.in_rate);
        }
    }

    /// CRAM with overlapping subscriptions beats BIN PACKING on message
    /// rate (input union) even when broker counts tie.
    #[test]
    fn clustering_reduces_total_input_rate() {
        let mut subs = Vec::new();
        // 4 interest groups of 5 subs each, pairwise disjoint.
        for group in 0..4u64 {
            for i in 0..5u64 {
                let base = group * 25;
                let ids: Vec<u64> = (base..base + 20).collect();
                subs.push(entry(group * 5 + i, &ids));
            }
        }
        let input = AllocationInput {
            brokers: brokers(10, 220_000.0),
            subscriptions: subs,
            publishers: publishers(),
        };
        let bp = crate::sorting::bin_packing(&input).unwrap();
        let (cr, _) = run(&input, ClosenessMetric::Iou);
        let total_in = |a: &Allocation| a.loads.iter().map(|l| l.in_rate).sum::<f64>();
        assert!(
            total_in(&cr) <= total_in(&bp) + 1e-9,
            "cram {} vs bp {}",
            total_in(&cr),
            total_in(&bp)
        );
        assert!(cr.broker_count() <= bp.broker_count());
    }

    #[test]
    fn infeasible_baseline_errors() {
        let input = AllocationInput {
            brokers: brokers(1, 1_000.0),
            subscriptions: vec![entry(0, &(0..50).collect::<Vec<_>>())],
            publishers: publishers(),
        };
        assert!(CramBuilder::from_config(CramConfig::default())
            .run(&input)
            .is_err());
    }

    #[test]
    fn empty_subscription_pool_is_fine() {
        let input = AllocationInput {
            brokers: brokers(3, 1e6),
            subscriptions: vec![],
            publishers: publishers(),
        };
        let (alloc, stats) = CramBuilder::new(ClosenessMetric::Ios).run(&input).unwrap();
        assert_eq!(alloc.broker_count(), 0);
        assert_eq!(stats.initial_gifs, 0);
    }

    #[test]
    fn gif_grouping_reduces_pool() {
        // 30 subscriptions, only 3 distinct profiles.
        let subs: Vec<SubscriptionEntry> = (0..30)
            .map(|i| {
                let group = i % 3;
                let ids: Vec<u64> = (group * 30..group * 30 + 10).collect();
                entry(i, &ids)
            })
            .collect();
        let input = AllocationInput {
            brokers: brokers(30, 60_000.0),
            subscriptions: subs,
            publishers: publishers(),
        };
        let (_, stats) = run(&input, ClosenessMetric::Intersect);
        assert_eq!(stats.initial_gifs, 3);
        assert_eq!(stats.subscriptions, 30);
    }

    #[test]
    fn pruning_reduces_closeness_computations() {
        // Many small disjoint groups: pruned search skips empty
        // subtrees, the unpruned one computes closeness with everyone.
        let subs: Vec<SubscriptionEntry> = (0..40)
            .map(|i| {
                let group = i % 8;
                let ids: Vec<u64> = (group * 12..group * 12 + 6 + (i % 3)).collect();
                entry(i, &ids)
            })
            .collect();
        let input = AllocationInput {
            brokers: brokers(40, 400_000.0),
            subscriptions: subs,
            publishers: publishers(),
        };
        let (_, pruned) = CramBuilder::new(ClosenessMetric::Ios).run(&input).unwrap();
        let (_, full) = CramBuilder::new(ClosenessMetric::Ios)
            .poset_pruning(false)
            .run(&input)
            .unwrap();
        assert!(
            pruned.closeness_computations < full.closeness_computations,
            "pruned {} vs full {}",
            pruned.closeness_computations,
            full.closeness_computations
        );
    }

    #[test]
    fn allocations_always_satisfy_capacity() {
        let subs: Vec<SubscriptionEntry> = (0..25)
            .map(|i| {
                let ids: Vec<u64> = (i..i + 15).map(|x| (x * 3) % 100).collect();
                entry(i, &ids)
            })
            .collect();
        let input = AllocationInput {
            brokers: brokers(8, 150_000.0),
            subscriptions: subs,
            publishers: publishers(),
        };
        for metric in ClosenessMetric::ALL {
            let (alloc, _) = run(&input, metric);
            assert_eq!(alloc.sub_count(), 25, "{metric}");
            for load in &alloc.loads {
                let spec = input.brokers.iter().find(|b| b.id == load.broker).unwrap();
                assert!(load.out_bw_used < spec.out_bandwidth, "{metric}");
                assert!(
                    load.in_rate <= spec.matching_delay.max_rate(load.sub_count()) + 1e-9,
                    "{metric}"
                );
            }
        }
    }

    #[test]
    fn blacklisted_pairs_are_not_retried() {
        // Two heavy intersecting groups whose merge cannot fit any
        // broker: CRAM must terminate (blacklist) rather than loop.
        let mut subs = Vec::new();
        for i in 0..4 {
            subs.push(entry(i, &(0..60).collect::<Vec<_>>()));
        }
        for i in 4..8 {
            subs.push(entry(i, &(40..100).collect::<Vec<_>>()));
        }
        // Each sub needs 60 kB/s; brokers hold 130 kB/s → max two subs
        // per broker; a 3-sub cluster (180) can never fit.
        let input = AllocationInput {
            brokers: brokers(8, 130_000.0),
            subscriptions: subs,
            publishers: publishers(),
        };
        let (alloc, stats) = CramBuilder::new(ClosenessMetric::Intersect)
            .run(&input)
            .unwrap();
        assert_eq!(alloc.sub_count(), 8);
        assert!(stats.failed_merges > 0, "some merges must fail: {stats:?}");
        assert!(stats.iterations < 1000, "terminates promptly");
    }

    #[test]
    fn one_to_many_prefers_covered_sets() {
        // A broad GIF covering several narrow ones plus an intersecting
        // sibling — the Figure 3 scenario. With one-to-many enabled, at
        // least one CGS merge should fire.
        let mut subs = Vec::new();
        subs.push(entry(0, &(0..36).collect::<Vec<_>>())); // S1 broad
        subs.push(entry(1, &(28..52).collect::<Vec<_>>())); // S2 intersecting
                                                            // covered 4-bit blocks of S1
        for (i, base) in [0u64, 8, 16].iter().enumerate() {
            subs.push(entry(2 + i as u64, &(*base..base + 4).collect::<Vec<_>>()));
        }
        // covered 1-bit subs of S2
        for i in 0..4u64 {
            subs.push(entry(5 + i, &[40 + i]));
        }
        let input = AllocationInput {
            brokers: brokers(9, 150_000.0),
            subscriptions: subs,
            publishers: publishers(),
        };
        let (_, with) = CramBuilder::new(ClosenessMetric::Ios).run(&input).unwrap();
        assert!(with.one_to_many_merges > 0, "stats: {with:?}");
    }

    /// Builds a ready-to-run [`Engine`] the way `run_units` does, for
    /// tests that need to poke at engine internals.
    fn engine_for(input: &AllocationInput, metric: ClosenessMetric) -> Engine {
        let units = crate::sorting::units_from_input(input);
        Engine::new(&CramBuilder::new(metric), input, units).unwrap()
    }

    /// CRAM with an explicit tile width (`0` scans untiled).
    fn tiled(metric: ClosenessMetric, tile: usize) -> CramBuilder {
        let mut builder = CramBuilder::new(metric);
        builder.tile = tile;
        builder
    }

    /// A token tripped before the run aborts in the baseline packing,
    /// before any engine work starts.
    #[test]
    fn pre_cancelled_token_aborts_the_run() {
        let input = AllocationInput {
            brokers: brokers(4, 100_000.0),
            subscriptions: (0..8).map(|i| entry(i, &[i, i + 1])).collect(),
            publishers: publishers(),
        };
        let token = CancelToken::new();
        token.cancel();
        let err = CramBuilder::new(ClosenessMetric::Ios)
            .cancel_token(&token)
            .run(&input)
            .unwrap_err();
        assert_eq!(err.to_string(), AllocError::Cancelled.to_string());
    }

    /// The merge loop itself polls the token: a cancellation tripped
    /// after engine construction stops the iteration at the next
    /// loop-top poll instead of running to convergence.
    #[test]
    fn merge_loop_polls_the_cancel_token() {
        let input = AllocationInput {
            brokers: brokers(4, 100_000.0),
            subscriptions: vec![
                entry(0, &(0..10).collect::<Vec<_>>()),
                entry(1, &(5..15).collect::<Vec<_>>()),
            ],
            publishers: publishers(),
        };
        let mut engine = engine_for(&input, ClosenessMetric::Ios);
        engine.cancel.cancel();
        assert!(!engine.run(), "tripped token stops the merge loop");
        assert_eq!(engine.stats.merges, 0, "no merge ran after the trip");
    }

    /// The pool build polls once per unit: a token that trips on its
    /// first poll stops it before the first unit is added.
    #[test]
    fn pool_build_polls_the_cancel_token() {
        let input = AllocationInput {
            brokers: brokers(4, 100_000.0),
            subscriptions: (0..8).map(|i| entry(i, &[i, i + 1])).collect(),
            publishers: publishers(),
        };
        let units = crate::sorting::units_from_input(&input);
        let got = Pool::build(units, 0, &CancelToken::tripping_at(1));
        assert!(matches!(got, Err(AllocError::Cancelled)));
    }

    /// Merging a GIF away must drop every cached closeness touching it
    /// — a stale entry served later would reflect the pre-merge
    /// profile.
    #[test]
    fn cache_invalidated_for_merged_gifs() {
        // Two intersecting singleton GIFs; merging them deletes both.
        let input = AllocationInput {
            brokers: brokers(4, 100_000.0),
            subscriptions: vec![
                entry(0, &(0..10).collect::<Vec<_>>()),
                entry(1, &(5..15).collect::<Vec<_>>()),
            ],
            publishers: publishers(),
        };
        let mut engine = engine_for(&input, ClosenessMetric::Ios);
        engine.refresh_partners();
        let (g, h, _) = engine.global_best().unwrap();
        assert!(g != h);
        assert!(
            engine.cache.get(g, h).is_some(),
            "refresh populated the pair cache"
        );
        assert!(engine.attempt(g, h), "merge must succeed");
        // The attempt consulted the pair cache populated by the refresh:
        // hits are what make the memo table worth having.
        let cache_stats = engine.cache.stats();
        assert!(cache_stats.hits > 0, "stats: {cache_stats:?}");
        // Both source GIFs were merged away: nothing cached may touch
        // them any more, in either key order.
        for k in [g, h] {
            assert_eq!(engine.cache.get(g, k), None);
            assert_eq!(engine.cache.get(h, k), None);
        }
    }

    /// A GIF that survives a merge (loses a unit but keeps its profile)
    /// must keep its cache entries — only merged-away GIFs invalidate.
    #[test]
    fn cache_kept_for_surviving_gifs() {
        // GIF A holds two equal units; GIF B intersects A. Pairwise-
        // merging A and B consumes one of A's units, so A survives.
        let wide: Vec<u64> = (0..10).collect();
        let input = AllocationInput {
            brokers: brokers(5, 100_000.0),
            subscriptions: vec![
                entry(0, &wide),
                entry(1, &wide),
                entry(2, &(5..15).collect::<Vec<_>>()),
            ],
            publishers: publishers(),
        };
        let mut engine = engine_for(&input, ClosenessMetric::Ios);
        engine.refresh_partners();
        let a = engine
            .pool
            .by_profile
            .values()
            .copied()
            .find(|gk| engine.pool.gifs[gk].units.len() == 2)
            .unwrap();
        let b = engine.pool.gifs.keys().copied().find(|&k| k != a).unwrap();
        assert!(engine.cache.get(a, b).is_some());
        assert!(engine.attempt_pairwise(a, b), "pairwise merge succeeds");
        assert!(
            engine.pool.gifs.contains_key(&a),
            "A keeps its second unit and survives"
        );
        // B was merged away; A survived with an unchanged profile.
        assert_eq!(engine.cache.get(b, b), None);
        assert_eq!(engine.cache.get(a, b), None);
        assert!(
            engine.cache.get(a, a).is_some(),
            "surviving GIF keeps its cached closenesses"
        );
        assert!(
            engine.cache.stats().hits > 0,
            "the merge path re-read cached closenesses"
        );
    }

    /// Seam oracle for the best allocation: after every committed merge
    /// the last successful allocation test was a pack of exactly the
    /// committed pool, so whenever that test was recorded as `best`, the
    /// recipe materializes to what the oracle packs from scratch — what
    /// a re-pack of the winning size after each binary search would
    /// have stored. Equal and covering merges whose search ends on a
    /// *failed* probe are the cases that matter.
    #[test]
    fn recorded_recipe_is_a_from_scratch_pack_of_the_committed_pool() {
        let mut subs = Vec::new();
        // 12 equal 20 kB/s subs on 100 kB/s brokers: clusters of at most
        // four, found by probes 2 ok, 7 fail, 4 ok, 5 fail.
        for i in 0..12 {
            subs.push(entry(i, &(0..20).collect::<Vec<_>>()));
        }
        // A 30 kB/s sub covering eight equal 15 kB/s subs: those first
        // cluster among themselves into 90 + 30, then the cover takes
        // the 30 (probes 1 ok, 2 fail).
        subs.push(entry(12, &(30..60).collect::<Vec<_>>()));
        for i in 13..21 {
            subs.push(entry(i, &(30..45).collect::<Vec<_>>()));
        }
        // Two intersecting subs for the pairwise path.
        subs.push(entry(21, &(70..85).collect::<Vec<_>>()));
        subs.push(entry(22, &(80..95).collect::<Vec<_>>()));
        let input = AllocationInput {
            brokers: brokers(12, 100_000.0),
            subscriptions: subs,
            publishers: publishers(),
        };
        let pubs = &input.publishers;
        for metric in ClosenessMetric::ALL {
            let mut engine = engine_for(&input, metric);
            let (mut equal, mut covering, mut recorded) = (0, 0, 0);
            loop {
                // Peek at the pair the step will attempt, to classify it.
                engine.refresh_partners();
                let Some((g, h, _)) = engine.global_best() else {
                    break;
                };
                let rel = Relation::from_cardinalities(engine.pool.kernel.pair_cardinalities(g, h));
                let committed = engine.step().is_some_and(|(sg, sh, ok)| {
                    assert_eq!((sg, sh), (g, h));
                    ok
                });
                if !committed {
                    continue;
                }
                match rel {
                    Relation::Equal => equal += 1,
                    Relation::Superset | Relation::Subset => covering += 1,
                    _ => {}
                }
                let mut oracle = RefPacker::new(&input.brokers);
                oracle
                    .pack_sorted(pubs, engine.pool.units.values().map(|u| &**u).collect())
                    .expect("a committed pool allocates");
                assert!(engine.best.brokers <= oracle.used_brokers(), "{metric}");
                if engine.best.brokers == oracle.used_brokers() {
                    recorded += 1;
                    assert_eq!(
                        materialize_recipe(
                            engine.best.picks.iter().map(|(broker, units)| {
                                (*broker, units.iter().map(|u| (**u).clone()).collect())
                            }),
                            pubs
                        ),
                        oracle.into_allocation(pubs),
                        "{metric} after g{g}+g{h}"
                    );
                }
            }
            assert!(
                equal > 0 && covering > 0 && recorded > 0,
                "{metric}: {equal} equal, {covering} covering, {recorded} recorded"
            );
        }
    }

    fn plain_unit(sub: u64, kb: u8) -> Arc<Unit> {
        Arc::new(Unit {
            subs: vec![SubId::new(sub)],
            profile: SubscriptionProfile::new(),
            out_bandwidth: 1_000.0 * f64::from(kb),
        })
    }

    proptest! {
        /// Seam oracle for the unit stream: `MergedOrder` over the
        /// sorted list, minus random `removed` keys, plus one spliced
        /// unit, yields exactly the sequence the oracle packs after
        /// collecting the survivors in key order, appending the merged
        /// unit and stable-sorting — observed as the placement order on
        /// one broker that accepts everything. A handful of distinct
        /// bandwidths forces ties; a merged sub id that may repeat a
        /// survivor's forces the full-tie rule (survivors first).
        #[test]
        fn merged_order_streams_what_the_oracle_sorts(
            pool in proptest::collection::vec(0u8..4, 0..12),
            removed in proptest::collection::btree_set(0u64..12, 0..6),
            merged in (0u64..14, 0u8..6),
        ) {
            let pool: Vec<(UnitKey, Arc<Unit>)> = pool
                .iter()
                .enumerate()
                .map(|(i, &kb)| (i as u64, plain_unit(i as u64, kb)))
                .collect();
            let merged = plain_unit(merged.0, merged.1);
            let mut order: Vec<&(UnitKey, Arc<Unit>)> = pool.iter().collect();
            order.sort_by(|a, b| pack_order(&a.1, &b.1));
            let stream = MergedOrder {
                inner: order
                    .iter()
                    .filter(|e| !removed.contains(&e.0))
                    .map(|e| (0, &*e.1))
                    .peekable(),
                merged: Some((1, &merged)),
            };
            let streamed: Vec<&Vec<SubId>> = stream.map(|(_, u)| &u.subs).collect();

            let everything = BrokerSpec::new(
                BrokerId::new(0),
                "b0",
                LinearFn::new(0.0, 0.0),
                f64::INFINITY,
            );
            let pubs = PublisherTable::new();
            let mut oracle = RefPacker::new(&[everything]);
            let collected = pool
                .iter()
                .filter(|e| !removed.contains(&e.0))
                .map(|e| &*e.1)
                .chain(std::iter::once(&*merged))
                .collect();
            oracle.pack_sorted(&pubs, collected).unwrap();
            let packed = oracle.into_allocation(&pubs);
            let packed: Vec<&Vec<SubId>> = packed.loads[0].units.iter().map(|u| &u.subs).collect();
            prop_assert_eq!(streamed, packed);
        }
    }

    /// Seam oracle for tiling: for every metric and tile width the
    /// allocation is bit-identical to the untiled scan's, and every
    /// stat except `closeness_computations` (which tiling may lower,
    /// never raise) matches exactly.
    #[test]
    fn tiled_scan_is_bit_identical_to_untiled() {
        let subs: Vec<SubscriptionEntry> = (0..30)
            .map(|i| {
                let group = i % 6;
                let ids: Vec<u64> = (group * 15..group * 15 + 8 + (i % 4)).collect();
                entry(i, &ids)
            })
            .collect();
        let input = AllocationInput {
            brokers: brokers(30, 300_000.0),
            subscriptions: subs,
            publishers: publishers(),
        };
        for metric in ClosenessMetric::ALL {
            let (ref_alloc, ref_stats) = tiled(metric, 0).run(&input).unwrap();
            for tile in [3, DEFAULT_TILE] {
                let (alloc, stats) = tiled(metric, tile).run(&input).unwrap();
                assert_eq!(alloc.loads, ref_alloc.loads, "{metric} tile={tile}");
                assert!(
                    stats.closeness_computations <= ref_stats.closeness_computations,
                    "{metric} tile={tile}: {} > {}",
                    stats.closeness_computations,
                    ref_stats.closeness_computations
                );
                let mut normalized = stats;
                normalized.closeness_computations = ref_stats.closeness_computations;
                assert_eq!(normalized, ref_stats, "{metric} tile={tile}");
            }
        }
    }

    /// Every tile summary must be a superset of each member profile —
    /// the invariant that makes whole-tile rejection sound — even when
    /// member windows start at different ids (the widening case).
    #[test]
    fn tile_summaries_cover_members() {
        let subs: Vec<SubscriptionEntry> = (0..24)
            .map(|i| {
                let group = i % 8;
                // Shifted, partially-overlapping windows per group.
                let ids: Vec<u64> = (group * 11..group * 11 + 6 + (i % 3)).collect();
                entry(i, &ids)
            })
            .collect();
        let input = AllocationInput {
            brokers: brokers(24, 300_000.0),
            subscriptions: subs,
            publishers: publishers(),
        };
        let units = crate::sorting::units_from_input(&input);
        let mut pool = Pool::build(units, 3, &never()).unwrap();
        pool.tiles.rebuild(&pool.gifs);
        assert!(pool.gifs.len() > 3, "need several buckets");
        for (gk, gif) in &pool.gifs {
            let b = pool.tiles.bucket_of(*gk);
            let summary = pool.tiles.summary(b).expect("bucket exists for member");
            assert_eq!(
                gif.profile.intersect_count(summary),
                gif.profile.count_ones(),
                "summary must cover every bit of member {gk:?}"
            );
        }
    }

    /// With many mutually disjoint groups, whole-tile rejection skips
    /// member evaluations the untiled engine pays for — fewer
    /// closeness computations, identical allocation.
    #[test]
    fn tile_pruning_reduces_closeness_computations() {
        let subs: Vec<SubscriptionEntry> = (0..48)
            .map(|i| {
                let group = i % 12;
                let ids: Vec<u64> = (group * 8..group * 8 + 5 + (i % 3)).collect();
                entry(i, &ids)
            })
            .collect();
        let input = AllocationInput {
            brokers: brokers(48, 60_000.0),
            subscriptions: subs,
            publishers: publishers(),
        };
        let (tiled_alloc, tiled_stats) = tiled(ClosenessMetric::Ios, 2).run(&input).unwrap();
        let (flat_alloc, flat_stats) = tiled(ClosenessMetric::Ios, 0).run(&input).unwrap();
        assert_eq!(tiled_alloc.loads, flat_alloc.loads);
        assert!(
            tiled_stats.closeness_computations < flat_stats.closeness_computations,
            "tiled {} vs flat {}",
            tiled_stats.closeness_computations,
            flat_stats.closeness_computations
        );
    }
}
