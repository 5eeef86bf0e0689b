//! Hierarchical zone sharding: allocation at 1M+ subscriptions with
//! bounded memory (DESIGN.md §12).
//!
//! One flat CRAM run over a million subscriptions materializes every
//! profile at once and clusters one giant pool. This module scales the
//! allocation phase by the scheme the scalable-aggregation literature
//! (Shi; Shafique — see PAPERS.md) converges on:
//!
//! 1. **Partition** subscriptions into zones — by an explicit locality
//!    tag on the workload or by deterministic publisher affinity
//!    ([`ZonePlan`], [`partition`]).
//! 2. **Per-zone CRAM**: each zone's pool is materialized through a
//!    [`StreamingGifBuilder`] and clustered independently over the full
//!    broker pool, a wave of zones at a time over
//!    [`crate::engine::shard_map`]. Only one wave of zone pools is
//!    resident, so peak RSS tracks the largest zone, not the workload.
//! 3. **Recursive cross-zone Phase 3**: every allocated broker of every
//!    zone becomes a *super-unit* (its union profile as the virtual
//!    subscription, its consumed bandwidth as the output requirement —
//!    [`super_units`]) and CRAM re-runs across all super-units against
//!    the real broker pool. Per-zone broker assignments are tentative;
//!    only the groupings survive, so the final allocation respects the
//!    actual pool capacities.
//!
//! With a single zone the recursive pass is skipped and the result is
//! bit-identical — allocation *and* stats — to a flat
//! [`CramBuilder::run`], which the `zoned_equivalence` proptests pin
//! down.

use crate::cram::{CramBuilder, CramConfig, CramStats};
use crate::engine::shard_map;
use crate::model::{AllocError, Allocation, AllocationInput, BrokerSpec, Unit};
use crate::pipeline::artifact::{
    allocation_from_json, allocation_to_json, arr_field, cram_stats_from_json, cram_stats_to_json,
    field, u64_field, unit_from_json, unit_to_json, usize_field,
};
use crate::pipeline::{
    Artifact, ArtifactError, CancelToken, Phase, PhaseKind, PipelineError, ReconfigContext,
};
use greenps_profile::{ClosenessMetric, PublisherTable, SubscriptionProfile};
use greenps_pubsub::ids::{AdvId, SubId};
use greenps_telemetry::json::JsonValue;
use greenps_telemetry::{names, Registry, Span};
use std::collections::{BTreeMap, BTreeSet};

/// How subscriptions map to zones.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ZonePlan {
    /// Hash each subscription's dominant publisher (the advertisement
    /// contributing the most profile bits; ties break toward the lowest
    /// advertisement id) into `zones` buckets. Subscriptions that
    /// follow the same publisher land in the same zone, so per-zone
    /// pools keep the profile overlap CRAM feeds on.
    PublisherAffinity {
        /// Number of zones (≥ 1).
        zones: usize,
        /// Salt mixed into the bucket hash; the partition is a pure
        /// function of `(profiles, zones, seed)`.
        seed: u64,
    },
    /// Explicit locality tags (e.g. from a zoned scenario). Untagged
    /// subscriptions fall into zone 0; the zone count is
    /// `max tag + 1`.
    Tags(BTreeMap<SubId, u32>),
}

/// SplitMix64 — the standard 64-bit finalizer; deterministic and
/// seed-friendly, used only to spread affinity keys across zones.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The advertisement contributing the most bits to `profile` (ties
/// break toward the lowest id); `None` for an empty profile.
fn dominant_adv(profile: &SubscriptionProfile) -> Option<AdvId> {
    let mut best: Option<(usize, AdvId)> = None;
    for (adv, v) in profile.iter() {
        let ones = v.count_ones();
        let better = match best {
            None => true,
            Some((best_ones, _)) => ones > best_ones,
        };
        if better {
            best = Some((ones, adv));
        }
    }
    best.map(|(_, adv)| adv)
}

/// Splits `input`'s subscriptions into per-zone index lists (indices
/// into `input.subscriptions`, each list in input order), polling
/// `cancel` once per subscription.
///
/// Deterministic: the same input and plan always produce the same
/// partition, and every subscription lands in exactly one zone.
///
/// # Errors
/// [`AllocError::Cancelled`] when the token trips mid-scan.
pub fn partition(
    input: &AllocationInput,
    plan: &ZonePlan,
    cancel: &CancelToken,
) -> Result<Vec<Vec<usize>>, AllocError> {
    match plan {
        ZonePlan::PublisherAffinity { zones, seed } => {
            let zones = (*zones).max(1);
            let mut out = vec![Vec::new(); zones];
            for (i, sub) in input.subscriptions.iter().enumerate() {
                if cancel.is_cancelled_hot() {
                    return Err(AllocError::Cancelled);
                }
                let key = match dominant_adv(&sub.profile) {
                    Some(adv) => adv.raw(),
                    // Empty profiles have no affinity; spread by id.
                    None => !sub.id.raw(),
                };
                #[expect(
                    clippy::cast_possible_truncation,
                    reason = "the remainder is below `zones`, itself a usize"
                )]
                let z = (splitmix64(key ^ seed) % zones as u64) as usize;
                if let Some(bucket) = out.get_mut(z) {
                    bucket.push(i);
                }
            }
            Ok(out)
        }
        ZonePlan::Tags(tags) => {
            let zones = tags
                .values()
                .map(|&z| z as usize + 1)
                .max()
                .unwrap_or(1)
                .max(1);
            let mut out = vec![Vec::new(); zones];
            for (i, sub) in input.subscriptions.iter().enumerate() {
                if cancel.is_cancelled_hot() {
                    return Err(AllocError::Cancelled);
                }
                let z = tags.get(&sub.id).map_or(0, |&z| z as usize);
                if let Some(bucket) = out.get_mut(z) {
                    bucket.push(i);
                }
            }
            Ok(out)
        }
    }
}

/// Builds one zone's unit pool incrementally, maintaining the GIF
/// (general interest filter) grouping merge-on-the-fly: every pushed
/// unit joins its profile's group immediately, so the pool's GIF
/// structure is known the moment the feed finishes — no second pass
/// over the zone, and nothing outside the zone is ever resident.
///
/// [`StreamingGifBuilder::push`] allocates only to grow the unit
/// vector, and the first unit of a *new* GIF pays for a profile key
/// clone in `open_group`.
#[derive(Debug, Default)]
pub struct StreamingGifBuilder {
    units: Vec<Unit>,
    groups: BTreeMap<SubscriptionProfile, u32>,
}

impl StreamingGifBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one unit to the pool, folding it into its GIF group.
    pub fn push(&mut self, unit: Unit) {
        match self.groups.get_mut(&unit.profile) {
            Some(members) => *members += 1,
            None => self.open_group(&unit),
        }
        self.units.push(unit);
    }

    /// Opens a new GIF group for a first-seen profile. Cold path:
    /// runs once per distinct profile, amortized away on real
    /// workloads where many subscriptions share templates.
    fn open_group(&mut self, unit: &Unit) {
        self.groups.insert(unit.profile.clone(), 1);
    }

    /// Units pushed so far, in arrival order.
    pub fn units(&self) -> &[Unit] {
        &self.units
    }

    /// Number of units pushed so far.
    pub fn len(&self) -> usize {
        self.units.len()
    }

    /// True when nothing has been pushed.
    pub fn is_empty(&self) -> bool {
        self.units.is_empty()
    }

    /// Number of distinct GIF groups so far.
    pub fn gif_count(&self) -> usize {
        self.groups.len()
    }

    /// Finishes the pool: the units in arrival order (what per-zone
    /// CRAM consumes — order matters for bit-identical equivalence
    /// with a flat run) plus the distinct GIF count.
    pub fn finish(self) -> (Vec<Unit>, usize) {
        let gifs = self.groups.len();
        (self.units, gifs)
    }
}

/// A source of per-zone unit pools.
///
/// Implementations stream each zone's units into the builder on demand,
/// so [`zoned_allocate`] never holds more than one wave of zones in
/// memory. `greenps-workload` provides a scenario-backed implementation
/// that evaluates subscription filters lazily per zone.
pub trait ZoneFeed {
    /// Number of zones this feed yields.
    fn zone_count(&self) -> usize;

    /// Streams zone `zone`'s units (in a deterministic order) into
    /// `builder`, polling `cancel` as it goes.
    ///
    /// # Errors
    /// [`AllocError::Cancelled`] when the token trips mid-zone; the
    /// partially-fed builder is discarded by the caller, never
    /// allocated.
    fn feed(
        &mut self,
        zone: usize,
        builder: &mut StreamingGifBuilder,
        cancel: &CancelToken,
    ) -> Result<(), AllocError>;
}

/// A [`ZoneFeed`] over an already-materialized [`AllocationInput`],
/// partitioned by a [`ZonePlan`]. The in-memory path: right for
/// pipeline runs whose Phase 1 already gathered the full pool.
#[derive(Debug)]
pub struct InputZoneFeed<'a> {
    input: &'a AllocationInput,
    zones: Vec<Vec<usize>>,
}

impl<'a> InputZoneFeed<'a> {
    /// Partitions `input` under `plan`.
    pub fn new(input: &'a AllocationInput, plan: &ZonePlan) -> Self {
        // Never-token: the partition cannot be cancelled, so the empty
        // fallback is unreachable but total.
        Self::with_cancel(input, plan, &CancelToken::never()).unwrap_or_else(|_| InputZoneFeed {
            input,
            zones: Vec::new(),
        })
    }

    /// [`InputZoneFeed::new`] with a cancellation token threaded into
    /// the partition scan and every later [`ZoneFeed::feed`] call.
    ///
    /// # Errors
    /// [`AllocError::Cancelled`] when the token trips during the
    /// partition scan.
    pub fn with_cancel(
        input: &'a AllocationInput,
        plan: &ZonePlan,
        cancel: &CancelToken,
    ) -> Result<Self, AllocError> {
        Ok(InputZoneFeed {
            input,
            zones: partition(input, plan, cancel)?,
        })
    }
}

impl ZoneFeed for InputZoneFeed<'_> {
    fn zone_count(&self) -> usize {
        self.zones.len()
    }

    fn feed(
        &mut self,
        zone: usize,
        builder: &mut StreamingGifBuilder,
        cancel: &CancelToken,
    ) -> Result<(), AllocError> {
        let Some(indices) = self.zones.get(zone) else {
            return Ok(());
        };
        for &i in indices {
            if cancel.is_cancelled_hot() {
                return Err(AllocError::Cancelled);
            }
            if let Some(entry) = self.input.subscriptions.get(i) {
                builder.push(Unit::from_subscription(entry, &self.input.publishers));
            }
        }
        Ok(())
    }
}

/// Configuration of a hierarchical run.
#[derive(Debug, Clone, Copy)]
pub struct ZonedConfig {
    /// CRAM settings shared by every per-zone run and the cross-zone
    /// pass.
    pub cram: CramConfig,
    /// How many zones are materialized and clustered concurrently (the
    /// wave width). Results are bit-identical for every value; larger
    /// waves trade memory for parallelism.
    pub zone_threads: usize,
}

impl ZonedConfig {
    /// Defaults: the paper's CRAM configuration for `metric`, one zone
    /// at a time.
    pub fn with_metric(metric: ClosenessMetric) -> Self {
        ZonedConfig {
            cram: CramConfig::with_metric(metric),
            zone_threads: 1,
        }
    }

    /// Sets the wave width (clamped to ≥ 1).
    #[must_use]
    pub fn zone_threads(mut self, n: usize) -> Self {
        self.zone_threads = n.max(1);
        self
    }
}

/// One zone's clustering outcome: what the cross-zone pass consumed,
/// kept for the checkpoint artifact and the scale report.
#[derive(Debug, Clone, PartialEq)]
pub struct ZoneOutcome {
    /// Zone index.
    pub zone: u32,
    /// Subscriptions the zone held.
    pub subscriptions: usize,
    /// Distinct GIF groups in the zone's pool.
    pub gifs: usize,
    /// The zone's CRAM counters.
    pub stats: CramStats,
    /// The zone's GIF roots — one super-unit per allocated broker,
    /// re-clustered by the cross-zone pass.
    pub roots: Vec<Unit>,
}

/// The outcome of a hierarchical run: the final allocation plus the
/// per-zone trail. This is the artifact checkpointed by
/// [`ZonedAllocatePhase`].
#[derive(Debug, Clone, PartialEq)]
pub struct ZonedAllocation {
    /// The final (cross-zone) allocation over the real broker pool.
    pub allocation: Allocation,
    /// Per-zone outcomes, in zone order.
    pub zones: Vec<ZoneOutcome>,
    /// Counters of the cross-zone CRAM pass; `None` when a single zone
    /// made the pass unnecessary.
    pub cross_stats: Option<CramStats>,
    /// How many extra zones each final broker spans, summed: a broker
    /// whose subscriptions come from `k` distinct zones contributes
    /// `k - 1`. Zero means the partition was perfectly preserved.
    pub cross_links: u64,
}

impl ZonedAllocation {
    /// Number of zones.
    pub fn zone_count(&self) -> usize {
        self.zones.len()
    }

    /// Total subscriptions in the final allocation.
    pub fn sub_count(&self) -> usize {
        self.allocation.sub_count()
    }
}

/// Converts an allocation's broker loads into super-units for the
/// recursive pass: each load's union profile becomes the unit profile
/// (the broker's "virtual subscription", exactly Phase 3's view) and
/// its consumed output bandwidth becomes the unit requirement.
pub fn super_units(allocation: &Allocation) -> Vec<Unit> {
    allocation
        .loads
        .iter()
        .map(|load| Unit {
            subs: load.sub_ids().collect(),
            profile: load.union_profile.clone(),
            out_bandwidth: load.out_bw_used,
        })
        .collect()
}

/// Outcome of a resumable hierarchical run: either the finished
/// allocation or a checkpoint of the zones completed before the cancel
/// flag was observed.
#[derive(Debug, Clone, PartialEq)]
pub enum ZonedRun {
    /// The run finished; nothing was cancelled.
    Complete(ZonedAllocation),
    /// The cancel token tripped; `0` holds every completed zone (a
    /// prefix of the zone order). Feed it back as the `resume` argument
    /// of [`zoned_allocate_resumable`] to continue bit-identically.
    Cancelled(ZonedCheckpoint),
}

/// Completed per-zone outcomes of a cancelled hierarchical run — always
/// a prefix of the zone order, so resuming means starting at zone
/// `done.len()`. Each [`ZoneOutcome`] carries its super-unit roots,
/// which is all the cross-zone pass (and the cross-link accounting)
/// needs; re-running the remaining zones and the cross pass yields a
/// result bit-identical to an uninterrupted run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ZonedCheckpoint {
    /// Outcomes of the zones that finished before cancellation.
    pub done: Vec<ZoneOutcome>,
}

/// Cross-zone links of a final allocation: for every broker, the
/// number of distinct source zones among its subscriptions minus one.
fn count_cross_links(allocation: &Allocation, sub_zone: &[(SubId, u32)]) -> u64 {
    let mut total = 0u64;
    let mut seen: BTreeSet<u32> = BTreeSet::new();
    for load in &allocation.loads {
        seen.clear();
        for s in load.sub_ids() {
            if let Ok(i) = sub_zone.binary_search_by_key(&s, |&(id, _)| id) {
                if let Some(&(_, z)) = sub_zone.get(i) {
                    seen.insert(z);
                }
            }
        }
        total += (seen.len() as u64).saturating_sub(1);
    }
    total
}

/// Runs the full hierarchical scheme: per-zone CRAM over `feed`'s
/// zones (a wave of `config.zone_threads` zones at a time, in parallel
/// over [`shard_map`]), then the recursive cross-zone pass over all
/// zones' super-units against the real broker pool.
///
/// Telemetry: `zone.count` (gauge), `zone.size` per-zone subscription
/// histogram, a `zone.cram.z<id>` span per zone, the literal
/// `zone.cram.cross` span for the recursive pass, and the
/// `zone.merge.cross_links` counter. Observation only — results are
/// bit-identical with [`Registry::disabled`].
///
/// With exactly one zone the cross-zone pass is skipped and the result
/// equals a flat [`CramBuilder::run`] bit-for-bit (allocation and
/// stats).
///
/// # Errors
/// Fails when any zone's baseline allocation (or the cross-zone pass)
/// is infeasible on the broker pool.
pub fn zoned_allocate(
    feed: &mut dyn ZoneFeed,
    brokers: &[BrokerSpec],
    publishers: &PublisherTable,
    config: &ZonedConfig,
    registry: &Registry,
) -> Result<ZonedAllocation, AllocError> {
    // Never-token: the `Cancelled` arm is unreachable, but mapping it
    // to an error keeps the wrapper total without a panic path.
    match zoned_allocate_resumable(
        feed,
        brokers,
        publishers,
        config,
        registry,
        &CancelToken::never(),
        None,
    )? {
        ZonedRun::Complete(allocation) => Ok(allocation),
        ZonedRun::Cancelled(_) => Err(AllocError::Cancelled),
    }
}

/// [`zoned_allocate`] with cancellation and resume: polls `cancel` at
/// every wave boundary (and threads it into the per-zone CRAM runs, the
/// feed, and the cross-zone pass), stopping within one wave of the
/// store. A cancelled run returns [`ZonedRun::Cancelled`] holding every
/// *completed* zone — always a prefix of the zone order; in-flight
/// zones are discarded, never checkpointed half-done. Passing that
/// checkpoint back as `resume` skips the completed zones and produces a
/// [`ZonedAllocation`] bit-identical to an uninterrupted run, because
/// zones are computed independently and deterministically.
///
/// Telemetry (observation only): everything [`zoned_allocate`] reports,
/// plus the `pipeline.cancel.observed` counter and a `zone.cancelled`
/// event in the `zone` ring when a cancellation is observed.
///
/// # Errors
/// As [`zoned_allocate`]; cancellation is *not* an error here — it is
/// the [`ZonedRun::Cancelled`] outcome.
#[allow(clippy::too_many_arguments)]
pub fn zoned_allocate_resumable(
    feed: &mut dyn ZoneFeed,
    brokers: &[BrokerSpec],
    publishers: &PublisherTable,
    config: &ZonedConfig,
    registry: &Registry,
    cancel: &CancelToken,
    resume: Option<ZonedCheckpoint>,
) -> Result<ZonedRun, AllocError> {
    let zone_count = feed.zone_count().max(1);
    registry.gauge(&names::ZONE_COUNT).set(zone_count as u64);
    // Per-zone runs only consult the broker pool and publisher table;
    // the subscription pool streams through the feed instead.
    let shared = AllocationInput {
        brokers: brokers.to_vec(),
        subscriptions: Vec::new(),
        publishers: publishers.clone(),
    };
    let wave = config.zone_threads.max(1);
    let single = zone_count == 1;

    // Telemetry for an observed cancellation, fired once per return.
    let observe_cancel = |done: usize| {
        registry.counter(&names::CANCEL_OBSERVED).add(1);
        registry
            .ring(&names::ZONE_RING)
            .emit_with(&names::ZONE_CANCELLED, || {
                format!("{done} of {zone_count} zone(s) checkpointed")
            });
    };

    let run_zone = |z: u32, gifs: usize, units: Vec<Unit>| {
        let _span = Span::enter(registry, &names::zone_cram(z));
        CramBuilder::from_config(config.cram)
            .cancel_token(cancel)
            .run_units(&shared, units)
            .map(|(alloc, stats)| (z, gifs, alloc, stats))
    };

    let mut zones: Vec<ZoneOutcome> = Vec::with_capacity(zone_count);
    let mut sub_zone: Vec<(SubId, u32)> = Vec::new();
    let mut final_alloc = None;
    // Resume: trust only a plausible prefix (single-zone runs always
    // restart — their checkpoint is never produced, and the flat
    // equivalence guarantee is cheaper to keep by re-running).
    if let Some(checkpoint) = resume {
        if !single && checkpoint.done.len() <= zone_count {
            zones = checkpoint.done;
            for z in &zones {
                for root in &z.roots {
                    for &sub in &root.subs {
                        sub_zone.push((sub, z.zone));
                    }
                }
            }
        }
    }
    let mut start = zones.len();
    while start < zone_count {
        if cancel.is_cancelled_hot() {
            observe_cancel(zones.len());
            return Ok(ZonedRun::Cancelled(ZonedCheckpoint { done: zones }));
        }
        let end = (start + wave).min(zone_count);
        // Materialize this wave's pools. The feed is one stream, so
        // materialization is sequential; only `end - start` zones are
        // resident at once.
        let mut batch: Vec<(u32, usize, Vec<Unit>)> = Vec::with_capacity(end - start);
        for z in start..end {
            let mut builder = StreamingGifBuilder::new();
            match feed.feed(z, &mut builder, cancel) {
                Ok(()) => {}
                Err(AllocError::Cancelled) => {
                    // The half-fed zone is dropped; `zones` still holds
                    // only fully-completed waves, a valid prefix.
                    observe_cancel(zones.len());
                    return Ok(ZonedRun::Cancelled(ZonedCheckpoint { done: zones }));
                }
                Err(e) => return Err(e),
            }
            let subs: usize = builder.units().iter().map(Unit::sub_count).sum();
            registry.histogram(&names::ZONE_SIZE).record(subs as u64);
            let (units, gifs) = builder.finish();
            if !single {
                for u in &units {
                    for &s in &u.subs {
                        #[expect(
                            clippy::cast_possible_truncation,
                            reason = "`zones` reserves one ZoneOutcome per zone above, so a zone count past u32::MAX fails that allocation first"
                        )]
                        sub_zone.push((s, z as u32));
                    }
                }
            }
            #[expect(
                clippy::cast_possible_truncation,
                reason = "`zones` reserves one ZoneOutcome per zone above, so a zone count past u32::MAX fails that allocation first"
            )]
            batch.push((z as u32, gifs, units));
        }
        // Cluster the wave — in parallel when the wave is wider than
        // one zone, moving (not cloning) the pools on the common
        // sequential path.
        let results: Vec<Result<(u32, usize, Allocation, CramStats), AllocError>> =
            if wave <= 1 || batch.len() <= 1 {
                batch
                    .into_iter()
                    .map(|(z, gifs, units)| run_zone(z, gifs, units))
                    .collect()
            } else {
                shard_map(&batch, wave, |(z, gifs, units)| {
                    run_zone(*z, *gifs, units.clone())
                })
            };
        for result in results {
            let (zone, gifs, alloc, stats) = match result {
                Ok(r) => r,
                Err(AllocError::Cancelled) => {
                    // Results are processed in zone order, so stopping
                    // at the first cancelled zone keeps `zones` a
                    // completed prefix; later zones of the wave (even
                    // finished ones) are recomputed deterministically
                    // on resume.
                    observe_cancel(zones.len());
                    return Ok(ZonedRun::Cancelled(ZonedCheckpoint { done: zones }));
                }
                Err(e) => return Err(e),
            };
            let roots = super_units(&alloc);
            let subscriptions = alloc.sub_count();
            if single {
                final_alloc = Some(alloc);
            }
            zones.push(ZoneOutcome {
                zone,
                subscriptions,
                gifs,
                stats,
                roots,
            });
        }
        start = end;
    }

    if let Some(allocation) = final_alloc {
        // One zone: the recursive pass would only re-cluster that
        // zone's own result — skip it so the outcome is bit-identical
        // to a flat run.
        return Ok(ZonedRun::Complete(ZonedAllocation {
            allocation,
            zones,
            cross_stats: None,
            cross_links: 0,
        }));
    }

    if cancel.is_cancelled_hot() {
        observe_cancel(zones.len());
        return Ok(ZonedRun::Cancelled(ZonedCheckpoint { done: zones }));
    }

    // Recursive Phase 3 across zones: every zone root becomes a unit
    // and CRAM re-allocates them over the real pool. Per-zone broker
    // assignments are discarded; each super-unit fit one broker in its
    // zone, so the baseline packing stays feasible.
    let roots: Vec<Unit> = zones.iter().flat_map(|z| z.roots.iter().cloned()).collect();
    let cross = {
        let _span = Span::enter(registry, &names::ZONE_CRAM_CROSS);
        CramBuilder::from_config(config.cram)
            .telemetry(registry)
            .cancel_token(cancel)
            .run_units(&shared, roots)
    };
    let (allocation, stats) = match cross {
        Ok(r) => r,
        Err(AllocError::Cancelled) => {
            // Every zone is done; only the cross pass restarts on
            // resume.
            observe_cancel(zones.len());
            return Ok(ZonedRun::Cancelled(ZonedCheckpoint { done: zones }));
        }
        Err(e) => return Err(e),
    };
    sub_zone.sort_unstable();
    let cross_links = count_cross_links(&allocation, &sub_zone);
    registry.counter(&names::ZONE_CROSS_LINKS).add(cross_links);
    Ok(ZonedRun::Complete(ZonedAllocation {
        allocation,
        zones,
        cross_stats: Some(stats),
        cross_links,
    }))
}

fn zone_outcome_to_json(z: &ZoneOutcome) -> JsonValue {
    JsonValue::obj()
        .field("zone", JsonValue::U64(u64::from(z.zone)))
        .field("subscriptions", JsonValue::U64(z.subscriptions as u64))
        .field("gifs", JsonValue::U64(z.gifs as u64))
        .field("stats", cram_stats_to_json(&z.stats))
        .field(
            "roots",
            JsonValue::Arr(z.roots.iter().map(unit_to_json).collect()),
        )
}

fn zone_outcome_from_json(entry: &JsonValue) -> Result<ZoneOutcome, ArtifactError> {
    let mut roots = Vec::new();
    for u in arr_field(entry, "roots")? {
        roots.push(unit_from_json(u)?);
    }
    Ok(ZoneOutcome {
        zone: u32::try_from(u64_field(entry, "zone")?)
            .map_err(|_| ArtifactError::new("zone index out of range"))?,
        subscriptions: usize_field(entry, "subscriptions")?,
        gifs: usize_field(entry, "gifs")?,
        stats: cram_stats_from_json(field(entry, "stats")?)?,
        roots,
    })
}

impl Artifact for ZonedAllocation {
    const KIND: &'static str = "zoned-allocation";

    fn to_json(&self) -> JsonValue {
        let zones = JsonValue::Arr(self.zones.iter().map(zone_outcome_to_json).collect());
        let obj = JsonValue::obj()
            .field("allocation", allocation_to_json(&self.allocation))
            .field("cross_links", JsonValue::U64(self.cross_links))
            .field("zones", zones);
        match &self.cross_stats {
            Some(stats) => obj.field("cross_stats", cram_stats_to_json(stats)),
            None => obj,
        }
    }

    fn from_json(value: &JsonValue) -> Result<Self, ArtifactError> {
        let mut zones = Vec::new();
        for entry in arr_field(value, "zones")? {
            zones.push(zone_outcome_from_json(entry)?);
        }
        Ok(ZonedAllocation {
            allocation: allocation_from_json(field(value, "allocation")?)?,
            zones,
            cross_stats: match value.get("cross_stats") {
                Some(stats) => Some(cram_stats_from_json(stats)?),
                None => None,
            },
            cross_links: u64_field(value, "cross_links")?,
        })
    }
}

impl Artifact for ZonedCheckpoint {
    const KIND: &'static str = "zoned-checkpoint";

    fn to_json(&self) -> JsonValue {
        JsonValue::obj().field(
            "done",
            JsonValue::Arr(self.done.iter().map(zone_outcome_to_json).collect()),
        )
    }

    fn from_json(value: &JsonValue) -> Result<Self, ArtifactError> {
        let mut done = Vec::new();
        for entry in arr_field(value, "done")? {
            done.push(zone_outcome_from_json(entry)?);
        }
        Ok(ZonedCheckpoint { done })
    }
}

/// The pipeline's `ZonedAllocate` stage: [`zoned_allocate`] over an
/// [`InputZoneFeed`] as a checkpointable [`Phase`]. The hierarchical
/// alternative to [`crate::croc::AllocatePhase`].
#[derive(Debug)]
pub struct ZonedAllocatePhase<'a> {
    /// The gathered Phase-1 input.
    pub input: &'a AllocationInput,
    /// How subscriptions map to zones.
    pub plan: ZonePlan,
    /// Per-zone and cross-zone CRAM settings.
    pub config: ZonedConfig,
    /// Completed-zone checkpoint from a previously cancelled run;
    /// consumed (taken) by [`Phase::run`].
    pub resume: Option<ZonedCheckpoint>,
    /// Where a cancelled run parks its checkpoint: when [`Phase::run`]
    /// returns [`PipelineError::Cancelled`], this holds the completed
    /// prefix to stash and later feed back through `resume`.
    pub partial: Option<ZonedCheckpoint>,
}

impl Phase for ZonedAllocatePhase<'_> {
    type Input = ();
    type Output = ZonedAllocation;
    const KIND: PhaseKind = PhaseKind::ZonedAllocate;

    fn run(&mut self, _input: (), ctx: &ReconfigContext) -> Result<ZonedAllocation, PipelineError> {
        let cancel = ctx.cancel_token();
        let cancelled = |phase: &mut Self, checkpoint: Option<ZonedCheckpoint>| {
            phase.partial = checkpoint;
            PipelineError::Cancelled {
                phase: PhaseKind::ZonedAllocate,
            }
        };
        let mut feed = match InputZoneFeed::with_cancel(self.input, &self.plan, &cancel) {
            Ok(feed) => feed,
            Err(AllocError::Cancelled) => return Err(cancelled(self, None)),
            Err(e) => {
                return Err(PipelineError::Phase {
                    phase: PhaseKind::ZonedAllocate,
                    message: e.to_string(),
                })
            }
        };
        match zoned_allocate_resumable(
            &mut feed,
            &self.input.brokers,
            &self.input.publishers,
            &self.config,
            ctx.registry(),
            &cancel,
            self.resume.take(),
        ) {
            Ok(ZonedRun::Complete(allocation)) => Ok(allocation),
            Ok(ZonedRun::Cancelled(checkpoint)) => Err(cancelled(self, Some(checkpoint))),
            Err(e) => Err(PipelineError::Phase {
                phase: PhaseKind::ZonedAllocate,
                message: e.to_string(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{BrokerSpec, LinearFn, SubscriptionEntry};
    use crate::pipeline::Pipeline;
    use greenps_profile::{PublisherProfile, ShiftingBitVector};
    use greenps_pubsub::ids::{BrokerId, MsgId};
    use greenps_pubsub::Filter;

    const WINDOW: u64 = 100;

    fn profile(adv: u64, ids: &[u64]) -> SubscriptionProfile {
        let mut v = ShiftingBitVector::starting_at(WINDOW as usize, 0);
        for &id in ids {
            v.record(id);
        }
        let mut p = SubscriptionProfile::with_capacity(WINDOW as usize);
        p.insert_vector(AdvId::new(adv), v);
        p
    }

    fn input(subs: usize, brokers: usize, advs: u64) -> AllocationInput {
        let mut inp = AllocationInput::new();
        for a in 1..=advs {
            inp.publishers.insert(PublisherProfile::new(
                AdvId::new(a),
                100.0,
                100_000.0,
                MsgId::new(WINDOW - 1),
            ));
        }
        for i in 0..subs as u64 {
            let adv = 1 + i % advs;
            let lo = (i % 5) * 10;
            let ids: Vec<u64> = (lo..lo + 30).collect();
            inp.subscriptions.push(SubscriptionEntry::new(
                SubId::new(i),
                Filter::new(),
                profile(adv, &ids),
            ));
        }
        for b in 0..brokers as u64 {
            inp.brokers.push(BrokerSpec::new(
                BrokerId::new(b),
                format!("b{b}"),
                LinearFn::new(0.0001, 0.0),
                250_000.0,
            ));
        }
        inp
    }

    #[test]
    fn affinity_partition_is_deterministic_and_total() {
        let inp = input(60, 8, 4);
        let plan = ZonePlan::PublisherAffinity { zones: 3, seed: 7 };
        let a = partition(&inp, &plan, &CancelToken::never()).unwrap();
        let b = partition(&inp, &plan, &CancelToken::never()).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.len(), 3);
        let mut all: Vec<usize> = a.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..60).collect::<Vec<_>>());
        // Affinity keeps a publisher's followers together: subs with
        // the same dominant adv share a zone.
        for zone in &a {
            for &i in zone {
                let adv = dominant_adv(&inp.subscriptions[i].profile).unwrap();
                let zone_of_first = a.iter().position(|z| {
                    z.iter()
                        .any(|&j| dominant_adv(&inp.subscriptions[j].profile) == Some(adv))
                });
                assert_eq!(zone_of_first, a.iter().position(|z| z.contains(&i)));
            }
        }
        // A different seed may produce a different partition; the same
        // seed never does (checked above). Changing the zone count
        // changes the shape.
        assert_eq!(
            partition(
                &inp,
                &ZonePlan::PublisherAffinity { zones: 1, seed: 7 },
                &CancelToken::never()
            )
            .unwrap()
            .len(),
            1
        );
    }

    #[test]
    fn tag_partition_follows_tags_and_defaults_to_zone_zero() {
        let inp = input(10, 4, 2);
        let mut tags = BTreeMap::new();
        for i in 0..8u64 {
            tags.insert(SubId::new(i), (i % 3) as u32);
        }
        // Subs 8 and 9 are untagged -> zone 0.
        let zones = partition(&inp, &ZonePlan::Tags(tags), &CancelToken::never()).unwrap();
        assert_eq!(zones.len(), 3);
        assert!(zones[0].contains(&8) && zones[0].contains(&9));
        assert_eq!(zones.iter().map(Vec::len).sum::<usize>(), 10);
    }

    fn cancelled<T>(got: Result<T, AllocError>) -> bool {
        matches!(got, Err(AllocError::Cancelled))
    }

    /// Both partitions poll once per subscription.
    #[test]
    fn partitions_poll_the_cancel_token() {
        let inp = input(10, 4, 2);
        let affinity = ZonePlan::PublisherAffinity { zones: 2, seed: 1 };
        let tags = ZonePlan::Tags(BTreeMap::new());
        for plan in [affinity, tags] {
            assert!(cancelled(partition(
                &inp,
                &plan,
                &CancelToken::tripping_at(1)
            )));
        }
    }

    /// The input feed polls once per subscription it feeds.
    #[test]
    fn input_feed_polls_the_cancel_token() {
        let inp = input(10, 4, 2);
        let plan = ZonePlan::PublisherAffinity { zones: 1, seed: 1 };
        let mut feed = InputZoneFeed::new(&inp, &plan);
        let mut builder = StreamingGifBuilder::new();
        let token = CancelToken::tripping_at(1);
        assert!(cancelled(feed.feed(0, &mut builder, &token)));
        assert!(builder.is_empty());
    }

    /// An input feed that counts the zones it is asked for.
    struct CountingFeed<'a> {
        inner: InputZoneFeed<'a>,
        fed: usize,
    }

    impl ZoneFeed for CountingFeed<'_> {
        fn zone_count(&self) -> usize {
            self.inner.zone_count()
        }

        fn feed(
            &mut self,
            zone: usize,
            builder: &mut StreamingGifBuilder,
            cancel: &CancelToken,
        ) -> Result<(), AllocError> {
            self.fed += 1;
            self.inner.feed(zone, builder, cancel)
        }
    }

    /// A four-zone run, one zone per wave, whose token trips on its
    /// `poll`-th poll: the zones completed (all four when it never
    /// trips), the zones fed, and whether the cross pass was entered.
    fn tripped_run(inp: &AllocationInput, poll: u64) -> (usize, usize, bool) {
        let registry = Registry::new();
        let plan = ZonePlan::PublisherAffinity { zones: 4, seed: 3 };
        let mut feed = CountingFeed {
            inner: InputZoneFeed::new(inp, &plan),
            fed: 0,
        };
        let got = zoned_allocate_resumable(
            &mut feed,
            &inp.brokers,
            &inp.publishers,
            &ZonedConfig::with_metric(ClosenessMetric::Intersect),
            &registry,
            &CancelToken::tripping_at(poll),
            None,
        )
        .unwrap();
        let done = match got {
            ZonedRun::Cancelled(checkpoint) => checkpoint.done.len(),
            ZonedRun::Complete(_) => 4,
        };
        let crossed = registry.snapshot().spans.contains_key("zone.cram.cross");
        (done, feed.fed, crossed)
    }

    /// The first poll by which `zones` zones are done; completed zones
    /// only grow with the poll the token trips on.
    fn first_poll_with(inp: &AllocationInput, zones: usize) -> u64 {
        let (mut lo, mut hi) = (1u64, 1u64 << 32);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if tripped_run(inp, mid).0 >= zones {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        lo
    }

    /// Every wave starts with a poll: a token that trips on the first
    /// poll after zone 0 completes stops before zone 1 is fed.
    #[test]
    fn wave_boundary_polls_the_cancel_token() {
        let inp = input(60, 12, 4);
        let poll = first_poll_with(&inp, 1);
        assert_eq!(tripped_run(&inp, poll), (1, 1, false));
    }

    /// After its last wave a multi-zone run polls once more: a token
    /// that trips there stops with every zone checkpointed and the
    /// cross-zone pass never entered.
    #[test]
    fn cross_pass_is_preceded_by_a_poll() {
        let inp = input(60, 12, 4);
        let poll = first_poll_with(&inp, 4);
        assert_eq!(tripped_run(&inp, poll), (4, 4, false));
    }

    #[test]
    fn streaming_builder_groups_identical_profiles() {
        let inp = input(12, 4, 2);
        let mut b = StreamingGifBuilder::new();
        assert!(b.is_empty());
        for e in &inp.subscriptions {
            b.push(Unit::from_subscription(e, &inp.publishers));
        }
        assert_eq!(b.len(), 12);
        // 2 advs x 5 bit patterns, but only 10 combinations exist for
        // 12 subs with i % 2 advs and i % 5 offsets.
        let expected_gifs = b.gif_count();
        assert!((2..12).contains(&expected_gifs));
        let (units, gifs) = b.finish();
        assert_eq!(units.len(), 12);
        assert_eq!(gifs, expected_gifs);
        // Arrival order preserved.
        for (i, u) in units.iter().enumerate() {
            assert_eq!(u.subs, vec![SubId::new(i as u64)]);
        }
    }

    #[test]
    fn single_zone_matches_flat_run_bit_for_bit() {
        let inp = input(40, 10, 3);
        for metric in ClosenessMetric::ALL {
            let config = ZonedConfig::with_metric(metric);
            let flat = CramBuilder::from_config(config.cram).run(&inp).unwrap();
            let mut feed =
                InputZoneFeed::new(&inp, &ZonePlan::PublisherAffinity { zones: 1, seed: 0 });
            let zoned = zoned_allocate(
                &mut feed,
                &inp.brokers,
                &inp.publishers,
                &config,
                &Registry::disabled(),
            )
            .unwrap();
            assert_eq!(zoned.allocation, flat.0, "{metric:?}");
            assert_eq!(zoned.zones.len(), 1);
            assert_eq!(zoned.zones[0].stats, flat.1, "{metric:?}");
            assert!(zoned.cross_stats.is_none());
            assert_eq!(zoned.cross_links, 0);
        }
    }

    #[test]
    fn multi_zone_run_covers_every_subscription() {
        let inp = input(60, 12, 4);
        let registry = Registry::new();
        let config = ZonedConfig::with_metric(ClosenessMetric::Intersect);
        let plan = ZonePlan::PublisherAffinity { zones: 4, seed: 3 };
        let mut feed = InputZoneFeed::new(&inp, &plan);
        let zoned =
            zoned_allocate(&mut feed, &inp.brokers, &inp.publishers, &config, &registry).unwrap();
        assert_eq!(zoned.sub_count(), 60);
        let mut ids: Vec<SubId> = zoned
            .allocation
            .loads
            .iter()
            .flat_map(|l| l.sub_ids())
            .collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..60).map(SubId::new).collect::<Vec<_>>());
        assert!(zoned.cross_stats.is_some());
        assert_eq!(
            zoned.zones.iter().map(|z| z.subscriptions).sum::<usize>(),
            60
        );
        // Telemetry observed the run.
        let snap = registry.snapshot();
        assert_eq!(snap.gauges.get("zone.count"), Some(&4));
        assert!(snap.spans.keys().any(|k| k.starts_with("zone.cram.z")));
        assert!(snap.spans.contains_key("zone.cram.cross"));
        assert_eq!(
            snap.counters.get("zone.merge.cross_links").copied(),
            Some(zoned.cross_links)
        );
    }

    #[test]
    fn wave_width_does_not_change_the_result() {
        let inp = input(48, 10, 4);
        let plan = ZonePlan::PublisherAffinity { zones: 3, seed: 1 };
        let mut outcomes = Vec::new();
        for wave in [1usize, 2, 4] {
            let config = ZonedConfig::with_metric(ClosenessMetric::Ios).zone_threads(wave);
            let mut feed = InputZoneFeed::new(&inp, &plan);
            outcomes.push(
                zoned_allocate(
                    &mut feed,
                    &inp.brokers,
                    &inp.publishers,
                    &config,
                    &Registry::disabled(),
                )
                .unwrap(),
            );
        }
        assert_eq!(outcomes[0], outcomes[1]);
        assert_eq!(outcomes[0], outcomes[2]);
    }

    #[test]
    fn artifact_roundtrip_is_identity() {
        let inp = input(30, 8, 3);
        let plan = ZonePlan::PublisherAffinity { zones: 2, seed: 5 };
        let mut feed = InputZoneFeed::new(&inp, &plan);
        let zoned = zoned_allocate(
            &mut feed,
            &inp.brokers,
            &inp.publishers,
            &ZonedConfig::with_metric(ClosenessMetric::Iou),
            &Registry::disabled(),
        )
        .unwrap();
        let json = zoned.to_json();
        let back = ZonedAllocation::from_json(&json).unwrap();
        assert_eq!(back, zoned);
    }

    #[test]
    fn zoned_phase_checkpoints_and_replays() {
        let inp = input(24, 8, 2);
        let ctx = ReconfigContext::new();
        let mut pipeline = Pipeline::new(ctx.clone());
        let mut phase = ZonedAllocatePhase {
            input: &inp,
            plan: ZonePlan::PublisherAffinity { zones: 2, seed: 2 },
            config: ZonedConfig::with_metric(ClosenessMetric::Intersect),
            resume: None,
            partial: None,
        };
        let first = pipeline.run_phase(&mut phase, ()).unwrap();
        assert!(pipeline.store().contains(PhaseKind::ZonedAllocate));
        // Resume from the serialized store: bit-identical replay.
        let text = pipeline.into_store().to_json();
        let store = crate::pipeline::CheckpointStore::from_json(&text).unwrap();
        let mut resumed = Pipeline::resume(ReconfigContext::new(), store);
        let replayed = resumed.run_phase(&mut phase, ()).unwrap();
        assert_eq!(replayed, first);
    }

    #[test]
    fn infeasible_pool_propagates() {
        let mut inp = input(20, 4, 2);
        for b in &mut inp.brokers {
            b.out_bandwidth = 1.0;
        }
        let mut feed = InputZoneFeed::new(&inp, &ZonePlan::PublisherAffinity { zones: 2, seed: 0 });
        let err = zoned_allocate(
            &mut feed,
            &inp.brokers,
            &inp.publishers,
            &ZonedConfig::with_metric(ClosenessMetric::Intersect),
            &Registry::disabled(),
        );
        assert!(err.is_err());
    }
}
