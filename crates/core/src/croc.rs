//! CROC planning: the end-to-end composition of Phases 2 and 3 plus
//! GRAPE into a reconfiguration plan.
//!
//! This module is pure computation: it consumes the information gathered
//! in Phase 1 (an [`AllocationInput`]) and produces a
//! [`ReconfigurationPlan`] — the new broker tree, where every
//! subscription must migrate, and where every publisher should connect.
//! The messaging side of CROC (BIR/BIA gathering and plan execution)
//! lives in `greenps-broker`.

use crate::cram::{CramBuilder, CramConfig, CramStats};
use crate::grape::{place_publishers_cancellable, GrapeConfig, InterestTree};
use crate::model::{AllocError, Allocation, AllocationInput};
use crate::overlay::{
    build_overlay_cancellable, AllocatorKind, Overlay, OverlayConfig, OverlayError,
};
use crate::pipeline::artifact::{
    allocation_from_json, allocation_to_json, arr_field, cram_stats_from_json, cram_stats_to_json,
    field, overlay_from_json, overlay_to_json, u64_field,
};
use crate::pipeline::{
    Artifact, ArtifactError, Phase, PhaseKind, Pipeline, PipelineError, ReconfigContext,
};
use crate::sorting::units_from_input;
use greenps_pubsub::ids::{AdvId, BrokerId, SubId};
use greenps_telemetry::json::JsonValue;
use greenps_telemetry::{names, Span};
use std::collections::BTreeMap;
use std::fmt;

/// Full CROC configuration.
#[derive(Debug, Clone, Copy)]
pub struct PlanConfig {
    /// Overlay construction settings; its allocator also drives Phase 2
    /// so that the whole scheme stays consistent.
    pub overlay: OverlayConfig,
    /// GRAPE publisher-relocation settings.
    pub grape: GrapeConfig,
}

impl PlanConfig {
    /// The paper's recommended configuration: CRAM with a metric, all
    /// optimizations, load-minimizing GRAPE.
    pub fn cram(metric: greenps_profile::ClosenessMetric) -> Self {
        Self {
            overlay: OverlayConfig::new(AllocatorKind::Cram(CramConfig::with_metric(metric))),
            grape: GrapeConfig::minimize_load(),
        }
    }

    /// BIN PACKING without clustering.
    pub fn bin_packing() -> Self {
        Self {
            overlay: OverlayConfig::new(AllocatorKind::BinPacking),
            grape: GrapeConfig::minimize_load(),
        }
    }

    /// FBF with a shuffle seed.
    pub fn fbf(seed: u64) -> Self {
        Self {
            overlay: OverlayConfig::new(AllocatorKind::Fbf { seed }),
            grape: GrapeConfig::minimize_load(),
        }
    }
}

/// The outcome of Phases 2–3 plus GRAPE.
#[derive(Debug, Clone)]
pub struct ReconfigurationPlan {
    /// Phase-2 allocation (leaf layer).
    pub allocation: Allocation,
    /// Phase-3 broker tree.
    pub overlay: Overlay,
    /// Where each subscription must migrate.
    pub subscription_homes: BTreeMap<SubId, BrokerId>,
    /// Where each publisher should connect (GRAPE).
    pub publisher_homes: BTreeMap<AdvId, BrokerId>,
    /// CRAM statistics when CRAM was the allocator.
    pub cram_stats: Option<CramStats>,
}

impl ReconfigurationPlan {
    /// Number of brokers in the new deployment.
    pub fn broker_count(&self) -> usize {
        self.overlay.broker_count()
    }
}

/// Errors from planning.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanError {
    /// Phase-2 allocation failed.
    Alloc(AllocError),
    /// Phase-3 construction failed.
    Overlay(OverlayError),
    /// The subscription pool was empty — nothing to plan.
    NoSubscriptions,
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::Alloc(e) => write!(f, "phase 2 failed: {e}"),
            PlanError::Overlay(e) => write!(f, "phase 3 failed: {e}"),
            PlanError::NoSubscriptions => f.write_str("subscription pool is empty"),
        }
    }
}

impl std::error::Error for PlanError {}

impl From<AllocError> for PlanError {
    fn from(e: AllocError) -> Self {
        PlanError::Alloc(e)
    }
}

impl From<OverlayError> for PlanError {
    fn from(e: OverlayError) -> Self {
        PlanError::Overlay(e)
    }
}

/// The Phase-2 result: the allocation plus CRAM counters when CRAM ran.
///
/// This is the artifact the pipeline checkpoints between allocation and
/// overlay construction.
#[derive(Debug, Clone, PartialEq)]
pub struct PlannedAllocation {
    /// The leaf-layer allocation.
    pub allocation: Allocation,
    /// CRAM statistics, when CRAM was the allocator.
    pub cram_stats: Option<CramStats>,
}

impl Artifact for PlannedAllocation {
    const KIND: &'static str = "planned-allocation";

    fn to_json(&self) -> JsonValue {
        let obj = JsonValue::obj().field("allocation", allocation_to_json(&self.allocation));
        match &self.cram_stats {
            Some(stats) => obj.field("cram_stats", cram_stats_to_json(stats)),
            None => obj,
        }
    }

    fn from_json(value: &JsonValue) -> Result<Self, ArtifactError> {
        Ok(PlannedAllocation {
            allocation: allocation_from_json(field(value, "allocation")?)?,
            cram_stats: match value.get("cram_stats") {
                Some(stats) => Some(cram_stats_from_json(stats)?),
                None => None,
            },
        })
    }
}

impl Artifact for ReconfigurationPlan {
    const KIND: &'static str = "reconfiguration-plan";

    fn to_json(&self) -> JsonValue {
        let homes = |pairs: Vec<(u64, u64)>| {
            JsonValue::Arr(
                pairs
                    .into_iter()
                    .map(|(k, b)| {
                        JsonValue::obj()
                            .field("id", JsonValue::U64(k))
                            .field("broker", JsonValue::U64(b))
                    })
                    .collect(),
            )
        };
        let obj = JsonValue::obj()
            .field("allocation", allocation_to_json(&self.allocation))
            .field("overlay", overlay_to_json(&self.overlay))
            .field(
                "subscription_homes",
                homes(
                    self.subscription_homes
                        .iter()
                        .map(|(s, b)| (s.raw(), b.raw()))
                        .collect(),
                ),
            )
            .field(
                "publisher_homes",
                homes(
                    self.publisher_homes
                        .iter()
                        .map(|(a, b)| (a.raw(), b.raw()))
                        .collect(),
                ),
            );
        match &self.cram_stats {
            Some(stats) => obj.field("cram_stats", cram_stats_to_json(stats)),
            None => obj,
        }
    }

    fn from_json(value: &JsonValue) -> Result<Self, ArtifactError> {
        let subscription_homes = arr_field(value, "subscription_homes")?
            .iter()
            .map(|entry| {
                Ok((
                    SubId::new(u64_field(entry, "id")?),
                    BrokerId::new(u64_field(entry, "broker")?),
                ))
            })
            .collect::<Result<BTreeMap<_, _>, ArtifactError>>()?;
        let mut publisher_homes = BTreeMap::new();
        for entry in arr_field(value, "publisher_homes")? {
            publisher_homes.insert(
                AdvId::new(u64_field(entry, "id")?),
                BrokerId::new(u64_field(entry, "broker")?),
            );
        }
        Ok(ReconfigurationPlan {
            allocation: allocation_from_json(field(value, "allocation")?)?,
            overlay: overlay_from_json(field(value, "overlay")?)?,
            subscription_homes,
            publisher_homes,
            cram_stats: match value.get("cram_stats") {
                Some(stats) => Some(cram_stats_from_json(stats)?),
                None => None,
            },
        })
    }
}

/// Runs Phase 2: groups subscriptions and allocates brokers with the
/// configured allocator, under the `phase2.allocation` span.
///
/// # Errors
/// Fails on an empty subscription pool or an infeasible allocation.
pub fn allocate(
    input: &AllocationInput,
    config: &PlanConfig,
    ctx: &ReconfigContext,
) -> Result<PlannedAllocation, PlanError> {
    if input.subscriptions.is_empty() {
        return Err(PlanError::NoSubscriptions);
    }
    let registry = ctx.registry();
    let _span = Span::enter(registry, &names::PHASE2_ALLOCATION);
    let mut cram_stats = None;
    let cancel = ctx.cancel_token();
    let allocation = match &config.overlay.allocator {
        sorting @ (AllocatorKind::Fbf { .. } | AllocatorKind::BinPacking) => {
            let units = units_from_input(input);
            sorting.allocate_units(&input.brokers, &input.publishers, units, &cancel)?
        }
        AllocatorKind::Cram(cfg) => {
            let (a, stats) = CramBuilder::from_config(*cfg)
                .telemetry(registry)
                .cancel_token(&cancel)
                .run(input)?;
            cram_stats = Some(stats);
            a
        }
    };
    Ok(PlannedAllocation {
        allocation,
        cram_stats,
    })
}

/// Runs Phase 3 computation on an existing allocation: overlay
/// construction (`phase3.overlay` span) plus GRAPE publisher relocation
/// (`grape` span).
///
/// # Errors
/// Fails when overlay construction fails.
pub fn finish_plan(
    input: &AllocationInput,
    planned: PlannedAllocation,
    config: &PlanConfig,
    ctx: &ReconfigContext,
) -> Result<ReconfigurationPlan, PlanError> {
    let registry = ctx.registry();
    let cancel = ctx.cancel_token();
    let overlay = {
        let _span = Span::enter(registry, &names::PHASE3_OVERLAY);
        build_overlay_cancellable(input, &planned.allocation, &config.overlay, &cancel)?
    };
    let subscription_homes = overlay.subscription_homes();
    let publisher_homes = {
        let _span = Span::enter(registry, &names::GRAPE);
        let tree = InterestTree::from_overlay_cancellable(&overlay, &cancel)?;
        place_publishers_cancellable(&tree, &input.publishers, config.grape, &cancel)?
    };
    Ok(ReconfigurationPlan {
        allocation: planned.allocation,
        overlay,
        subscription_homes,
        publisher_homes,
        cram_stats: planned.cram_stats,
    })
}

/// The pipeline's `Allocate` stage: [`allocate`] as a checkpointable
/// [`Phase`].
#[derive(Debug)]
pub struct AllocatePhase<'a> {
    /// The gathered Phase-1 input.
    pub input: &'a AllocationInput,
    /// The planning configuration.
    pub config: PlanConfig,
}

impl Phase for AllocatePhase<'_> {
    type Input = ();
    type Output = PlannedAllocation;
    const KIND: PhaseKind = PhaseKind::Allocate;

    fn run(
        &mut self,
        _input: (),
        ctx: &ReconfigContext,
    ) -> Result<PlannedAllocation, PipelineError> {
        allocate(self.input, &self.config, ctx).map_err(PipelineError::Plan)
    }
}

/// The pipeline's `BuildOverlay` stage: [`finish_plan`] as a
/// checkpointable [`Phase`].
#[derive(Debug)]
pub struct BuildOverlayPhase<'a> {
    /// The gathered Phase-1 input.
    pub input: &'a AllocationInput,
    /// The planning configuration.
    pub config: PlanConfig,
}

impl Phase for BuildOverlayPhase<'_> {
    type Input = PlannedAllocation;
    type Output = ReconfigurationPlan;
    const KIND: PhaseKind = PhaseKind::BuildOverlay;

    fn run(
        &mut self,
        planned: PlannedAllocation,
        ctx: &ReconfigContext,
    ) -> Result<ReconfigurationPlan, PipelineError> {
        finish_plan(self.input, planned, &self.config, ctx).map_err(PipelineError::Plan)
    }
}

/// Runs Phase 2 (allocation), Phase 3 (overlay construction) and GRAPE
/// through the checkpointable pipeline, under `ctx`.
///
/// Telemetry is observation only: the plan is bit-identical with any
/// registry, including the disabled default of
/// [`ReconfigContext::new`].
///
/// # Errors
/// Propagates allocation/overlay failures; fails on an empty
/// subscription pool or a cancelled context.
pub fn plan(
    input: &AllocationInput,
    config: &PlanConfig,
    ctx: &ReconfigContext,
) -> Result<ReconfigurationPlan, PipelineError> {
    let mut pipeline = Pipeline::new(ctx.clone());
    plan_phases(&mut pipeline, input, config)
}

/// [`plan`] against a caller-owned [`Pipeline`], so interrupted plans
/// checkpoint and resume.
///
/// # Errors
/// Same as [`plan`].
pub fn plan_phases(
    pipeline: &mut Pipeline,
    input: &AllocationInput,
    config: &PlanConfig,
) -> Result<ReconfigurationPlan, PipelineError> {
    let planned = pipeline.run_phase(
        &mut AllocatePhase {
            input,
            config: *config,
        },
        (),
    )?;
    pipeline.run_phase(
        &mut BuildOverlayPhase {
            input,
            config: *config,
        },
        planned,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{BrokerSpec, LinearFn, SubscriptionEntry};
    use greenps_profile::{
        ClosenessMetric, PublisherProfile, PublisherTable, ShiftingBitVector, SubscriptionProfile,
    };
    use greenps_pubsub::ids::MsgId;
    use greenps_pubsub::Filter;

    fn input() -> AllocationInput {
        let publishers: PublisherTable = [
            PublisherProfile::new(AdvId::new(1), 50.0, 50_000.0, MsgId::new(99)),
            PublisherProfile::new(AdvId::new(2), 50.0, 50_000.0, MsgId::new(99)),
        ]
        .into_iter()
        .collect();
        let subscriptions = (0..10u64)
            .map(|i| {
                let adv = 1 + (i % 2);
                let mut v = ShiftingBitVector::starting_at(100, 0);
                for id in 0..30 {
                    v.record(id);
                }
                let mut p = SubscriptionProfile::with_capacity(100);
                p.insert_vector(AdvId::new(adv), v);
                SubscriptionEntry::new(SubId::new(i), Filter::new(), p)
            })
            .collect();
        let brokers = (0..12u64)
            .map(|i| {
                BrokerSpec::new(
                    BrokerId::new(i),
                    format!("b{i}"),
                    LinearFn::new(0.0001, 0.0),
                    50_000.0,
                )
            })
            .collect();
        AllocationInput {
            brokers,
            subscriptions,
            publishers,
        }
    }

    #[test]
    fn cram_plan_end_to_end() {
        let inp = input();
        let plan = plan(
            &inp,
            &PlanConfig::cram(ClosenessMetric::Ios),
            &ReconfigContext::new(),
        )
        .unwrap();
        assert_eq!(plan.subscription_homes.len(), 10);
        assert_eq!(plan.publisher_homes.len(), 2);
        assert!(plan.cram_stats.is_some());
        plan.overlay.check_tree();
        // Every home is a broker in the overlay.
        for b in plan.subscription_homes.values() {
            assert!(plan.overlay.node(*b).is_some());
        }
        for b in plan.publisher_homes.values() {
            assert!(plan.overlay.node(*b).is_some());
        }
        assert!(plan.broker_count() <= inp.brokers.len());
    }

    #[test]
    fn bin_packing_and_fbf_plans_work() {
        let inp = input();
        for cfg in [PlanConfig::bin_packing(), PlanConfig::fbf(7)] {
            let plan = plan(&inp, &cfg, &ReconfigContext::new()).unwrap();
            assert_eq!(plan.subscription_homes.len(), 10);
            assert!(plan.cram_stats.is_none());
        }
    }

    #[test]
    fn empty_pool_is_an_error() {
        let mut inp = input();
        inp.subscriptions.clear();
        assert!(matches!(
            plan(&inp, &PlanConfig::bin_packing(), &ReconfigContext::new()),
            Err(PipelineError::Plan(PlanError::NoSubscriptions))
        ));
    }

    #[test]
    fn infeasible_input_propagates() {
        let mut inp = input();
        for b in &mut inp.brokers {
            b.out_bandwidth = 10.0;
        }
        assert!(matches!(
            plan(&inp, &PlanConfig::bin_packing(), &ReconfigContext::new()),
            Err(PipelineError::Plan(PlanError::Alloc(_)))
        ));
    }

    #[test]
    fn error_display() {
        assert_eq!(
            PlanError::NoSubscriptions.to_string(),
            "subscription pool is empty"
        );
        let e = PlanError::Alloc(AllocError::NoBrokers);
        assert_eq!(e.to_string(), "phase 2 failed: broker pool is empty");
    }
}
