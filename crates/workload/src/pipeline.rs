//! The workload half of the reconfiguration pipeline: Gather, Deploy
//! and Measure phases over a [`Scenario`], composed with the core
//! Allocate/BuildOverlay phases into one checkpointable
//! [`ReconfigPipeline`] — deploy MANUAL, profile, gather, plan with an
//! [`Approach`], redeploy, measure: the run behind every figure in the
//! evaluation.
//!
//! Every phase output is a serializable [`Artifact`], so an interrupted
//! run exports its [`CheckpointStore`] as JSON and a later process
//! resumes bit-identically from the last completed phase (see
//! DESIGN.md §11).

use crate::scenario::Scenario;
use crate::topology::{automatic, deploy, from_allocation, from_plan, manual, Placement};
use greenps_broker::{BrokerConfig, Deployment, RunMetrics, TopologySpec};
use greenps_core::cram::{CramBuilder, CramStats};
use greenps_core::croc::{
    AllocatePhase, BuildOverlayPhase, PlanConfig, PlannedAllocation, ReconfigurationPlan,
};
use greenps_core::grape::{place_publishers, GrapeConfig, InterestTree};
use greenps_core::model::{AllocError, AllocationInput};
use greenps_core::overlay::OverlayStats;
use greenps_core::pairwise::{pairwise_k, pairwise_n};
use greenps_core::pipeline::artifact::{
    self, arr_field, f64_field, ids_from_json, ids_to_json, linear_fn_from_json, linear_fn_to_json,
    quantity_field, str_field, u64_field, usize_field,
};
use greenps_core::pipeline::{
    Artifact, ArtifactError, CheckpointStore, Phase, PhaseKind, Pipeline, PipelineError,
    ReconfigContext,
};
use greenps_profile::{ClosenessMetric, SubscriptionProfile};
use greenps_pubsub::ids::{AdvId, BrokerId};
use greenps_simnet::{LinkSpec, SimDuration};
use greenps_telemetry::json::JsonValue;
use greenps_telemetry::{names, Span};
use std::collections::{BTreeMap, BTreeSet};
use std::time::Duration;

// ---------------------------------------------------------------------
// Runs
// ---------------------------------------------------------------------

/// The approaches compared in the evaluation (paper §VI).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Approach {
    /// Baseline: fan-out-2 tree, capacity-aware manual placement.
    Manual,
    /// Baseline: random tree, random placement.
    Automatic,
    /// Related work: pairwise clustering, K = CRAM-XOR's cluster count.
    PairwiseK,
    /// Related work: pairwise clustering, one cluster per broker.
    PairwiseN,
    /// Fastest Broker First.
    Fbf,
    /// BIN PACKING.
    BinPacking,
    /// CRAM with a closeness metric.
    Cram(ClosenessMetric),
    /// Publisher relocation only (GRAPE on the MANUAL topology) — the
    /// §II-B limitation experiment.
    GrapeOnly,
}

impl Approach {
    /// Every approach in the paper's comparison, in presentation order.
    pub const ALL_PAPER: [Approach; 10] = [
        Approach::Manual,
        Approach::Automatic,
        Approach::PairwiseK,
        Approach::PairwiseN,
        Approach::Fbf,
        Approach::BinPacking,
        Approach::Cram(ClosenessMetric::Intersect),
        Approach::Cram(ClosenessMetric::Xor),
        Approach::Cram(ClosenessMetric::Ios),
        Approach::Cram(ClosenessMetric::Iou),
    ];

    /// Human-readable label.
    pub fn label(&self) -> String {
        match self {
            Approach::Manual => "MANUAL".into(),
            Approach::Automatic => "AUTOMATIC".into(),
            Approach::PairwiseK => "PAIRWISE-K".into(),
            Approach::PairwiseN => "PAIRWISE-N".into(),
            Approach::Fbf => "FBF".into(),
            Approach::BinPacking => "BINPACKING".into(),
            Approach::Cram(m) => format!("CRAM-{m}"),
            Approach::GrapeOnly => "GRAPE-ONLY".into(),
        }
    }
}

/// Timing knobs of one run (simulated durations).
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Warm-up before profiling (advertisements/subscriptions settle).
    pub warmup: SimDuration,
    /// Profiling window (fills bit vectors).
    pub profile: SimDuration,
    /// Measurement window.
    pub measure: SimDuration,
    /// Seed for placements and FBF order.
    pub seed: u64,
}

impl Default for RunConfig {
    fn default() -> Self {
        Self {
            warmup: SimDuration::from_secs(5),
            profile: SimDuration::from_secs(120),
            measure: SimDuration::from_secs(120),
            seed: 1,
        }
    }
}

/// The outcome of running one approach on one scenario.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Which approach.
    pub approach: String,
    /// Scenario label.
    pub scenario: String,
    /// Total subscriptions.
    pub subscriptions: usize,
    /// Brokers deployed after reconfiguration (pool size for the
    /// baselines).
    pub allocated_brokers: usize,
    /// Measured deployment metrics.
    pub metrics: RunMetrics,
    /// Wall-clock time spent computing the allocation + overlay +
    /// placement (zero for phases replayed from checkpoints).
    pub plan_time: Duration,
    /// CRAM counters, when CRAM ran.
    pub cram_stats: Option<CramStats>,
    /// Overlay-construction counters, when Phase 3 ran.
    pub overlay_stats: Option<OverlayStats>,
}

// ---------------------------------------------------------------------
// Artifacts
// ---------------------------------------------------------------------

fn broker_config_to_json(b: &BrokerConfig) -> JsonValue {
    JsonValue::obj()
        .field("id", JsonValue::U64(b.id.raw()))
        .field("url", JsonValue::string(&b.url))
        .field("matching_delay", linear_fn_to_json(&b.matching_delay))
        .field("out_bandwidth", JsonValue::from_f64(b.out_bandwidth))
        .field("profile_bits", JsonValue::U64(b.profile_bits as u64))
}

fn broker_config_from_json(value: &JsonValue) -> Result<BrokerConfig, ArtifactError> {
    Ok(BrokerConfig {
        id: BrokerId::new(u64_field(value, "id")?),
        url: str_field(value, "url")?.to_string(),
        matching_delay: linear_fn_from_json(artifact::field(value, "matching_delay")?)?,
        out_bandwidth: quantity_field(value, "out_bandwidth")?,
        profile_bits: usize_field(value, "profile_bits")?,
    })
}

fn link_to_json(l: &LinkSpec) -> JsonValue {
    let obj = JsonValue::obj().field("latency_us", JsonValue::U64(l.latency.as_micros()));
    match l.bandwidth {
        Some(bw) => obj.field("bandwidth", JsonValue::from_f64(bw)),
        None => obj,
    }
}

fn link_from_json(value: &JsonValue) -> Result<LinkSpec, ArtifactError> {
    Ok(LinkSpec {
        latency: SimDuration::from_micros(u64_field(value, "latency_us")?),
        bandwidth: match value.get("bandwidth") {
            Some(v) => Some(
                v.as_f64()
                    .ok_or_else(|| ArtifactError::new("field `bandwidth` is not a float string"))?,
            ),
            None => None,
        },
    })
}

fn placement_to_json(p: &Placement) -> JsonValue {
    JsonValue::obj()
        .field(
            "spec",
            JsonValue::obj()
                .field(
                    "brokers",
                    JsonValue::Arr(p.spec.brokers.iter().map(broker_config_to_json).collect()),
                )
                .field(
                    "edges",
                    JsonValue::Arr(
                        p.spec
                            .edges
                            .iter()
                            .map(|&(a, b)| {
                                JsonValue::Arr(vec![
                                    JsonValue::U64(a.raw()),
                                    JsonValue::U64(b.raw()),
                                ])
                            })
                            .collect(),
                    ),
                )
                .field("link", link_to_json(&p.spec.link)),
        )
        .field(
            "publisher_homes",
            ids_to_json(p.publisher_homes.iter().copied()),
        )
        .field(
            "subscriber_homes",
            ids_to_json(p.subscriber_homes.iter().copied()),
        )
}

/// Decodes a placement and checks that it names each broker once and
/// every edge end and client home among them, so a corrupt checkpoint
/// fails here instead of deploying a different overlay.
fn placement_from_json(value: &JsonValue) -> Result<Placement, ArtifactError> {
    let spec = artifact::field(value, "spec")?;
    let edges = arr_field(spec, "edges")?
        .iter()
        .map(|pair| {
            let ids = pair
                .as_arr()
                .filter(|a| a.len() == 2)
                .ok_or_else(|| ArtifactError::new("edge is not a two-element array"))?;
            let ends = ids_from_json::<BrokerId>(ids)?;
            Ok((ends[0], ends[1]))
        })
        .collect::<Result<Vec<_>, ArtifactError>>()?;
    let placement = Placement {
        spec: TopologySpec {
            brokers: arr_field(spec, "brokers")?
                .iter()
                .map(broker_config_from_json)
                .collect::<Result<_, _>>()?,
            edges,
            link: link_from_json(artifact::field(spec, "link")?)?,
        },
        publisher_homes: ids_from_json(arr_field(value, "publisher_homes")?)?,
        subscriber_homes: ids_from_json(arr_field(value, "subscriber_homes")?)?,
    };
    let mut listed = BTreeSet::new();
    if let Some(b) = placement.spec.brokers.iter().find(|b| !listed.insert(b.id)) {
        return Err(ArtifactError::new(format!(
            "placement lists broker {} twice",
            b.id
        )));
    }
    let unlisted = placement
        .spec
        .edges
        .iter()
        .flat_map(|&(a, b)| [a, b])
        .chain(placement.publisher_homes.iter().copied())
        .chain(placement.subscriber_homes.iter().copied())
        .find(|id| !listed.contains(id));
    match unlisted {
        Some(id) => Err(ArtifactError::new(format!(
            "placement names unlisted broker {id}"
        ))),
        None => Ok(placement),
    }
}

/// Phase-1 output: the profiled MANUAL placement plus the gathered
/// allocation input.
#[derive(Debug, Clone)]
pub struct GatherOut {
    /// The MANUAL placement the scenario was profiled on.
    pub placement: Placement,
    /// The gathered Phase-2 input (broker specs, subscription profiles,
    /// publisher profiles).
    pub input: AllocationInput,
}

impl Artifact for GatherOut {
    const KIND: &'static str = "gathered";

    fn to_json(&self) -> JsonValue {
        JsonValue::obj()
            .field("placement", placement_to_json(&self.placement))
            .field("input", self.input.to_json())
    }

    fn from_json(value: &JsonValue) -> Result<Self, ArtifactError> {
        Ok(GatherOut {
            placement: placement_from_json(artifact::field(value, "placement")?)?,
            input: AllocationInput::from_json(artifact::field(value, "input")?)?,
        })
    }
}

/// Deploy-phase output: the placement the measurement runs against.
#[derive(Debug, Clone)]
pub struct PlacementOut(pub Placement);

impl Artifact for PlacementOut {
    const KIND: &'static str = "placement";

    fn to_json(&self) -> JsonValue {
        placement_to_json(&self.0)
    }

    fn from_json(value: &JsonValue) -> Result<Self, ArtifactError> {
        placement_from_json(value).map(PlacementOut)
    }
}

/// Measure-phase output: the deployment-wide metrics.
#[derive(Debug, Clone)]
pub struct MeasureOut(pub RunMetrics);

impl Artifact for MeasureOut {
    const KIND: &'static str = "run-metrics";

    fn to_json(&self) -> JsonValue {
        let m = &self.0;
        JsonValue::obj()
            .field("window_us", JsonValue::U64(m.window.as_micros()))
            .field(
                "broker_msg_rates",
                JsonValue::Arr(
                    m.broker_msg_rates
                        .iter()
                        .map(|&(b, r)| {
                            JsonValue::Arr(vec![JsonValue::U64(b.raw()), JsonValue::from_f64(r)])
                        })
                        .collect(),
                ),
            )
            .field(
                "avg_broker_msg_rate",
                JsonValue::from_f64(m.avg_broker_msg_rate),
            )
            .field(
                "avg_active_broker_msg_rate",
                JsonValue::from_f64(m.avg_active_broker_msg_rate),
            )
            .field("total_msgs", JsonValue::U64(m.total_msgs))
            .field("deliveries", JsonValue::U64(m.deliveries))
            .field("mean_hops", JsonValue::from_f64(m.mean_hops))
            .field("mean_delay_s", JsonValue::from_f64(m.mean_delay_s))
    }

    fn from_json(value: &JsonValue) -> Result<Self, ArtifactError> {
        let broker_msg_rates = arr_field(value, "broker_msg_rates")?
            .iter()
            .map(|pair| {
                let items = pair
                    .as_arr()
                    .filter(|a| a.len() == 2)
                    .ok_or_else(|| ArtifactError::new("rate is not a two-element array"))?;
                let broker = items[0]
                    .as_u64()
                    .ok_or_else(|| ArtifactError::new("rate broker is not an integer"))?;
                let rate = items[1]
                    .as_f64()
                    .ok_or_else(|| ArtifactError::new("rate is not a float string"))?;
                Ok((BrokerId::new(broker), rate))
            })
            .collect::<Result<Vec<_>, ArtifactError>>()?;
        Ok(MeasureOut(RunMetrics {
            window: SimDuration::from_micros(u64_field(value, "window_us")?),
            broker_msg_rates,
            avg_broker_msg_rate: f64_field(value, "avg_broker_msg_rate")?,
            avg_active_broker_msg_rate: f64_field(value, "avg_active_broker_msg_rate")?,
            total_msgs: u64_field(value, "total_msgs")?,
            deliveries: u64_field(value, "deliveries")?,
            mean_hops: f64_field(value, "mean_hops")?,
            mean_delay_s: f64_field(value, "mean_delay_s")?,
        }))
    }
}

// ---------------------------------------------------------------------
// Phases
// ---------------------------------------------------------------------

/// Phase 1: deploy MANUAL, warm up, profile, and gather BIAs.
#[derive(Debug)]
pub struct GatherPhase<'a> {
    /// The scenario to profile.
    pub scenario: &'a Scenario,
    /// Timing knobs (warmup/profile windows, placement seed).
    pub cfg: RunConfig,
}

impl Phase for GatherPhase<'_> {
    type Input = ();
    type Output = GatherOut;
    const KIND: PhaseKind = PhaseKind::Gather;

    fn run(&mut self, _input: (), ctx: &ReconfigContext) -> Result<GatherOut, PipelineError> {
        let placement = manual(self.scenario, self.cfg.seed);
        let mut d = deploy(self.scenario, &placement);
        d.set_telemetry(ctx.registry());
        d.run_for(self.cfg.warmup);
        d.run_for(self.cfg.profile);
        // The aggregated BIA grows with the subscription count (~200 B
        // per subscription) and is serialized through each broker's
        // output limiter like any other message, so large gathers take
        // minutes of *simulated* time — cheap to simulate, fatal to
        // time out on.
        let infos = d
            .gather(SimDuration::from_secs(1800))
            .map_err(|e| PipelineError::Phase {
                phase: PhaseKind::Gather,
                message: e.to_string(),
            })?;
        Ok(GatherOut {
            placement,
            input: Deployment::allocation_input(infos),
        })
    }
}

/// The pairwise related-work baselines as an Allocate stage.
#[derive(Debug)]
pub struct PairwisePhase<'a> {
    /// The gathered Phase-1 input.
    pub input: &'a AllocationInput,
    /// `true` for PAIRWISE-K (K = CRAM-XOR's cluster count), `false`
    /// for PAIRWISE-N.
    pub use_cram_k: bool,
    /// Seed for the clustering order.
    pub seed: u64,
}

impl Phase for PairwisePhase<'_> {
    type Input = ();
    type Output = PlannedAllocation;
    const KIND: PhaseKind = PhaseKind::Allocate;

    fn run(
        &mut self,
        _input: (),
        ctx: &ReconfigContext,
    ) -> Result<PlannedAllocation, PipelineError> {
        let result = if self.use_cram_k {
            let (_, stats) = CramBuilder::new(ClosenessMetric::Xor)
                .telemetry(ctx.registry())
                .run(self.input)
                .map_err(|e| PipelineError::Phase {
                    phase: PhaseKind::Allocate,
                    message: format!("CRAM-XOR for K failed: {e}"),
                })?;
            pairwise_k(
                self.input,
                stats.final_units,
                self.seed,
                &ctx.cancel_token(),
            )
        } else {
            pairwise_n(self.input, self.seed, &ctx.cancel_token())
        };
        let result = result.map_err(|e| match e {
            AllocError::Cancelled => PipelineError::Cancelled {
                phase: PhaseKind::Allocate,
            },
            other => PipelineError::Phase {
                phase: PhaseKind::Allocate,
                message: other.to_string(),
            },
        })?;
        Ok(PlannedAllocation {
            allocation: result.allocation,
            cram_stats: None,
        })
    }
}

/// Which placement the Deploy stage computes.
#[derive(Debug)]
enum DeployMode {
    /// MANUAL or AUTOMATIC over the full pool.
    Baseline { automatic: bool },
    /// GRAPE publisher relocation on the profiled MANUAL topology.
    GrapeOnly,
    /// AUTOMATIC-style overlay over a bare allocation (pairwise).
    FromAllocation,
    /// The CROC plan's own overlay and homes.
    FromPlan,
}

/// Deploy input: whichever upstream artifact the mode consumes.
#[derive(Debug)]
pub enum DeployInput {
    /// Baselines start from the scenario alone.
    None,
    /// GRAPE-only relocation starts from the gathered MANUAL state.
    Gathered(GatherOut),
    /// Pairwise baselines start from a bare allocation.
    Planned(PlannedAllocation),
    /// Planner approaches start from a full plan.
    Plan(ReconfigurationPlan),
}

/// Phase 3b: compute the placement the measurement deploys.
#[derive(Debug)]
pub struct DeployPhase<'a> {
    scenario: &'a Scenario,
    seed: u64,
    mode: DeployMode,
}

impl Phase for DeployPhase<'_> {
    type Input = DeployInput;
    type Output = PlacementOut;
    const KIND: PhaseKind = PhaseKind::Deploy;

    fn run(
        &mut self,
        input: DeployInput,
        _ctx: &ReconfigContext,
    ) -> Result<PlacementOut, PipelineError> {
        let bad_input = |expected: &str| PipelineError::Phase {
            phase: PhaseKind::Deploy,
            message: format!("deploy mode expected {expected} input"),
        };
        let placement = match (&self.mode, input) {
            (DeployMode::Baseline { automatic: false }, DeployInput::None) => {
                manual(self.scenario, self.seed)
            }
            (DeployMode::Baseline { automatic: true }, DeployInput::None) => {
                automatic(self.scenario, self.seed)
            }
            (DeployMode::GrapeOnly, DeployInput::Gathered(gathered)) => {
                relocate_publishers_only(self.scenario, gathered)
            }
            (DeployMode::FromAllocation, DeployInput::Planned(planned)) => {
                from_allocation(self.scenario, &planned.allocation, self.seed)
            }
            (DeployMode::FromPlan, DeployInput::Plan(plan)) => from_plan(self.scenario, &plan),
            (DeployMode::Baseline { .. }, _) => return Err(bad_input("no")),
            (DeployMode::GrapeOnly, _) => return Err(bad_input("gathered")),
            (DeployMode::FromAllocation, _) => return Err(bad_input("planned-allocation")),
            (DeployMode::FromPlan, _) => return Err(bad_input("reconfiguration-plan")),
        };
        Ok(PlacementOut(placement))
    }
}

/// The §II-B limitation experiment: build the interest tree of the
/// *existing* MANUAL topology from the gathered profiles and relocate
/// publishers only.
fn relocate_publishers_only(scenario: &Scenario, gathered: GatherOut) -> Placement {
    let GatherOut {
        mut placement,
        input,
    } = gathered;
    let mut locals: BTreeMap<_, SubscriptionProfile> = placement
        .spec
        .brokers
        .iter()
        .map(|b| (b.id, SubscriptionProfile::new()))
        .collect();
    for (i, sub) in scenario.subs.iter().enumerate() {
        if let Some(entry) = input.subscriptions.iter().find(|e| e.id == sub.id) {
            locals
                .get_mut(&placement.subscriber_homes[i])
                .expect("home broker")
                .or_assign(&entry.profile);
        }
    }
    let tree = InterestTree::new(locals.into_iter().collect(), &placement.spec.edges);
    let homes = place_publishers(&tree, &input.publishers, GrapeConfig::minimize_load());
    for (i, home) in placement.publisher_homes.iter_mut().enumerate() {
        if let Some(b) = homes.get(&AdvId::new(i as u64 + 1)) {
            *home = *b;
        }
    }
    placement
}

/// Final stage: deploy the placement on the simulator, warm up, and
/// measure; the pool average is renormalized to the scenario's full
/// broker pool.
#[derive(Debug)]
pub struct MeasurePhase<'a> {
    /// The scenario being measured.
    pub scenario: &'a Scenario,
    /// Timing knobs (warmup and measurement windows).
    pub cfg: RunConfig,
}

impl Phase for MeasurePhase<'_> {
    type Input = PlacementOut;
    type Output = MeasureOut;
    const KIND: PhaseKind = PhaseKind::Measure;

    fn run(
        &mut self,
        placement: PlacementOut,
        ctx: &ReconfigContext,
    ) -> Result<MeasureOut, PipelineError> {
        let registry = ctx.registry();
        let mut d = {
            let _span = Span::enter(registry, &names::PHASE3_DEPLOYMENT);
            let mut d = deploy(self.scenario, &placement.0);
            d.set_telemetry(registry);
            d.run_for(self.cfg.warmup);
            d
        };
        let mut m = d.measure(self.cfg.measure);
        m.rescale_to_pool(self.scenario.broker_count());
        Ok(MeasureOut(m))
    }
}

// ---------------------------------------------------------------------
// Composition
// ---------------------------------------------------------------------

/// What the pipeline plans with.
#[derive(Debug, Clone)]
enum Mode {
    /// One of the paper's compared approaches.
    Approach(Approach),
    /// A fully custom plan configuration (ablations such as the GRAPE
    /// priority sweep).
    Custom { label: String, config: PlanConfig },
}

/// One end-to-end reconfiguration run over a scenario, checkpointable
/// at every phase boundary.
///
/// ```no_run
/// use greenps_core::pipeline::{PhaseKind, ReconfigContext};
/// use greenps_workload::pipeline::ReconfigPipeline;
/// use greenps_workload::{Approach, RunConfig, ScenarioBuilder, Topology};
///
/// let scenario = ScenarioBuilder::new(Topology::Homogeneous).build();
/// let run = ReconfigPipeline::approach(&scenario, Approach::Manual, RunConfig::default());
/// let ctx = ReconfigContext::new();
/// // Interrupt after the Deploy phase checkpoints…
/// let store = run.run_until(&ctx, PhaseKind::Deploy)?;
/// let json = store.to_json(); // …persist, then later:
/// let outcome = run.resume(
///     &ctx,
///     greenps_core::pipeline::CheckpointStore::from_json(&json)?,
/// )?;
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct ReconfigPipeline<'a> {
    scenario: &'a Scenario,
    cfg: RunConfig,
    mode: Mode,
}

impl<'a> ReconfigPipeline<'a> {
    /// A run of one of the paper's approaches.
    pub fn approach(scenario: &'a Scenario, approach: Approach, cfg: RunConfig) -> Self {
        Self {
            scenario,
            cfg,
            mode: Mode::Approach(approach),
        }
    }

    /// A run of a custom plan configuration, labeled for reports.
    pub fn custom_plan(
        scenario: &'a Scenario,
        label: &str,
        config: &PlanConfig,
        cfg: RunConfig,
    ) -> Self {
        Self {
            scenario,
            cfg,
            mode: Mode::Custom {
                label: label.to_string(),
                config: *config,
            },
        }
    }

    /// Runs the pipeline straight through.
    ///
    /// # Errors
    /// Propagates the first phase failure.
    pub fn run(&self, ctx: &ReconfigContext) -> Result<Outcome, PipelineError> {
        let mut pipeline = Pipeline::new(ctx.clone());
        self.drive(&mut pipeline)
    }

    /// Runs until `stop_after` checkpoints, then cancels — the
    /// interruption half of an interrupt/resume cycle. Returns the
    /// checkpoints accumulated so far; the context's cancellation flag
    /// is cleared on return so the same context can resume.
    ///
    /// # Errors
    /// Propagates phase failures other than the requested cancellation.
    pub fn run_until(
        &self,
        ctx: &ReconfigContext,
        stop_after: PhaseKind,
    ) -> Result<CheckpointStore, PipelineError> {
        let mut pipeline = Pipeline::new(ctx.clone()).stop_after(stop_after);
        let result = self.drive(&mut pipeline);
        ctx.clear_cancel();
        match result {
            Ok(_) | Err(PipelineError::Cancelled { .. }) => Ok(pipeline.into_store()),
            Err(e) => Err(e),
        }
    }

    /// Resumes from a checkpoint store: completed phases replay
    /// bit-identically without executing, the rest run live.
    ///
    /// # Errors
    /// Propagates phase failures and checkpoint decode failures.
    pub fn resume(
        &self,
        ctx: &ReconfigContext,
        store: CheckpointStore,
    ) -> Result<Outcome, PipelineError> {
        let mut pipeline = Pipeline::resume(ctx.clone(), store);
        self.drive(&mut pipeline)
    }

    /// Drives every phase of the selected mode through `pipeline`.
    fn drive(&self, pipeline: &mut Pipeline) -> Result<Outcome, PipelineError> {
        let label = match &self.mode {
            Mode::Approach(a) => a.label(),
            Mode::Custom { label, .. } => label.clone(),
        };
        let seed = self.cfg.seed;
        let scenario = self.scenario;

        let (placement, cram_stats, overlay_stats) = match &self.mode {
            Mode::Approach(Approach::Manual | Approach::Automatic) => {
                let is_auto = matches!(self.mode, Mode::Approach(Approach::Automatic));
                let placement = pipeline.run_phase(
                    &mut DeployPhase {
                        scenario,
                        seed,
                        mode: DeployMode::Baseline { automatic: is_auto },
                    },
                    DeployInput::None,
                )?;
                (placement, None, None)
            }
            Mode::Approach(Approach::GrapeOnly) => {
                let gathered = pipeline.run_phase(
                    &mut GatherPhase {
                        scenario,
                        cfg: self.cfg,
                    },
                    (),
                )?;
                let placement = pipeline.run_phase(
                    &mut DeployPhase {
                        scenario,
                        seed,
                        mode: DeployMode::GrapeOnly,
                    },
                    DeployInput::Gathered(gathered),
                )?;
                (placement, None, None)
            }
            Mode::Approach(Approach::PairwiseK | Approach::PairwiseN) => {
                let gathered = pipeline.run_phase(
                    &mut GatherPhase {
                        scenario,
                        cfg: self.cfg,
                    },
                    (),
                )?;
                let planned = pipeline.run_phase(
                    &mut PairwisePhase {
                        input: &gathered.input,
                        use_cram_k: matches!(self.mode, Mode::Approach(Approach::PairwiseK)),
                        seed,
                    },
                    (),
                )?;
                let placement = pipeline.run_phase(
                    &mut DeployPhase {
                        scenario,
                        seed,
                        mode: DeployMode::FromAllocation,
                    },
                    DeployInput::Planned(planned),
                )?;
                (placement, None, None)
            }
            _ => {
                // FBF / BIN PACKING / CRAM, or a custom plan config.
                let config = match &self.mode {
                    Mode::Custom { config, .. } => *config,
                    Mode::Approach(Approach::Fbf) => PlanConfig::fbf(seed),
                    Mode::Approach(Approach::BinPacking) => PlanConfig::bin_packing(),
                    Mode::Approach(Approach::Cram(m)) => PlanConfig::cram(*m),
                    Mode::Approach(_) => unreachable!("handled above"),
                };
                let gathered = pipeline.run_phase(
                    &mut GatherPhase {
                        scenario,
                        cfg: self.cfg,
                    },
                    (),
                )?;
                let planned = pipeline.run_phase(
                    &mut AllocatePhase {
                        input: &gathered.input,
                        config,
                    },
                    (),
                )?;
                let plan = pipeline.run_phase(
                    &mut BuildOverlayPhase {
                        input: &gathered.input,
                        config,
                    },
                    planned,
                )?;
                let cram_stats = plan.cram_stats;
                let overlay_stats = Some(plan.overlay.stats);
                let placement = pipeline.run_phase(
                    &mut DeployPhase {
                        scenario,
                        seed,
                        mode: DeployMode::FromPlan,
                    },
                    DeployInput::Plan(plan),
                )?;
                (placement, cram_stats, overlay_stats)
            }
        };

        let allocated_brokers = placement.0.spec.brokers.len();
        let metrics = pipeline.run_phase(
            &mut MeasurePhase {
                scenario,
                cfg: self.cfg,
            },
            placement,
        )?;
        // Replayed phases report zero, so a resumed run only counts the
        // planning work it actually re-did.
        let plan_nanos = pipeline.phase_nanos(PhaseKind::Allocate)
            + pipeline.phase_nanos(PhaseKind::BuildOverlay)
            + pipeline.phase_nanos(PhaseKind::Deploy);
        Ok(Outcome {
            approach: label,
            scenario: scenario.name.clone(),
            subscriptions: scenario.sub_count(),
            allocated_brokers,
            metrics: metrics.0,
            plan_time: Duration::from_nanos(plan_nanos),
            cram_stats,
            overlay_stats,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{ScenarioBuilder, Topology};
    use greenps_telemetry::Registry;

    fn small() -> (Scenario, RunConfig) {
        let mut s = ScenarioBuilder::new(Topology::Homogeneous)
            .total_subs(80)
            .seed(11)
            .build();
        s.brokers.truncate(12);
        let cfg = RunConfig {
            warmup: SimDuration::from_secs(2),
            profile: SimDuration::from_secs(40),
            measure: SimDuration::from_secs(40),
            seed: 11,
        };
        (s, cfg)
    }

    #[test]
    fn interrupt_resume_is_bit_identical_for_cram() {
        let (s, cfg) = small();
        let run = ReconfigPipeline::approach(&s, Approach::Cram(ClosenessMetric::Ios), cfg);
        let ctx = ReconfigContext::new();
        let straight = run.run(&ctx).expect("straight run");

        let store = run
            .run_until(&ctx, PhaseKind::BuildOverlay)
            .expect("interrupted run");
        assert_eq!(
            store.completed(),
            vec![
                PhaseKind::Gather,
                PhaseKind::Allocate,
                PhaseKind::BuildOverlay
            ]
        );
        let json = store.to_json();
        let reloaded = CheckpointStore::from_json(&json).expect("reload");
        let resumed = run.resume(&ctx, reloaded).expect("resumed run");

        assert_eq!(resumed.allocated_brokers, straight.allocated_brokers);
        assert_eq!(resumed.metrics.deliveries, straight.metrics.deliveries);
        assert_eq!(resumed.metrics.total_msgs, straight.metrics.total_msgs);
        assert_eq!(resumed.cram_stats, straight.cram_stats);
        assert_eq!(
            resumed.metrics.avg_broker_msg_rate.to_bits(),
            straight.metrics.avg_broker_msg_rate.to_bits(),
            "pool average is bit-identical"
        );
    }

    #[test]
    fn placement_artifact_round_trips() {
        let (s, cfg) = small();
        let placement = manual(&s, cfg.seed);
        let out = PlacementOut(placement);
        let json = out.to_json();
        let back = PlacementOut::from_json(&json).expect("decode");
        assert_eq!(back.to_json(), json, "re-encode is byte-identical");
        assert_eq!(back.0.spec.brokers, out.0.spec.brokers);
        assert_eq!(back.0.spec.edges, out.0.spec.edges);
        assert_eq!(back.0.publisher_homes, out.0.publisher_homes);
        assert_eq!(back.0.subscriber_homes, out.0.subscriber_homes);
    }

    #[test]
    fn deploy_phase_rejects_mismatched_input() {
        let (s, cfg) = small();
        let mut phase = DeployPhase {
            scenario: &s,
            seed: cfg.seed,
            mode: DeployMode::FromPlan,
        };
        let err = phase
            .run(DeployInput::None, &ReconfigContext::new())
            .expect_err("wrong input kind");
        assert!(err.to_string().contains("reconfiguration-plan"));
    }

    #[test]
    fn resume_rejects_a_placement_that_repeats_a_broker() {
        let (s, cfg) = small();
        let run = ReconfigPipeline::approach(&s, Approach::Manual, cfg);
        let ctx = ReconfigContext::new();
        let json = run
            .run_until(&ctx, PhaseKind::Deploy)
            .expect("interrupted run")
            .to_json();
        // Repeat the first broker object of the deploy checkpoint.
        let key = "\"brokers\":[";
        let list = json.find("\"deploy\"").expect("deploy checkpoint");
        let first = list + json[list..].find(key).expect("broker list") + key.len();
        let end = first
            + json[first..]
                .find("\"profile_bits\":")
                .expect("broker fields");
        let end = end + json[end..].find('}').expect("broker object end") + 1;
        let broker = &json[first..end];
        let edited = format!("{}{broker},{}", &json[..first], &json[first..]);
        let store = CheckpointStore::from_json(&edited).expect("still a valid store");
        let err = run
            .resume(&ctx, store)
            .expect_err("a repeated broker is refused");
        assert!(err.to_string().contains("twice"), "{err}");
    }

    #[test]
    fn resume_rejects_a_broker_with_a_nan_bandwidth() {
        let (s, cfg) = small();
        let run = ReconfigPipeline::approach(&s, Approach::Cram(ClosenessMetric::Ios), cfg);
        let ctx = ReconfigContext::new();
        let json = run
            .run_until(&ctx, PhaseKind::Allocate)
            .expect("interrupted run")
            .to_json();
        // The first broker of each shape in the gathered checkpoint: a
        // deployment's `BrokerConfig` (with `profile_bits`) and an
        // allocation input's `BrokerSpec`.
        let key = "\"out_bandwidth\":";
        let mut shapes = Vec::new();
        for (url, _) in json.match_indices("\"url\":") {
            let value = url + json[url..].find(key).expect("its bandwidth") + key.len();
            let end = value + json[value..].find([',', '}']).expect("bandwidth end");
            let config = json[end..].starts_with(",\"profile_bits\"");
            if !shapes.contains(&config) {
                shapes.push(config);
                // `1e999` parses to +∞; `null` is how a NaN is written.
                for bad in ["1e999", "-1.0", "null"] {
                    let edited = format!("{}{bad}{}", &json[..value], &json[end..]);
                    let store = CheckpointStore::from_json(&edited).expect("still a valid store");
                    let err = run
                        .resume(&ctx, store)
                        .expect_err("a non-finite or negative bandwidth is refused");
                    assert!(err.to_string().contains("out_bandwidth"), "{bad}: {err}");
                }
            }
        }
        assert_eq!(shapes.len(), 2, "both broker shapes were edited");
    }

    #[test]
    fn placement_decode_rejects_unlisted_brokers() {
        let (s, cfg) = small();
        let unlisted = BrokerId::new(999);
        let mut edge = manual(&s, cfg.seed);
        edge.spec.edges.push((edge.spec.brokers[0].id, unlisted));
        let mut home = manual(&s, cfg.seed);
        home.subscriber_homes[0] = unlisted;
        for placement in [edge, home] {
            let err = PlacementOut::from_json(&PlacementOut(placement).to_json())
                .expect_err("an unlisted broker is refused");
            assert!(err.to_string().contains("unlisted broker"), "{err}");
        }
    }

    /// 120 subscriptions over 16 brokers: enough load for every
    /// approach to allocate differently.
    fn sixteen_brokers() -> (Scenario, RunConfig) {
        let mut s = ScenarioBuilder::new(Topology::Homogeneous)
            .total_subs(120)
            .seed(7)
            .build();
        s.brokers.truncate(16);
        let cfg = RunConfig {
            warmup: SimDuration::from_secs(3),
            profile: SimDuration::from_secs(60),
            measure: SimDuration::from_secs(60),
            seed: 7,
        };
        (s, cfg)
    }

    #[test]
    fn manual_baseline_runs() {
        let (s, cfg) = sixteen_brokers();
        let o = ReconfigPipeline::approach(&s, Approach::Manual, cfg)
            .run(&ReconfigContext::new())
            .unwrap();
        assert_eq!(o.approach, "MANUAL");
        assert_eq!(o.allocated_brokers, 16);
        assert!(o.metrics.deliveries > 0);
    }

    #[test]
    fn cram_reduces_brokers_and_message_rate_vs_manual() {
        let (s, cfg) = sixteen_brokers();
        let ctx = ReconfigContext::new();
        let base = ReconfigPipeline::approach(&s, Approach::Manual, cfg)
            .run(&ctx)
            .unwrap();
        let cram = ReconfigPipeline::approach(&s, Approach::Cram(ClosenessMetric::Ios), cfg)
            .run(&ctx)
            .unwrap();
        assert!(cram.allocated_brokers < base.allocated_brokers);
        assert!(
            cram.metrics.avg_broker_msg_rate < base.metrics.avg_broker_msg_rate,
            "cram {} vs manual {}",
            cram.metrics.avg_broker_msg_rate,
            base.metrics.avg_broker_msg_rate
        );
        assert!(cram.cram_stats.is_some());
        // Deliveries are preserved (same workload, same windows; allow
        // small edge effects).
        let ratio = cram.metrics.deliveries as f64 / base.metrics.deliveries as f64;
        assert!((0.8..1.25).contains(&ratio), "delivery ratio {ratio}");
    }

    #[test]
    fn bin_packing_and_fbf_run() {
        let (s, cfg) = sixteen_brokers();
        let ctx = ReconfigContext::new();
        let bp = ReconfigPipeline::approach(&s, Approach::BinPacking, cfg)
            .run(&ctx)
            .unwrap();
        let fbf = ReconfigPipeline::approach(&s, Approach::Fbf, cfg)
            .run(&ctx)
            .unwrap();
        assert!(bp.allocated_brokers <= fbf.allocated_brokers);
        assert!(bp.metrics.deliveries > 0 && fbf.metrics.deliveries > 0);
    }

    #[test]
    fn pairwise_baselines_run() {
        let (s, cfg) = sixteen_brokers();
        let ctx = ReconfigContext::new();
        let pk = ReconfigPipeline::approach(&s, Approach::PairwiseK, cfg)
            .run(&ctx)
            .unwrap();
        let pn = ReconfigPipeline::approach(&s, Approach::PairwiseN, cfg)
            .run(&ctx)
            .unwrap();
        assert!(pk.metrics.deliveries > 0);
        assert!(pn.metrics.deliveries > 0);
        assert!(pn.allocated_brokers <= 16);
    }

    #[test]
    fn telemetry_traces_the_pipeline_without_changing_it() {
        let (s, cfg) = sixteen_brokers();
        let registry = Registry::new();
        let ctx = ReconfigContext::new().with_registry(&registry);
        let run = ReconfigPipeline::approach(&s, Approach::Manual, cfg);
        let traced = run.run(&ctx).unwrap();
        let plain = run.run(&ReconfigContext::new()).unwrap();
        assert_eq!(
            traced.metrics.deliveries, plain.metrics.deliveries,
            "telemetry must not perturb the simulation"
        );
        let snap = registry.snapshot();
        assert!(snap.spans.contains_key("phase3.deployment"));
        assert!(snap.spans.contains_key("measure.window"));
        assert!(snap.spans.contains_key("pipeline.phase.deploy"));
        assert!(snap.spans.contains_key("pipeline.phase.measure"));
        assert!(
            snap.counters
                .get("pipeline.checkpoint.misses")
                .copied()
                .unwrap_or(0)
                > 0
        );
        assert!(snap.counters.get("simnet.delivered").copied().unwrap_or(0) > 0);
    }

    #[test]
    fn labels() {
        assert_eq!(Approach::Cram(ClosenessMetric::Iou).label(), "CRAM-IOU");
        assert_eq!(Approach::ALL_PAPER.len(), 10);
    }
}
