//! The checkpointable reconfiguration pipeline.
//!
//! The paper's CROC loop is one coherent sequence — Phase 1 gathering,
//! Phase 2 allocation, Phase 3 overlay construction and deployment,
//! then measurement — but production reconfiguration must survive
//! interruption mid-loop. This module provides the machinery:
//!
//! * [`ReconfigContext`] — the one context every layer takes (telemetry
//!   registry and cancellation flag).
//! * [`Phase`] — a typed pipeline stage whose output is a serializable
//!   [`Artifact`].
//! * [`Pipeline`] — the orchestrator: runs phases in order, records a
//!   `pipeline.phase.*` span per executed phase, checkpoints every
//!   output into a [`CheckpointStore`], and replays checkpointed phases
//!   bit-identically on [`Pipeline::resume`].
//!
//! Concrete phases live next to the code they orchestrate: allocation
//! and overlay construction in [`crate::croc`], gathering / deployment
//! / measurement in `greenps-workload`.

pub mod artifact;

mod context;
mod store;

pub use artifact::{Artifact, ArtifactError};
pub use context::{CancelToken, ReconfigContext};
pub use store::{CheckpointStore, CHECKPOINT_SCHEMA};

use crate::croc::PlanError;
use greenps_telemetry::{names, Registry, Span};
use std::fmt;

/// The five stages of a reconfiguration run, in pipeline order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum PhaseKind {
    /// Phase 1: profile the live deployment and gather BIAs.
    Gather,
    /// Phase 2: group subscriptions and allocate brokers.
    Allocate,
    /// Phase 2 (hierarchical): per-zone CRAM runs plus the recursive
    /// cross-zone pass ([`crate::zones`]). An alternative to
    /// [`PhaseKind::Allocate`] for zone-sharded workloads.
    ZonedAllocate,
    /// Phase 3a: build the broker tree and relocate publishers.
    BuildOverlay,
    /// Phase 3b: compute the new placement to deploy.
    Deploy,
    /// Measure the reconfigured deployment.
    Measure,
}

impl PhaseKind {
    /// All phases in pipeline order.
    pub const ALL: [PhaseKind; 6] = [
        PhaseKind::Gather,
        PhaseKind::Allocate,
        PhaseKind::ZonedAllocate,
        PhaseKind::BuildOverlay,
        PhaseKind::Deploy,
        PhaseKind::Measure,
    ];

    /// The stable snake_case name used for checkpoint keys and span
    /// suffixes.
    pub fn name(self) -> &'static str {
        match self {
            PhaseKind::Gather => "gather",
            PhaseKind::Allocate => "allocate",
            PhaseKind::ZonedAllocate => "zoned_allocate",
            PhaseKind::BuildOverlay => "build_overlay",
            PhaseKind::Deploy => "deploy",
            PhaseKind::Measure => "measure",
        }
    }
}

impl fmt::Display for PhaseKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One typed pipeline stage.
///
/// A phase owns its configuration (and any borrowed inputs that earlier
/// phases do not produce); `Input` is the upstream artifact threaded
/// through [`Pipeline::run_phase`], and `Output` is what gets
/// checkpointed.
pub trait Phase {
    /// Upstream value fed into [`Phase::run`] (often a previous phase's
    /// output, `()` for sources).
    type Input;
    /// The checkpointable result of this phase.
    type Output: Artifact;
    /// Which pipeline stage this is.
    const KIND: PhaseKind;

    /// Executes the phase.
    ///
    /// # Errors
    /// Phase-specific failures; the pipeline stops at the first error.
    fn run(
        &mut self,
        input: Self::Input,
        ctx: &ReconfigContext,
    ) -> Result<Self::Output, PipelineError>;
}

/// Errors from driving a pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum PipelineError {
    /// The context was cancelled before `phase` could start.
    Cancelled {
        /// The phase that was about to run.
        phase: PhaseKind,
    },
    /// Planning (Phase 2/3 computation) failed.
    Plan(PlanError),
    /// A checkpoint could not be decoded (corrupt or mismatched store).
    Artifact(ArtifactError),
    /// Any other phase failure, with the failing phase named.
    Phase {
        /// The phase that failed.
        phase: PhaseKind,
        /// What went wrong.
        message: String,
    },
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Cancelled { phase } => {
                write!(f, "pipeline cancelled before phase `{phase}`")
            }
            PipelineError::Plan(e) => write!(f, "planning failed: {e}"),
            PipelineError::Artifact(e) => write!(f, "checkpoint replay failed: {e}"),
            PipelineError::Phase { phase, message } => {
                write!(f, "phase `{phase}` failed: {message}")
            }
        }
    }
}

impl std::error::Error for PipelineError {}

impl From<PlanError> for PipelineError {
    fn from(e: PlanError) -> Self {
        PipelineError::Plan(e)
    }
}

impl From<ArtifactError> for PipelineError {
    fn from(e: ArtifactError) -> Self {
        PipelineError::Artifact(e)
    }
}

/// Enters the per-phase span, `pipeline.phase.<kind>`.
fn phase_span(registry: &Registry, kind: PhaseKind) -> Span {
    match kind {
        PhaseKind::Gather => Span::enter(registry, &names::PHASE_GATHER),
        PhaseKind::Allocate => Span::enter(registry, &names::PHASE_ALLOCATE),
        PhaseKind::ZonedAllocate => Span::enter(registry, &names::PHASE_ZONED_ALLOCATE),
        PhaseKind::BuildOverlay => Span::enter(registry, &names::PHASE_BUILD_OVERLAY),
        PhaseKind::Deploy => Span::enter(registry, &names::PHASE_DEPLOY),
        PhaseKind::Measure => Span::enter(registry, &names::PHASE_MEASURE),
    }
}

/// Drives phases in order, checkpointing each output and replaying
/// checkpointed phases on resume.
///
/// The pipeline also keeps a private always-on timing registry so
/// callers can read back per-phase wall time ([`Pipeline::phase_nanos`])
/// without the deterministic layers ever touching a wall clock
/// themselves.
#[derive(Debug)]
pub struct Pipeline {
    ctx: ReconfigContext,
    store: CheckpointStore,
    timing: Registry,
    stop_after: Option<PhaseKind>,
}

impl Pipeline {
    /// A fresh pipeline with an empty checkpoint store.
    pub fn new(ctx: ReconfigContext) -> Self {
        Self {
            ctx,
            store: CheckpointStore::new(),
            timing: Registry::new(),
            stop_after: None,
        }
    }

    /// A pipeline that replays `store`'s checkpoints instead of
    /// re-running their phases, then continues live from the first
    /// missing one.
    pub fn resume(ctx: ReconfigContext, store: CheckpointStore) -> Self {
        Self {
            ctx,
            store,
            timing: Registry::new(),
            stop_after: None,
        }
    }

    /// Cancels the run right after `phase` checkpoints (builder style) —
    /// the interruption half of an interrupt/resume cycle.
    #[must_use]
    pub fn stop_after(mut self, phase: PhaseKind) -> Self {
        self.stop_after = Some(phase);
        self
    }

    /// The context this pipeline runs under.
    pub fn ctx(&self) -> &ReconfigContext {
        &self.ctx
    }

    /// The checkpoints accumulated so far.
    pub fn store(&self) -> &CheckpointStore {
        &self.store
    }

    /// Consumes the pipeline, yielding its checkpoint store.
    pub fn into_store(self) -> CheckpointStore {
        self.store
    }

    /// Wall time spent *executing* `phase` in this pipeline (zero for
    /// phases replayed from checkpoints).
    pub fn phase_nanos(&self, phase: PhaseKind) -> u64 {
        let name = match phase {
            PhaseKind::Gather => "pipeline.phase.gather",
            PhaseKind::Allocate => "pipeline.phase.allocate",
            PhaseKind::ZonedAllocate => "pipeline.phase.zoned_allocate",
            PhaseKind::BuildOverlay => "pipeline.phase.build_overlay",
            PhaseKind::Deploy => "pipeline.phase.deploy",
            PhaseKind::Measure => "pipeline.phase.measure",
        };
        self.timing
            .snapshot()
            .spans
            .get(name)
            .map_or(0, |s| s.wall_nanos)
    }

    /// Runs (or replays) one phase.
    ///
    /// A checkpointed phase is decoded and returned without executing —
    /// bit-identical to the original output — and counted on
    /// `pipeline.checkpoint.hits`. Otherwise the phase executes under a
    /// `pipeline.phase.<name>` span, its output checkpoints into the
    /// store, and `pipeline.checkpoint.misses` is counted.
    ///
    /// # Errors
    /// Fails when the context is cancelled, a checkpoint fails to
    /// decode, or the phase itself fails.
    pub fn run_phase<P: Phase>(
        &mut self,
        phase: &mut P,
        input: P::Input,
    ) -> Result<P::Output, PipelineError> {
        let kind = P::KIND;
        if self.ctx.is_cancelled() {
            return Err(PipelineError::Cancelled { phase: kind });
        }
        if let Some(output) = self.store.load::<P::Output>(kind)? {
            self.ctx.registry().counter(&names::CHECKPOINT_HITS).inc();
            return Ok(output);
        }
        self.ctx.registry().counter(&names::CHECKPOINT_MISSES).inc();
        let span = phase_span(self.ctx.registry(), kind);
        let timing = phase_span(&self.timing, kind);
        let output = phase.run(input, &self.ctx)?;
        timing.finish();
        span.finish();
        self.store.save(kind, &output);
        if self.stop_after == Some(kind) {
            self.ctx.cancel();
        }
        Ok(output)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use greenps_telemetry::json::JsonValue;

    #[derive(Debug, Clone, PartialEq)]
    struct Doubled(u64);

    impl Artifact for Doubled {
        const KIND: &'static str = "doubled";
        fn to_json(&self) -> JsonValue {
            JsonValue::obj().field("n", JsonValue::U64(self.0))
        }
        fn from_json(value: &JsonValue) -> Result<Self, ArtifactError> {
            Ok(Doubled(artifact::u64_field(value, "n")?))
        }
    }

    /// A fake Gather phase that doubles its input and counts executions.
    struct DoublePhase {
        runs: usize,
    }

    impl Phase for DoublePhase {
        type Input = u64;
        type Output = Doubled;
        const KIND: PhaseKind = PhaseKind::Gather;
        fn run(&mut self, input: u64, _ctx: &ReconfigContext) -> Result<Doubled, PipelineError> {
            self.runs += 1;
            Ok(Doubled(input * 2))
        }
    }

    #[test]
    fn phase_kind_names_and_order() {
        assert_eq!(PhaseKind::ALL.len(), 6);
        assert_eq!(PhaseKind::BuildOverlay.to_string(), "build_overlay");
        assert_eq!(PhaseKind::ZonedAllocate.to_string(), "zoned_allocate");
        assert!(PhaseKind::Gather < PhaseKind::Measure);
        assert!(PhaseKind::Allocate < PhaseKind::ZonedAllocate);
        assert!(PhaseKind::ZonedAllocate < PhaseKind::BuildOverlay);
    }

    #[test]
    fn run_checkpoint_resume_replays_without_executing() {
        let registry = greenps_telemetry::Registry::new();
        let ctx = ReconfigContext::new().with_registry(&registry);
        let mut pipeline = Pipeline::new(ctx);
        let mut phase = DoublePhase { runs: 0 };
        let out = pipeline.run_phase(&mut phase, 21).unwrap();
        assert_eq!(out, Doubled(42));
        assert_eq!(phase.runs, 1);
        assert!(pipeline.store().contains(PhaseKind::Gather));
        assert!(pipeline.phase_nanos(PhaseKind::Gather) > 0);

        // Resume from the exported store: the phase must NOT run again,
        // and the replayed artifact is identical.
        let text = pipeline.into_store().to_json();
        let store = CheckpointStore::from_json(&text).unwrap();
        let mut resumed = Pipeline::resume(ReconfigContext::new().with_registry(&registry), store);
        let replayed = resumed.run_phase(&mut phase, 999).unwrap();
        assert_eq!(replayed, Doubled(42), "input ignored on replay");
        assert_eq!(phase.runs, 1, "phase did not execute");
        assert_eq!(resumed.phase_nanos(PhaseKind::Gather), 0);

        let snap = registry.snapshot();
        assert_eq!(snap.counters.get("pipeline.checkpoint.misses"), Some(&1));
        assert_eq!(snap.counters.get("pipeline.checkpoint.hits"), Some(&1));
        assert!(snap.spans.contains_key("pipeline.phase.gather"));
    }

    #[test]
    fn stop_after_cancels_later_phases() {
        let ctx = ReconfigContext::new();
        let mut pipeline = Pipeline::new(ctx).stop_after(PhaseKind::Gather);
        let mut phase = DoublePhase { runs: 0 };
        pipeline.run_phase(&mut phase, 1).unwrap();
        assert!(pipeline.ctx().is_cancelled());
        let err = pipeline.run_phase(&mut phase, 2).unwrap_err();
        assert!(matches!(err, PipelineError::Cancelled { .. }));
        assert!(err.to_string().contains("cancelled"));
    }

    #[test]
    fn error_display_and_conversions() {
        let e: PipelineError = PlanError::NoSubscriptions.into();
        assert!(e.to_string().contains("planning failed"));
        let e: PipelineError = ArtifactError::new("boom").into();
        assert!(e.to_string().contains("boom"));
        let e = PipelineError::Phase {
            phase: PhaseKind::Deploy,
            message: "no brokers".into(),
        };
        assert!(e.to_string().contains("deploy"));
    }
}
