//! # greenps-core
//!
//! The paper's primary contribution: green resource allocation for
//! content-based publish/subscribe.
//!
//! * **Phase 2** subscription allocation — [`sorting::fbf`],
//!   [`sorting::bin_packing`], and CRAM via [`cram::CramBuilder`] with
//!   the four closeness metrics, all three optimizations (GIF grouping,
//!   poset search pruning, one-to-many CGS clustering), and a parallel
//!   closest-pair search ([`engine`]);
//! * the related-work baselines [`pairwise::pairwise_k`] /
//!   [`pairwise::pairwise_n`];
//! * **Phase 3** recursive overlay construction
//!   ([`overlay::build_overlay`]) with pure-forwarder elimination,
//!   children takeover and best-fit replacement;
//! * **GRAPE** publisher relocation ([`grape::place_publishers`]);
//! * the composed planner [`croc::plan`];
//! * and the checkpointable [`pipeline`] the whole reconfiguration runs
//!   on ([`pipeline::Pipeline`], [`pipeline::ReconfigContext`],
//!   [`pipeline::CheckpointStore`]).
//!
//! ## Example
//!
//! ```
//! use greenps_core::croc::{plan, PlanConfig};
//! use greenps_core::model::{AllocationInput, BrokerSpec, LinearFn, SubscriptionEntry};
//! use greenps_core::pipeline::ReconfigContext;
//! use greenps_profile::{ClosenessMetric, PublisherProfile, SubscriptionProfile};
//! use greenps_pubsub::ids::{AdvId, BrokerId, MsgId, SubId};
//! use greenps_pubsub::Filter;
//!
//! let mut input = AllocationInput::new();
//! for i in 0..8u64 {
//!     input.brokers.push(BrokerSpec::new(
//!         BrokerId::new(i), format!("tcp://b{i}"),
//!         LinearFn::new(0.0001, 0.0), 100_000.0,
//!     ));
//! }
//! input.publishers.insert(PublisherProfile::new(AdvId::new(1), 50.0, 50_000.0, MsgId::new(99)));
//! for i in 0..20u64 {
//!     let mut p = SubscriptionProfile::new();
//!     for id in 0..40u64 { p.record(AdvId::new(1), MsgId::new(id)); }
//!     input.subscriptions.push(SubscriptionEntry::new(SubId::new(i), Filter::new(), p));
//! }
//! let plan = plan(&input, &PlanConfig::cram(ClosenessMetric::Ios), &ReconfigContext::new())?;
//! assert!(plan.broker_count() < 8); // far fewer brokers than the pool
//! # Ok::<(), greenps_core::pipeline::PipelineError>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
// Panic freedom: library code returns typed errors (DESIGN.md §9).
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::indexing_slicing
    )
)]
// Cast safety: no silently truncating or wrapping `as` casts.
#![cfg_attr(
    not(test),
    deny(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        clippy::cast_possible_wrap
    )
)]
// Determinism: no hash-order iteration, no wall-clock reads
// (`clippy.toml` lists the disallowed clock methods).
#![cfg_attr(
    not(test),
    deny(clippy::iter_over_hash_type, clippy::disallowed_methods)
)]
#![cfg_attr(
    test,
    allow(
        clippy::disallowed_methods,
        reason = "unit tests may time themselves; only library code feeds a plan"
    )
)]

pub mod capacity;
pub mod cram;
pub mod croc;
pub mod engine;
pub mod grape;
pub mod model;
pub mod overlay;
pub mod pairwise;
pub mod pipeline;
pub mod sorting;
pub mod zones;

pub use capacity::pack_all;
pub use cram::{CramBuilder, CramConfig, CramStats};
pub use croc::{plan, PlanConfig, PlanError, PlannedAllocation, ReconfigurationPlan};
pub use engine::{shard_map, CacheStats, PairCache};
pub use grape::{place_publishers, GrapeConfig, InterestTree};
pub use model::{
    AllocError, Allocation, AllocationInput, BrokerLoad, BrokerSpec, LinearFn, SubscriptionEntry,
    Unit,
};
pub use overlay::{build_overlay, AllocatorKind, Overlay, OverlayConfig, OverlayStats};
pub use pairwise::{pairwise_k, pairwise_n, PairwiseResult};
pub use pipeline::{
    Artifact, ArtifactError, CancelToken, CheckpointStore, Phase, PhaseKind, Pipeline,
    PipelineError, ReconfigContext,
};
pub use sorting::{bin_packing, fbf};
pub use zones::{
    zoned_allocate, zoned_allocate_resumable, StreamingGifBuilder, ZoneFeed, ZonePlan,
    ZonedAllocatePhase, ZonedAllocation, ZonedCheckpoint, ZonedConfig, ZonedRun,
};
