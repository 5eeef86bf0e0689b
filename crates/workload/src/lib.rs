//! # greenps-workload
//!
//! The evaluation workload and experiment harness: synthetic stockquote
//! series (the paper's Yahoo! Finance substitute), the 40%/60%
//! subscription template workload, the homogeneous / heterogeneous /
//! SciNet scenarios, the MANUAL and AUTOMATIC baseline topologies, and
//! the checkpointable pipeline that deploys, profiles, reconfigures and
//! measures each approach.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
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

pub mod pipeline;
pub mod report;
pub mod scenario;
pub mod stock;
pub mod subs;
pub mod topology;
pub mod zones;

pub use pipeline::{Approach, Outcome, ReconfigPipeline, RunConfig};
pub use scenario::{Scenario, ScenarioBuilder, Topology};
pub use stock::{symbols, StockSeries};
pub use topology::{
    automatic, deploy, from_allocation, from_plan, manual, net_scenario, Placement,
};
pub use zones::{ZonedSpec, ZonedStreamFeed, DEFAULT_PUBS_PER_ZONE};
