//! # greenps-broker
//!
//! The PADRES-like broker built on `greenps-pubsub` routing and the
//! `greenps-simnet` discrete-event runtime, with the paper's CROC
//! Back-end Component (CBC) integrated: bit-vector subscription
//! profiling, local publisher profiling, and the BIR/BIA information-
//! gathering protocol of Phase 1.
//!
//! Two harnesses run the same transport-agnostic [`BrokerCore`]: the
//! [`deploy`] module is the PANDA-style simnet harness the evaluation
//! uses (build a topology, attach publishers/subscribers, warm up,
//! gather, and measure), and [`netdeploy`] materializes an overlay over
//! any `greenps_net::Transport` — the deterministic simulator or real
//! loopback TCP sockets and OS threads.

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

pub mod broker;
pub mod client;
pub mod deploy;
pub mod logic;
pub mod messages;
pub mod netdeploy;
pub mod wire;

pub use broker::{Broker, BrokerConfig};
pub use client::{CrocClient, PublicationGen, PublisherClient, SubscriberClient};
pub use deploy::{DeployError, Deployment, GatherError, RunMetrics, TopologySpec};
pub use logic::{BrokerCore, BrokerSink};
pub use messages::{BrokerMsg, GatheredBroker, PubEnvelope};
pub use netdeploy::{
    NetBrokerStats, NetDeployError, NetDeployReport, NetDeployment, NetPublisher, NetScenario,
    NetSubscriber,
};
