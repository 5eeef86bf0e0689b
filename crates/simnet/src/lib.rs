//! # greenps-simnet
//!
//! A deterministic discrete-event network simulator standing in for the
//! paper's cluster and SciNet testbeds (see DESIGN.md §2 for the
//! substitution rationale).
//!
//! Nodes are [`Process`] implementations connected by links with
//! propagation latency and optional bandwidth; each node can also be
//! given an *output capacity* to model the paper's broker bandwidth
//! limiter. Virtual time is tracked in microseconds and every run with
//! the same inputs produces the same event order.
//!
//! ## Example
//!
//! ```
//! use greenps_simnet::{Context, LinkSpec, Network, NodeId, Payload, Process, SimDuration};
//! use std::any::Any;
//!
//! struct Hello;
//! #[derive(Debug)]
//! struct Note(&'static str);
//! impl Payload for Note {
//!     fn wire_size(&self) -> usize { self.0.len() }
//! }
//! impl Process<Note> for Hello {
//!     fn on_message(&mut self, ctx: &mut Context<'_, Note>, from: NodeId, msg: Note) {
//!         // Reply only to greetings, not to replies (or the two nodes
//!         // would ping-pong forever).
//!         if msg.0 == "hi" && ctx.has_link(from) {
//!             ctx.send(from, Note("hi back"));
//!         }
//!     }
//!     fn as_any(&self) -> &dyn Any { self }
//!     fn as_any_mut(&mut self) -> &mut dyn Any { self }
//! }
//!
//! let mut net: Network<Note> = Network::new();
//! let a = net.add_node(Hello);
//! let b = net.add_node(Hello);
//! net.connect(a, b, LinkSpec::with_latency(SimDuration::from_millis(1)));
//! net.inject(a, b, Note("hi"));
//! net.run_to_quiescence();
//! assert_eq!(net.counters(b).msgs_out, 1);
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

pub mod metrics;
pub mod network;
pub mod time;

pub use metrics::TrafficCounters;
pub use network::{Context, LinkSpec, Network, NodeId, Payload, Process};
pub use time::{SimDuration, SimTime};
