//! # greenps-telemetry
//!
//! The workspace-wide tracing + metrics plane for reconfiguration runs
//! (DESIGN.md §10). Every headline number in the paper — 92% message-rate
//! reduction, 91% broker reduction, 5,000,000 → 280,000 closeness
//! computations — is a *measurement*; this crate makes those measurements
//! first-class, queryable values instead of ad-hoc printlns.
//!
//! Four building blocks:
//!
//! * [`Registry`] — a named collection of [`Counter`]s, [`Gauge`]s and
//!   log-bucketed [`Histogram`]s. Record paths are single atomic
//!   operations (`fetch_add`/`fetch_max`): no locks are ever taken while
//!   recording, so instrumented code can record from any thread.
//! * [`Span`] — hierarchical phase timers (`Span::enter(&reg,
//!   &names::PHASE1_GATHERING)`) whose dotted paths nest into a tree
//!   with wall-time and entry counts in the exported snapshot.
//! * [`EventSink`] — bounded, drop-oldest structured event rings for
//!   trace events (GIF merges, pair-cache hits, broker queue stalls),
//!   one ring per component/thread, with an exposed drop counter.
//! * [`Snapshot::to_json`] — deterministic whole-run snapshot
//!   serialization (`BTreeMap` ordering throughout) through [`json`],
//!   the workspace's one JSON codec, which checkpoints and the scale
//!   report use as well.
//!
//! Every instrument is named by a [`Name`] from the [`names`] table; a
//! string literal at a record site does not compile.
//!
//! ## Zero cost when disabled
//!
//! [`Registry::disabled()`] yields a registry whose handles are all
//! no-ops behind the same API: instrumented code is written once and the
//! disabled path reduces to a branch on an `Option` that is `None`.
//! Instrumentation must never perturb the decisions of the code it
//! observes — allocations are bit-identical with telemetry on or off
//! (property-tested in `tests/telemetry_identity.rs` at the workspace
//! root).
//!
//! ## Example
//!
//! ```
//! use greenps_telemetry::{names, Registry, Span};
//!
//! let reg = Registry::new();
//! let computations = reg.counter(&names::CRAM_CLOSENESS_COMPUTATIONS);
//! {
//!     let _span = Span::enter(&reg, &names::PHASE2_ALLOCATION);
//!     computations.add(280_000);
//! }
//! let snap = reg.snapshot();
//! assert_eq!(snap.counters.get("cram.closeness_computations"), Some(&280_000));
//! let json = snap.to_json().to_string();
//! assert!(json.contains("\"cram.closeness_computations\":280000"));
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
#![expect(
    clippy::disallowed_methods,
    reason = "telemetry owns the workspace's wall clock: spans and histogram timers read it only when a registry is enabled"
)]

pub mod json;
pub mod local;
pub mod metrics;
pub mod names;
pub mod registry;
pub mod ring;
pub mod span;

pub use local::{BucketHistogram, Summary};
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, HistogramTimer};
pub use names::Name;
pub use registry::{Registry, Snapshot};
pub use ring::{Event, EventSink, RingSnapshot, DEFAULT_RING_CAPACITY};
pub use span::{Span, SpanNode, SpanStat};
