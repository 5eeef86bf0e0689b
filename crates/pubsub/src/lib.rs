//! # greenps-pubsub
//!
//! Content-based publish/subscribe substrate: the attribute/predicate
//! language, publication/advertisement/subscription messages, matching
//! engines, and advertisement-based routing tables.
//!
//! This crate plays the role PADRES plays in the paper — the
//! filter-based content-based pub/sub system the resource-allocation
//! algorithms are built on. It is deliberately free of any networking or
//! timing concerns: brokers (in `greenps-broker`) compose these tables
//! with the `greenps-simnet` discrete-event runtime or a `greenps-net`
//! transport.
//!
//! ## Example
//!
//! ```
//! use greenps_pubsub::{
//!     filter::{stock_advertisement, stock_template},
//!     ids::{AdvId, MsgId, SubId},
//!     message::{Advertisement, Publication, Subscription},
//!     routing::RoutingTables,
//! };
//!
//! let mut rt: RoutingTables<u32> = RoutingTables::new();
//! rt.insert_advertisement(
//!     Advertisement::new(AdvId::new(1), stock_advertisement("YHOO")),
//!     0, // hop the advertisement came from
//! );
//! rt.insert_subscription(
//!     Subscription::new(SubId::new(1), stock_template("YHOO")),
//!     1, // hop the subscription came from
//! );
//! let quote = Publication::builder(AdvId::new(1), MsgId::new(75))
//!     .attr("class", "STOCK")
//!     .attr("symbol", "YHOO")
//!     .attr("close", 18.37)
//!     .build();
//! assert_eq!(rt.route_publication_mut(&quote, Some(&0)), vec![1]);
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

pub mod filter;
pub mod ids;
mod index;
pub mod matching;
pub mod message;
pub mod parser;
pub mod predicate;
pub mod routing;
pub mod value;

pub use filter::Filter;
pub use ids::{AdvId, BrokerId, ClientId, MsgId, SubId};
pub use matching::{BucketMatcher, Matcher, NaiveMatcher};
pub use message::{Advertisement, Message, Publication, Subscription};
pub use parser::{parse_filter, parse_publication, ParseFilterError};
pub use predicate::{Op, Predicate};
pub use value::Value;
