//! # greenps-profile
//!
//! The bit-vector supported resource allocation framework of the paper's
//! Phase 1: bounded shifting bit vectors, per-publisher subscription
//! profiles, publisher profiles, load estimation, the four closeness
//! metrics, profile relationships, and the poset used by CRAM's search
//! pruning.
//!
//! Everything here is *language independent* — relationships and
//! closeness are computed from which publications a subscription
//! actually received, never from its filter syntax.
//!
//! ## Example
//!
//! ```
//! use greenps_profile::{ClosenessMetric, PublisherProfile, PublisherTable, SubscriptionProfile};
//! use greenps_pubsub::ids::{AdvId, MsgId};
//!
//! let mut s1 = SubscriptionProfile::new();
//! let mut s2 = SubscriptionProfile::new();
//! for id in 0..100u64 {
//!     s1.record(AdvId::new(1), MsgId::new(id));
//!     if id % 2 == 0 {
//!         s2.record(AdvId::new(1), MsgId::new(id));
//!     }
//! }
//! assert_eq!(s1.intersect_count(&s2), 50);
//! let ios = ClosenessMetric::Ios.closeness(&s1, &s2);
//! assert!((ios - 50.0 * 50.0 / 150.0).abs() < 1e-9);
//!
//! let publishers: PublisherTable =
//!     [PublisherProfile::new(AdvId::new(1), 50.0, 50_000.0, MsgId::new(99))]
//!         .into_iter()
//!         .collect();
//! let load = s2.estimate_load(&publishers);
//! assert!((load.rate - 25.0).abs() < 1e-9); // half the publications
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

pub mod arena;
pub mod bitvec;
pub mod closeness;
pub mod kernel;
pub mod poset;
pub mod profile;

pub use arena::{BitsetArena, RowId};
pub use bitvec::{PairCardinalities, ShiftingBitVector, DEFAULT_CAPACITY};
pub use closeness::{ClosenessMetric, XOR_CAP};
pub use kernel::ArenaKernel;
pub use poset::Poset;
pub use profile::{
    fraction_of, Load, PublisherProfile, PublisherTable, Relation, SubscriptionProfile,
};
