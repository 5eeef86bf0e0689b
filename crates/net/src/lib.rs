//! # greenps-net
//!
//! The transport seam between the broker overlay and whatever carries
//! its bytes (DESIGN.md §13). One small contract — [`Transport`] opens
//! [`Endpoint`]s; endpoints connect, send framed messages and poll
//! [`NetEvent`]s — with two backends:
//!
//! - [`SimTransport`]: a veneer over the deterministic
//!   `greenps-simnet` discrete-event loop, cooperative and
//!   single-threaded, for tests and reproducible experiments;
//! - [`TcpTransport`]: a std-only threaded backend over `std::net`
//!   loopback sockets with length-prefixed frames, a hand-rolled
//!   byte-stable [`Wire`] codec, and epoch-fenced sessions so a
//!   reconnecting node never observes ghosts of its previous session.
//!
//! ## Example
//!
//! ```
//! use greenps_net::{decode_exact, Endpoint, NetEvent, SimTransport, Transport, Wire, WireReader};
//! use greenps_simnet::Payload;
//! use std::time::Duration;
//!
//! #[derive(Debug, Clone, PartialEq)]
//! struct Tick(u64);
//! impl Payload for Tick {
//!     fn wire_size(&self) -> usize { 8 }
//! }
//!
//! let mut transport: SimTransport<Tick> = SimTransport::new();
//! let mut a = transport.open(1).unwrap();
//! let mut b = transport.open(2).unwrap();
//! a.connect(&b.addr()).unwrap();
//! a.send(2, &Tick(41)).unwrap();
//! match b.poll(Duration::ZERO) {
//!     Some(NetEvent::Msg { from, msg }) => assert_eq!((from, msg), (1, Tick(41))),
//!     other => panic!("expected a message, got {other:?}"),
//! }
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

pub mod frame;
pub mod sim;
pub mod tcp;
pub mod transport;
pub mod wire;

pub use frame::{FrameError, Hello, MAX_FRAME_LEN};
pub use sim::{SimEndpoint, SimTransport};
pub use tcp::{TcpEndpoint, TcpTransport};
pub use transport::{Endpoint, EndpointAddr, NetError, NetEvent, NodeName, Transport};
pub use wire::{decode_exact, Wire, WireError, WireReader};
