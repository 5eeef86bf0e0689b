//! The backend-agnostic transport contract.
//!
//! A [`Transport`] opens [`Endpoint`]s — one per overlay node — and an
//! endpoint exchanges typed messages with peers over *sessions*. The
//! contract is deliberately small: address a peer, connect, queue
//! framed messages and flush them, poll for events, shut down.
//! Everything above this trait (broker logic, deployment, the workload
//! runner) is agnostic to whether messages cross the deterministic
//! simnet or a real socket.
//!
//! ## Sessions and epochs
//!
//! Each `(node, epoch)` pair names one *session incarnation*. The
//! epoch increases every time a node's endpoint is reopened, and every
//! event a backend surfaces is fenced against the newest epoch seen
//! for that peer: events carrying an older epoch are dropped, so a
//! reconnecting broker can never observe a ghost of its previous
//! session (DESIGN.md §13.3). The simnet backend never reconnects, so
//! it pins every session at epoch 0.

use crate::wire::WireError;
use std::fmt;
use std::net::SocketAddr;
use std::time::Duration;

/// A node's stable name in the overlay, independent of backend.
///
/// Brokers use their `BrokerId` raw value; client endpoints use names
/// offset far above the broker range (see `greenps-broker`'s net
/// deployment).
pub type NodeName = u64;

/// Where a peer endpoint can be reached.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EndpointAddr {
    /// A node inside a shared in-process simnet hub.
    Sim(NodeName),
    /// A TCP socket address (loopback in every harness here).
    Tcp(SocketAddr),
}

impl fmt::Display for EndpointAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EndpointAddr::Sim(n) => write!(f, "sim:{n}"),
            EndpointAddr::Tcp(a) => write!(f, "tcp:{a}"),
        }
    }
}

/// An event surfaced by [`Endpoint::poll`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetEvent<M> {
    /// A session with `peer` became live (either side connected). The
    /// epoch identifies the incarnation; a later `Session` for the same
    /// peer with a larger epoch supersedes this one.
    Session {
        /// The peer's node name.
        peer: NodeName,
        /// The peer's session epoch.
        epoch: u32,
    },
    /// A message arrived from `from` on its current session.
    Msg {
        /// The sending peer's node name.
        from: NodeName,
        /// The decoded message.
        msg: M,
    },
    /// The current session with `peer` closed (EOF, error or shutdown).
    Closed {
        /// The peer whose session ended.
        peer: NodeName,
    },
}

/// Why a transport operation failed.
#[derive(Debug)]
pub enum NetError {
    /// The backend could not bind or open the endpoint.
    Open(String),
    /// Connecting to a peer address failed.
    Connect(String),
    /// No live session exists for the named peer.
    UnknownPeer(NodeName),
    /// A send on an established session failed; the session is closed.
    SessionLost(NodeName),
    /// Encoding or decoding a message failed.
    Codec(WireError),
    /// The address kind does not match this backend (e.g. a `Tcp`
    /// address handed to the sim backend).
    WrongAddrKind,
    /// The endpoint has been shut down.
    Shutdown,
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Open(e) => write!(f, "endpoint open failed: {e}"),
            NetError::Connect(e) => write!(f, "connect failed: {e}"),
            NetError::UnknownPeer(p) => write!(f, "no session with peer {p}"),
            NetError::SessionLost(p) => write!(f, "session with peer {p} lost"),
            NetError::Codec(e) => write!(f, "wire codec failure: {e}"),
            NetError::WrongAddrKind => f.write_str("address kind does not match backend"),
            NetError::Shutdown => f.write_str("endpoint is shut down"),
        }
    }
}

impl std::error::Error for NetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NetError::Codec(e) => Some(e),
            _ => None,
        }
    }
}

impl From<WireError> for NetError {
    fn from(e: WireError) -> Self {
        NetError::Codec(e)
    }
}

/// One node's attachment to the transport.
///
/// All methods take `&mut self`: an endpoint is owned by exactly one
/// driver (a broker thread or the cooperative deployment loop), which
/// keeps the send path lock-free on every backend. Sending is two
/// steps so that frames can move in runs: a driver that produces many
/// messages per turn `enqueue`s them all and `flush`es once.
pub trait Endpoint<M> {
    /// This endpoint's node name.
    fn node(&self) -> NodeName;

    /// The address peers can use to connect here.
    fn addr(&self) -> EndpointAddr;

    /// Dials a peer and establishes a session. Returns the peer's node
    /// name as announced in its handshake. Idempotent: connecting to an
    /// already-connected peer re-handshakes and the newer session wins.
    fn connect(&mut self, addr: &EndpointAddr) -> Result<NodeName, NetError>;

    /// Queues one message on the peer's current session, for the next
    /// [`Endpoint::flush`] (a backend may flush by itself to bound what
    /// it holds). A message too large to frame is refused with
    /// [`NetError::Codec`], never cut short.
    fn enqueue(&mut self, peer: NodeName, msg: &M) -> Result<(), NetError>;

    /// Puts every queued message on the wire, each peer's in order. A
    /// session whose write fails is closed and the first such peer
    /// reported as [`NetError::SessionLost`]; the rest are still flushed.
    fn flush(&mut self) -> Result<(), NetError>;

    /// Sends one message on the peer's current session: once this
    /// returns `Ok` the peer's [`Endpoint::poll`] will see the message
    /// with no further call on the sender.
    fn send(&mut self, peer: NodeName, msg: &M) -> Result<(), NetError> {
        self.enqueue(peer, msg)?;
        self.flush()
    }

    /// Waits up to `wait` for the next event. Returns `None` when
    /// there is nothing to deliver — possibly *before* `wait` has
    /// elapsed: the threaded backend wakes a waiting driver when any
    /// endpoint of the same transport has input, so one driver can
    /// serve many endpoints and block on one. Callers that need an
    /// event re-poll until their own deadline. (The sim backend ignores
    /// `wait`; there `None` means the network is quiescent.)
    fn poll(&mut self, wait: Duration) -> Option<NetEvent<M>>;

    /// Flushes, then closes every session and releases backend
    /// resources. Further sends fail with [`NetError::Shutdown`].
    fn shutdown(&mut self);
}

/// A factory for endpoints sharing one backend substrate.
pub trait Transport<M> {
    /// The endpoint type this backend produces.
    type Endpoint: Endpoint<M>;

    /// Opens an endpoint for `node`. Reopening a name that was already
    /// opened produces a fresh session epoch that supersedes the old
    /// one at every peer.
    fn open(&mut self, node: NodeName) -> Result<Self::Endpoint, NetError>;
}
