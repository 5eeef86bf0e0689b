//! The threaded TCP backend: real sockets, framed messages that move
//! in runs, epoch-fenced sessions (DESIGN.md §13.3).
//!
//! Each [`TcpEndpoint`] binds an ephemeral loopback listener and runs
//! one accept thread plus one reader thread per live connection. The
//! endpoint itself is single-owner (`&mut self` everywhere), so the
//! send path holds no lock: [`Endpoint::enqueue`] encodes a frame onto
//! the end of the connection's write buffer and [`Endpoint::flush`]
//! issues one `write_all` per peer with anything queued. The receive
//! path batches the same way: a reader thread reads whatever the socket
//! has into a `frame::Reassembler`, decodes every complete frame and
//! hands the lot to the endpoint's *inbox* under one lock; `poll` swaps
//! the inbox out whole and serves events from its own queue. A run of
//! `n` frames costs one `write`, one `read`, one lock on each side and
//! at most one wake-up instead of `n` of each.
//!
//! ## The doorbell
//!
//! All endpoints opened from one [`TcpTransport`] share a doorbell. A
//! socket thread rings it when it makes an inbox non-empty (never while
//! holding the inbox lock), and a `poll` with a non-zero wait sleeps on
//! it: a cooperative driver that owns many endpoints blocks on any one
//! of them and is woken by input on *any* of them — which is why `poll`
//! may return `None` early. The bell stays rung until a waiter takes
//! it, so input arriving between an endpoint's turn and the driver's
//! next wait is not slept through; it rings when an inbox fills, not
//! per event, so a driver drains an endpoint (polls until `None`)
//! before blocking on another. Drivers on different threads may share a
//! transport: a ring meant for one can be taken by the other, which
//! costs the first at most its `wait`.
//!
//! ## Epoch fencing
//!
//! [`TcpTransport::open`] stamps every incarnation of a node name with
//! a strictly increasing epoch, exchanged in the connection hello.
//! `poll` keeps, per peer, only the *newest* epoch it has seen: a
//! `Session` with a larger epoch supersedes the old connection, and
//! `Msg`/`Closed` events from an older one are fenced (counted in
//! `transport.stale_events_fenced`), so a broker that reconnects never
//! sees ghosts of its previous session.
//!
//! ## Locks
//!
//! An endpoint has three locks: the doorbell state, its inbox and its
//! thread list. They are never nested, and no guard is held across a
//! doorbell `ring` or a socket call: a socket thread that rings or
//! reads while holding a lock the driver wants would deadlock the two.
//! Each is held for a pointer swap, an append or a push; the doorbell's
//! is released by the condvar while a `poll` waits. The workspace's
//! locks are `parking_lot`'s, whose guards do not poison.
//!
//! ## Shutdown
//!
//! [`Endpoint::shutdown`] flushes, shuts every socket down in both
//! directions so that its readers (and the peers') see end-of-stream at
//! once, dials its own listener to bring the accept thread out of
//! `accept()`, and joins. Reads also time out every [`POLL_INTERVAL`]
//! to look at the stop flag: the backstop for a handshake in progress
//! or a session that was accepted and never polled.

use crate::frame::{self, Hello, Reassembler};
use crate::transport::{Endpoint, EndpointAddr, NetError, NetEvent, NodeName, Transport};
use crate::wire::{decode_exact, Wire, WireError};
use greenps_telemetry::{names, Counter, Registry};
use parking_lot::{Condvar, Mutex};
use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// How often a blocked socket read wakes to look at the stop flag.
pub const POLL_INTERVAL: Duration = Duration::from_millis(25);

/// `enqueue` flushes a connection's write buffer by itself at this size,
/// so a caller that never flushes cannot grow it without bound. No
/// benchmark workload gets there (a window's run is ≈ 17 KiB).
const FLUSH_AT: usize = 64 * 1024;

/// Raw events produced by the accept/reader threads, integrated (and
/// epoch-fenced) on the driver thread inside `poll`.
enum RawEvent<M> {
    Session {
        peer: NodeName,
        epoch: u32,
        stream: Arc<TcpStream>,
    },
    Msg {
        peer: NodeName,
        epoch: u32,
        msg: M,
    },
    Closed {
        peer: NodeName,
        epoch: u32,
    },
}

/// What the socket threads of one transport ring and `poll` sleeps on.
#[derive(Default)]
struct Doorbell {
    state: Mutex<Bell>,
    wake: Condvar,
}

#[derive(Default)]
struct Bell {
    /// Set by `ring`, taken by the next `wait`.
    rung: bool,
    /// Threads inside `wait`; `ring` skips the wake-up call when none.
    waiters: u32,
}

impl Doorbell {
    fn ring(&self) {
        let waiters = {
            let mut bell = self.state.lock();
            bell.rung = true;
            bell.waiters
        };
        if waiters > 0 {
            self.wake.notify_all();
        }
    }

    /// Returns when the bell has been rung or `timeout` has passed.
    fn wait(&self, timeout: Duration) {
        let mut bell = self.state.lock();
        if !bell.rung {
            bell.waiters += 1;
            self.wake.wait_for(&mut bell, timeout);
            bell.waiters -= 1;
        }
        bell.rung = false;
    }
}

/// What an endpoint shares with its socket threads.
struct Shared<M> {
    /// Where the socket threads leave what they received.
    inbox: Mutex<Vec<RawEvent<M>>>,
    bell: Arc<Doorbell>,
    stop: AtomicBool,
    threads: Mutex<Vec<JoinHandle<()>>>,
    reads: Counter,
    frames_received: Counter,
    bytes_received: Counter,
    decode_errors: Counter,
}

impl<M> Shared<M> {
    /// Moves `batch` into the inbox under one lock; rings if it was empty.
    fn deliver(&self, batch: &mut Vec<RawEvent<M>>) {
        if batch.is_empty() {
            return;
        }
        let was_empty = {
            let mut inbox = self.inbox.lock();
            let was_empty = inbox.is_empty();
            inbox.append(batch);
            was_empty
        };
        if was_empty {
            self.bell.ring();
        }
    }
}

/// An established session: the socket (shared with its reader thread,
/// not duplicated: one descriptor per connection and side) and what is
/// queued for it.
struct Conn {
    stream: Arc<TcpStream>,
    epoch: u32,
    /// Frames queued by `enqueue` and not yet written.
    out: Vec<u8>,
}

/// A `Read` adapter that converts read timeouts into stop-flag polls,
/// so framed reads block in bounded slices and observe cancellation.
struct PollRead<'a> {
    stream: &'a TcpStream,
    stop: &'a AtomicBool,
}

impl Read for PollRead<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        // `Read` is implemented for `&TcpStream`, so no clone is needed.
        let mut raw: &TcpStream = self.stream;
        loop {
            match raw.read(buf) {
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    if self.stop.load(Ordering::SeqCst) {
                        return Err(io::ErrorKind::ConnectionAborted.into());
                    }
                }
                other => return other,
            }
        }
    }
}

/// The TCP backend factory. Tracks one strictly increasing epoch per
/// node name so reopened endpoints supersede their predecessors, and
/// owns the doorbell its endpoints share.
pub struct TcpTransport {
    registry: Registry,
    epochs: HashMap<NodeName, u32>,
    bell: Arc<Doorbell>,
}

impl TcpTransport {
    /// A transport with telemetry disabled.
    pub fn new() -> Self {
        Self::with_telemetry(&Registry::disabled())
    }

    /// A transport feeding `transport.*` instruments in `registry`.
    pub fn with_telemetry(registry: &Registry) -> Self {
        Self {
            registry: registry.clone(),
            epochs: HashMap::new(),
            bell: Arc::default(),
        }
    }
}

impl Default for TcpTransport {
    fn default() -> Self {
        Self::new()
    }
}

impl<M: Wire + Send + 'static> Transport<M> for TcpTransport {
    type Endpoint = TcpEndpoint<M>;

    fn open(&mut self, node: NodeName) -> Result<TcpEndpoint<M>, NetError> {
        let epoch = self
            .epochs
            .entry(node)
            .and_modify(|e| *e = e.saturating_add(1))
            .or_insert(1);
        TcpEndpoint::bind(node, *epoch, &self.registry, Arc::clone(&self.bell))
    }
}

/// One node's TCP attachment: a loopback listener, an accept thread,
/// per-connection reader threads, and an owned map of write halves.
pub struct TcpEndpoint<M> {
    me: Hello,
    local: SocketAddr,
    conns: HashMap<NodeName, Conn>,
    /// Peers whose `out` went non-empty since the last flush.
    dirty: Vec<NodeName>,
    /// Connections a peer dialed after we had dialed it, at the same
    /// epoch: we send on ours, the peer sends on this one, so it stays
    /// open and `close` must reach its reader.
    mirrors: Vec<Arc<TcpStream>>,
    shared: Arc<Shared<M>>,
    /// Empty between polls; swapped with the inbox so both keep their
    /// capacity and the lock covers a pointer swap.
    taken: Vec<RawEvent<M>>,
    /// Events taken from the inbox and not yet served.
    ready: VecDeque<RawEvent<M>>,
    frames_sent: Counter,
    bytes_sent: Counter,
    flushes: Counter,
    sessions_opened: Counter,
    sessions_closed: Counter,
    stale_fenced: Counter,
    down: bool,
}

impl<M> TcpEndpoint<M> {
    /// Writes out what is queued for `peer` in one `write_all`; a failed
    /// write closes the session.
    fn flush_peer(&mut self, peer: NodeName) -> Result<(), NetError> {
        let Some(conn) = self.conns.get_mut(&peer) else {
            // Closed or superseded since; its queue went with it.
            return Ok(());
        };
        if conn.out.is_empty() {
            return Ok(());
        }
        let mut socket: &TcpStream = &conn.stream;
        let wrote = socket.write_all(&conn.out);
        conn.out.clear();
        self.flushes.inc();
        if wrote.is_err() {
            self.conns.remove(&peer);
            self.sessions_closed.inc();
            return Err(NetError::SessionLost(peer));
        }
        Ok(())
    }

    /// Makes `stream` the session with `peer`, replacing an older one.
    fn open_session(&mut self, peer: NodeName, epoch: u32, stream: Arc<TcpStream>) {
        let out = Vec::new();
        self.conns.insert(peer, Conn { stream, epoch, out });
        self.sessions_opened.inc();
    }

    fn flush_all(&mut self) -> Result<(), NetError> {
        let mut dirty = std::mem::take(&mut self.dirty);
        let mut first_lost = Ok(());
        for peer in dirty.drain(..) {
            first_lost = first_lost.and(self.flush_peer(peer));
        }
        self.dirty = dirty;
        first_lost
    }

    /// Swaps the inbox out and queues what it held; false for nothing.
    fn take_inbox(&mut self) -> bool {
        std::mem::swap(&mut *self.shared.inbox.lock(), &mut self.taken);
        let got = !self.taken.is_empty();
        self.ready.extend(self.taken.drain(..));
        got
    }

    /// Everything `shutdown` does short of joining the threads.
    fn close(&mut self) {
        if self.down {
            return;
        }
        self.down = true;
        let _ = self.flush_all();
        self.shared.stop.store(true, Ordering::SeqCst);
        // Both directions: the peer's reader sees end-of-stream behind
        // what was just flushed, and ours sees it now rather than at
        // its next read timeout.
        let sessions = self.conns.drain().map(|(_, c)| c.stream);
        for stream in sessions.chain(self.mirrors.drain(..)) {
            let _ = stream.shutdown(Shutdown::Both);
        }
        // The accept thread blocks in `accept()`; one connection brings
        // it back to look at the stop flag. Refused means it is gone.
        let _ = TcpStream::connect(self.local);
    }
}

impl<M: Wire + Send + 'static> TcpEndpoint<M> {
    fn bind(
        node: NodeName,
        epoch: u32,
        registry: &Registry,
        bell: Arc<Doorbell>,
    ) -> Result<Self, NetError> {
        let listener =
            TcpListener::bind("127.0.0.1:0").map_err(|e| NetError::Open(e.to_string()))?;
        let local = listener
            .local_addr()
            .map_err(|e| NetError::Open(e.to_string()))?;
        let shared = Arc::new(Shared {
            inbox: Mutex::new(Vec::new()),
            bell,
            stop: AtomicBool::new(false),
            threads: Mutex::new(Vec::new()),
            reads: registry.counter(&names::TRANSPORT_READS),
            frames_received: registry.counter(&names::TRANSPORT_FRAMES_RECEIVED),
            bytes_received: registry.counter(&names::TRANSPORT_BYTES_RECEIVED),
            decode_errors: registry.counter(&names::TRANSPORT_DECODE_ERRORS),
        });
        let accepting = Arc::clone(&shared);
        let me = Hello { node, epoch };
        let handle = std::thread::spawn(move || accept_loop(listener, me, accepting));
        shared.threads.lock().push(handle);
        Ok(Self {
            me,
            local,
            conns: HashMap::new(),
            dirty: Vec::new(),
            mirrors: Vec::new(),
            shared,
            taken: Vec::new(),
            ready: VecDeque::new(),
            frames_sent: registry.counter(&names::TRANSPORT_FRAMES_SENT),
            bytes_sent: registry.counter(&names::TRANSPORT_BYTES_SENT),
            flushes: registry.counter(&names::TRANSPORT_FLUSHES),
            sessions_opened: registry.counter(&names::TRANSPORT_SESSIONS_OPENED),
            sessions_closed: registry.counter(&names::TRANSPORT_SESSIONS_CLOSED),
            stale_fenced: registry.counter(&names::TRANSPORT_STALE_EVENTS_FENCED),
            down: false,
        })
    }

    /// Integrates one raw event against the per-peer epoch fence.
    fn integrate(&mut self, raw: RawEvent<M>) -> Option<NetEvent<M>> {
        match raw {
            RawEvent::Session {
                peer,
                epoch,
                stream,
            } => {
                let current = self.conns.get(&peer).map(|c| c.epoch);
                if current.is_some_and(|c| epoch <= c) {
                    // A redundant or stale handshake: the existing
                    // session stands.
                    self.stale_fenced.inc();
                    if current == Some(epoch) {
                        self.mirrors.push(stream);
                    }
                    return None;
                }
                self.open_session(peer, epoch, stream);
                Some(NetEvent::Session { peer, epoch })
            }
            RawEvent::Msg { peer, epoch, msg } if self.is_live(peer, epoch) => {
                Some(NetEvent::Msg { from: peer, msg })
            }
            RawEvent::Closed { peer, epoch } if self.is_live(peer, epoch) => {
                self.conns.remove(&peer);
                self.sessions_closed.inc();
                Some(NetEvent::Closed { peer })
            }
            RawEvent::Msg { .. } | RawEvent::Closed { .. } => {
                self.stale_fenced.inc();
                None
            }
        }
    }

    fn is_live(&self, peer: NodeName, epoch: u32) -> bool {
        self.conns.get(&peer).is_some_and(|c| c.epoch == epoch)
    }
}

impl<M: Wire + Send + 'static> Endpoint<M> for TcpEndpoint<M> {
    fn node(&self) -> NodeName {
        self.me.node
    }

    fn addr(&self) -> EndpointAddr {
        EndpointAddr::Tcp(self.local)
    }

    fn connect(&mut self, addr: &EndpointAddr) -> Result<NodeName, NetError> {
        if self.down {
            return Err(NetError::Shutdown);
        }
        let EndpointAddr::Tcp(sa) = addr else {
            return Err(NetError::WrongAddrKind);
        };
        let stream = TcpStream::connect(sa).map_err(|e| NetError::Connect(e.to_string()))?;
        let hello = handshake(&stream, self.me, &self.shared.stop)
            .map_err(|e| NetError::Connect(e.to_string()))?;
        let stream = Arc::new(stream);
        let mut reader = Reader::new(Arc::clone(&stream), hello, Arc::clone(&self.shared));
        let handle = std::thread::spawn(move || while reader.turn() {});
        self.shared.threads.lock().push(handle);
        // The dialed session is live immediately — the connect() return
        // is its Session notification; `poll` will fence the mirror
        // handshake the peer's accept side may race in.
        self.open_session(hello.node, hello.epoch, stream);
        Ok(hello.node)
    }

    fn enqueue(&mut self, peer: NodeName, msg: &M) -> Result<(), NetError> {
        if self.down {
            return Err(NetError::Shutdown);
        }
        let Some(conn) = self.conns.get_mut(&peer) else {
            return Err(NetError::UnknownPeer(peer));
        };
        if conn.out.is_empty() {
            self.dirty.push(peer);
        }
        let start = frame::begin_frame(&mut conn.out);
        msg.encode(&mut conn.out);
        let framed = conn.out.len().saturating_sub(start) as u64;
        if frame::end_frame(&mut conn.out, start).is_err() {
            return Err(NetError::Codec(WireError::BadLength(framed)));
        }
        self.frames_sent.inc();
        self.bytes_sent.add(framed);
        if conn.out.len() >= FLUSH_AT {
            return self.flush_peer(peer);
        }
        Ok(())
    }

    fn flush(&mut self) -> Result<(), NetError> {
        self.flush_all()
    }

    fn poll(&mut self, mut wait: Duration) -> Option<NetEvent<M>> {
        if self.down {
            return None;
        }
        loop {
            while let Some(raw) = self.ready.pop_front() {
                if let Some(ev) = self.integrate(raw) {
                    return Some(ev);
                }
            }
            if !self.take_inbox() {
                if wait.is_zero() {
                    return None;
                }
                // One wait per call; it may end on another endpoint's
                // input, in which case the next look finds nothing here.
                self.shared.bell.wait(std::mem::take(&mut wait));
            }
        }
    }

    fn shutdown(&mut self) {
        self.close();
        let handles: Vec<JoinHandle<()>> = std::mem::take(&mut *self.shared.threads.lock());
        for h in handles {
            let _ = h.join();
        }
    }
}

impl<M> Drop for TcpEndpoint<M> {
    fn drop(&mut self) {
        // Closing brings every thread this endpoint spawned out of its
        // blocking call, so none leaks. Joining here would deadlock a
        // same-thread drop during panic unwinding, so we only signal.
        self.close();
    }
}

/// Performs the symmetric write-then-read hello exchange.
fn handshake(stream: &TcpStream, my: Hello, stop: &AtomicBool) -> Result<Hello, frame::FrameError> {
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(POLL_INTERVAL))?;
    let mut write_half = stream;
    frame::write_hello(&mut write_half, my)?;
    let mut reader = PollRead { stream, stop };
    frame::read_hello(&mut reader)
}

/// Accepts connections until the endpoint closes, spawning one reader
/// thread per handshaken peer. Blocks in `accept()`: `close` raises the
/// stop flag and then dials the listener to bring it back here.
fn accept_loop<M: Wire + Send + 'static>(listener: TcpListener, my: Hello, shared: Arc<Shared<M>>) {
    loop {
        let accepted = listener.accept();
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        let Ok((stream, _)) = accepted else {
            // Transient accept failure; retry after a beat.
            std::thread::sleep(Duration::from_millis(1));
            continue;
        };
        let reading = Arc::clone(&shared);
        let handle = std::thread::spawn(move || {
            let Ok(hello) = handshake(&stream, my, &reading.stop) else {
                return; // malformed dialer: drop it
            };
            let mut reader = Reader::new(Arc::new(stream), hello, reading).announce();
            while reader.turn() {}
        });
        shared.threads.lock().push(handle);
    }
}

/// One connection's receive half, run on its own thread.
struct Reader<M> {
    stream: Arc<TcpStream>,
    peer: Hello,
    shared: Arc<Shared<M>>,
    frames: Reassembler,
    /// Reused from turn to turn.
    batch: Vec<RawEvent<M>>,
}

impl<M: Wire> Reader<M> {
    fn new(stream: Arc<TcpStream>, peer: Hello, shared: Arc<Shared<M>>) -> Self {
        Self {
            stream,
            peer,
            shared,
            frames: Reassembler::new(),
            batch: Vec::new(),
        }
    }

    /// On the accepting side the session is announced ahead of whatever
    /// the first read brings.
    fn announce(mut self) -> Self {
        self.batch.push(RawEvent::Session {
            peer: self.peer.node,
            epoch: self.peer.epoch,
            stream: Arc::clone(&self.stream),
        });
        self.shared.deliver(&mut self.batch);
        self
    }

    /// One read, and everything it completed: every whole frame in the
    /// buffer is decoded and the lot goes to the inbox as one batch.
    /// False once the session is over (its `Closed` is in that batch).
    fn turn(&mut self) -> bool {
        let Hello { node: peer, epoch } = self.peer;
        let mut reader = PollRead {
            stream: &self.stream,
            stop: &self.shared.stop,
        };
        let mut open = matches!(self.frames.fill(&mut reader), Ok(n) if n > 0);
        if open {
            self.shared.reads.inc();
        }
        while open {
            match self.frames.next_frame() {
                Ok(Some(payload)) => match decode_exact::<M>(payload) {
                    Ok(msg) => {
                        self.shared.frames_received.inc();
                        self.shared.bytes_received.add(payload.len() as u64);
                        self.batch.push(RawEvent::Msg { peer, epoch, msg });
                    }
                    Err(_) => {
                        // A peer speaking garbage is indistinguishable
                        // from corruption: close the session.
                        self.shared.decode_errors.inc();
                        open = false;
                    }
                },
                Ok(None) => break,
                // A length no frame may have: the same.
                Err(_) => open = false,
            }
        }
        if !open {
            self.batch.push(RawEvent::Closed { peer, epoch });
        }
        self.shared.deliver(&mut self.batch);
        open && !self.shared.stop.load(Ordering::SeqCst)
    }
}
