//! The discrete-event network: nodes, links and the event loop.
//!
//! A [`Network`] owns a set of [`Process`]es (brokers, clients, the CROC
//! coordinator) connected by point-to-point [`LinkSpec`]s with latency
//! and optional bandwidth. Each node additionally has an optional
//! *output capacity* — the paper's broker bandwidth limiter — through
//! which all of its outgoing messages are serialized.
//!
//! Message timing: a message handed to [`Context::send_after`] waits out
//! its processing delay, serializes through the sender's output capacity
//! (FIFO), then through the link's bandwidth (FIFO per direction), then
//! experiences the link's propagation latency, and finally triggers
//! `on_message` at the receiver.

#![expect(
    clippy::indexing_slicing,
    reason = "NodeId is a dense index handed out by add_node"
)]

use crate::metrics::TrafficCounters;
use crate::time::{SimDuration, SimTime};
use greenps_telemetry::{names, Counter, EventSink, Gauge, Histogram, Registry};
use std::any::Any;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::fmt;

/// Default output-queue backlog above which a `queue.stall` event is
/// emitted into the `simnet` telemetry ring (when a registry is
/// attached). Experiments probing congestion lower this via
/// [`Network::set_stall_threshold`].
pub const DEFAULT_STALL_THRESHOLD: SimDuration = SimDuration::from_millis(100);

/// Telemetry instruments the event loop feeds when a [`Registry`] is
/// attached via [`Network::set_telemetry`]. Every handle starts as a
/// no-op, so the default-constructed bundle adds only a branch per
/// event — the simulation schedule is identical either way.
struct NetTelemetry {
    delivered: Counter,
    dropped: Counter,
    max_queue_wait_us: Gauge,
    delivery_delay_us: Histogram,
    events: EventSink,
    stall_threshold: SimDuration,
}

impl NetTelemetry {
    fn disabled() -> Self {
        Self {
            delivered: Counter::noop(),
            dropped: Counter::noop(),
            max_queue_wait_us: Gauge::noop(),
            delivery_delay_us: Histogram::noop(),
            events: EventSink::noop(),
            stall_threshold: DEFAULT_STALL_THRESHOLD,
        }
    }

    fn attach(registry: &Registry, stall_threshold: SimDuration) -> Self {
        Self {
            delivered: registry.counter(&names::SIMNET_DELIVERED),
            dropped: registry.counter(&names::SIMNET_DROPPED),
            max_queue_wait_us: registry.gauge(&names::SIMNET_MAX_QUEUE_WAIT_US),
            delivery_delay_us: registry.histogram(&names::SIMNET_DELIVERY_DELAY_US),
            events: registry.ring(&names::SIMNET_RING),
            stall_threshold,
        }
    }
}

/// Index of a node inside a [`Network`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub usize);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "N{}", self.0)
    }
}

/// Payloads must report their serialized size for bandwidth accounting.
pub trait Payload {
    /// Approximate size on the wire, in bytes.
    fn wire_size(&self) -> usize;
}

/// A simulated node's behaviour.
///
/// Implementations must be `'static` so the network can store them as
/// trait objects; `as_any`/`as_any_mut` let the experiment harness
/// downcast back to the concrete type to read statistics.
pub trait Process<M>: 'static {
    /// Called once when the simulation starts (or when the node is added
    /// to a running network).
    fn on_start(&mut self, _ctx: &mut Context<'_, M>) {}

    /// Called when a message arrives from `from`.
    fn on_message(&mut self, ctx: &mut Context<'_, M>, from: NodeId, msg: M);

    /// Called when a timer set via [`Context::set_timer`] fires.
    fn on_timer(&mut self, _ctx: &mut Context<'_, M>, _key: u64) {}

    /// Upcast for downcasting in the harness.
    fn as_any(&self) -> &dyn Any;

    /// Mutable upcast for downcasting in the harness.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

/// Link parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkSpec {
    /// One-way propagation latency.
    pub latency: SimDuration,
    /// Bandwidth in bytes per second; `None` means unlimited.
    pub bandwidth: Option<f64>,
}

impl LinkSpec {
    /// A LAN-like link: 0.2 ms latency, 1 Gbps (the paper's testbeds).
    pub fn lan() -> Self {
        Self {
            latency: SimDuration::from_micros(200),
            bandwidth: Some(125_000_000.0),
        }
    }

    /// A latency-only link with unlimited bandwidth.
    pub fn with_latency(latency: SimDuration) -> Self {
        Self {
            latency,
            bandwidth: None,
        }
    }
}

impl Default for LinkSpec {
    fn default() -> Self {
        Self::lan()
    }
}

#[derive(Debug, Clone)]
struct LinkState {
    spec: LinkSpec,
    /// Per-direction transmit-queue frontier, keyed by source node.
    busy_until: [(NodeId, SimTime); 2],
}

#[derive(Debug)]
struct NodeState {
    /// Output capacity in bytes/s (`None` = unlimited) — the broker
    /// bandwidth limiter from the paper's heterogeneous experiments.
    out_capacity: Option<f64>,
    out_busy_until: SimTime,
    counters: TrafficCounters,
    alive: bool,
}

enum EventKind<M> {
    Deliver { from: NodeId, to: NodeId, msg: M },
    Timer { node: NodeId, key: u64 },
    Start { node: NodeId },
}

struct Event<M> {
    at: SimTime,
    seq: u64,
    kind: EventKind<M>,
}

impl<M> PartialEq for Event<M> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<M> Eq for Event<M> {}
impl<M> PartialOrd for Event<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Event<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

struct Inner<M> {
    now: SimTime,
    seq: u64,
    queue: BinaryHeap<Reverse<Event<M>>>,
    nodes: Vec<NodeState>,
    links: BTreeMap<(NodeId, NodeId), LinkState>,
    dropped: u64,
    delivered: u64,
    telemetry: NetTelemetry,
}

impl<M: Payload> Inner<M> {
    fn push(&mut self, at: SimTime, kind: EventKind<M>) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Reverse(Event { at, seq, kind }));
    }

    fn link_key(a: NodeId, b: NodeId) -> (NodeId, NodeId) {
        if a <= b {
            (a, b)
        } else {
            (b, a)
        }
    }

    fn send_from(&mut self, from: NodeId, to: NodeId, msg: M, delay: SimDuration) {
        let size = msg.wire_size();
        let key = Self::link_key(from, to);
        let Some(link) = self.links.get_mut(&key) else {
            // The link was removed (peer death, reconfiguration): the
            // message is lost, like a TCP connection reset mid-send.
            self.dropped += 1;
            self.telemetry.dropped.inc();
            self.telemetry
                .events
                .emit_with(&names::MSG_DROP, || format!("{from}->{to}: link gone"));
            return;
        };
        let ready = self.now + delay;

        // Serialize through the sender's output capacity.
        let node = &mut self.nodes[from.0];
        let out_start = ready.max(node.out_busy_until);
        let queue_wait = out_start - ready;
        self.telemetry
            .max_queue_wait_us
            .observe_max(queue_wait.as_micros());
        if queue_wait >= self.telemetry.stall_threshold {
            self.telemetry.events.emit_with(&names::QUEUE_STALL, || {
                format!("{from}: output backlog {queue_wait}")
            });
        }
        let out_tx = match node.out_capacity {
            Some(bw) => SimDuration::from_secs_f64(size as f64 / bw),
            None => SimDuration::ZERO,
        };
        node.out_busy_until = out_start + out_tx;
        node.counters.msgs_out += 1;
        node.counters.bytes_out += size as u64;
        let node_done = node.out_busy_until;

        // Serialize through the link's per-direction transmit queue.
        let dir = &mut link.busy_until[usize::from(from != key.0)];
        debug_assert!(dir.0 == from);
        let link_start = node_done.max(dir.1);
        let link_tx = match link.spec.bandwidth {
            Some(bw) => SimDuration::from_secs_f64(size as f64 / bw),
            None => SimDuration::ZERO,
        };
        dir.1 = link_start + link_tx;
        let arrival = dir.1 + link.spec.latency;
        self.telemetry
            .delivery_delay_us
            .record((arrival - self.now).as_micros());

        self.push(arrival, EventKind::Deliver { from, to, msg });
    }
}

/// Handle passed to process callbacks for interacting with the network.
pub struct Context<'a, M> {
    inner: &'a mut Inner<M>,
    node: NodeId,
}

impl<M: Payload> Context<'_, M> {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.inner.now
    }

    /// The id of the node whose callback is running.
    pub fn node_id(&self) -> NodeId {
        self.node
    }

    /// Sends a message to a directly linked node. If no link exists
    /// (the peer died or was disconnected) the message is counted as
    /// dropped.
    pub fn send(&mut self, to: NodeId, msg: M) {
        self.send_after(SimDuration::ZERO, to, msg);
    }

    /// Sends a message after a local processing delay (e.g. the broker's
    /// matching delay). If no link exists the message is dropped.
    pub fn send_after(&mut self, delay: SimDuration, to: NodeId, msg: M) {
        let from = self.node;
        self.inner.send_from(from, to, msg, delay);
    }

    /// Schedules `on_timer(key)` on this node after `delay`.
    pub fn set_timer(&mut self, delay: SimDuration, key: u64) {
        let at = self.inner.now + delay;
        self.inner.push(
            at,
            EventKind::Timer {
                node: self.node,
                key,
            },
        );
    }

    /// True when a link to `to` exists.
    pub fn has_link(&self, to: NodeId) -> bool {
        self.inner
            .links
            .contains_key(&Inner::<M>::link_key(self.node, to))
    }
}

/// A deterministic discrete-event network of processes.
pub struct Network<M> {
    inner: Inner<M>,
    processes: Vec<Option<Box<dyn Process<M>>>>,
}

impl<M: Payload + 'static> Default for Network<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M: Payload + 'static> Network<M> {
    /// Creates an empty network at time zero.
    pub fn new() -> Self {
        Self {
            inner: Inner {
                now: SimTime::ZERO,
                seq: 0,
                queue: BinaryHeap::new(),
                nodes: Vec::new(),
                links: BTreeMap::new(),
                dropped: 0,
                delivered: 0,
                telemetry: NetTelemetry::disabled(),
            },
            processes: Vec::new(),
        }
    }

    /// Adds a node with unlimited output capacity; schedules `on_start`.
    pub fn add_node(&mut self, process: impl Process<M>) -> NodeId {
        self.add_node_with_capacity(process, None)
    }

    /// Adds a node whose outgoing traffic is limited to
    /// `out_capacity` bytes/s (`None` = unlimited).
    pub fn add_node_with_capacity(
        &mut self,
        process: impl Process<M>,
        out_capacity: Option<f64>,
    ) -> NodeId {
        let id = NodeId(self.processes.len());
        self.processes.push(Some(Box::new(process)));
        self.inner.nodes.push(NodeState {
            out_capacity,
            out_busy_until: SimTime::ZERO,
            counters: TrafficCounters::new(),
            alive: true,
        });
        self.inner
            .push(self.inner.now, EventKind::Start { node: id });
        id
    }

    /// Connects two nodes with a link.
    ///
    /// # Panics
    /// Panics if either node does not exist, the nodes are equal, or the
    /// link already exists.
    pub fn connect(&mut self, a: NodeId, b: NodeId, spec: LinkSpec) {
        assert!(a != b, "cannot link {a} to itself");
        assert!(a.0 < self.inner.nodes.len() && b.0 < self.inner.nodes.len());
        let key = Inner::<M>::link_key(a, b);
        let prev = self.inner.links.insert(
            key,
            LinkState {
                spec,
                busy_until: [(key.0, SimTime::ZERO), (key.1, SimTime::ZERO)],
            },
        );
        assert!(prev.is_none(), "link {a}-{b} already exists");
    }

    /// Removes the link between two nodes; returns `true` if it existed.
    /// In-flight messages on the link are still delivered.
    pub fn disconnect(&mut self, a: NodeId, b: NodeId) -> bool {
        self.inner
            .links
            .remove(&Inner::<M>::link_key(a, b))
            .is_some()
    }

    /// Marks a node dead: future deliveries and timers for it are
    /// dropped, and its links are removed.
    pub fn kill_node(&mut self, id: NodeId) {
        self.inner.nodes[id.0].alive = false;
        self.processes[id.0] = None;
        self.inner.links.retain(|&(a, b), _| a != id && b != id);
    }

    /// Injects a message directly into `to`'s mailbox at the current
    /// time, bypassing links (used by the experiment harness to bootstrap
    /// protocols; `from` is reported to the handler as the sender).
    pub fn inject(&mut self, from: NodeId, to: NodeId, msg: M) {
        self.inner
            .push(self.inner.now, EventKind::Deliver { from, to, msg });
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.inner.now
    }

    /// Number of links currently up.
    pub fn link_count(&self) -> usize {
        self.inner.links.len()
    }

    /// Messages delivered so far.
    pub fn delivered(&self) -> u64 {
        self.inner.delivered
    }

    /// Messages dropped (sent to dead nodes).
    pub fn dropped(&self) -> u64 {
        self.inner.dropped
    }

    /// Attaches telemetry instruments from `registry`: the event loop
    /// will feed the `simnet.delivered`/`simnet.dropped` counters, the
    /// `simnet.max_queue_wait_us` gauge (worst output-capacity backlog
    /// seen), the `simnet.delivery_delay_us` histogram (send-to-arrival
    /// simulated delay), and the `simnet` event ring (`msg.drop`,
    /// `queue.stall`). Telemetry is observation only — the event
    /// schedule is bit-identical with or without it. Passing
    /// [`Registry::disabled`] detaches.
    pub fn set_telemetry(&mut self, registry: &Registry) {
        let threshold = self.inner.telemetry.stall_threshold;
        self.inner.telemetry = NetTelemetry::attach(registry, threshold);
    }

    /// Sets the output-queue backlog above which a `queue.stall` event
    /// is emitted (default [`DEFAULT_STALL_THRESHOLD`]).
    pub fn set_stall_threshold(&mut self, threshold: SimDuration) {
        self.inner.telemetry.stall_threshold = threshold;
    }

    /// Traffic counters of a node.
    pub fn counters(&self, id: NodeId) -> &TrafficCounters {
        &self.inner.nodes[id.0].counters
    }

    /// Resets every node's traffic counters (start of a measurement
    /// window).
    pub fn reset_counters(&mut self) {
        for n in &mut self.inner.nodes {
            n.counters.reset();
        }
    }

    /// Downcasts a node's process to a concrete type.
    pub fn node_as<P: Process<M>>(&self, id: NodeId) -> Option<&P> {
        self.processes[id.0]
            .as_deref()
            .and_then(|p| p.as_any().downcast_ref())
    }

    /// Mutable downcast of a node's process.
    pub fn node_as_mut<P: Process<M>>(&mut self, id: NodeId) -> Option<&mut P> {
        self.processes[id.0]
            .as_deref_mut()
            .and_then(|p| p.as_any_mut().downcast_mut())
    }

    /// Runs a node's `on_message` handler synchronously as if `msg` had
    /// just arrived from `from` (harness utility for control-plane calls
    /// that should not consume simulated time).
    pub fn call_node(&mut self, from: NodeId, to: NodeId, msg: M) {
        self.dispatch(EventKind::Deliver { from, to, msg });
    }

    /// Executes the next event, if any; returns `false` when idle.
    pub fn step(&mut self) -> bool {
        let Some(Reverse(ev)) = self.inner.queue.pop() else {
            return false;
        };
        debug_assert!(ev.at >= self.inner.now);
        self.inner.now = ev.at;
        self.dispatch(ev.kind);
        true
    }

    fn dispatch(&mut self, kind: EventKind<M>) {
        let node = match &kind {
            EventKind::Deliver { to, .. } => *to,
            EventKind::Timer { node, .. } | EventKind::Start { node } => *node,
        };
        if !self.inner.nodes[node.0].alive {
            if matches!(kind, EventKind::Deliver { .. }) {
                self.inner.dropped += 1;
                self.inner.telemetry.dropped.inc();
                self.inner
                    .telemetry
                    .events
                    .emit_with(&names::MSG_DROP, || format!("{node}: node dead"));
            }
            return;
        }
        let Some(mut process) = self.processes[node.0].take() else {
            return;
        };
        {
            let mut ctx = Context {
                inner: &mut self.inner,
                node,
            };
            match kind {
                EventKind::Deliver { from, msg, .. } => {
                    let size = msg.wire_size() as u64;
                    ctx.inner.nodes[node.0].counters.msgs_in += 1;
                    ctx.inner.nodes[node.0].counters.bytes_in += size;
                    ctx.inner.delivered += 1;
                    ctx.inner.telemetry.delivered.inc();
                    process.on_message(&mut ctx, from, msg);
                }
                EventKind::Timer { key, .. } => process.on_timer(&mut ctx, key),
                EventKind::Start { .. } => process.on_start(&mut ctx),
            }
        }
        // The handler may have killed its own node; keep the slot empty
        // in that case.
        if self.processes[node.0].is_none() && self.inner.nodes[node.0].alive {
            self.processes[node.0] = Some(process);
        }
    }

    /// Runs until the event queue is empty or `deadline` is reached;
    /// time stops at the deadline if events remain.
    pub fn run_until(&mut self, deadline: SimTime) {
        while let Some(Reverse(ev)) = self.inner.queue.peek() {
            if ev.at > deadline {
                break;
            }
            self.step();
        }
        if self.inner.now < deadline {
            self.inner.now = deadline;
        }
    }

    /// Runs for a span of simulated time from `now`.
    pub fn run_for(&mut self, span: SimDuration) {
        let deadline = self.inner.now + span;
        self.run_until(deadline);
    }

    /// Drains every pending event regardless of time.
    pub fn run_to_quiescence(&mut self) {
        while self.step() {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::any::Any;

    #[derive(Debug, Clone)]
    struct Ping(usize);
    impl Payload for Ping {
        fn wire_size(&self) -> usize {
            self.0
        }
    }

    /// Echoes every message back after an optional processing delay and
    /// records arrival times.
    struct Echo {
        delay: SimDuration,
        arrivals: Vec<(SimTime, NodeId)>,
        timers: Vec<u64>,
        started: bool,
    }

    impl Echo {
        fn new(delay: SimDuration) -> Self {
            Self {
                delay,
                arrivals: Vec::new(),
                timers: Vec::new(),
                started: false,
            }
        }
    }

    impl Process<Ping> for Echo {
        fn on_start(&mut self, _ctx: &mut Context<'_, Ping>) {
            self.started = true;
        }
        fn on_message(&mut self, ctx: &mut Context<'_, Ping>, from: NodeId, msg: Ping) {
            self.arrivals.push((ctx.now(), from));
            if ctx.has_link(from) {
                ctx.send_after(self.delay, from, msg);
            }
        }
        fn on_timer(&mut self, _ctx: &mut Context<'_, Ping>, key: u64) {
            self.timers.push(key);
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// A silent sink.
    struct Sink {
        got: usize,
    }
    impl Process<Ping> for Sink {
        fn on_message(&mut self, _ctx: &mut Context<'_, Ping>, _from: NodeId, _msg: Ping) {
            self.got += 1;
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    #[test]
    fn latency_only_round_trip() {
        let mut net: Network<Ping> = Network::new();
        let a = net.add_node(Echo::new(SimDuration::ZERO));
        let b = net.add_node(Echo::new(SimDuration::ZERO));
        net.connect(a, b, LinkSpec::with_latency(SimDuration::from_millis(5)));
        net.inject(a, b, Ping(100)); // arrives at b at t=0
                                     // b echoes to a (5ms), a echoes back (10ms), forever; run 21ms
        net.run_until(SimTime::from_micros(21_000));
        let a_echo: &Echo = net.node_as(a).unwrap();
        let b_echo: &Echo = net.node_as(b).unwrap();
        assert!(a_echo.started && b_echo.started);
        // a receives at 5, 15 ms
        assert_eq!(
            a_echo
                .arrivals
                .iter()
                .map(|(t, _)| t.as_micros())
                .collect::<Vec<_>>(),
            vec![5_000, 15_000]
        );
        // b receives at 0, 10, 20 ms
        assert_eq!(
            b_echo
                .arrivals
                .iter()
                .map(|(t, _)| t.as_micros())
                .collect::<Vec<_>>(),
            vec![0, 10_000, 20_000]
        );
    }

    #[test]
    fn bandwidth_serializes_messages() {
        // 1000 B/s link, two 500-byte messages sent back-to-back:
        // arrivals at 0.5s and 1.0s (plus zero latency).
        struct Burst;
        impl Process<Ping> for Burst {
            fn on_start(&mut self, ctx: &mut Context<'_, Ping>) {
                ctx.send(NodeId(1), Ping(500));
                ctx.send(NodeId(1), Ping(500));
            }
            fn on_message(&mut self, _: &mut Context<'_, Ping>, _: NodeId, _: Ping) {}
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let mut net: Network<Ping> = Network::new();
        let a = net.add_node(Burst);
        let b = net.add_node(Echo::new(SimDuration::ZERO));
        net.connect(
            a,
            b,
            LinkSpec {
                latency: SimDuration::ZERO,
                bandwidth: Some(1000.0),
            },
        );
        net.disconnect(b, a);
        net.connect(
            a,
            b,
            LinkSpec {
                latency: SimDuration::ZERO,
                bandwidth: Some(1000.0),
            },
        );
        net.run_to_quiescence();
        let echo: &Echo = net.node_as(b).unwrap();
        assert_eq!(
            echo.arrivals
                .iter()
                .map(|(t, _)| t.as_micros())
                .collect::<Vec<_>>(),
            vec![500_000, 1_000_000]
        );
    }

    #[test]
    fn node_output_capacity_throttles_across_links() {
        // Node with 1000 B/s output capacity fanning 500-byte messages to
        // two different unlimited links: second message leaves 0.5s later.
        struct Fan;
        impl Process<Ping> for Fan {
            fn on_start(&mut self, ctx: &mut Context<'_, Ping>) {
                ctx.send(NodeId(1), Ping(500));
                ctx.send(NodeId(2), Ping(500));
            }
            fn on_message(&mut self, _: &mut Context<'_, Ping>, _: NodeId, _: Ping) {}
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let mut net: Network<Ping> = Network::new();
        let a = net.add_node_with_capacity(Fan, Some(1000.0));
        let b = net.add_node(Echo::new(SimDuration::ZERO));
        let c = net.add_node(Echo::new(SimDuration::ZERO));
        net.connect(a, b, LinkSpec::with_latency(SimDuration::ZERO));
        net.connect(a, c, LinkSpec::with_latency(SimDuration::ZERO));
        net.run_until(SimTime::from_micros(2_000_000));
        let b_echo: &Echo = net.node_as(b).unwrap();
        let c_echo: &Echo = net.node_as(c).unwrap();
        assert_eq!(b_echo.arrivals[0].0.as_micros(), 500_000);
        assert_eq!(c_echo.arrivals[0].0.as_micros(), 1_000_000);
    }

    #[test]
    fn processing_delay_shifts_departure() {
        let mut net: Network<Ping> = Network::new();
        let a = net.add_node(Echo::new(SimDuration::from_millis(3)));
        let b = net.add_node(Echo::new(SimDuration::ZERO));
        net.connect(a, b, LinkSpec::with_latency(SimDuration::from_millis(1)));
        net.inject(b, a, Ping(10));
        net.run_until(SimTime::from_micros(4_500));
        let b_echo: &Echo = net.node_as(b).unwrap();
        // a processes 3ms then 1ms latency
        assert_eq!(b_echo.arrivals[0].0.as_micros(), 4_000);
    }

    #[test]
    fn timers_fire_in_order() {
        struct TimerGuy;
        impl Process<Ping> for TimerGuy {
            fn on_start(&mut self, ctx: &mut Context<'_, Ping>) {
                ctx.set_timer(SimDuration::from_secs(2), 2);
                ctx.set_timer(SimDuration::from_secs(1), 1);
            }
            fn on_message(&mut self, _: &mut Context<'_, Ping>, _: NodeId, _: Ping) {}
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let mut net: Network<Ping> = Network::new();
        let a = net.add_node(Echo::new(SimDuration::ZERO));
        let _ = net.add_node(TimerGuy);
        // Echo's timer list is on node a; reuse it by setting timers from a.
        let _ = a;
        net.run_to_quiescence();
        assert_eq!(net.now(), SimTime::from_micros(2_000_000));
    }

    #[test]
    fn kill_node_drops_messages() {
        let mut net: Network<Ping> = Network::new();
        let a = net.add_node(Echo::new(SimDuration::ZERO));
        let b = net.add_node(Sink { got: 0 });
        net.connect(a, b, LinkSpec::with_latency(SimDuration::from_millis(1)));
        net.inject(a, b, Ping(1)); // in flight toward b
        net.kill_node(b);
        net.run_to_quiescence();
        assert_eq!(net.dropped(), 1);
        assert!(net.node_as::<Sink>(b).is_none());
    }

    #[test]
    fn counters_track_traffic() {
        let mut net: Network<Ping> = Network::new();
        let a = net.add_node(Echo::new(SimDuration::ZERO));
        let b = net.add_node(Sink { got: 0 });
        net.connect(a, b, LinkSpec::with_latency(SimDuration::ZERO));
        net.inject(b, a, Ping(64));
        net.run_to_quiescence();
        assert_eq!(net.counters(a).msgs_in, 1);
        assert_eq!(net.counters(a).msgs_out, 1);
        assert_eq!(net.counters(a).bytes_out, 64);
        assert_eq!(net.counters(b).msgs_in, 1);
        assert_eq!(net.node_as::<Sink>(b).unwrap().got, 1);
        assert_eq!(net.delivered(), 2);
        net.reset_counters();
        assert_eq!(net.counters(a).total_msgs(), 0);
    }

    #[test]
    fn send_without_link_is_dropped() {
        // A node whose peer vanished keeps "sending"; the message is
        // counted as dropped instead of crashing the simulation.
        struct Blind;
        impl Process<Ping> for Blind {
            fn on_message(&mut self, ctx: &mut Context<'_, Ping>, from: NodeId, m: Ping) {
                ctx.send(from, m);
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let mut net: Network<Ping> = Network::new();
        let a = net.add_node(Echo::new(SimDuration::ZERO));
        let c = net.add_node(Blind);
        net.inject(a, c, Ping(1));
        net.run_to_quiescence();
        assert_eq!(net.dropped(), 1);
    }

    #[test]
    fn telemetry_mirrors_event_loop() {
        let registry = Registry::new();
        let mut net: Network<Ping> = Network::new();
        net.set_telemetry(&registry);
        net.set_stall_threshold(SimDuration::from_micros(1));
        // 1000 B/s output capacity: the second 500-byte message queues
        // for 0.5 s behind the first — well past the stall threshold.
        let a = net.add_node_with_capacity(Echo::new(SimDuration::ZERO), Some(1000.0));
        let b = net.add_node(Sink { got: 0 });
        net.connect(a, b, LinkSpec::with_latency(SimDuration::from_millis(1)));
        net.inject(b, a, Ping(500)); // a echoes each back to b
        net.inject(b, a, Ping(500));
        net.run_to_quiescence();
        net.kill_node(b);
        net.inject(a, b, Ping(1)); // delivery to a dead node: dropped
        net.run_to_quiescence();

        let snap = registry.snapshot();
        // 2 injected into a + 2 echoes into b; the post-kill message drops.
        assert_eq!(snap.counters.get("simnet.delivered"), Some(&4));
        assert_eq!(snap.counters.get("simnet.dropped"), Some(&1));
        assert!(*snap.gauges.get("simnet.max_queue_wait_us").unwrap() >= 500_000);
        let delays = snap.histograms.get("simnet.delivery_delay_us").unwrap();
        assert_eq!(delays.count, 2); // only link sends time a delay
        let ring = snap.rings.get("simnet").unwrap();
        assert!(ring.events.iter().any(|e| e.kind == "queue.stall"));
        assert!(ring.events.iter().any(|e| e.kind == "msg.drop"));
    }

    #[test]
    fn run_until_advances_time_when_idle() {
        let mut net: Network<Ping> = Network::new();
        net.run_until(SimTime::from_micros(123));
        assert_eq!(net.now(), SimTime::from_micros(123));
    }

    #[test]
    fn call_node_is_synchronous() {
        let mut net: Network<Ping> = Network::new();
        let b = net.add_node(Sink { got: 0 });
        net.call_node(b, b, Ping(1));
        assert_eq!(net.node_as::<Sink>(b).unwrap().got, 1);
        assert_eq!(net.now(), SimTime::ZERO);
    }
}
