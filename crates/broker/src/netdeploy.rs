//! Transport-generic deployment: the broker overlay running over any
//! [`greenps_net::Transport`] backend (DESIGN.md §13).
//!
//! This harness speaks only the [`Endpoint`] contract: the same
//! scenario runs bit-for-bit over [`greenps_net::SimTransport`]
//! (deterministic, single-threaded) and over
//! [`greenps_net::TcpTransport`] (real loopback sockets, one accept
//! loop plus one reader thread per connection) — the latter is how a
//! planned overlay is executed on OS threads and sockets. The
//! equivalence test in `tests/transport_equivalence.rs` holds the two
//! backends to the same delivery multiset.
//!
//! The driver is cooperative and single-threaded on both backends. One
//! *sweep* gives every endpoint a turn in a fixed order — the brokers,
//! round after round until none of them has input, then the clients —
//! feeding each broker's [`BrokerCore`] through a [`BrokerSink`] that
//! enqueues on the endpoint, and flushing a broker once per turn, so
//! what it produced for one peer goes out as one run of frames. Service
//! delays (`send_after`) are collapsed to immediate sends: on a real
//! transport the queueing happens in the kernel and the reader threads.
//!
//! It is a closed loop bounded by a window (DESIGN.md §13.5). The
//! driver counts frames in flight: plus one per message an endpoint
//! accepted (from `build`'s hellos on), minus one per message `poll`
//! handed back. Publishers take turns publishing while fewer than
//! `WINDOW` are in flight; the overlay is quiescent when none are, so
//! no timer is waited out. Frames still in flight after `STALL_SWEEPS`
//! silent sweeps were written to a session that died and are reported
//! as failed sends. A [`CancelToken`] is polled between sweeps.

#![expect(
    clippy::disallowed_methods,
    reason = "delivery latency is stamped against the wall clock of the run; no routing decision reads it"
)]

use crate::broker::BrokerConfig;
use crate::logic::{BrokerCore, BrokerSink};
use crate::messages::{BrokerMsg, PubEnvelope};
use greenps_core::pipeline::CancelToken;
use greenps_net::{Endpoint, EndpointAddr, NetError, NetEvent, NodeName, Transport};
use greenps_pubsub::filter::{stock_advertisement, stock_template};
use greenps_pubsub::ids::{AdvId, BrokerId, ClientId, MsgId, SubId};
use greenps_pubsub::message::{Advertisement, Publication, Subscription};
use greenps_simnet::SimTime;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::time::{Duration, Instant};

/// Client endpoint names start here; broker names are their raw ids.
const CLIENT_BASE: NodeName = 1 << 32;

/// Publishers publish while fewer frames than this are in flight: big
/// enough that every socket write and read carries a run of frames,
/// small enough that sockets and inboxes hold a few kilobytes. Measured
/// on `tcp_chain` (deliveries/s): 1 → 56k, 8 → 179k, 32 → 237k, 64 →
/// 256k, 256 → 254k, 1 024 → 247k (peak RSS 68 → 79 MiB): flat from 64.
const WINDOW: u64 = 64;

/// How long the one blocking `poll` of a sweep may wait. The transport
/// ends the wait when any endpoint has input, so this only sets how
/// soon a silent overlay looks at the cancel token again (the sim
/// backend ignores it). Measured on `tcp_chain`: 20 ms and 200 ms are
/// the same, 2 ms is 5 % and 1 ms 8 % slower — a timer due before the
/// next scheduler tick costs more to arm and disarm.
const SWEEP_WAIT: Duration = Duration::from_millis(20);

/// This many sweeps in a row that waited and got nothing, with frames
/// in flight, end the drain: on loopback a frame arrives in
/// microseconds, so half a second of silence means a dead session. A
/// healthy overlay never gets to the second such sweep.
const STALL_SWEEPS: u32 = 25;

/// Errors surfaced by the transport deployment harness.
#[derive(Debug)]
pub enum NetDeployError {
    /// The scenario referenced an unknown broker, listed a broker id
    /// twice, or used one that collides with the client name range.
    BadScenario(String),
    /// A transport operation failed while building the overlay.
    Net(NetError),
    /// The run was cancelled through its [`CancelToken`].
    Cancelled,
}

impl fmt::Display for NetDeployError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetDeployError::BadScenario(why) => write!(f, "bad scenario: {why}"),
            NetDeployError::Net(e) => write!(f, "transport error: {e}"),
            NetDeployError::Cancelled => write!(f, "deployment cancelled"),
        }
    }
}

impl std::error::Error for NetDeployError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NetDeployError::Net(e) => Some(e),
            _ => None,
        }
    }
}

impl From<NetError> for NetDeployError {
    fn from(e: NetError) -> Self {
        NetDeployError::Net(e)
    }
}

/// A publisher in a [`NetScenario`]: attaches at `broker`, advertises
/// once, then publishes its pre-generated publications in turns.
#[derive(Debug, Clone)]
pub struct NetPublisher {
    /// Client identity sent in the hello.
    pub client: ClientId,
    /// Home broker.
    pub broker: BrokerId,
    /// The advertisement registered before publishing.
    pub advertisement: Advertisement,
    /// Publications, published in order, one per turn.
    pub publications: Vec<Publication>,
}

/// A subscriber in a [`NetScenario`]: attaches at `broker` and issues
/// one subscription.
#[derive(Debug, Clone)]
pub struct NetSubscriber {
    /// Client identity sent in the hello.
    pub client: ClientId,
    /// Home broker.
    pub broker: BrokerId,
    /// The subscription registered at the home broker.
    pub subscription: Subscription,
}

/// A declarative, fully pre-generated workload: because every
/// publication is materialized up front, the same scenario value can
/// be replayed over different transports and compared delivery-for-
/// delivery.
#[derive(Debug, Clone)]
pub struct NetScenario {
    /// Broker configurations; ids must stay below the client range.
    pub brokers: Vec<BrokerConfig>,
    /// Broker-to-broker overlay edges.
    pub edges: Vec<(BrokerId, BrokerId)>,
    /// Publishers with pre-generated publication streams.
    pub publishers: Vec<NetPublisher>,
    /// Subscribers.
    pub subscribers: Vec<NetSubscriber>,
}

impl NetScenario {
    /// A chain of `brokers` brokers with one stock publisher at the
    /// head, one matching subscriber at every broker, and
    /// `publications` messages — the stock quote workload used by the
    /// transport benchmarks and the sim/tcp equivalence test.
    pub fn stock_chain(brokers: usize, publications: u64) -> Self {
        use greenps_core::model::LinearFn;
        let configs: Vec<BrokerConfig> = (0..brokers as u64)
            .map(|i| BrokerConfig::new(BrokerId::new(i), LinearFn::new(0.0, 0.0), 1e9))
            .collect();
        let edges = (1..brokers as u64)
            .map(|i| (BrokerId::new(i - 1), BrokerId::new(i)))
            .collect();
        let pubs = (0..publications)
            .map(|m| {
                Publication::builder(AdvId::new(1), MsgId::new(m))
                    .attr("class", "STOCK")
                    .attr("symbol", "YHOO")
                    .attr("low", 18.0 + (m % 7) as f64)
                    .build()
            })
            .collect();
        let subscribers = (0..brokers as u64)
            .map(|i| NetSubscriber {
                client: ClientId::new(100 + i),
                broker: BrokerId::new(i),
                subscription: Subscription::new(SubId::new(10 + i), stock_template("YHOO")),
            })
            .collect();
        NetScenario {
            brokers: configs,
            edges,
            publishers: vec![NetPublisher {
                client: ClientId::new(1),
                broker: BrokerId::new(0),
                advertisement: Advertisement::new(AdvId::new(1), stock_advertisement("YHOO")),
                publications: pubs,
            }],
            subscribers,
        }
    }
}

/// Per-broker counters in a [`NetDeployReport`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetBrokerStats {
    /// Publications matched (processed) by the broker.
    pub matched: u64,
    /// Publications delivered to locally attached clients.
    pub delivered: u64,
}

/// What a transport deployment run produced.
#[derive(Debug, Clone)]
pub struct NetDeployReport {
    /// Publications injected by all publishers.
    pub published: u64,
    /// Per subscriber: the sorted multiset of delivered
    /// `(advertisement, message)` id pairs. Comparing this field
    /// across transports is the backend-equivalence criterion.
    pub deliveries: BTreeMap<ClientId, Vec<(u64, u64)>>,
    /// Per-broker matched/delivered counters from the cores.
    pub broker_stats: BTreeMap<BrokerId, NetBrokerStats>,
    /// Per home broker: delivery latency samples in microseconds,
    /// publisher stamp to subscriber receipt on the driver's clock.
    pub latency_us_by_broker: BTreeMap<BrokerId, Vec<u64>>,
    /// Mean broker hops over all deliveries.
    pub mean_hops: Option<f64>,
    /// Wall-clock duration of the whole run.
    pub elapsed: Duration,
    /// Sends that failed because a session was lost mid-run: refused
    /// by a broker's or a publisher's endpoint, failed at a flush, or
    /// accepted and still in flight when the drain gave up on them.
    pub send_errors: u64,
    /// The most frames in flight at once. While publishing, at most the
    /// window times the widest front of frames one publication has in
    /// the overlay at a time, whatever the number of publications.
    pub max_in_flight: u64,
}

impl NetDeployReport {
    /// Total publications delivered to subscribers.
    pub fn total_delivered(&self) -> u64 {
        self.deliveries.values().map(|v| v.len() as u64).sum()
    }

    /// Delivered messages per wall-clock second.
    pub fn delivered_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.total_delivered() as f64 / secs
        }
    }
}

struct BrokerNode<E> {
    id: BrokerId,
    ep: E,
    core: BrokerCore<NodeName>,
}

/// The deployment's count of frames on their way.
#[derive(Default)]
struct Traffic {
    in_flight: u64,
    max_in_flight: u64,
    send_errors: u64,
}

impl Traffic {
    /// The outcome of one `enqueue`/`send`.
    fn sent<T>(&mut self, outcome: &Result<T, NetError>) {
        if outcome.is_ok() {
            self.in_flight += 1;
            self.max_in_flight = self.max_in_flight.max(self.in_flight);
        } else {
            self.send_errors += 1;
        }
    }

    /// One `NetEvent::Msg` came out of a `poll`.
    fn received(&mut self) {
        self.in_flight = self.in_flight.saturating_sub(1);
    }
}

struct SubscriberNode<E> {
    client: ClientId,
    broker: BrokerId,
    ep: E,
}

/// One publication received by a subscriber endpoint.
struct Delivery {
    /// Index into `NetDeployment::subscribers`.
    subscriber: usize,
    adv: u64,
    msg: u64,
    latency_us: u64,
}

struct PublisherNode<E> {
    broker_name: NodeName,
    ep: E,
    publications: Vec<Publication>,
    next: usize,
}

/// Sink mapping [`BrokerCore`] output onto a transport endpoint: `send`
/// enqueues and the sweep flushes once the broker's turn is over.
/// `send_after` sends immediately: service-queue modelling belongs to
/// the simulator; on a live transport the only delays are real ones.
struct NetSink<'a, E> {
    ep: &'a mut E,
    now: SimTime,
    traffic: &'a mut Traffic,
}

impl<E: Endpoint<BrokerMsg>> BrokerSink<NodeName> for NetSink<'_, E> {
    fn now(&self) -> SimTime {
        self.now
    }

    fn send(&mut self, to: NodeName, msg: BrokerMsg) {
        self.traffic.sent(&self.ep.enqueue(to, &msg));
    }

    fn send_after(&mut self, _delay: greenps_simnet::SimDuration, to: NodeName, msg: BrokerMsg) {
        self.send(to, msg);
    }
}

/// Microseconds since `start`, as the driver's clock.
fn clock(start: Instant) -> SimTime {
    SimTime::from_micros(u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX))
}

/// A broker overlay deployed over an arbitrary transport backend.
pub struct NetDeployment<E> {
    brokers: Vec<BrokerNode<E>>,
    subscribers: Vec<SubscriberNode<E>>,
    publishers: Vec<PublisherNode<E>>,
    /// Every delivery of the run in arrival order: one log for the
    /// deployment, growing as deliveries happen, rather than two
    /// vectors per subscriber sized for the worst case (thousands of
    /// subscribers each reserving room for every publication).
    /// [`NetDeployment::report`] splits it per subscriber.
    deliveries: Vec<Delivery>,
    hops_sum: u64,
    start: Instant,
    published: u64,
    traffic: Traffic,
    /// Whose turn it is to publish.
    turn: usize,
}

impl<E: Endpoint<BrokerMsg>> NetDeployment<E> {
    /// Opens endpoints for every broker and client of `scenario` on
    /// `transport` and wires the overlay: each edge is dialed from
    /// both ends (each side treats its own successful `connect` as the
    /// session signal), clients dial their home broker and say hello.
    pub fn build<T>(transport: &mut T, scenario: &NetScenario) -> Result<Self, NetDeployError>
    where
        T: Transport<BrokerMsg, Endpoint = E>,
    {
        // Broker ids are checked before any endpoint is opened: a
        // transport may accept a name twice (TCP reopens it under a
        // newer epoch), which would wire edges to the wrong endpoint.
        let mut ids = BTreeSet::new();
        for cfg in &scenario.brokers {
            if cfg.id.raw() >= CLIENT_BASE {
                return Err(NetDeployError::BadScenario(format!(
                    "broker id {} collides with the client name range",
                    cfg.id
                )));
            }
            if !ids.insert(cfg.id) {
                return Err(NetDeployError::BadScenario(format!(
                    "duplicate broker id {}",
                    cfg.id
                )));
            }
        }
        let mut brokers = Vec::with_capacity(scenario.brokers.len());
        let mut addrs: BTreeMap<BrokerId, EndpointAddr> = BTreeMap::new();
        for cfg in &scenario.brokers {
            let ep = transport.open(cfg.id.raw())?;
            addrs.insert(cfg.id, ep.addr());
            brokers.push(BrokerNode {
                id: cfg.id,
                ep,
                core: BrokerCore::new(cfg.clone()),
            });
        }
        let addr_of = |id: BrokerId| {
            addrs
                .get(&id)
                .cloned()
                .ok_or_else(|| NetDeployError::BadScenario(format!("unknown broker {id}")))
        };
        fn node_of<E>(
            brokers: &mut [BrokerNode<E>],
            id: BrokerId,
        ) -> Result<&mut BrokerNode<E>, NetDeployError> {
            brokers
                .iter_mut()
                .find(|b| b.id == id)
                .ok_or_else(|| NetDeployError::BadScenario(format!("unknown broker {id}")))
        }
        for &(a, b) in &scenario.edges {
            let addr_a = addr_of(a)?;
            let addr_b = addr_of(b)?;
            let node = node_of(&mut brokers, a)?;
            let peer_b = node.ep.connect(&addr_b)?;
            node.core.add_broker_neighbor(peer_b);
            let node = node_of(&mut brokers, b)?;
            let peer_a = node.ep.connect(&addr_a)?;
            node.core.add_broker_neighbor(peer_a);
        }
        // A client: a fresh endpoint dialed into its home broker, its
        // two hellos sent — frames in flight until the broker polls them.
        let mut next_client = CLIENT_BASE;
        let mut traffic = Traffic::default();
        let mut attach = |home: BrokerId, client: ClientId, request: BrokerMsg| {
            let addr = addr_of(home)?;
            let mut ep = transport.open(next_client)?;
            next_client += 1;
            let broker_name = ep.connect(&addr)?;
            for msg in [BrokerMsg::ClientHello { client }, request] {
                let sent = ep.send(broker_name, &msg);
                traffic.sent(&sent);
                sent?;
            }
            Ok::<_, NetDeployError>((ep, broker_name))
        };
        let mut subscribers = Vec::with_capacity(scenario.subscribers.len());
        for sub in &scenario.subscribers {
            let request = BrokerMsg::Subscribe(sub.subscription.clone());
            subscribers.push(SubscriberNode {
                client: sub.client,
                broker: sub.broker,
                ep: attach(sub.broker, sub.client, request)?.0,
            });
        }
        let mut publishers = Vec::with_capacity(scenario.publishers.len());
        for publisher in &scenario.publishers {
            let request = BrokerMsg::Advertise(publisher.advertisement.clone());
            let (ep, broker_name) = attach(publisher.broker, publisher.client, request)?;
            publishers.push(PublisherNode {
                broker_name,
                ep,
                publications: publisher.publications.clone(),
                next: 0,
            });
        }
        Ok(Self {
            brokers,
            subscribers,
            publishers,
            deliveries: Vec::new(),
            hops_sum: 0,
            start: Instant::now(),
            published: 0,
            traffic,
            turn: 0,
        })
    }

    /// Dispatches what has arrived, in a fixed order: the brokers take
    /// turns, each flushed after its turn, until a whole round of them
    /// finds nothing (so a frame one broker sends another is handled in
    /// this sweep whichever of them comes first); then the subscribers,
    /// then the publishers. Only the first `poll` may block, for up to
    /// `wait`. Returns the number of events processed.
    fn sweep(&mut self, mut wait: Duration) -> usize {
        let now = clock(self.start);
        let mut processed = 0;
        loop {
            let before = processed;
            for node in &mut self.brokers {
                while let Some(ev) = node.ep.poll(std::mem::take(&mut wait)) {
                    processed += 1;
                    // Accepted sessions and closes only adjust the
                    // endpoint's internal session table.
                    let NetEvent::Msg { from, msg } = ev else {
                        continue;
                    };
                    self.traffic.received();
                    let mut sink = NetSink {
                        ep: &mut node.ep,
                        now,
                        traffic: &mut self.traffic,
                    };
                    node.core.on_message(&mut sink, from, msg);
                }
                if node.ep.flush().is_err() {
                    self.traffic.send_errors += 1;
                }
            }
            if processed == before {
                break;
            }
        }
        // Receipts are stamped after the brokers' work, not when the
        // sweep began: what a subscriber finds now was routed since.
        let received_at = clock(self.start).as_micros();
        // Room for one delivery per subscriber per sweep; beyond that the
        // log grows amortised.
        self.deliveries.reserve(self.subscribers.len());
        for (subscriber, sub) in self.subscribers.iter_mut().enumerate() {
            while let Some(ev) = sub.ep.poll(Duration::ZERO) {
                processed += 1;
                let NetEvent::Msg { msg, .. } = ev else {
                    continue;
                };
                self.traffic.received();
                if let BrokerMsg::Publication(env) = msg {
                    self.deliveries.push(Delivery {
                        subscriber,
                        adv: env.adv_id().raw(),
                        msg: env.msg_id().raw(),
                        latency_us: received_at.saturating_sub(env.published_at.as_micros()),
                    });
                    self.hops_sum += u64::from(env.hops);
                }
            }
        }
        for publisher in &mut self.publishers {
            while let Some(ev) = publisher.ep.poll(Duration::ZERO) {
                processed += 1;
                if matches!(ev, NetEvent::Msg { .. }) {
                    self.traffic.received();
                }
            }
        }
        processed
    }

    /// Publishers publish one publication each in turn until the window
    /// is full or every stream is exhausted, then flush. A publication
    /// the endpoint refuses is spent: a send error, not `published`.
    fn publish(&mut self) {
        let mut exhausted = 0;
        while self.traffic.in_flight < WINDOW && exhausted < self.publishers.len() {
            let turn = self.turn;
            self.turn = (turn + 1) % self.publishers.len();
            let Some(publisher) = self.publishers.get_mut(turn) else {
                break;
            };
            let Some(p) = publisher.publications.get(publisher.next) else {
                exhausted += 1;
                continue;
            };
            exhausted = 0;
            publisher.next += 1;
            let env = PubEnvelope::new(p.clone(), clock(self.start));
            let sent = publisher
                .ep
                .enqueue(publisher.broker_name, &BrokerMsg::Publication(env));
            self.published += u64::from(sent.is_ok());
            self.traffic.sent(&sent);
        }
        for publisher in &mut self.publishers {
            if publisher.ep.flush().is_err() {
                self.traffic.send_errors += 1;
            }
        }
    }

    /// Sweeps until nothing is in flight — with `publishing`, topping the
    /// window up before every sweep, so until every publication has been
    /// published and has arrived. Polls `cancel` between sweeps; frames
    /// silent for `STALL_SWEEPS` sweeps are written off as send errors.
    fn drain(&mut self, cancel: &CancelToken, publishing: bool) -> Result<(), NetDeployError> {
        let mut silent = 0;
        loop {
            if cancel.is_cancelled_hot() {
                return Err(NetDeployError::Cancelled);
            }
            if publishing {
                self.publish();
            }
            if self.traffic.in_flight == 0 {
                return Ok(());
            }
            if self.sweep(SWEEP_WAIT) > 0 {
                silent = 0;
                continue;
            }
            silent += 1;
            if silent == STALL_SWEEPS {
                self.traffic.send_errors += std::mem::take(&mut self.traffic.in_flight);
                return Ok(());
            }
        }
    }

    /// Runs the scenario to completion: settles the control plane,
    /// publishes every publication under the window, drains the overlay
    /// and tears it down.
    ///
    /// Fails with [`NetDeployError::Cancelled`] as soon as `cancel`
    /// trips; endpoints are shut down before returning either way.
    pub fn run(mut self, cancel: &CancelToken) -> Result<NetDeployReport, NetDeployError> {
        let outcome = self.run_inner(cancel);
        self.shutdown();
        outcome
    }

    fn run_inner(&mut self, cancel: &CancelToken) -> Result<NetDeployReport, NetDeployError> {
        // Control plane: hellos, subscriptions and advertisements are
        // already in flight from `build`; let them propagate fully so
        // routing state is identical on every backend before traffic.
        self.drain(cancel, false)?;
        self.drain(cancel, true)?;
        Ok(self.report())
    }

    fn report(&self) -> NetDeployReport {
        // Split the log per subscriber, each part sized exactly.
        let mut counts = vec![0usize; self.subscribers.len()];
        for d in &self.deliveries {
            if let Some(n) = counts.get_mut(d.subscriber) {
                *n += 1;
            }
        }
        let mut ids: Vec<Vec<(u64, u64)>> = vec![Vec::new(); counts.len()];
        let mut latencies: Vec<Vec<u64>> = vec![Vec::new(); counts.len()];
        for ((got, lat), &n) in ids.iter_mut().zip(&mut latencies).zip(&counts) {
            got.reserve_exact(n);
            lat.reserve_exact(n);
        }
        for d in &self.deliveries {
            if let (Some(got), Some(lat)) =
                (ids.get_mut(d.subscriber), latencies.get_mut(d.subscriber))
            {
                got.push((d.adv, d.msg));
                lat.push(d.latency_us);
            }
        }
        let mut latency_us_by_broker: BTreeMap<BrokerId, Vec<u64>> = BTreeMap::new();
        for (sub, lat) in self.subscribers.iter().zip(latencies) {
            latency_us_by_broker
                .entry(sub.broker)
                .or_default()
                .extend(lat);
        }
        let deliveries: BTreeMap<ClientId, Vec<(u64, u64)>> = self
            .subscribers
            .iter()
            .zip(ids)
            .map(|(sub, mut got)| {
                got.sort_unstable();
                (sub.client, got)
            })
            .collect();
        let delivered = self.deliveries.len() as u64;
        let hops_sum = self.hops_sum;
        let broker_stats = self
            .brokers
            .iter()
            .map(|b| {
                (
                    b.id,
                    NetBrokerStats {
                        matched: b.core.matched_count,
                        delivered: b.core.delivered_count,
                    },
                )
            })
            .collect();
        NetDeployReport {
            published: self.published,
            deliveries,
            broker_stats,
            latency_us_by_broker,
            mean_hops: if delivered == 0 {
                None
            } else {
                Some(hops_sum as f64 / delivered as f64)
            },
            elapsed: self.start.elapsed(),
            send_errors: self.traffic.send_errors,
            max_in_flight: self.traffic.max_in_flight,
        }
    }

    fn shutdown(&mut self) {
        for publisher in &mut self.publishers {
            publisher.ep.shutdown();
        }
        for sub in &mut self.subscribers {
            sub.ep.shutdown();
        }
        for broker in &mut self.brokers {
            broker.ep.shutdown();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use greenps_net::{SimTransport, TcpTransport};
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn stock_chain_delivers_over_sim_transport() {
        let scenario = NetScenario::stock_chain(3, 20);
        let mut transport: SimTransport<BrokerMsg> = SimTransport::new();
        let deployment = NetDeployment::build(&mut transport, &scenario).expect("build");
        let report = deployment.run(&CancelToken::new()).expect("run");
        assert_eq!(report.published, 20);
        // Every broker hosts one matching subscriber.
        assert_eq!(report.total_delivered(), 60);
        for (client, got) in &report.deliveries {
            assert_eq!(got.len(), 20, "subscriber {client} saw all publications");
        }
        assert_eq!(report.broker_stats[&BrokerId::new(2)].delivered, 20);
        assert!(report.send_errors == 0);
    }

    #[test]
    fn cancellation_stops_the_run() {
        let scenario = NetScenario::stock_chain(2, 5);
        let mut transport: SimTransport<BrokerMsg> = SimTransport::new();
        let deployment = NetDeployment::build(&mut transport, &scenario).expect("build");
        let cancel = CancelToken::new();
        cancel.cancel();
        assert!(matches!(
            deployment.run(&cancel),
            Err(NetDeployError::Cancelled)
        ));
    }

    #[test]
    fn a_publisher_whose_sends_fail_reports_every_one_of_them() {
        let scenario = NetScenario::stock_chain(2, 30);
        let mut transport: SimTransport<BrokerMsg> = SimTransport::new();
        let mut deployment = NetDeployment::build(&mut transport, &scenario).expect("build");
        let cancel = CancelToken::new();
        deployment.drain(&cancel, false).expect("control plane");
        // The publisher's session to its home broker is gone.
        deployment.publishers[0].ep.shutdown();
        deployment.drain(&cancel, true).expect("publishing");
        let report = deployment.report();
        assert_eq!(report.published, 0);
        assert_eq!(report.send_errors, 30);
        assert_eq!(report.total_delivered(), 0);
    }

    /// What the probe endpoints of one deployment saw.
    #[derive(Default)]
    struct ProbeLog {
        /// When a broker endpoint was last polled.
        last_broker_poll: Option<Instant>,
        /// For every publication a client endpoint handed over, in
        /// order: its publisher's stamp, and `last_broker_poll` then.
        receipts: Vec<(SimTime, Instant)>,
    }

    /// An endpoint that logs when it is polled and can be told to shut
    /// down in the middle of a run.
    struct Probe<E> {
        inner: E,
        log: Rc<RefCell<ProbeLog>>,
        /// Shuts down when asked for the publication after this many.
        quits_after: Option<usize>,
        publications: usize,
    }

    impl<E: Endpoint<BrokerMsg>> Endpoint<BrokerMsg> for Probe<E> {
        fn node(&self) -> NodeName {
            self.inner.node()
        }
        fn addr(&self) -> EndpointAddr {
            self.inner.addr()
        }
        fn connect(&mut self, addr: &EndpointAddr) -> Result<NodeName, NetError> {
            self.inner.connect(addr)
        }
        fn enqueue(&mut self, peer: NodeName, msg: &BrokerMsg) -> Result<(), NetError> {
            self.inner.enqueue(peer, msg)
        }
        fn flush(&mut self) -> Result<(), NetError> {
            self.inner.flush()
        }
        fn poll(&mut self, wait: Duration) -> Option<NetEvent<BrokerMsg>> {
            let is_broker = self.node() < CLIENT_BASE;
            if is_broker {
                self.log.borrow_mut().last_broker_poll = Some(Instant::now());
            }
            if self.quits_after == Some(self.publications) {
                self.inner.shutdown();
            }
            let ev = self.inner.poll(wait)?;
            if let NetEvent::Msg {
                msg: BrokerMsg::Publication(env),
                ..
            } = &ev
            {
                self.publications += 1;
                let mut log = self.log.borrow_mut();
                if let (false, Some(at)) = (is_broker, log.last_broker_poll) {
                    log.receipts.push((env.published_at, at));
                }
            }
            Some(ev)
        }
        fn shutdown(&mut self) {
            self.inner.shutdown();
        }
    }

    /// Opens [`Probe`]s over the endpoints of `inner`; the endpoint
    /// named `doomed.0` quits after `doomed.1` publications.
    struct Probed<T> {
        inner: T,
        log: Rc<RefCell<ProbeLog>>,
        doomed: Option<(NodeName, usize)>,
    }

    impl<T> Probed<T> {
        fn new(inner: T) -> Self {
            Self {
                inner,
                log: Rc::default(),
                doomed: None,
            }
        }
    }

    impl<T: Transport<BrokerMsg>> Transport<BrokerMsg> for Probed<T> {
        type Endpoint = Probe<T::Endpoint>;

        fn open(&mut self, node: NodeName) -> Result<Self::Endpoint, NetError> {
            Ok(Probe {
                inner: self.inner.open(node)?,
                log: Rc::clone(&self.log),
                quits_after: self.doomed.filter(|d| d.0 == node).map(|d| d.1),
                publications: 0,
            })
        }
    }

    /// Over the sim transport a publication is published, routed down
    /// the chain and received inside one sweep, so a receipt stamped
    /// with the time the sweep began would precede the routing.
    #[test]
    fn receipts_are_stamped_after_the_brokers_have_worked() {
        let scenario = NetScenario::stock_chain(3, 40);
        let mut transport = Probed::new(SimTransport::new());
        let mut deployment = NetDeployment::build(&mut transport, &scenario).expect("build");
        let start = deployment.start;
        deployment.run_inner(&CancelToken::new()).expect("run");
        let log = transport.log.borrow();
        assert_eq!(deployment.deliveries.len(), 120);
        assert_eq!(log.receipts.len(), 120);
        // The deployment's log and the probes' are in the same order.
        for (delivery, (published_at, brokers_polled)) in
            deployment.deliveries.iter().zip(&log.receipts)
        {
            let published_at = published_at.as_micros();
            let brokers_polled = brokers_polled.duration_since(start).as_micros() as u64;
            let received_at = published_at + delivery.latency_us;
            assert!(published_at <= brokers_polled);
            assert!(
                received_at >= brokers_polled,
                "received at {received_at} us, brokers still at work at {brokers_polled} us"
            );
        }
    }

    #[test]
    fn an_idle_overlay_over_tcp_settles_by_count() {
        let scenario = NetScenario::stock_chain(4, 0);
        let mut deployment =
            NetDeployment::build(&mut TcpTransport::new(), &scenario).expect("build");
        // Two hellos per client are on their way already.
        assert_eq!(deployment.traffic.in_flight, 10);
        let report = deployment.run_inner(&CancelToken::new()).expect("run");
        assert_eq!(deployment.traffic.in_flight, 0);
        assert_eq!((report.published, report.send_errors), (0, 0));
        assert!(report.max_in_flight >= 10);
        // Counted quiescent, neither slept through idle sweeps nor
        // given up on.
        assert!(report.elapsed < SWEEP_WAIT * STALL_SWEEPS);
    }

    /// The subscriber at the head broker goes away after its tenth
    /// publication with more already on their way to it: the run must
    /// end, and every publication it did not get must be accounted for.
    /// Also returns what a failed assertion should print: the
    /// transport, `send_errors` and `elapsed`.
    fn lose_a_subscriber_mid_run<T: Transport<BrokerMsg>>(
        inner: T,
        label: &str,
    ) -> (NetDeployReport, u64, String) {
        let scenario = NetScenario::stock_chain(3, 300);
        let mut transport = Probed::new(inner);
        transport.doomed = Some((CLIENT_BASE, 10));
        let report = NetDeployment::build(&mut transport, &scenario)
            .and_then(|d| d.run(&CancelToken::new()))
            .unwrap_or_else(|e| panic!("{label}: build and run: {e:?}"));
        let context = format!(
            "{label}: send_errors {}, elapsed {:?}",
            report.send_errors, report.elapsed
        );
        assert_eq!(report.published, 300, "{context}: publications");
        let doomed = scenario.subscribers[0].client;
        for (client, got) in &report.deliveries {
            let expected = if *client == doomed { 10 } else { 300 };
            assert_eq!(got.len(), expected, "{context}: deliveries to {client:?}");
        }
        let unaccounted = 290u64.saturating_sub(report.send_errors);
        (report, unaccounted, context)
    }

    #[test]
    fn a_subscriber_lost_mid_run_ends_the_drain_through_the_stall_bound() {
        // Sim: the rest of the window is in its mailbox when it quits
        // (written off when the drain gives up), everything later is
        // refused at `enqueue`. Exactly one send error per publication.
        let (report, unaccounted, context) = lose_a_subscriber_mid_run(SimTransport::new(), "sim");
        assert_eq!(report.send_errors, 290, "{context}: send errors");
        assert_eq!(unaccounted, 0, "{context}: lost publications unaccounted");
        // TCP: the same, except that a write to the dead session may
        // fail as well as its frames going missing.
        let (_, unaccounted, context) = lose_a_subscriber_mid_run(TcpTransport::new(), "tcp");
        assert_eq!(unaccounted, 0, "{context}: lost publications unaccounted");
    }

    fn window_bounds_in_flight<T: Transport<BrokerMsg>>(mut transport: T) {
        let scenario = NetScenario::stock_chain(4, 2_000);
        let report = NetDeployment::build(&mut transport, &scenario)
            .and_then(|d| d.run(&CancelToken::new()))
            .expect("build and run");
        assert_eq!(report.total_delivered(), 8_000);
        // A publication has at most four frames in the chain at once:
        // one per subscriber it has reached and not yet been polled by,
        // plus the one still travelling down.
        assert!(report.max_in_flight >= WINDOW);
        assert!(
            report.max_in_flight <= WINDOW * 4,
            "{} frames in flight",
            report.max_in_flight
        );
    }

    #[test]
    fn in_flight_stays_within_the_window_times_one_publications_front() {
        window_bounds_in_flight(SimTransport::new());
        window_bounds_in_flight(TcpTransport::new());
    }

    fn is_bad_scenario<T: Transport<BrokerMsg>>(mut transport: T, scenario: &NetScenario) -> bool {
        matches!(
            NetDeployment::build(&mut transport, scenario),
            Err(NetDeployError::BadScenario(_))
        )
    }

    #[test]
    fn bad_broker_id_is_rejected() {
        let mut scenario = NetScenario::stock_chain(1, 1);
        scenario.brokers[0].id = BrokerId::new(1 << 33);
        assert!(is_bad_scenario(SimTransport::new(), &scenario));
    }

    #[test]
    fn duplicate_broker_id_is_rejected_on_both_transports() {
        // Otherwise valid: every edge and client home still resolves.
        let mut scenario = NetScenario::stock_chain(2, 1);
        scenario.brokers.push(scenario.brokers[0].clone());
        assert!(is_bad_scenario(SimTransport::new(), &scenario));
        assert!(is_bad_scenario(TcpTransport::new(), &scenario));
    }

    #[test]
    fn references_to_unknown_brokers_are_rejected() {
        let ghost = BrokerId::new(77);
        let mut edge = NetScenario::stock_chain(2, 1);
        edge.edges.push((BrokerId::new(1), ghost));
        assert!(is_bad_scenario(SimTransport::new(), &edge));
        let mut subscriber = NetScenario::stock_chain(2, 1);
        subscriber.subscribers[1].broker = ghost;
        assert!(is_bad_scenario(SimTransport::new(), &subscriber));
        let mut publisher = NetScenario::stock_chain(2, 1);
        publisher.publishers[0].broker = ghost;
        assert!(is_bad_scenario(SimTransport::new(), &publisher));
    }
}
