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
//! The driver is cooperative: one sweep polls every endpoint in a
//! fixed order, feeding broker messages to each broker's
//! [`BrokerCore`] through a [`BrokerSink`] that sends over the
//! endpoint. Service delays (`send_after`) are collapsed to immediate
//! sends — on a real transport the queueing happens in the kernel and
//! the reader threads, not in a simulated service queue. The run polls
//! a [`CancelToken`] between sweeps so a cancelled reconfiguration
//! tears the overlay down within one sweep plus the transport's
//! internal poll interval.

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

/// How many consecutive event-free sweeps mean "the overlay is idle".
const IDLE_SWEEPS: u32 = 8;

/// Per-endpoint poll wait during a drain sweep. Zero would busy-spin
/// on threaded transports; the sim backend ignores it entirely.
const SWEEP_WAIT: Duration = Duration::from_millis(2);

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
/// once, then publishes its pre-generated publications in rounds.
#[derive(Debug, Clone)]
pub struct NetPublisher {
    /// Client identity sent in the hello.
    pub client: ClientId,
    /// Home broker.
    pub broker: BrokerId,
    /// The advertisement registered before publishing.
    pub advertisement: Advertisement,
    /// Publications, published one per round in order.
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
    /// Sends that failed because a session was lost mid-run.
    pub send_errors: u64,
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
    send_errors: u64,
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

/// Sink mapping [`BrokerCore`] output onto a transport endpoint.
///
/// `send_after` sends immediately: service-queue modelling belongs to
/// the simulator; on a live transport the only delays are real ones.
struct NetSink<'a, E> {
    ep: &'a mut E,
    now: SimTime,
    send_errors: &'a mut u64,
}

impl<E: Endpoint<BrokerMsg>> BrokerSink<NodeName> for NetSink<'_, E> {
    fn now(&self) -> SimTime {
        self.now
    }

    fn send(&mut self, to: NodeName, msg: BrokerMsg) {
        if self.ep.send(to, &msg).is_err() {
            *self.send_errors += 1;
        }
    }

    fn send_after(&mut self, _delay: greenps_simnet::SimDuration, to: NodeName, msg: BrokerMsg) {
        self.send(to, msg);
    }
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
                send_errors: 0,
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
        let mut next_client = CLIENT_BASE;
        let mut fresh = || {
            let name = next_client;
            next_client += 1;
            name
        };
        let mut subscribers = Vec::with_capacity(scenario.subscribers.len());
        for sub in &scenario.subscribers {
            let addr = addr_of(sub.broker)?;
            let mut ep = transport.open(fresh())?;
            let broker_name = ep.connect(&addr)?;
            ep.send(broker_name, &BrokerMsg::ClientHello { client: sub.client })?;
            ep.send(broker_name, &BrokerMsg::Subscribe(sub.subscription.clone()))?;
            subscribers.push(SubscriberNode {
                client: sub.client,
                broker: sub.broker,
                ep,
            });
        }
        let mut publishers = Vec::with_capacity(scenario.publishers.len());
        for publisher in &scenario.publishers {
            let addr = addr_of(publisher.broker)?;
            let mut ep = transport.open(fresh())?;
            let broker_name = ep.connect(&addr)?;
            ep.send(
                broker_name,
                &BrokerMsg::ClientHello {
                    client: publisher.client,
                },
            )?;
            ep.send(
                broker_name,
                &BrokerMsg::Advertise(publisher.advertisement.clone()),
            )?;
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
        })
    }

    /// Driver-clock "now": microseconds since the deployment was built.
    fn now(&self) -> SimTime {
        let us = u64::try_from(self.start.elapsed().as_micros()).unwrap_or(u64::MAX);
        SimTime::from_micros(us)
    }

    /// Polls every endpoint once, dispatching what arrives. Returns
    /// the number of events processed.
    fn sweep(&mut self, wait: Duration) -> usize {
        let now = {
            let us = u64::try_from(self.start.elapsed().as_micros()).unwrap_or(u64::MAX);
            SimTime::from_micros(us)
        };
        let mut processed = 0;
        for node in &mut self.brokers {
            while let Some(ev) = node
                .ep
                .poll(if processed == 0 { wait } else { Duration::ZERO })
            {
                processed += 1;
                match ev {
                    // Accepted sessions and closes only adjust the
                    // endpoint's internal session table.
                    NetEvent::Session { .. } | NetEvent::Closed { .. } => {}
                    NetEvent::Msg { from, msg } => {
                        let mut sink = NetSink {
                            ep: &mut node.ep,
                            now,
                            send_errors: &mut node.send_errors,
                        };
                        node.core.on_message(&mut sink, from, msg);
                    }
                }
            }
        }
        // Room for one delivery per subscriber per sweep; beyond that the
        // log grows amortised.
        self.deliveries.reserve(self.subscribers.len());
        for (subscriber, sub) in self.subscribers.iter_mut().enumerate() {
            while let Some(ev) = sub.ep.poll(Duration::ZERO) {
                processed += 1;
                if let NetEvent::Msg {
                    msg: BrokerMsg::Publication(env),
                    ..
                } = ev
                {
                    self.deliveries.push(Delivery {
                        subscriber,
                        adv: env.publication.adv_id.raw(),
                        msg: env.publication.msg_id.raw(),
                        latency_us: now.as_micros().saturating_sub(env.published_at.as_micros()),
                    });
                    self.hops_sum += u64::from(env.hops);
                }
            }
        }
        for publisher in &mut self.publishers {
            while publisher.ep.poll(Duration::ZERO).is_some() {
                processed += 1;
            }
        }
        processed
    }

    /// Sweeps until `IDLE_SWEEPS` consecutive sweeps observe nothing,
    /// honoring cancellation between sweeps.
    fn drain(&mut self, cancel: &CancelToken) -> Result<(), NetDeployError> {
        let mut idle = 0;
        while idle < IDLE_SWEEPS {
            if cancel.is_cancelled_hot() {
                return Err(NetDeployError::Cancelled);
            }
            if self.sweep(SWEEP_WAIT) == 0 {
                idle += 1;
            } else {
                idle = 0;
            }
        }
        Ok(())
    }

    /// Runs the scenario to completion: settles the control plane,
    /// publishes every publication in rounds (one per publisher per
    /// sweep), drains the overlay and tears it down.
    ///
    /// Fails with [`NetDeployError::Cancelled`] as soon as `cancel`
    /// trips; endpoints are shut down before returning either way.
    pub fn run(mut self, cancel: &CancelToken) -> Result<NetDeployReport, NetDeployError> {
        let outcome = self.run_inner(cancel);
        self.shutdown();
        let report = outcome?;
        Ok(report)
    }

    fn run_inner(&mut self, cancel: &CancelToken) -> Result<NetDeployReport, NetDeployError> {
        // Control plane: hellos, subscriptions and advertisements are
        // already in flight from `build`; let them propagate fully so
        // routing state is identical on every backend before traffic.
        self.drain(cancel)?;
        loop {
            if cancel.is_cancelled_hot() {
                return Err(NetDeployError::Cancelled);
            }
            let mut sent_any = false;
            let now = self.now();
            for publisher in &mut self.publishers {
                let Some(p) = publisher.publications.get(publisher.next) else {
                    continue;
                };
                let env = PubEnvelope::new(p.clone(), now);
                if publisher
                    .ep
                    .send(publisher.broker_name, &BrokerMsg::Publication(env))
                    .is_ok()
                {
                    self.published += 1;
                }
                publisher.next += 1;
                sent_any = true;
            }
            if !sent_any {
                break;
            }
            self.sweep(Duration::ZERO);
        }
        self.drain(cancel)?;
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
            send_errors: self.brokers.iter().map(|b| b.send_errors).sum(),
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
