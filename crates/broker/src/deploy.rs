//! PANDA-style deployment: build a broker network from a topology
//! specification, attach clients, gather Phase-1 information, and
//! measure a running deployment.
//!
//! The paper deploys with PANDA from a text topology file; here a
//! [`TopologySpec`] plays that role against the discrete-event network.

use crate::broker::{Broker, BrokerConfig};
use crate::client::{CrocClient, PublicationGen, PublisherClient, SubscriberClient};
use crate::messages::{BrokerMsg, GatheredBroker};
use greenps_core::model::AllocationInput;
use greenps_profile::PublisherTable;
use greenps_pubsub::ids::{AdvId, BrokerId, ClientId};
use greenps_pubsub::message::Subscription;
use greenps_pubsub::Filter;
use greenps_simnet::{LinkSpec, Network, NodeId, SimDuration};
use greenps_telemetry::{names, Registry, Span};
use std::collections::BTreeMap;

/// Deployment construction errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeployError {
    /// A topology edge or attach call referenced a broker id that is
    /// not part of the deployment.
    UnknownBroker(BrokerId),
    /// A topology listed the same broker id twice.
    DuplicateBroker(BrokerId),
}

impl std::fmt::Display for DeployError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeployError::UnknownBroker(id) => write!(f, "unknown broker id {id:?}"),
            DeployError::DuplicateBroker(id) => write!(f, "broker id {id:?} listed twice"),
        }
    }
}

impl std::error::Error for DeployError {}

/// Phase-1 gather failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GatherError {
    /// The deployment has no brokers to gather from.
    NoBrokers,
    /// The aggregated BIA did not arrive within the gather timeout.
    Timeout {
        /// How long the gather waited before giving up.
        waited: SimDuration,
    },
}

impl std::fmt::Display for GatherError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GatherError::NoBrokers => write!(f, "phase 1 gather: deployment has no brokers"),
            GatherError::Timeout { waited } => write!(
                f,
                "phase 1 gather: aggregated BIA did not arrive within {} ms",
                waited.as_micros() / 1_000
            ),
        }
    }
}

impl std::error::Error for GatherError {}

/// A deployable broker topology.
#[derive(Debug, Clone)]
pub struct TopologySpec {
    /// Broker configurations.
    pub brokers: Vec<BrokerConfig>,
    /// Broker-to-broker overlay links.
    pub edges: Vec<(BrokerId, BrokerId)>,
    /// Link parameters for every overlay and client link.
    pub link: LinkSpec,
}

/// A running deployment: the network plus id→node indexes.
pub struct Deployment {
    /// The simulated network.
    pub net: Network<BrokerMsg>,
    /// Broker id → node.
    pub brokers: BTreeMap<BrokerId, NodeId>,
    /// Publisher advertisement → node.
    pub publishers: BTreeMap<AdvId, NodeId>,
    /// Subscriber client id → node.
    pub subscribers: BTreeMap<ClientId, NodeId>,
    link: LinkSpec,
    croc: Option<NodeId>,
    next_request: u64,
    telemetry: Registry,
}

impl RunMetrics {
    /// Renormalizes the pool average to `pool_size` brokers (idle,
    /// deallocated brokers count as zero-rate members of the pool).
    pub fn rescale_to_pool(&mut self, pool_size: usize) {
        if pool_size > 0 {
            let total: f64 = self.broker_msg_rates.iter().map(|(_, r)| r).sum();
            self.avg_broker_msg_rate = total / pool_size as f64;
        }
    }
}

impl Deployment {
    /// Instantiates every broker and overlay link of a topology.
    ///
    /// Fails with [`DeployError::DuplicateBroker`] when `spec.brokers`
    /// repeats an id, and with [`DeployError::UnknownBroker`] when an
    /// edge references a broker id absent from it.
    pub fn build(spec: &TopologySpec) -> Result<Self, DeployError> {
        let mut net: Network<BrokerMsg> = Network::new();
        let mut brokers = BTreeMap::new();
        for cfg in &spec.brokers {
            if brokers.contains_key(&cfg.id) {
                return Err(DeployError::DuplicateBroker(cfg.id));
            }
            let node =
                net.add_node_with_capacity(Broker::new(cfg.clone()), Some(cfg.out_bandwidth));
            brokers.insert(cfg.id, node);
        }
        for &(a, b) in &spec.edges {
            let na = *brokers.get(&a).ok_or(DeployError::UnknownBroker(a))?;
            let nb = *brokers.get(&b).ok_or(DeployError::UnknownBroker(b))?;
            net.connect(na, nb, spec.link);
            if let Some(broker) = net.node_as_mut::<Broker>(na) {
                broker.add_broker_neighbor(nb);
            }
            if let Some(broker) = net.node_as_mut::<Broker>(nb) {
                broker.add_broker_neighbor(na);
            }
        }
        Ok(Self {
            net,
            brokers,
            publishers: BTreeMap::new(),
            subscribers: BTreeMap::new(),
            link: spec.link,
            croc: None,
            next_request: 0,
            telemetry: Registry::disabled(),
        })
    }

    /// Attaches telemetry: Phase-1 gathers are timed under the
    /// `phase1.gathering` span, measurement windows feed per-broker
    /// in/out gauges and `broker.b<id>.delivery_delay_us` histograms,
    /// and the underlying simulator reports its queue/drop instruments
    /// (see [`Network::set_telemetry`]).
    pub fn set_telemetry(&mut self, registry: &Registry) {
        self.telemetry = registry.clone();
        self.net.set_telemetry(registry);
    }

    /// Attaches a publisher client to a broker.
    ///
    /// Fails with [`DeployError::UnknownBroker`] on an unknown broker id.
    pub fn attach_publisher(
        &mut self,
        client: ClientId,
        adv: AdvId,
        advertisement: Filter,
        period: SimDuration,
        broker: BrokerId,
        generate: PublicationGen,
    ) -> Result<NodeId, DeployError> {
        let broker_node = *self
            .brokers
            .get(&broker)
            .ok_or(DeployError::UnknownBroker(broker))?;
        let node = self.net.add_node(PublisherClient::new(
            client,
            adv,
            advertisement,
            period,
            broker_node,
            generate,
        ));
        self.net.connect(node, broker_node, self.link);
        self.publishers.insert(adv, node);
        Ok(node)
    }

    /// Attaches a subscriber client to a broker.
    ///
    /// Fails with [`DeployError::UnknownBroker`] on an unknown broker id.
    pub fn attach_subscriber(
        &mut self,
        client: ClientId,
        broker: BrokerId,
        subscriptions: Vec<Subscription>,
    ) -> Result<NodeId, DeployError> {
        let broker_node = *self
            .brokers
            .get(&broker)
            .ok_or(DeployError::UnknownBroker(broker))?;
        let node = self
            .net
            .add_node(SubscriberClient::new(client, broker_node, subscriptions));
        self.net.connect(node, broker_node, self.link);
        self.subscribers.insert(client, node);
        Ok(node)
    }

    /// Runs the deployment for a span of simulated time.
    pub fn run_for(&mut self, span: SimDuration) {
        self.net.run_for(span);
    }

    /// Executes Phase 1: attaches CROC (once), floods a BIR and runs
    /// until the aggregated BIA arrives.
    ///
    /// # Errors
    /// [`GatherError::NoBrokers`] when the deployment is empty;
    /// [`GatherError::Timeout`] when the aggregated BIA does not arrive
    /// within `timeout`.
    pub fn gather(&mut self, timeout: SimDuration) -> Result<Vec<GatheredBroker>, GatherError> {
        let _span = Span::enter(&self.telemetry, &names::PHASE1_GATHERING);
        self.telemetry.counter(&names::PHASE1_BIR_ROUNDS).inc();
        let croc = match self.croc {
            Some(c) => c,
            None => {
                let first = *self.brokers.values().next().ok_or(GatherError::NoBrokers)?;
                let node = self.net.add_node(CrocClient::new(first));
                self.net.connect(node, first, self.link);
                self.net.run_for(SimDuration::from_millis(1));
                self.croc = Some(node);
                node
            }
        };
        let request = self.next_request;
        self.next_request += 1;
        self.net.inject(croc, croc, BrokerMsg::Bir { request });
        let deadline_steps = 1 + timeout.as_micros() / 10_000;
        for _ in 0..deadline_steps {
            self.net.run_for(SimDuration::from_micros(10_000));
            if self
                .net
                .node_as::<CrocClient>(croc)
                .is_some_and(|c| c.result().is_some())
            {
                break;
            }
        }
        self.net
            .node_as_mut::<CrocClient>(croc)
            .and_then(CrocClient::take_result)
            .ok_or(GatherError::Timeout { waited: timeout })
    }

    /// Converts gathered BIAs into the Phase-2 input.
    pub fn allocation_input(infos: Vec<GatheredBroker>) -> AllocationInput {
        let mut input = AllocationInput::new();
        let mut publishers = PublisherTable::new();
        input.brokers.reserve(infos.len());
        for info in infos {
            input.brokers.push(info.spec);
            input.subscriptions.extend(info.subscriptions);
            for p in info.publishers {
                publishers.insert(p);
            }
        }
        input.publishers = publishers;
        input
    }

    /// Resets traffic counters and subscriber statistics, runs for
    /// `window`, and reports deployment-wide metrics.
    pub fn measure(&mut self, window: SimDuration) -> RunMetrics {
        let _span = Span::enter(&self.telemetry, &names::MEASURE_WINDOW);
        self.net.reset_counters();
        let subscriber_nodes: Vec<NodeId> = self.subscribers.values().copied().collect();
        for &n in &subscriber_nodes {
            if let Some(s) = self.net.node_as_mut::<SubscriberClient>(n) {
                s.reset_stats();
            }
        }
        self.net.run_for(window);

        let mut metrics = RunMetrics {
            window,
            ..RunMetrics::default()
        };
        for (&id, &node) in &self.brokers {
            let c = self.net.counters(node);
            let rate = c.msg_rate(window);
            metrics.total_msgs += c.total_msgs();
            metrics.broker_msg_rates.push((id, rate));
        }
        if !metrics.broker_msg_rates.is_empty() {
            metrics.avg_active_broker_msg_rate =
                metrics.broker_msg_rates.iter().map(|(_, r)| r).sum::<f64>()
                    / metrics.broker_msg_rates.len() as f64;
            metrics.avg_broker_msg_rate = metrics.avg_active_broker_msg_rate;
        }
        let mut hops_sum = 0.0;
        let mut delay_sum = 0.0;
        for &n in &subscriber_nodes {
            if let Some(s) = self.net.node_as::<SubscriberClient>(n) {
                metrics.deliveries += s.deliveries();
                if let (Some(h), Some(d)) = (s.mean_hops(), s.mean_delay()) {
                    hops_sum += h * s.deliveries() as f64;
                    delay_sum += d.as_secs_f64() * s.deliveries() as f64;
                }
            }
        }
        if metrics.deliveries > 0 {
            metrics.mean_hops = hops_sum / metrics.deliveries as f64;
            metrics.mean_delay_s = delay_sum / metrics.deliveries as f64;
        }
        self.report_window(window, &subscriber_nodes);
        metrics
    }

    /// Mirrors one measurement window into the attached registry:
    /// per-broker in/out counts and message rate as gauges, and every
    /// subscriber delivery delay into its broker's
    /// `broker.b<id>.delivery_delay_us` histogram.
    fn report_window(&self, window: SimDuration, subscriber_nodes: &[NodeId]) {
        if !self.telemetry.is_enabled() {
            return;
        }
        for (&id, &node) in &self.brokers {
            let c = self.net.counters(node);
            let id = id.raw();
            self.telemetry
                .gauge(&names::broker_msgs_in(id))
                .set(c.msgs_in);
            self.telemetry
                .gauge(&names::broker_msgs_out(id))
                .set(c.msgs_out);
            self.telemetry
                .gauge(&names::broker_msg_rate(id))
                .set_f64(c.msg_rate(window));
        }
        let broker_of: BTreeMap<NodeId, BrokerId> =
            self.brokers.iter().map(|(&b, &n)| (n, b)).collect();
        for &n in subscriber_nodes {
            let Some(s) = self.net.node_as::<SubscriberClient>(n) else {
                continue;
            };
            let Some(&b) = broker_of.get(&s.broker_node()) else {
                continue;
            };
            let hist = self
                .telemetry
                .histogram(&names::broker_delivery_delay_us(b.raw()));
            for &d in s.delays() {
                hist.record(d.as_micros());
            }
        }
    }

    /// Number of brokers in the deployment.
    pub fn broker_count(&self) -> usize {
        self.brokers.len()
    }
}

/// Metrics of one measurement window.
#[derive(Debug, Clone, Default)]
pub struct RunMetrics {
    /// Window length.
    pub window: SimDuration,
    /// Per-broker message rate (in+out msg/s).
    pub broker_msg_rates: Vec<(BrokerId, f64)>,
    /// Average broker message rate over the *pool* the scenario started
    /// with — deallocated brokers contribute zero. This is the paper's
    /// headline metric; the harness rescales it once the pool size is
    /// known (deployments only see allocated brokers).
    pub avg_broker_msg_rate: f64,
    /// Average message rate over the brokers actually deployed.
    pub avg_active_broker_msg_rate: f64,
    /// Total broker messages in the window.
    pub total_msgs: u64,
    /// Publications delivered to subscribers.
    pub deliveries: u64,
    /// Mean broker hop count per delivery.
    pub mean_hops: f64,
    /// Mean end-to-end delivery delay in seconds.
    pub mean_delay_s: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use greenps_core::model::LinearFn;
    use greenps_pubsub::filter::{stock_advertisement, stock_template};
    use greenps_pubsub::ids::{MsgId, SubId};
    use greenps_pubsub::message::Publication;

    fn spec(n: u64) -> TopologySpec {
        TopologySpec {
            brokers: (0..n)
                .map(|i| BrokerConfig::new(BrokerId::new(i), LinearFn::new(0.0001, 0.0), 1e9))
                .collect(),
            edges: (1..n)
                .map(|i| (BrokerId::new((i - 1) / 2), BrokerId::new(i)))
                .collect(),
            link: LinkSpec::with_latency(SimDuration::from_millis(1)),
        }
    }

    fn stock_gen() -> PublicationGen {
        Box::new(|adv, msg: MsgId| {
            Publication::builder(adv, msg)
                .attr("class", "STOCK")
                .attr("symbol", "YHOO")
                .attr("low", 18.0 + (msg.raw() % 5) as f64)
                .build()
        })
    }

    #[test]
    fn fan_out_two_tree_builds() {
        let d = Deployment::build(&spec(7)).expect("valid topology");
        assert_eq!(d.broker_count(), 7);
        assert_eq!(d.net.link_count(), 6);
    }

    #[test]
    fn bad_edge_and_attach_are_errors() {
        let mut bad = spec(3);
        bad.edges.push((BrokerId::new(0), BrokerId::new(9)));
        assert_eq!(
            Deployment::build(&bad).err(),
            Some(DeployError::UnknownBroker(BrokerId::new(9)))
        );
        let mut twice = spec(3);
        twice.brokers.push(twice.brokers[1].clone());
        assert_eq!(
            Deployment::build(&twice).err(),
            Some(DeployError::DuplicateBroker(BrokerId::new(1)))
        );
        let mut d = Deployment::build(&spec(3)).expect("valid topology");
        assert_eq!(
            d.attach_subscriber(ClientId::new(1), BrokerId::new(7), Vec::new()),
            Err(DeployError::UnknownBroker(BrokerId::new(7)))
        );
    }

    #[test]
    fn end_to_end_measurement() {
        let mut d = Deployment::build(&spec(7)).expect("valid topology");
        d.attach_publisher(
            ClientId::new(1),
            AdvId::new(1),
            stock_advertisement("YHOO"),
            SimDuration::from_millis(100),
            BrokerId::new(3), // a leaf
            stock_gen(),
        )
        .expect("known broker");
        d.attach_subscriber(
            ClientId::new(2),
            BrokerId::new(6), // the far leaf
            vec![Subscription::new(SubId::new(1), stock_template("YHOO"))],
        )
        .expect("known broker");
        d.run_for(SimDuration::from_secs(1)); // warm-up
        let m = d.measure(SimDuration::from_secs(10));
        assert!(m.deliveries >= 95, "deliveries {}", m.deliveries);
        // Path traverses brokers 3,1,0,2,6 — five broker hops.
        assert!((m.mean_hops - 5.0).abs() < 1e-9, "hops {}", m.mean_hops);
        assert!(m.avg_broker_msg_rate > 0.0);
        assert!(m.mean_delay_s > 0.004, "delay {}", m.mean_delay_s);
    }

    #[test]
    fn gather_returns_all_brokers() {
        let mut d = Deployment::build(&spec(7)).expect("valid topology");
        d.attach_publisher(
            ClientId::new(1),
            AdvId::new(1),
            stock_advertisement("YHOO"),
            SimDuration::from_millis(200),
            BrokerId::new(4),
            stock_gen(),
        )
        .expect("known broker");
        d.attach_subscriber(
            ClientId::new(2),
            BrokerId::new(5),
            vec![Subscription::new(SubId::new(1), stock_template("YHOO"))],
        )
        .expect("known broker");
        d.run_for(SimDuration::from_secs(2));
        let infos = d.gather(SimDuration::from_secs(5)).expect("gather");
        assert_eq!(infos.len(), 7);
        let input = Deployment::allocation_input(infos);
        assert_eq!(input.brokers.len(), 7);
        assert_eq!(input.subscriptions.len(), 1);
        assert_eq!(input.publishers.len(), 1);
        assert!(input.publishers.total_rate() > 3.0);
        // Gather again (new request id) still works.
        let infos2 = d.gather(SimDuration::from_secs(5)).expect("regather");
        assert_eq!(infos2.len(), 7);
    }
}
