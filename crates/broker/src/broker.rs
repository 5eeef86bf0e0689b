//! The content-based broker process, with the CROC Back-end Component
//! (CBC) integrated — mirroring the PADRES broker of the paper.
//!
//! A broker:
//!
//! * floods advertisements, routes subscriptions toward matching
//!   advertisements, and forwards publications along matching
//!   subscriptions (advertisement-based routing, `greenps-pubsub`);
//! * models matching cost with a linear delay function of its stored
//!   subscription count, serializing publications through a single
//!   service queue;
//! * profiles local subscriptions with bit vectors and local publishers
//!   with rate/bandwidth counters (the CBC);
//! * answers BIR floods with aggregated BIA messages (Phase 1).
//!
//! All of that logic lives in the transport-independent [`BrokerCore`];
//! this module is the simnet face of it — a [`Process`] whose `Context`
//! is adapted into the core's [`BrokerSink`], preserving the
//! discrete-event semantics bit for bit.

use crate::logic::{BrokerCore, BrokerSink};
use crate::messages::BrokerMsg;
use greenps_core::model::LinearFn;
use greenps_pubsub::ids::BrokerId;
use greenps_simnet::{Context, NodeId, Process, SimDuration, SimTime};
use std::any::Any;
use std::ops::{Deref, DerefMut};

/// Broker configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct BrokerConfig {
    /// Broker identity.
    pub id: BrokerId,
    /// Connection URL advertised in the BIA.
    pub url: String,
    /// Linear matching-delay model — also the simulated service time.
    pub matching_delay: LinearFn,
    /// Total output bandwidth reported in the BIA (bytes/s); the
    /// harness should also set it as the simnet node output capacity.
    pub out_bandwidth: f64,
    /// Bit-vector capacity for CBC profiles (paper default 1,280).
    pub profile_bits: usize,
}

impl BrokerConfig {
    /// A broker with the given identity and capacity, default profile
    /// size.
    pub fn new(id: BrokerId, matching_delay: LinearFn, out_bandwidth: f64) -> Self {
        Self {
            id,
            url: format!("sim://{id}"),
            matching_delay,
            out_bandwidth,
            profile_bits: greenps_profile::DEFAULT_CAPACITY,
        }
    }
}

/// The broker process: [`BrokerCore`] driven by the simnet event loop.
pub struct Broker {
    core: BrokerCore<NodeId>,
}

impl Broker {
    /// Creates a broker process.
    pub fn new(config: BrokerConfig) -> Self {
        Self {
            core: BrokerCore::new(config),
        }
    }
}

impl Deref for Broker {
    type Target = BrokerCore<NodeId>;
    fn deref(&self) -> &BrokerCore<NodeId> {
        &self.core
    }
}

impl DerefMut for Broker {
    fn deref_mut(&mut self) -> &mut BrokerCore<NodeId> {
        &mut self.core
    }
}

/// Adapts the simnet [`Context`] to the core's sink: sends become
/// simulated sends, the clock is virtual time.
struct CtxSink<'a, 'b> {
    ctx: &'a mut Context<'b, BrokerMsg>,
}

impl BrokerSink<NodeId> for CtxSink<'_, '_> {
    fn now(&self) -> SimTime {
        self.ctx.now()
    }
    fn send(&mut self, to: NodeId, msg: BrokerMsg) {
        self.ctx.send(to, msg);
    }
    fn send_after(&mut self, delay: SimDuration, to: NodeId, msg: BrokerMsg) {
        self.ctx.send_after(delay, to, msg);
    }
}

impl Process<BrokerMsg> for Broker {
    fn on_message(&mut self, ctx: &mut Context<'_, BrokerMsg>, from: NodeId, msg: BrokerMsg) {
        self.core.on_message(&mut CtxSink { ctx }, from, msg);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{CrocClient, PublisherClient, SubscriberClient};
    use crate::logic::LocalPublisher;
    use crate::messages::PubEnvelope;
    use greenps_profile::{PublisherProfile, SubscriptionProfile};
    use greenps_pubsub::filter::{stock_advertisement, stock_template};
    use greenps_pubsub::ids::{AdvId, ClientId, MsgId, SubId};
    use greenps_pubsub::message::{Publication, Subscription};
    use greenps_simnet::{LinkSpec, Network};

    fn quick_broker(id: u64) -> Broker {
        Broker::new(BrokerConfig::new(
            BrokerId::new(id),
            LinearFn::new(0.0001, 0.0),
            1e9,
        ))
    }

    /// Three brokers in a chain, publisher on one end, subscriber on the
    /// other: publication flows through, hop count = 3.
    #[test]
    fn chain_delivery_with_hops() {
        let mut net: Network<BrokerMsg> = Network::new();
        let b0 = net.add_node(quick_broker(0));
        let b1 = net.add_node(quick_broker(1));
        let b2 = net.add_node(quick_broker(2));
        for (a, b) in [(b0, b1), (b1, b2)] {
            net.connect(a, b, LinkSpec::with_latency(SimDuration::from_millis(1)));
            net.node_as_mut::<Broker>(a).unwrap().add_broker_neighbor(b);
            net.node_as_mut::<Broker>(b).unwrap().add_broker_neighbor(a);
        }
        let publisher = net.add_node(PublisherClient::new(
            ClientId::new(1),
            AdvId::new(1),
            stock_advertisement("YHOO"),
            SimDuration::from_millis(100),
            b0,
            Box::new(|adv, msg| {
                Publication::builder(adv, msg)
                    .attr("class", "STOCK")
                    .attr("symbol", "YHOO")
                    .attr("low", 18.0)
                    .build()
            }),
        ));
        net.connect(
            publisher,
            b0,
            LinkSpec::with_latency(SimDuration::from_millis(1)),
        );
        let subscriber = net.add_node(SubscriberClient::new(
            ClientId::new(2),
            b2,
            vec![Subscription::new(SubId::new(1), stock_template("YHOO"))],
        ));
        net.connect(
            subscriber,
            b2,
            LinkSpec::with_latency(SimDuration::from_millis(1)),
        );

        net.run_for(SimDuration::from_secs(1));
        let sub = net.node_as::<SubscriberClient>(subscriber).unwrap();
        assert!(sub.deliveries() >= 9, "got {}", sub.deliveries());
        assert_eq!(sub.mean_hops(), Some(3.0));
        let delay = sub.mean_delay().unwrap();
        // ≥ 3 links × 1ms + client link... ≥ 3ms and < 10ms
        assert!(
            delay.as_secs_f64() > 0.003 && delay.as_secs_f64() < 0.01,
            "{delay}"
        );
        // No deliveries to the wrong place; broker b1 forwarded all.
        assert_eq!(net.node_as::<Broker>(b1).unwrap().delivered_count, 0);
        assert!(net.node_as::<Broker>(b2).unwrap().delivered_count >= 9);
    }

    /// A subscriber on a different stock receives nothing.
    #[test]
    fn non_matching_subscriber_gets_nothing() {
        let mut net: Network<BrokerMsg> = Network::new();
        let b0 = net.add_node(quick_broker(0));
        let publisher = net.add_node(PublisherClient::new(
            ClientId::new(1),
            AdvId::new(1),
            stock_advertisement("YHOO"),
            SimDuration::from_millis(50),
            b0,
            Box::new(|adv, msg| {
                Publication::builder(adv, msg)
                    .attr("class", "STOCK")
                    .attr("symbol", "YHOO")
                    .build()
            }),
        ));
        net.connect(
            publisher,
            b0,
            LinkSpec::with_latency(SimDuration::from_millis(1)),
        );
        let subscriber = net.add_node(SubscriberClient::new(
            ClientId::new(2),
            b0,
            vec![Subscription::new(SubId::new(1), stock_template("GOOG"))],
        ));
        net.connect(
            subscriber,
            b0,
            LinkSpec::with_latency(SimDuration::from_millis(1)),
        );
        net.run_for(SimDuration::from_secs(1));
        assert_eq!(
            net.node_as::<SubscriberClient>(subscriber)
                .unwrap()
                .deliveries(),
            0
        );
    }

    /// CBC profiles record exactly the delivered publications, and the
    /// BIR/BIA gather returns them.
    #[test]
    fn bir_gathers_profiles_over_a_tree() {
        let mut net: Network<BrokerMsg> = Network::new();
        let b0 = net.add_node(quick_broker(0));
        let b1 = net.add_node(quick_broker(1));
        let b2 = net.add_node(quick_broker(2));
        for (a, b) in [(b0, b1), (b0, b2)] {
            net.connect(a, b, LinkSpec::with_latency(SimDuration::from_millis(1)));
            net.node_as_mut::<Broker>(a).unwrap().add_broker_neighbor(b);
            net.node_as_mut::<Broker>(b).unwrap().add_broker_neighbor(a);
        }
        let publisher = net.add_node(PublisherClient::new(
            ClientId::new(1),
            AdvId::new(7),
            stock_advertisement("YHOO"),
            SimDuration::from_millis(100),
            b1,
            Box::new(|adv, msg| {
                Publication::builder(adv, msg)
                    .attr("class", "STOCK")
                    .attr("symbol", "YHOO")
                    .build()
            }),
        ));
        net.connect(
            publisher,
            b1,
            LinkSpec::with_latency(SimDuration::from_millis(1)),
        );
        let subscriber = net.add_node(SubscriberClient::new(
            ClientId::new(2),
            b2,
            vec![Subscription::new(SubId::new(9), stock_template("YHOO"))],
        ));
        net.connect(
            subscriber,
            b2,
            LinkSpec::with_latency(SimDuration::from_millis(1)),
        );

        net.run_for(SimDuration::from_secs(2));

        // CROC attaches to b0 and gathers.
        let croc = net.add_node(CrocClient::new(b0));
        net.connect(
            croc,
            b0,
            LinkSpec::with_latency(SimDuration::from_millis(1)),
        );
        net.node_as_mut::<Broker>(b0).unwrap(); // b0 treats croc as client on hello
        net.run_for(SimDuration::from_millis(10));
        net.inject(croc, croc, BrokerMsg::Bir { request: 0 });
        net.run_for(SimDuration::from_secs(1));

        let croc_client = net.node_as::<CrocClient>(croc).unwrap();
        let infos = croc_client.result().expect("gather completed");
        assert_eq!(infos.len(), 3, "three brokers answered");
        let total_subs: usize = infos.iter().map(|i| i.subscriptions.len()).sum();
        assert_eq!(total_subs, 1);
        let entry = infos
            .iter()
            .flat_map(|i| i.subscriptions.iter())
            .next()
            .unwrap();
        assert_eq!(entry.id, SubId::new(9));
        assert!(
            entry.profile.count_ones() >= 15,
            "profile recorded deliveries"
        );
        // Publisher profile came from b1.
        let pubs: Vec<&PublisherProfile> = infos.iter().flat_map(|i| i.publishers.iter()).collect();
        assert_eq!(pubs.len(), 1);
        assert_eq!(pubs[0].adv_id, AdvId::new(7));
        assert!(
            pubs[0].rate > 5.0,
            "≈10 msg/s observed, got {}",
            pubs[0].rate
        );
    }

    /// Matching delay queues publications: with service time 10 ms and
    /// two simultaneous arrivals, the second departs 10 ms later.
    #[test]
    fn service_queue_serializes() {
        let mut net: Network<BrokerMsg> = Network::new();
        let b0 = net.add_node(Broker::new(BrokerConfig::new(
            BrokerId::new(0),
            LinearFn::new(0.01, 0.0),
            1e9,
        )));
        let subscriber = net.add_node(SubscriberClient::new(
            ClientId::new(2),
            b0,
            vec![Subscription::new(SubId::new(1), stock_template("YHOO"))],
        ));
        net.connect(subscriber, b0, LinkSpec::with_latency(SimDuration::ZERO));
        net.run_for(SimDuration::from_millis(1));

        let adv =
            greenps_pubsub::message::Advertisement::new(AdvId::new(1), stock_advertisement("YHOO"));
        net.call_node(subscriber, b0, BrokerMsg::Advertise(adv));
        let mk = |id: u64| {
            BrokerMsg::Publication(PubEnvelope::new(
                Publication::builder(AdvId::new(1), MsgId::new(id))
                    .attr("class", "STOCK")
                    .attr("symbol", "YHOO")
                    .build(),
                SimTime::ZERO,
            ))
        };
        // Two publications arrive at (almost) the same instant (sent
        // "from" the broker itself so the local subscription's hop is
        // not excluded as the origin).
        net.inject(b0, b0, mk(1));
        net.inject(b0, b0, mk(2));
        net.run_to_quiescence();
        let sub = net.node_as::<SubscriberClient>(subscriber).unwrap();
        assert_eq!(sub.deliveries(), 2);
        // Second delivery delayed by an extra service time.
        let delays = sub.delays();
        assert!(delays[1].as_secs_f64() >= delays[0].as_secs_f64() + 0.009);
    }

    #[test]
    fn reset_profiles_clears_cbc() {
        let mut broker = quick_broker(1);
        broker.sub_profiles.insert(SubId::new(1), {
            let mut p = SubscriptionProfile::new();
            p.record(AdvId::new(1), MsgId::new(5));
            p
        });
        broker.local_publishers.insert(
            AdvId::new(1),
            LocalPublisher {
                first_seen: SimTime::ZERO,
                msgs: 3,
                bytes: 300,
                last_msg_id: MsgId::new(5),
            },
        );
        broker.reset_profiles();
        assert_eq!(broker.profile_of(SubId::new(1)).unwrap().count_ones(), 0);
        assert!(broker.local_publishers.is_empty());
    }
}
