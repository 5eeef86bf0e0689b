//! Pins what a [`BrokerCore`] sends, in which order, on a three-broker
//! chain driven through a recording [`BrokerSink`]: the forward order
//! of every publication (ascending lowest matching `SubId` per hop, not
//! hop order), `matched_count`, `delivered_count` and the CBC profiles.
//! The expected values were recorded from the broker that matched every
//! subscription and then looked each one's hop up; the routing index
//! must reproduce them exactly.

use greenps_broker::{BrokerConfig, BrokerCore, BrokerMsg, BrokerSink, PubEnvelope};
use greenps_core::model::LinearFn;
use greenps_pubsub::filter::{stock_advertisement, stock_template};
use greenps_pubsub::ids::{AdvId, BrokerId, ClientId, MsgId, SubId};
use greenps_pubsub::message::{Advertisement, Publication, Subscription};
use greenps_pubsub::{Filter, Op, Predicate};
use greenps_simnet::{SimDuration, SimTime};
use std::collections::VecDeque;

type Peer = u32;

/// Sends are queued for delivery and logged as `from>to kind`.
struct Recorder<'a> {
    me: Peer,
    queue: &'a mut VecDeque<(Peer, Peer, BrokerMsg)>,
    log: &'a mut Vec<String>,
}

impl BrokerSink<Peer> for Recorder<'_> {
    fn now(&self) -> SimTime {
        SimTime::ZERO
    }

    fn send(&mut self, to: Peer, msg: BrokerMsg) {
        let what = match &msg {
            BrokerMsg::Publication(env) => {
                format!("pub{}/{}", env.msg_id().raw(), env.hops)
            }
            BrokerMsg::Subscribe(sub) => format!("sub{}", sub.id.raw()),
            BrokerMsg::Advertise(adv) => format!("adv{}", adv.id.raw()),
            _ => "other".to_string(),
        };
        self.log.push(format!("{}>{} {what}", self.me, to));
        self.queue.push_back((to, self.me, msg));
    }

    fn send_after(&mut self, _delay: SimDuration, to: Peer, msg: BrokerMsg) {
        self.send(to, msg);
    }
}

struct Chain {
    cores: Vec<BrokerCore<Peer>>,
    queue: VecDeque<(Peer, Peer, BrokerMsg)>,
    log: Vec<String>,
}

impl Chain {
    /// Brokers 0 — 1 — 2; every other peer id is a client.
    fn new() -> Chain {
        let mut cores: Vec<BrokerCore<Peer>> = (0..3)
            .map(|i| {
                BrokerCore::new(BrokerConfig::new(
                    BrokerId::new(i),
                    LinearFn::new(0.0, 0.0),
                    1e9,
                ))
            })
            .collect();
        for (a, b) in [(0, 1), (1, 2)] {
            cores[a].add_broker_neighbor(b as Peer);
            cores[b].add_broker_neighbor(a as Peer);
        }
        Chain {
            cores,
            queue: VecDeque::new(),
            log: Vec::new(),
        }
    }

    /// A client message into its home broker, then everything it causes.
    fn inject(&mut self, client: Peer, broker: Peer, msg: BrokerMsg) {
        self.queue.push_back((broker, client, msg));
        while let Some((to, from, msg)) = self.queue.pop_front() {
            let Some(core) = self.cores.get_mut(to as usize) else {
                continue; // addressed to a client
            };
            let mut sink = Recorder {
                me: to,
                queue: &mut self.queue,
                log: &mut self.log,
            };
            core.on_message(&mut sink, from, msg);
        }
    }

    fn hello(&mut self, client: Peer, broker: Peer) {
        let hello = BrokerMsg::ClientHello {
            client: ClientId::new(u64::from(client)),
        };
        self.inject(client, broker, hello);
    }

    fn subscribe(&mut self, client: Peer, broker: Peer, id: u64, filter: Filter) {
        let sub = Subscription::new(SubId::new(id), filter);
        self.inject(client, broker, BrokerMsg::Subscribe(sub));
    }

    /// Log lines since `mark` that carry publications.
    fn publications_since(&self, mark: usize) -> Vec<&str> {
        self.log[mark..]
            .iter()
            .map(String::as_str)
            .filter(|l| l.contains(" pub"))
            .collect()
    }
}

fn yhoo_below(bound: f64) -> Filter {
    stock_template("YHOO").and(Predicate::new("low", Op::Lt, bound))
}

#[test]
fn chain_send_order_counters_and_profiles_are_pinned() {
    let mut chain = Chain::new();
    for (client, broker) in [(100, 0), (200, 2), (201, 2), (202, 1), (203, 0)] {
        chain.hello(client, broker);
    }
    let adv = Advertisement::new(AdvId::new(1), stock_advertisement("YHOO"));
    chain.inject(100, 0, BrokerMsg::Advertise(adv));
    // Ids are issued out of hop order on purpose: forwards follow the
    // lowest matching id of each hop, not the hop's own order.
    chain.subscribe(200, 2, 9, stock_template("YHOO"));
    chain.subscribe(202, 1, 5, stock_template("YHOO"));
    chain.subscribe(203, 0, 7, stock_template("YHOO"));
    chain.subscribe(201, 2, 3, yhoo_below(20.0));
    chain.subscribe(203, 0, 1, stock_template("GOOG"));
    chain.subscribe(200, 2, 4, yhoo_below(10.0));
    // Client 204 subscribes before it says hello: no CBC profile is
    // started for subscription 2, but once the hello arrives 204 is
    // delivered to (and counted) like any client.
    chain.subscribe(204, 1, 2, yhoo_below(5.0));
    chain.hello(204, 1);

    assert_eq!(
        chain.log,
        [
            "0>1 adv1", "1>2 adv1", "2>1 sub9", "1>0 sub9", "1>0 sub5", "2>1 sub3", "1>0 sub3",
            "2>1 sub4", "1>0 sub4", "1>0 sub2",
        ]
    );

    let mut sent = Vec::new();
    for (msg, low) in [(1u64, 18.0), (2, 4.0), (3, 12.0), (4, 25.0)] {
        let mark = chain.log.len();
        let quote = Publication::builder(AdvId::new(1), MsgId::new(msg))
            .attr("class", "STOCK")
            .attr("symbol", "YHOO")
            .attr("low", low)
            .build();
        let env = PubEnvelope::new(quote, SimTime::ZERO);
        chain.inject(100, 0, BrokerMsg::Publication(env));
        sent.push(chain.publications_since(mark).join(" | "));
    }
    assert_eq!(
        sent,
        [
            // low 18: subs 3 5 7 9.
            "0>1 pub1/1 | 0>203 pub1/1 | 1>2 pub1/2 | 1>202 pub1/2 | 2>201 pub1/3 | 2>200 pub1/3",
            // low 4: every YHOO subscription; at broker 1 the late client
            // 204 (sub 2) now comes first, at broker 2 client 201 (sub 3)
            // still precedes client 200 (subs 4 and 9, one delivery).
            "0>1 pub2/1 | 0>203 pub2/1 | 1>204 pub2/2 | 1>2 pub2/2 | 1>202 pub2/2 | 2>201 pub2/3 | 2>200 pub2/3",
            // low 12: as low 18.
            "0>1 pub3/1 | 0>203 pub3/1 | 1>2 pub3/2 | 1>202 pub3/2 | 2>201 pub3/3 | 2>200 pub3/3",
            // low 25: sub 3 drops out, so at broker 1 the lowest match
            // behind neighbour 2 is now sub 9 and client 202 (sub 5)
            // overtakes it.
            "0>1 pub4/1 | 0>203 pub4/1 | 1>202 pub4/2 | 1>2 pub4/2 | 2>200 pub4/3",
        ]
    );

    let counters: Vec<(u64, u64)> = chain
        .cores
        .iter()
        .map(|c| (c.matched_count, c.delivered_count))
        .collect();
    assert_eq!(counters, [(4, 4), (4, 5), (4, 7)]);

    // Recorded bits per CBC profile: (home broker, subscription, bits).
    let bits = |broker: usize, sub: u64| {
        chain.cores[broker]
            .profile_of(SubId::new(sub))
            .map(|p| p.count_ones())
    };
    assert_eq!(bits(2, 9), Some(4));
    assert_eq!(bits(2, 4), Some(1));
    assert_eq!(bits(2, 3), Some(3));
    assert_eq!(bits(1, 5), Some(4));
    assert_eq!(bits(0, 7), Some(4));
    assert_eq!(bits(0, 1), Some(0));
    assert_eq!(bits(1, 2), None, "subscribed before its hello: no profile");
    // Brokers keep no profile for subscriptions that are not local.
    assert_eq!(bits(0, 9), None);
    assert_eq!(bits(1, 3), None);
}

#[test]
fn a_second_advertisement_does_not_resend_a_subscription_upstream() {
    let mut chain = Chain::new();
    chain.hello(100, 0);
    chain.hello(200, 2);
    // The subscription comes first, so it travels only when
    // advertisements reach it.
    chain.subscribe(100, 0, 1, stock_template("YHOO"));
    let narrow = stock_template("YHOO").and(Predicate::new("low", Op::Gt, 50.0));
    for (id, filter) in [(1, narrow), (2, stock_advertisement("YHOO"))] {
        let adv = Advertisement::new(AdvId::new(id), filter);
        chain.inject(200, 2, BrokerMsg::Advertise(adv));
    }
    assert_eq!(
        chain.log,
        ["2>1 adv1", "1>0 adv1", "0>1 sub1", "1>2 sub1", "2>1 adv2", "1>0 adv2"]
    );
    let received = chain.log.iter().filter(|l| *l == "0>1 sub1").count();
    assert_eq!(
        received, 1,
        "the middle broker is sent the subscription once"
    );

    // A quote from the far end still reaches the subscriber once.
    let mark = chain.log.len();
    let quote = Publication::builder(AdvId::new(2), MsgId::new(1))
        .attr("class", "STOCK")
        .attr("symbol", "YHOO")
        .attr("low", 18.0)
        .build();
    chain.inject(
        200,
        2,
        BrokerMsg::Publication(PubEnvelope::new(quote, SimTime::ZERO)),
    );
    assert_eq!(
        chain.publications_since(mark),
        ["2>1 pub1/1", "1>0 pub1/2", "0>100 pub1/3"]
    );
}
