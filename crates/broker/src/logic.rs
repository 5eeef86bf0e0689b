//! Backend-agnostic broker logic: the content-based routing, CBC
//! profiling and BIR/BIA protocol of [`crate::broker`] factored out of
//! the simnet `Process` so the same state machine drives every
//! transport backend (DESIGN.md §13).
//!
//! [`BrokerCore`] is generic over the peer handle `P` — a simnet
//! `NodeId` or a `greenps_net` node name — and performs all I/O through
//! a [`BrokerSink`], the minimal clocked send interface each runtime
//! implements. The simnet wrapper in
//! [`crate::broker`] adapts a `Context` to the sink, so the discrete-
//! event semantics (and every existing test) are bit-identical to the
//! pre-refactor broker.

use crate::messages::{BrokerMsg, GatheredBroker};
use greenps_core::model::{BrokerSpec, SubscriptionEntry};
use greenps_profile::{PublisherProfile, SubscriptionProfile};
use greenps_pubsub::ids::{AdvId, MsgId, SubId};
use greenps_pubsub::routing::{Forward, RebuildCounts, RoutingTables};
use greenps_simnet::{SimDuration, SimTime};
use greenps_telemetry::{names, Registry};
use std::collections::{BTreeMap, BTreeSet};

use crate::broker::BrokerConfig;

/// The I/O surface a broker runtime offers the core: a clock and a
/// way to send (possibly delayed) messages to peers.
///
/// `send_after` models the broker's service delay. Backends without a
/// scheduler (TCP) may send immediately; the simnet
/// backend maps it onto `Context::send_after` so queueing delays stay
/// bit-identical with the original in-process broker.
pub trait BrokerSink<P> {
    /// Current time on this runtime's clock.
    fn now(&self) -> SimTime;
    /// Sends a message to a peer now.
    fn send(&mut self, to: P, msg: BrokerMsg);
    /// Sends a message to a peer after a service delay.
    fn send_after(&mut self, delay: SimDuration, to: P, msg: BrokerMsg);
}

/// Per-publisher statistics kept by the CBC for locally attached
/// publishers.
#[derive(Debug, Clone)]
pub(crate) struct LocalPublisher {
    pub(crate) first_seen: SimTime,
    pub(crate) msgs: u64,
    pub(crate) bytes: u64,
    pub(crate) last_msg_id: MsgId,
}

#[derive(Debug)]
struct PendingBir<P> {
    parent: P,
    waiting: BTreeSet<P>,
    collected: Vec<GatheredBroker>,
}

/// The transport-independent broker state machine.
///
/// Owns routing tables, the CBC profiles and the service-queue clock;
/// every handler takes a [`BrokerSink`] for output. Peer handles are
/// opaque ordered values — the core never inspects them beyond
/// equality and set membership.
pub struct BrokerCore<P> {
    pub(crate) config: BrokerConfig,
    pub(crate) routing: RoutingTables<P>,
    pub(crate) broker_neighbors: BTreeSet<P>,
    pub(crate) clients: BTreeSet<P>,
    busy_until: SimTime,
    /// CBC: bit-vector profiles of local (client) subscriptions.
    pub(crate) sub_profiles: BTreeMap<SubId, SubscriptionProfile>,
    /// CBC: local publisher statistics keyed by advertisement.
    pub(crate) local_publishers: BTreeMap<AdvId, LocalPublisher>,
    pending_bir: BTreeMap<u64, PendingBir<P>>,
    seen_bir: BTreeSet<u64>,
    /// Publications processed (matched) by this broker.
    pub matched_count: u64,
    /// Publications delivered to local clients.
    pub delivered_count: u64,
    /// Reusable next-hop buffer for [`BrokerCore::handle_publication`]:
    /// the per-publication forwarding set is rebuilt in place instead
    /// of allocating a fresh `Vec` per message.
    forwards_scratch: Vec<Forward<P>>,
    /// Routing-index rebuilds already added to a registry by
    /// [`BrokerCore::report_routing`].
    routing_reported: RebuildCounts,
}

impl<P: Copy + Ord> BrokerCore<P> {
    /// Creates a broker core.
    pub fn new(config: BrokerConfig) -> Self {
        Self {
            config,
            routing: RoutingTables::new(),
            broker_neighbors: BTreeSet::new(),
            clients: BTreeSet::new(),
            busy_until: SimTime::ZERO,
            sub_profiles: BTreeMap::new(),
            local_publishers: BTreeMap::new(),
            pending_bir: BTreeMap::new(),
            seen_bir: BTreeSet::new(),
            matched_count: 0,
            delivered_count: 0,
            forwards_scratch: Vec::new(),
            routing_reported: RebuildCounts::default(),
        }
    }

    /// Adds the routing-index rebuilds since the last report, and the
    /// entries they indexed, to `registry`'s `routing.rebuilds` and
    /// `routing.rebuild_entries`. A disabled registry costs one branch.
    pub fn report_routing(&mut self, registry: &Registry) {
        if !registry.is_enabled() {
            return;
        }
        let now = self.routing.rebuild_counts();
        registry
            .counter(&names::ROUTING_REBUILDS)
            .add(now.rebuilds - self.routing_reported.rebuilds);
        registry
            .counter(&names::ROUTING_REBUILD_ENTRIES)
            .add(now.entries - self.routing_reported.entries);
        self.routing_reported = now;
    }

    /// Broker identity.
    pub fn id(&self) -> greenps_pubsub::ids::BrokerId {
        self.config.id
    }

    /// Registers a neighboring broker peer (call on both endpoints
    /// after connecting them in the underlying network).
    pub fn add_broker_neighbor(&mut self, peer: P) {
        self.broker_neighbors.insert(peer);
    }

    /// Number of stored subscriptions (routing-table entries).
    pub fn subscription_count(&self) -> usize {
        self.routing.subscription_count()
    }

    /// The CBC profile of a local subscription.
    pub fn profile_of(&self, sub: SubId) -> Option<&SubscriptionProfile> {
        self.sub_profiles.get(&sub)
    }

    /// Resets CBC profiling state (fresh re-profiling window).
    pub fn reset_profiles(&mut self) {
        for p in self.sub_profiles.values_mut() {
            *p = SubscriptionProfile::with_capacity(self.config.profile_bits);
        }
        self.local_publishers.clear();
    }

    /// Builds this broker's own BIA contribution.
    fn own_info(&self, now: SimTime) -> GatheredBroker {
        let subscriptions = self
            .sub_profiles
            .iter()
            .filter_map(|(&id, profile)| {
                self.routing
                    .subscription(id)
                    .map(|s| SubscriptionEntry::new(id, s.filter.clone(), profile.clone()))
            })
            .collect();
        let publishers = self
            .local_publishers
            .iter()
            .map(|(&adv, lp)| {
                let elapsed = now.since(lp.first_seen).as_secs_f64().max(1e-9);
                PublisherProfile::new(
                    adv,
                    lp.msgs as f64 / elapsed,
                    lp.bytes as f64 / elapsed,
                    lp.last_msg_id,
                )
            })
            .collect();
        GatheredBroker {
            spec: BrokerSpec::new(
                self.config.id,
                self.config.url.clone(),
                self.config.matching_delay,
                self.config.out_bandwidth,
            ),
            subscriptions,
            publishers,
        }
    }

    fn handle_publication<S: BrokerSink<P>>(
        &mut self,
        sink: &mut S,
        from: P,
        env: crate::messages::PubEnvelope,
    ) {
        // The one place a received publication is decoded: it is
        // matched here. Its frame passed the receipt check, which
        // accepts exactly what the decoder does, so this does not fail.
        let Ok(publication) = env.publication() else {
            return;
        };
        // Single service queue: matching delay depends on table size.
        let service =
            SimDuration::from_secs_f64(self.config.matching_delay.delay(self.subscription_count()));
        let now = sink.now();
        let start = now.max(self.busy_until);
        self.busy_until = start + service;
        let fwd_delay = self.busy_until.since(now);
        self.matched_count += 1;

        // CBC: update local publisher stats.
        if self.clients.contains(&from) {
            let lp = self
                .local_publishers
                .entry(publication.adv_id)
                .or_insert_with(|| LocalPublisher {
                    first_seen: now,
                    msgs: 0,
                    bytes: 0,
                    last_msg_id: MsgId::new(0),
                });
            lp.msgs += 1;
            lp.bytes += publication.wire_size() as u64;
            lp.last_msg_id = lp.last_msg_id.max(publication.msg_id);
        }

        // One walk of the routing index yields the forwarding set in
        // send order; neighbours cost one matching witness each, local
        // clients report every match for their CBC profiles. The buffer
        // is a scratch field so steady-state forwarding does not
        // allocate per publication.
        let mut forwards = std::mem::take(&mut self.forwards_scratch);
        let (clients, profiles) = (&self.clients, &mut self.sub_profiles);
        let (adv_id, msg_id) = (publication.adv_id, publication.msg_id);
        self.routing.route_into(
            &publication,
            Some(&from),
            |hop| clients.contains(hop),
            |sub| {
                if let Some(profile) = profiles.get_mut(&sub) {
                    profile.record(adv_id, msg_id);
                }
            },
            &mut forwards,
        );
        for forward in &forwards {
            if forward.client {
                self.delivered_count += 1;
            }
            sink.send_after(fwd_delay, forward.hop, BrokerMsg::Publication(env.hopped()));
        }
        self.forwards_scratch = forwards;
    }

    /// Advertisement churn (control plane): install the advertisement
    /// and route existing subscriptions toward a late advertiser.
    fn handle_advertise<S: BrokerSink<P>>(
        &mut self,
        sink: &mut S,
        from: P,
        adv: greenps_pubsub::message::Advertisement,
    ) {
        if self.routing.insert_advertisement(adv.clone(), from) {
            for &n in &self.broker_neighbors {
                if n != from {
                    sink.send(n, BrokerMsg::Advertise(adv.clone()));
                }
            }
            // Late advertisement: route existing subscriptions
            // toward it.
            let subs = self.routing.subscriptions_toward(&adv, &from);
            if self.broker_neighbors.contains(&from) {
                for sub_id in subs {
                    if let Some(s) = self.routing.subscription(sub_id) {
                        sink.send(from, BrokerMsg::Subscribe(s.clone()));
                    }
                }
            }
        }
    }

    /// Subscription churn (control plane): install the subscription,
    /// start a CBC profile for local clients, and forward upstream.
    fn handle_subscribe<S: BrokerSink<P>>(
        &mut self,
        sink: &mut S,
        from: P,
        sub: greenps_pubsub::message::Subscription,
    ) {
        let is_local = self.clients.contains(&from);
        let forwards = self.routing.insert_subscription(sub.clone(), from);
        if is_local {
            self.sub_profiles.insert(
                sub.id,
                SubscriptionProfile::with_capacity(self.config.profile_bits),
            );
        }
        for hop in forwards {
            if self.broker_neighbors.contains(&hop) {
                sink.send(hop, BrokerMsg::Subscribe(sub.clone()));
            }
        }
    }

    fn handle_bir<S: BrokerSink<P>>(&mut self, sink: &mut S, from: P, request: u64) {
        if !self.seen_bir.insert(request) {
            // Duplicate (possible only in non-tree overlays): answer
            // empty so the sender is not left waiting.
            sink.send(
                from,
                BrokerMsg::Bia {
                    request,
                    infos: Vec::new(),
                },
            );
            return;
        }
        let targets: Vec<P> = self
            .broker_neighbors
            .iter()
            .copied()
            .filter(|&n| n != from)
            .collect();
        if targets.is_empty() {
            let infos = vec![self.own_info(sink.now())];
            sink.send(from, BrokerMsg::Bia { request, infos });
            return;
        }
        for &t in &targets {
            sink.send(t, BrokerMsg::Bir { request });
        }
        self.pending_bir.insert(
            request,
            PendingBir {
                parent: from,
                waiting: targets.into_iter().collect(),
                collected: Vec::new(),
            },
        );
    }

    fn handle_bia<S: BrokerSink<P>>(
        &mut self,
        sink: &mut S,
        from: P,
        request: u64,
        infos: Vec<GatheredBroker>,
    ) {
        let Some(pending) = self.pending_bir.get_mut(&request) else {
            return;
        };
        pending.waiting.remove(&from);
        pending.collected.extend(infos);
        if !pending.waiting.is_empty() {
            return;
        }
        let Some(pending) = self.pending_bir.remove(&request) else {
            return;
        };
        let mut infos = pending.collected;
        infos.push(self.own_info(sink.now()));
        sink.send(pending.parent, BrokerMsg::Bia { request, infos });
    }

    /// Dispatches one incoming message — the single entry point every
    /// backend drives. `from` is the peer the message arrived from.
    pub fn on_message<S: BrokerSink<P>>(&mut self, sink: &mut S, from: P, msg: BrokerMsg) {
        match msg {
            BrokerMsg::ClientHello { .. } => {
                self.clients.insert(from);
            }
            BrokerMsg::Advertise(adv) => self.handle_advertise(sink, from, adv),
            BrokerMsg::Unadvertise(id) => {
                if self.routing.remove_advertisement(id) {
                    for &n in &self.broker_neighbors {
                        if n != from {
                            sink.send(n, BrokerMsg::Unadvertise(id));
                        }
                    }
                }
            }
            BrokerMsg::Subscribe(sub) => self.handle_subscribe(sink, from, sub),
            BrokerMsg::Unsubscribe(id) => {
                if self.routing.remove_subscription(id).is_some() {
                    self.sub_profiles.remove(&id);
                    for &n in &self.broker_neighbors {
                        if n != from {
                            sink.send(n, BrokerMsg::Unsubscribe(id));
                        }
                    }
                }
            }
            BrokerMsg::Publication(env) => self.handle_publication(sink, from, env),
            BrokerMsg::Bir { request } => self.handle_bir(sink, from, request),
            BrokerMsg::Bia { request, infos } => self.handle_bia(sink, from, request, infos),
        }
    }
}
