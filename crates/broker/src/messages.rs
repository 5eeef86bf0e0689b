//! Messages exchanged between simulated brokers, clients and CROC.

use crate::wire::Received;
use greenps_core::model::{BrokerSpec, SubscriptionEntry};
use greenps_net::WireError;
use greenps_profile::PublisherProfile;
use greenps_pubsub::ids::{AdvId, ClientId, MsgId, SubId};
use greenps_pubsub::message::{Advertisement, Publication, Subscription};
use greenps_simnet::{Payload, SimTime};
use std::borrow::Cow;
use std::sync::Arc;

/// A publication in flight, carrying the delivery-metric envelope.
///
/// Where the envelope came from decides the form of its publication
/// (DESIGN.md §13.4): one built in this process is held built; one read
/// off the wire keeps the bytes it arrived as, checked on receipt, and
/// is decoded only by [`publication`](Self::publication) and re-sent as
/// those bytes.
#[derive(Debug, Clone)]
pub struct PubEnvelope {
    pub(crate) body: Body,
    /// Broker hops traversed so far.
    pub hops: u32,
    /// Simulated time the publisher emitted it.
    pub published_at: SimTime,
}

/// The publication of a [`PubEnvelope`]; cloning either form is one
/// reference-count increment.
#[derive(Debug, Clone)]
pub(crate) enum Body {
    Built(Publication),
    Received(Arc<Received>),
}

impl PubEnvelope {
    /// Wraps a fresh publication.
    pub fn new(publication: Publication, published_at: SimTime) -> Self {
        Self {
            body: Body::Built(publication),
            hops: 0,
            published_at,
        }
    }

    /// The envelope after one more broker hop.
    #[must_use]
    pub fn hopped(&self) -> Self {
        Self {
            body: self.body.clone(),
            hops: self.hops + 1,
            published_at: self.published_at,
        }
    }

    /// The publisher's advertisement id.
    pub fn adv_id(&self) -> AdvId {
        match &self.body {
            Body::Built(p) => p.adv_id,
            Body::Received(r) => r.adv_id,
        }
    }

    /// The publisher's sequence number.
    pub fn msg_id(&self) -> MsgId {
        match &self.body {
            Body::Built(p) => p.msg_id,
            Body::Received(r) => r.msg_id,
        }
    }

    /// The publication: borrowed when it was built here, decoded from
    /// the received bytes otherwise. The receipt check accepts exactly
    /// what the decoder does, so a received publication decodes.
    pub fn publication(&self) -> Result<Cow<'_, Publication>, WireError> {
        match &self.body {
            Body::Built(p) => Ok(Cow::Borrowed(p)),
            Body::Received(r) => r.decode().map(Cow::Owned),
        }
    }
}

/// Everything one broker reports in a BIA (paper §III-A).
#[derive(Debug, Clone)]
pub struct GatheredBroker {
    /// URL, matching-delay function, total output bandwidth.
    pub spec: BrokerSpec,
    /// Local subscriptions with bit-vector profiles.
    pub subscriptions: Vec<SubscriptionEntry>,
    /// Local publisher profiles.
    pub publishers: Vec<PublisherProfile>,
}

/// The message type routed through the simulated network.
#[derive(Debug, Clone)]
pub enum BrokerMsg {
    /// A client (publisher or subscriber) attaching to a broker.
    ClientHello {
        /// Client identity.
        client: ClientId,
    },
    /// Advertisement flooding.
    Advertise(Advertisement),
    /// Advertisement retraction.
    Unadvertise(AdvId),
    /// Subscription propagation.
    Subscribe(Subscription),
    /// Subscription retraction.
    Unsubscribe(SubId),
    /// Publication dissemination.
    Publication(PubEnvelope),
    /// Broker Information Request — floods the overlay (Phase 1).
    Bir {
        /// Request id so concurrent gathers do not interfere.
        request: u64,
    },
    /// Broker Information Answer — aggregated bottom-up.
    Bia {
        /// The request this answers.
        request: u64,
        /// This subtree's broker information.
        infos: Vec<GatheredBroker>,
    },
}

impl Payload for BrokerMsg {
    fn wire_size(&self) -> usize {
        match self {
            BrokerMsg::ClientHello { .. } => 16,
            BrokerMsg::Advertise(a) => 16 + a.filter.wire_size(),
            BrokerMsg::Unadvertise(_) | BrokerMsg::Unsubscribe(_) => 16,
            BrokerMsg::Subscribe(s) => 16 + s.filter.wire_size(),
            BrokerMsg::Publication(e) => 16 + e.publication().map_or(0, |p| p.wire_size()),
            BrokerMsg::Bir { .. } => 16,
            BrokerMsg::Bia { infos, .. } => {
                16 + infos
                    .iter()
                    .map(|i| 64 + i.subscriptions.len() * 192 + i.publishers.len() * 32)
                    .sum::<usize>()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use greenps_pubsub::filter::stock_template;
    use greenps_pubsub::ids::MsgId;

    #[test]
    fn envelope_hop_counting() {
        let p = Publication::builder(AdvId::new(1), MsgId::new(1))
            .attr("class", "STOCK")
            .build();
        let e = PubEnvelope::new(p, SimTime::from_micros(5));
        assert_eq!(e.hops, 0);
        let e2 = e.hopped().hopped();
        assert_eq!(e2.hops, 2);
        assert_eq!(e2.published_at, SimTime::from_micros(5));
    }

    #[test]
    fn wire_sizes_scale_with_content() {
        let sub = BrokerMsg::Subscribe(Subscription::new(SubId::new(1), stock_template("YHOO")));
        assert!(sub.wire_size() > BrokerMsg::Bir { request: 1 }.wire_size());
        let bia = BrokerMsg::Bia {
            request: 1,
            infos: vec![],
        };
        assert_eq!(bia.wire_size(), 16);
    }
}
