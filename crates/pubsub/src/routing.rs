//! Advertisement-based content routing tables (PADRES-style).
//!
//! Filter-based content-based pub/sub routes in three steps:
//!
//! 1. **Advertisements flood** the overlay; every broker records each
//!    advertisement together with the *last hop* it arrived from.
//! 2. **Subscriptions** are forwarded hop-by-hop *toward* the last hops
//!    of every advertisement they intersect, building the publication
//!    routing table (PRT) along the reverse path.
//! 3. **Publications** are matched against the PRT at each broker and
//!    forwarded to the recorded destinations of matching subscriptions.
//!
//! The tables are generic over the hop type `H` — brokers instantiate it
//! with an enum distinguishing neighbor brokers from local clients. `H`
//! must be `Ord`: tables iterate in hop/id order so routing decisions
//! are identical run to run (the determinism lint's contract).
//!
//! # The PRT is one routing index
//!
//! Subscriptions live in a single routing index (`index.rs`, the same
//! structure behind [`crate::matching::BucketMatcher`]): each is stored
//! once with its last hop — there is no second `SubId → Filter` map —
//! and indexed under its rarest equality predicate in buckets of
//! `(hop, SubId, filter)` entries sorted by `(hop, SubId)`.
//! [`RoutingTables::route_into`] walks the buckets a publication hits
//! one hop group at a time:
//!
//! * the group of the hop the publication came from is skipped without
//!   evaluating a filter;
//! * a *client* hop reports every matching subscription, because
//!   deliveries and CBC profiles are per subscription;
//! * any other hop stops at its first match: an interior broker needs
//!   one witness per neighbour, not the neighbour's full match set.
//!
//! Whether a hop is a client is asked of the caller at walk time, once
//! per group, so a hop that becomes a client after its subscriptions
//! were recorded is treated as one from then on.
//!
//! **Send order is preserved.** A broker that matched every
//! subscription and walked the matches in ascending `SubId` order would
//! first meet each hop at that hop's lowest matching `SubId`, and so
//! forward in ascending order of those. Within a group entries are in
//! ascending `SubId` order, so the first match *is* the hop's lowest;
//! sorting the handful of per-hop witnesses by `SubId` reproduces the
//! order exactly, and every simulated run stays bit-identical.
//!
//! Inserts and removals go onto the index's short change list beside
//! its built part, which a walk reads too; the `&mut` match paths
//! rebuild it only once the changes pass a budget (`index.rs`), and
//! [`RoutingTables::rebuild_counts`] says how often that happened. No
//! `&self` method builds or clones an index.

use crate::filter::Filter;
use crate::ids::{AdvId, SubId};
pub use crate::index::RebuildCounts;
use crate::index::RoutingIndex;
use crate::message::{Advertisement, Publication, Subscription};
use std::collections::BTreeMap;

/// One hop a publication must be sent to, as produced by
/// [`RoutingTables::route_into`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Forward<H> {
    /// The next hop.
    pub hop: H,
    /// The hop's lowest matching subscription.
    pub witness: SubId,
    /// Whether the caller classified the hop as a local client.
    pub client: bool,
}

/// Routing state of one broker: the advertisement table (SRT) and the
/// publication routing table (PRT).
#[derive(Debug, Clone)]
pub struct RoutingTables<H> {
    advertisements: BTreeMap<AdvId, (Advertisement, H)>,
    subscriptions: RoutingIndex<H>,
}

impl<H: Clone + Ord> Default for RoutingTables<H> {
    fn default() -> Self {
        Self {
            advertisements: BTreeMap::new(),
            subscriptions: RoutingIndex::default(),
        }
    }
}

impl<H: Clone + Ord> RoutingTables<H> {
    /// Creates empty routing tables.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty tables whose subscription index holds `budget` changes
    /// beside its built part whatever its size.
    #[cfg(test)]
    pub(crate) fn with_change_budget(budget: usize) -> Self {
        Self {
            advertisements: BTreeMap::new(),
            subscriptions: RoutingIndex::with_change_budget(budget),
        }
    }

    /// Records an advertisement arriving from `last_hop`.
    ///
    /// Returns `true` when the advertisement is new (and should be
    /// flooded onward); duplicates are ignored.
    pub fn insert_advertisement(&mut self, adv: Advertisement, last_hop: H) -> bool {
        match self.advertisements.contains_key(&adv.id) {
            true => false,
            false => {
                self.advertisements.insert(adv.id, (adv, last_hop));
                true
            }
        }
    }

    /// Removes an advertisement; returns `true` if it was present.
    pub fn remove_advertisement(&mut self, id: AdvId) -> bool {
        self.advertisements.remove(&id).is_some()
    }

    /// Records a subscription arriving from `last_hop` and returns the
    /// set of hops it must be forwarded to: the distinct last hops of
    /// every intersecting advertisement, excluding the hop it came from.
    pub fn insert_subscription(&mut self, sub: Subscription, last_hop: H) -> Vec<H> {
        // At most one forward per advertisement hop.
        let mut out: Vec<H> = Vec::with_capacity(self.advertisements.len());
        for (adv, adv_hop) in self.advertisements.values() {
            if *adv_hop != last_hop
                && sub.filter.intersects_advertisement(&adv.filter)
                && !out.contains(adv_hop)
            {
                out.push(adv_hop.clone());
            }
        }
        self.subscriptions.insert(sub, last_hop);
        out
    }

    /// Removes a subscription; returns its last hop if it was present.
    pub fn remove_subscription(&mut self, id: SubId) -> Option<H> {
        self.subscriptions.remove(id).map(|(_, hop)| hop)
    }

    /// The recorded subscriptions a newly arrived advertisement
    /// `adv` from `adv_hop` makes forwardable there, in id order (used
    /// when an advertisement arrives after subscriptions).
    ///
    /// A subscription that another stored advertisement from `adv_hop`
    /// intersects is left out: it was sent there when it or that
    /// advertisement arrived, whichever came later, and a second copy
    /// would be forwarded again by every broker up the path.
    pub fn subscriptions_toward(&self, adv: &Advertisement, adv_hop: &H) -> Vec<SubId> {
        let earlier: Vec<&Filter> = self
            .advertisements
            .values()
            .filter(|(other, hop)| hop == adv_hop && other.id != adv.id)
            .map(|(other, _)| &other.filter)
            .collect();
        self.subscriptions
            .iter()
            .filter(|(sub, sub_hop)| {
                sub_hop != adv_hop
                    && sub.filter.intersects_advertisement(&adv.filter)
                    && !earlier
                        .iter()
                        .any(|other| sub.filter.intersects_advertisement(other))
            })
            .map(|(sub, _)| sub.id)
            .collect()
    }

    /// Routes a publication that arrived from `from` — the broker hot
    /// path. Clears `out` and fills it with one [`Forward`] per
    /// distinct hop other than `from` that holds a matching
    /// subscription, in ascending order of each hop's lowest matching
    /// `SubId` (the order a full match walked by id would first meet
    /// the hops). `on_client_match` sees every matching subscription
    /// of every hop `is_client` accepts; for other hops matching stops
    /// at the first hit (module docs).
    ///
    /// Rebuilds the index first when its changes have passed their
    /// budget; otherwise allocates only to grow `out`, which callers
    /// reuse across publications.
    pub fn route_into<C, M>(
        &mut self,
        publication: &Publication,
        from: Option<&H>,
        is_client: C,
        mut on_client_match: M,
        out: &mut Vec<Forward<H>>,
    ) where
        C: Fn(&H) -> bool,
        M: FnMut(SubId),
    {
        self.subscriptions.prepare();
        out.clear();
        self.subscriptions
            .walk(publication, from, is_client, |hop, witness, client| {
                if client {
                    on_client_match(witness);
                }
                out.push(Forward {
                    hop: hop.clone(),
                    witness,
                    client,
                });
            });
        // A hop is reported once per bucket it has matches in, and a
        // client hop once per match: keep each hop's lowest witness.
        out.sort_unstable_by(|a, b| (&a.hop, a.witness).cmp(&(&b.hop, b.witness)));
        out.dedup_by(|later, first| later.hop == first.hop);
        out.sort_unstable_by_key(|f| f.witness);
    }

    /// The distinct last hops of matching subscriptions, excluding the
    /// hop the publication arrived from, in [`RoutingTables::route_into`]
    /// order. Rebuilds the match index in place as `route_into` does.
    pub fn route_publication_mut(&mut self, publication: &Publication, from: Option<&H>) -> Vec<H> {
        let mut forwards = Vec::new();
        self.route_into(publication, from, |_| false, |_| {}, &mut forwards);
        forwards.into_iter().map(|f| f.hop).collect()
    }

    /// The ids of every subscription matching a publication, whatever
    /// its hop, in id order. Rebuilds the match index in place as
    /// `route_into` does.
    pub fn matching_subscriptions_mut(&mut self, publication: &Publication) -> Vec<SubId> {
        self.subscriptions.prepare();
        let mut out = Vec::new();
        self.subscriptions.all_matches_into(publication, &mut out);
        out
    }

    /// Looks up a stored subscription.
    pub fn subscription(&self, id: SubId) -> Option<&Subscription> {
        self.subscriptions.get(id).map(|(s, _)| s)
    }

    /// Iterates over stored advertisements with their last hops.
    pub fn advertisements(&self) -> impl Iterator<Item = (&Advertisement, &H)> {
        self.advertisements.values().map(|(a, h)| (a, h))
    }

    /// Iterates over stored subscriptions with their last hops.
    pub fn subscriptions(&self) -> impl Iterator<Item = (&Subscription, &H)> {
        self.subscriptions.iter().map(|(s, h)| (s, h))
    }

    /// Number of stored subscriptions — the `n` fed into the broker's
    /// linear matching-delay function.
    pub fn subscription_count(&self) -> usize {
        self.subscriptions.len()
    }

    /// Number of stored advertisements.
    pub fn advertisement_count(&self) -> usize {
        self.advertisements.len()
    }

    /// How often the subscription index has been rebuilt, and over how
    /// many entries, since these tables were created.
    pub fn rebuild_counts(&self) -> RebuildCounts {
        self.subscriptions.rebuild_counts()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::{stock_advertisement, stock_template};
    use crate::ids::{AdvId, MsgId};
    use crate::message::Publication;

    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
    enum Hop {
        Neighbor(u32),
        Client(u32),
    }

    fn quote(symbol: &str, low: f64) -> Publication {
        Publication::builder(AdvId::new(1), MsgId::new(1))
            .attr("class", "STOCK")
            .attr("symbol", symbol)
            .attr("low", low)
            .build()
    }

    #[test]
    fn advertisement_flooding_dedups() {
        let mut rt: RoutingTables<Hop> = RoutingTables::new();
        let adv = Advertisement::new(AdvId::new(1), stock_advertisement("YHOO"));
        assert!(rt.insert_advertisement(adv.clone(), Hop::Neighbor(1)));
        assert!(!rt.insert_advertisement(adv, Hop::Neighbor(2)));
        assert_eq!(rt.advertisement_count(), 1);
    }

    #[test]
    fn subscription_routes_toward_matching_advertisement() {
        let mut rt: RoutingTables<Hop> = RoutingTables::new();
        rt.insert_advertisement(
            Advertisement::new(AdvId::new(1), stock_advertisement("YHOO")),
            Hop::Neighbor(1),
        );
        rt.insert_advertisement(
            Advertisement::new(AdvId::new(2), stock_advertisement("GOOG")),
            Hop::Neighbor(2),
        );
        let fwd = rt.insert_subscription(
            Subscription::new(SubId::new(1), stock_template("YHOO")),
            Hop::Client(7),
        );
        assert_eq!(fwd, vec![Hop::Neighbor(1)]);
    }

    #[test]
    fn subscription_not_forwarded_back_to_its_origin() {
        let mut rt: RoutingTables<Hop> = RoutingTables::new();
        rt.insert_advertisement(
            Advertisement::new(AdvId::new(1), stock_advertisement("YHOO")),
            Hop::Neighbor(1),
        );
        let fwd = rt.insert_subscription(
            Subscription::new(SubId::new(1), stock_template("YHOO")),
            Hop::Neighbor(1),
        );
        assert!(fwd.is_empty());
    }

    #[test]
    fn publication_routed_to_matching_hops_once() {
        let mut rt: RoutingTables<Hop> = RoutingTables::new();
        rt.insert_advertisement(
            Advertisement::new(AdvId::new(1), stock_advertisement("YHOO")),
            Hop::Neighbor(1),
        );
        rt.insert_subscription(
            Subscription::new(SubId::new(1), stock_template("YHOO")),
            Hop::Neighbor(3),
        );
        rt.insert_subscription(
            Subscription::new(SubId::new(2), stock_template("YHOO")),
            Hop::Neighbor(3),
        );
        rt.insert_subscription(
            Subscription::new(SubId::new(3), stock_template("YHOO")),
            Hop::Client(9),
        );
        let hops = rt.route_publication_mut(&quote("YHOO", 17.0), Some(&Hop::Neighbor(1)));
        assert_eq!(hops.len(), 2);
        assert!(hops.contains(&Hop::Neighbor(3)));
        assert!(hops.contains(&Hop::Client(9)));
        // Not routed back to where it came from.
        let hops = rt.route_publication_mut(&quote("YHOO", 17.0), Some(&Hop::Neighbor(3)));
        assert_eq!(hops, vec![Hop::Client(9)]);
    }

    #[test]
    fn unsubscribe_stops_routing() {
        let mut rt: RoutingTables<Hop> = RoutingTables::new();
        rt.insert_advertisement(
            Advertisement::new(AdvId::new(1), stock_advertisement("YHOO")),
            Hop::Neighbor(1),
        );
        rt.insert_subscription(
            Subscription::new(SubId::new(1), stock_template("YHOO")),
            Hop::Client(9),
        );
        assert_eq!(rt.remove_subscription(SubId::new(1)), Some(Hop::Client(9)));
        assert!(rt
            .route_publication_mut(&quote("YHOO", 17.0), None)
            .is_empty());
        assert_eq!(rt.subscription_count(), 0);
    }

    #[test]
    fn late_advertisement_finds_existing_subscriptions() {
        let mut rt: RoutingTables<Hop> = RoutingTables::new();
        rt.insert_subscription(
            Subscription::new(SubId::new(1), stock_template("YHOO")),
            Hop::Client(9),
        );
        let adv = Advertisement::new(AdvId::new(1), stock_advertisement("YHOO"));
        rt.insert_advertisement(adv.clone(), Hop::Neighbor(1));
        let subs = rt.subscriptions_toward(&adv, &Hop::Neighbor(1));
        assert_eq!(subs, vec![SubId::new(1)]);
        // A subscription that arrived FROM the advertisement's hop is skipped.
        let subs = rt.subscriptions_toward(&adv, &Hop::Client(9));
        assert!(subs.is_empty());
    }

    #[test]
    fn accessors() {
        let mut rt: RoutingTables<Hop> = RoutingTables::new();
        rt.insert_subscription(
            Subscription::new(SubId::new(1), stock_template("YHOO")),
            Hop::Client(9),
        );
        assert!(rt.subscription(SubId::new(1)).is_some());
        assert_eq!(rt.subscriptions().count(), 1);
        assert_eq!(rt.advertisements().count(), 0);
        let p = quote("YHOO", 17.0);
        assert_eq!(rt.matching_subscriptions_mut(&p), vec![SubId::new(1)]);
    }
}
