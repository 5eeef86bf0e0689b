//! GRAPE — publisher relocation on the constructed overlay (paper §V,
//! after Phase 3; algorithm from Cheung & Jacobsen's prior work \[5\]).
//!
//! After the tree is built with publishers at the root, GRAPE moves each
//! publisher to the broker that minimizes a priority-weighted mix of
//!
//! * **total broker message rate** — the expected number of overlay-link
//!   crossings per second for that publisher's publications, and
//! * **average delivery delay** — the interest-weighted mean hop count
//!   from the candidate broker to the subscribers' brokers,
//!
//! both estimated from the same bit-vector profiles Phase 1 gathered
//! (which publications of this publisher each broker's local
//! subscriptions sink).

#![expect(
    clippy::indexing_slicing,
    reason = "overlay tree node ids are dense indices into the node vector"
)]

use crate::model::AllocError;
use crate::overlay::Overlay;
use crate::pipeline::CancelToken;
use greenps_profile::{fraction_of, PublisherTable, SubscriptionProfile};
use greenps_pubsub::ids::{AdvId, BrokerId};
use std::collections::BTreeMap;

/// GRAPE configuration.
#[derive(Debug, Clone, Copy)]
pub struct GrapeConfig {
    /// Priority `P ∈ [0, 1]`: 1.0 minimizes total message rate, 0.0
    /// minimizes average delivery delay; values between trade off the
    /// normalized objectives.
    pub priority: f64,
}

impl GrapeConfig {
    /// Pure load minimization (the paper's green objective).
    pub fn minimize_load() -> Self {
        Self { priority: 1.0 }
    }

    /// Pure delivery-delay minimization.
    pub fn minimize_delay() -> Self {
        Self { priority: 0.0 }
    }
}

impl Default for GrapeConfig {
    fn default() -> Self {
        Self::minimize_load()
    }
}

/// A tree of brokers with per-broker *local* interest profiles — the
/// view GRAPE needs. Built from an [`Overlay`] or from any deployed
/// topology (for the publisher-relocation-only experiment E6).
#[derive(Debug, Clone)]
pub struct InterestTree {
    brokers: Vec<BrokerId>,
    adjacency: Vec<Vec<usize>>,
    local: Vec<SubscriptionProfile>,
}

impl InterestTree {
    /// Builds an interest tree from explicit edges and local profiles.
    ///
    /// # Panics
    /// Panics if an edge references an unknown broker.
    pub fn new(
        brokers: Vec<(BrokerId, SubscriptionProfile)>,
        edges: &[(BrokerId, BrokerId)],
    ) -> Self {
        let ids: Vec<BrokerId> = brokers.iter().map(|(b, _)| *b).collect();
        let index: BTreeMap<BrokerId, usize> =
            ids.iter().enumerate().map(|(i, &b)| (b, i)).collect();
        let mut adjacency = vec![Vec::new(); ids.len()];
        for &(a, b) in edges {
            let (i, j) = (index[&a], index[&b]);
            adjacency[i].push(j);
            adjacency[j].push(i);
        }
        let local = brokers.into_iter().map(|(_, p)| p).collect();
        Self {
            brokers: ids,
            adjacency,
            local,
        }
    }

    /// Builds the interest tree of an overlay (locals = hosted units).
    pub fn from_overlay(overlay: &Overlay) -> Self {
        // The never-token cannot trip, so the cancellable path cannot
        // return `Err`; the empty-tree arm is unreachable but total.
        Self::from_overlay_cancellable(overlay, &CancelToken::never())
            .unwrap_or_else(|_| Self::new(Vec::new(), &[]))
    }

    /// [`InterestTree::from_overlay`] with a cancellation token: the
    /// per-broker unit-union scan polls it once per overlay node.
    ///
    /// # Errors
    /// [`AllocError::Cancelled`] when the token trips mid-build.
    pub(crate) fn from_overlay_cancellable(
        overlay: &Overlay,
        cancel: &CancelToken,
    ) -> Result<Self, AllocError> {
        let mut brokers: Vec<(BrokerId, SubscriptionProfile)> =
            Vec::with_capacity(overlay.broker_count());
        for n in overlay.nodes() {
            if cancel.is_cancelled_hot() {
                return Err(AllocError::Cancelled);
            }
            let mut local = SubscriptionProfile::new();
            for u in &n.units {
                local.or_assign(&u.profile);
            }
            brokers.push((n.broker, local));
        }
        let edges: Vec<(BrokerId, BrokerId)> = overlay.edges().collect();
        Ok(Self::new(brokers, &edges))
    }

    /// Number of brokers.
    pub fn len(&self) -> usize {
        self.brokers.len()
    }

    /// True when the tree has no brokers.
    pub fn is_empty(&self) -> bool {
        self.brokers.is_empty()
    }

    /// Per-broker interest fraction for one publisher: the share of the
    /// publisher's publications the broker's local subscriptions sink.
    fn fractions(&self, adv: AdvId, publishers: &PublisherTable) -> Vec<f64> {
        let last = publishers
            .get(adv)
            .map(|p| p.last_msg_id)
            .unwrap_or_default();
        self.local
            .iter()
            .map(|p| p.vector(adv).map(|v| fraction_of(v, last)).unwrap_or(0.0))
            .collect()
    }

    /// Expected link crossings per publication when the publisher sits
    /// at `root_idx`: a DFS computing, for each downstream edge, the
    /// fraction of publications any broker beyond it sinks (union of the
    /// subtree's bit vectors).
    fn load_cost(&self, adv: AdvId, root_idx: usize, publishers: &PublisherTable) -> f64 {
        let last = publishers
            .get(adv)
            .map(|p| p.last_msg_id)
            .unwrap_or_default();
        // Post-order union of subtree vectors, rooted at root_idx.
        fn rec(
            tree: &InterestTree,
            adv: AdvId,
            node: usize,
            parent: Option<usize>,
            last: greenps_pubsub::ids::MsgId,
            total: &mut f64,
        ) -> Option<greenps_profile::ShiftingBitVector> {
            let mut union = tree.local[node].vector(adv).cloned();
            for &next in &tree.adjacency[node] {
                if Some(next) == parent {
                    continue;
                }
                let sub = rec(tree, adv, next, Some(node), last, total);
                if let Some(sv) = sub {
                    // Edge node→next carries the subtree's interest.
                    *total += fraction_of(&sv, last);
                    match &mut union {
                        Some(u) => u.or_assign(&sv),
                        None => union = Some(sv),
                    }
                }
            }
            union
        }
        let mut total = 0.0;
        rec(self, adv, root_idx, None, last, &mut total);
        total
    }

    /// Interest-weighted mean hop distance from `root_idx` to every
    /// interested broker.
    fn delay_cost(&self, fractions: &[f64], root_idx: usize) -> f64 {
        // BFS distances.
        let mut dist = vec![usize::MAX; self.len()];
        let mut q = std::collections::VecDeque::new();
        dist[root_idx] = 0;
        q.push_back(root_idx);
        while let Some(n) = q.pop_front() {
            for &m in &self.adjacency[n] {
                if dist[m] == usize::MAX {
                    dist[m] = dist[n] + 1;
                    q.push_back(m);
                }
            }
        }
        let weight: f64 = fractions.iter().sum();
        if weight == 0.0 {
            return 0.0;
        }
        fractions
            .iter()
            .zip(&dist)
            .map(|(f, &d)| f * d as f64)
            .sum::<f64>()
            / weight
    }
}

/// Chooses the best broker for one publisher.
pub fn place_publisher(
    tree: &InterestTree,
    adv: AdvId,
    publishers: &PublisherTable,
    config: GrapeConfig,
) -> Option<BrokerId> {
    if tree.is_empty() {
        return None;
    }
    let fractions = tree.fractions(adv, publishers);
    let loads: Vec<f64> = (0..tree.len())
        .map(|i| tree.load_cost(adv, i, publishers))
        .collect();
    let delays: Vec<f64> = (0..tree.len())
        .map(|i| tree.delay_cost(&fractions, i))
        .collect();
    let max_load = loads.iter().copied().fold(0.0f64, f64::max).max(1e-12);
    let max_delay = delays.iter().copied().fold(0.0f64, f64::max).max(1e-12);
    let p = config.priority.clamp(0.0, 1.0);
    let best = (0..tree.len()).min_by(|&i, &j| {
        let si = p * loads[i] / max_load + (1.0 - p) * delays[i] / max_delay;
        let sj = p * loads[j] / max_load + (1.0 - p) * delays[j] / max_delay;
        si.total_cmp(&sj)
            .then(tree.brokers[i].cmp(&tree.brokers[j]))
    })?;
    Some(tree.brokers[best])
}

/// Places every publisher in the table onto the tree.
pub fn place_publishers(
    tree: &InterestTree,
    publishers: &PublisherTable,
    config: GrapeConfig,
) -> BTreeMap<AdvId, BrokerId> {
    // Never-token: `Err` is unreachable, the empty map is a total
    // fallback.
    place_publishers_cancellable(tree, publishers, config, &CancelToken::never())
        .unwrap_or_default()
}

/// [`place_publishers`] with a cancellation token, polled once per
/// publisher — each publisher's placement walks the whole tree, so one
/// poll per publisher bounds the stop latency to a single relocation.
///
/// # Errors
/// [`AllocError::Cancelled`] when the token trips mid-placement.
pub(crate) fn place_publishers_cancellable(
    tree: &InterestTree,
    publishers: &PublisherTable,
    config: GrapeConfig,
    cancel: &CancelToken,
) -> Result<BTreeMap<AdvId, BrokerId>, AllocError> {
    let mut homes = BTreeMap::new();
    for p in publishers.iter() {
        if cancel.is_cancelled_hot() {
            return Err(AllocError::Cancelled);
        }
        if let Some(b) = place_publisher(tree, p.adv_id, publishers, config) {
            homes.insert(p.adv_id, b);
        }
    }
    Ok(homes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use greenps_profile::{PublisherProfile, ShiftingBitVector};
    use greenps_pubsub::ids::MsgId;

    fn profile(adv: u64, ids: &[u64]) -> SubscriptionProfile {
        let mut v = ShiftingBitVector::starting_at(100, 0);
        for &i in ids {
            v.record(i);
        }
        let mut p = SubscriptionProfile::with_capacity(100);
        p.insert_vector(AdvId::new(adv), v);
        p
    }

    fn publishers() -> PublisherTable {
        [PublisherProfile::new(
            AdvId::new(1),
            10.0,
            10_000.0,
            MsgId::new(99),
        )]
        .into_iter()
        .collect()
    }

    /// Chain B0 - B1 - B2 with all interest at B2: GRAPE moves the
    /// publisher to B2.
    #[test]
    fn publisher_moves_to_interest() {
        let all: Vec<u64> = (0..50).collect();
        let tree = InterestTree::new(
            vec![
                (BrokerId::new(0), SubscriptionProfile::new()),
                (BrokerId::new(1), SubscriptionProfile::new()),
                (BrokerId::new(2), profile(1, &all)),
            ],
            &[
                (BrokerId::new(0), BrokerId::new(1)),
                (BrokerId::new(1), BrokerId::new(2)),
            ],
        );
        for cfg in [GrapeConfig::minimize_load(), GrapeConfig::minimize_delay()] {
            assert_eq!(
                place_publisher(&tree, AdvId::new(1), &publishers(), cfg),
                Some(BrokerId::new(2))
            );
        }
    }

    /// Interest spread over the leaves of a star: delay-minimizing
    /// placement picks the hub (mean 1 hop vs 5/3 from any leaf); with
    /// identical subscriptions everywhere the load objective ties and
    /// the smallest id wins.
    #[test]
    fn star_interest_prefers_hub_for_delay() {
        let ids: Vec<u64> = (0..40).collect();
        let tree = InterestTree::new(
            vec![
                (BrokerId::new(0), profile(1, &ids)),
                (BrokerId::new(1), SubscriptionProfile::new()), // hub
                (BrokerId::new(2), profile(1, &ids)),
                (BrokerId::new(3), profile(1, &ids)),
            ],
            &[
                (BrokerId::new(0), BrokerId::new(1)),
                (BrokerId::new(1), BrokerId::new(2)),
                (BrokerId::new(1), BrokerId::new(3)),
            ],
        );
        let by_delay = place_publisher(
            &tree,
            AdvId::new(1),
            &publishers(),
            GrapeConfig::minimize_delay(),
        )
        .unwrap();
        assert_eq!(by_delay, BrokerId::new(1), "hub minimizes mean hops");
        let by_load = place_publisher(
            &tree,
            AdvId::new(1),
            &publishers(),
            GrapeConfig::minimize_load(),
        )
        .unwrap();
        assert_eq!(by_load, BrokerId::new(0), "flat load ties break by id");
    }

    /// §II-B: when every broker hosts the same subscription, relocating
    /// the publisher cannot reduce the message rate — every placement
    /// has equal load cost.
    #[test]
    fn identical_interest_everywhere_makes_load_flat() {
        let ids: Vec<u64> = (0..30).collect();
        let tree = InterestTree::new(
            vec![
                (BrokerId::new(0), profile(1, &ids)),
                (BrokerId::new(1), profile(1, &ids)),
                (BrokerId::new(2), profile(1, &ids)),
            ],
            &[
                (BrokerId::new(0), BrokerId::new(1)),
                (BrokerId::new(1), BrokerId::new(2)),
            ],
        );
        let pubs = publishers();
        let loads: Vec<f64> = (0..3)
            .map(|i| tree.load_cost(AdvId::new(1), i, &pubs))
            .collect();
        // Every edge always carries the traffic: cost 2×fraction for
        // every candidate.
        for l in &loads {
            assert!((l - loads[0]).abs() < 1e-12, "{loads:?}");
        }
    }

    #[test]
    fn no_interest_anywhere_picks_first_broker() {
        let tree = InterestTree::new(
            vec![
                (BrokerId::new(3), SubscriptionProfile::new()),
                (BrokerId::new(5), SubscriptionProfile::new()),
            ],
            &[(BrokerId::new(3), BrokerId::new(5))],
        );
        assert_eq!(
            place_publisher(&tree, AdvId::new(1), &publishers(), GrapeConfig::default()),
            Some(BrokerId::new(3))
        );
    }

    #[test]
    fn empty_tree_places_nothing() {
        let tree = InterestTree::new(vec![], &[]);
        assert!(tree.is_empty());
        assert_eq!(
            place_publisher(&tree, AdvId::new(1), &publishers(), GrapeConfig::default()),
            None
        );
        assert!(place_publishers(&tree, &publishers(), GrapeConfig::default()).is_empty());
    }

    #[test]
    fn place_publishers_covers_all_advs() {
        let ids: Vec<u64> = (0..10).collect();
        let tree = InterestTree::new(
            vec![
                (BrokerId::new(0), profile(1, &ids)),
                (BrokerId::new(1), profile(2, &ids)),
            ],
            &[(BrokerId::new(0), BrokerId::new(1))],
        );
        let pubs: PublisherTable = [
            PublisherProfile::new(AdvId::new(1), 1.0, 100.0, MsgId::new(99)),
            PublisherProfile::new(AdvId::new(2), 1.0, 100.0, MsgId::new(99)),
        ]
        .into_iter()
        .collect();
        let placed = place_publishers(&tree, &pubs, GrapeConfig::minimize_load());
        assert_eq!(placed[&AdvId::new(1)], BrokerId::new(0));
        assert_eq!(placed[&AdvId::new(2)], BrokerId::new(1));
    }

    /// Building the interest tree polls once per overlay node.
    #[test]
    fn interest_tree_build_polls_the_cancel_token() {
        use crate::model::{AllocationInput, BrokerSpec, LinearFn, SubscriptionEntry};
        let input = AllocationInput {
            brokers: (0..2)
                .map(|i| {
                    BrokerSpec::new(
                        BrokerId::new(i),
                        format!("b{i}"),
                        LinearFn::new(0.0001, 0.0),
                        60_000.0,
                    )
                })
                .collect(),
            subscriptions: vec![SubscriptionEntry::new(
                greenps_pubsub::ids::SubId::new(0),
                greenps_pubsub::Filter::new(),
                profile(1, &[1, 2, 3]),
            )],
            publishers: publishers(),
        };
        let leaf = crate::sorting::bin_packing(&input).unwrap();
        let config = crate::overlay::OverlayConfig::new(crate::overlay::AllocatorKind::BinPacking);
        let overlay = crate::overlay::build_overlay(&input, &leaf, &config).unwrap();
        let got = InterestTree::from_overlay_cancellable(&overlay, &CancelToken::tripping_at(1));
        assert!(matches!(got, Err(AllocError::Cancelled)));
    }

    /// Placement polls once per publisher.
    #[test]
    fn placement_polls_the_cancel_token() {
        let tree = InterestTree::new(vec![(BrokerId::new(0), profile(1, &[1]))], &[]);
        let got = place_publishers_cancellable(
            &tree,
            &publishers(),
            GrapeConfig::default(),
            &CancelToken::tripping_at(1),
        );
        assert!(matches!(got, Err(AllocError::Cancelled)));
    }
}
