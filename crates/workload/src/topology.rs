//! Topology builders: the MANUAL and AUTOMATIC baselines, and
//! deployment of a CROC reconfiguration plan.

use crate::scenario::Scenario;
use greenps_broker::{
    BrokerConfig, Deployment, NetPublisher, NetScenario, NetSubscriber, TopologySpec,
};
use greenps_core::croc::ReconfigurationPlan;
use greenps_core::model::Allocation;
use greenps_pubsub::filter::stock_advertisement;
use greenps_pubsub::ids::{AdvId, BrokerId, ClientId, MsgId, SubId};
use greenps_pubsub::message::{Advertisement, Subscription};
use greenps_simnet::{LinkSpec, SimDuration};
use rand::{rngs::StdRng, seq::SliceRandom, Rng, SeedableRng};
use std::collections::BTreeMap;

/// A topology plus client placements, ready to deploy.
#[derive(Debug, Clone)]
pub struct Placement {
    /// Brokers and overlay edges.
    pub spec: TopologySpec,
    /// Broker each publisher connects to (indexed like
    /// `scenario.stocks`).
    pub publisher_homes: Vec<BrokerId>,
    /// Broker each subscription connects to (indexed like
    /// `scenario.subs`).
    pub subscriber_homes: Vec<BrokerId>,
}

/// LAN link used in all cluster deployments.
pub fn cluster_link() -> LinkSpec {
    LinkSpec {
        latency: SimDuration::from_micros(500),
        bandwidth: None,
    }
}

/// The MANUAL baseline: fan-out-2 tree over the full broker pool.
///
/// Homogeneous pools get random client placement; heterogeneous pools
/// put the most resourceful brokers at the top of the tree and allocate
/// subscriber counts proportional to broker capacity (paper §VI).
pub fn manual(scenario: &Scenario, seed: u64) -> Placement {
    let mut rng = StdRng::seed_from_u64(seed);
    // Sort brokers by capacity descending → tree positions 0.. (for a
    // homogeneous pool this is the identity order).
    let mut brokers: Vec<BrokerConfig> = scenario.brokers.clone();
    brokers.sort_by(|a, b| {
        b.out_bandwidth
            .total_cmp(&a.out_bandwidth)
            .then(a.id.cmp(&b.id))
    });
    let edges: Vec<(BrokerId, BrokerId)> = (1..brokers.len())
        .map(|i| (brokers[(i - 1) / 2].id, brokers[i].id))
        .collect();

    let publisher_homes: Vec<BrokerId> = (0..scenario.publisher_count())
        .map(|_| brokers[rng.gen_range(0..brokers.len())].id)
        .collect();

    let heterogeneous = brokers
        .first()
        .zip(brokers.last())
        .is_some_and(|(a, b)| a.out_bandwidth != b.out_bandwidth);
    let subscriber_homes: Vec<BrokerId> = if heterogeneous {
        // Weighted draw proportional to broker capacity.
        let total: f64 = brokers.iter().map(|b| b.out_bandwidth).sum();
        (0..scenario.sub_count())
            .map(|_| {
                let mut x = rng.gen_range(0.0..total);
                for b in &brokers {
                    if x < b.out_bandwidth {
                        return b.id;
                    }
                    x -= b.out_bandwidth;
                }
                brokers[brokers.len() - 1].id
            })
            .collect()
    } else {
        (0..scenario.sub_count())
            .map(|_| brokers[rng.gen_range(0..brokers.len())].id)
            .collect()
    };

    Placement {
        spec: TopologySpec {
            brokers,
            edges,
            link: cluster_link(),
        },
        publisher_homes,
        subscriber_homes,
    }
}

/// The AUTOMATIC baseline: random tree, random client placement.
pub fn automatic(scenario: &Scenario, seed: u64) -> Placement {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut brokers: Vec<BrokerConfig> = scenario.brokers.clone();
    brokers.shuffle(&mut rng);
    let edges: Vec<(BrokerId, BrokerId)> = (1..brokers.len())
        .map(|i| (brokers[rng.gen_range(0..i)].id, brokers[i].id))
        .collect();
    let publisher_homes = (0..scenario.publisher_count())
        .map(|_| brokers[rng.gen_range(0..brokers.len())].id)
        .collect();
    let subscriber_homes = (0..scenario.sub_count())
        .map(|_| brokers[rng.gen_range(0..brokers.len())].id)
        .collect();
    Placement {
        spec: TopologySpec {
            brokers,
            edges,
            link: cluster_link(),
        },
        publisher_homes,
        subscriber_homes,
    }
}

/// Converts a CROC plan into a deployable placement.
///
/// # Panics
/// Panics if the plan references brokers or subscriptions missing from
/// the scenario.
pub fn from_plan(scenario: &Scenario, plan: &ReconfigurationPlan) -> Placement {
    let by_id: BTreeMap<BrokerId, &BrokerConfig> =
        scenario.brokers.iter().map(|b| (b.id, b)).collect();
    let brokers: Vec<BrokerConfig> = plan
        .overlay
        .nodes()
        .map(|n| by_id[&n.broker].clone())
        .collect();
    let edges: Vec<(BrokerId, BrokerId)> = plan.overlay.edges().collect();
    let publisher_homes: Vec<BrokerId> = (0..scenario.publisher_count())
        .map(|i| {
            let adv = AdvId::new(i as u64 + 1);
            plan.publisher_homes
                .get(&adv)
                .copied()
                .unwrap_or_else(|| plan.overlay.root())
        })
        .collect();
    let subscriber_homes: Vec<BrokerId> = scenario
        .subs
        .iter()
        .map(|s| plan.subscription_homes[&s.id])
        .collect();
    Placement {
        spec: TopologySpec {
            brokers,
            edges,
            link: cluster_link(),
        },
        publisher_homes,
        subscriber_homes,
    }
}

/// Converts a bare allocation (the pairwise baselines) into a placement
/// with an AUTOMATIC (random-tree, random-publisher) overlay over the
/// allocated brokers.
pub fn from_allocation(scenario: &Scenario, alloc: &Allocation, seed: u64) -> Placement {
    let mut rng = StdRng::seed_from_u64(seed);
    let by_id: BTreeMap<BrokerId, &BrokerConfig> =
        scenario.brokers.iter().map(|b| (b.id, b)).collect();
    let brokers: Vec<BrokerConfig> = alloc
        .loads
        .iter()
        .map(|l| by_id[&l.broker].clone())
        .collect();
    let edges: Vec<(BrokerId, BrokerId)> = (1..brokers.len())
        .map(|i| (brokers[rng.gen_range(0..i)].id, brokers[i].id))
        .collect();
    let publisher_homes = (0..scenario.publisher_count())
        .map(|_| brokers[rng.gen_range(0..brokers.len())].id)
        .collect();
    let mut subscriber_homes = vec![brokers[0].id; scenario.sub_count()];
    for load in &alloc.loads {
        for sub in load.sub_ids() {
            // Sub ids are dense indices into the scenario's
            // subscription list; a checked conversion plus `get_mut`
            // quietly skips any id outside it.
            let slot = usize::try_from(sub.raw())
                .ok()
                .and_then(|i| subscriber_homes.get_mut(i));
            if let Some(home) = slot {
                *home = load.broker;
            }
        }
    }
    Placement {
        spec: TopologySpec {
            brokers,
            edges,
            link: cluster_link(),
        },
        publisher_homes,
        subscriber_homes,
    }
}

/// Instantiates a placement: brokers, links, publishers and one
/// subscriber client per subscription.
pub fn deploy(scenario: &Scenario, placement: &Placement) -> Deployment {
    let mut d = Deployment::build(&placement.spec)
        .expect("placement edges reference only allocated brokers");
    for (i, stock) in scenario.stocks.iter().enumerate() {
        let stock = stock.clone();
        let adv = AdvId::new(i as u64 + 1);
        d.attach_publisher(
            ClientId::new(1_000_000 + i as u64),
            adv,
            stock_advertisement(&stock.symbol),
            scenario.publish_period,
            placement.publisher_homes[i],
            Box::new(move |adv, msg| stock.publication(adv, msg)),
        )
        .expect("publisher homes come from the placement's own brokers");
    }
    for (i, sub) in scenario.subs.iter().enumerate() {
        d.attach_subscriber(
            ClientId::new(2_000_000 + sub.id.raw()),
            placement.subscriber_homes[i],
            vec![Subscription::new(sub.id, sub.filter.clone())],
        )
        .expect("subscriber homes come from the placement's own brokers");
    }
    d
}

/// Converts a placement into a pre-generated transport scenario for
/// [`greenps_broker::NetDeployment`]: the same brokers, edges and
/// client homes, with each publisher's stream materialized up front
/// (`per_publisher` publications from its stock series) so the run can
/// be replayed identically over any transport backend.
pub fn net_scenario(
    scenario: &Scenario,
    placement: &Placement,
    per_publisher: usize,
) -> NetScenario {
    let publishers = scenario
        .stocks
        .iter()
        .zip(&placement.publisher_homes)
        .enumerate()
        .map(|(i, (stock, &broker))| {
            let adv = AdvId::new(i as u64 + 1);
            NetPublisher {
                client: ClientId::new(1_000_000 + i as u64),
                broker,
                advertisement: Advertisement::new(adv, stock_advertisement(&stock.symbol)),
                publications: (0..per_publisher as u64)
                    .map(|m| stock.publication(adv, MsgId::new(m)))
                    .collect(),
            }
        })
        .collect();
    let subscribers = scenario
        .subs
        .iter()
        .zip(&placement.subscriber_homes)
        .map(|(sub, &broker)| NetSubscriber {
            client: ClientId::new(2_000_000 + sub.id.raw()),
            broker,
            subscription: Subscription::new(sub.id, sub.filter.clone()),
        })
        .collect();
    NetScenario {
        brokers: placement.spec.brokers.clone(),
        edges: placement.spec.edges.clone(),
        publishers,
        subscribers,
    }
}

/// Sanity helper for tests: the set of subscription ids in a placement.
pub fn placed_sub_ids(scenario: &Scenario) -> Vec<SubId> {
    scenario.subs.iter().map(|s| s.id).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{Scenario, ScenarioBuilder, Topology};

    fn homogeneous(total_subs: usize, seed: u64) -> Scenario {
        ScenarioBuilder::new(Topology::Homogeneous)
            .total_subs(total_subs)
            .seed(seed)
            .build()
    }

    fn heterogeneous(ns: usize, seed: u64) -> Scenario {
        ScenarioBuilder::new(Topology::Heterogeneous)
            .ns(ns)
            .seed(seed)
            .build()
    }

    #[test]
    fn manual_is_a_fanout_two_tree() {
        let s = homogeneous(200, 1);
        let p = manual(&s, 1);
        assert_eq!(p.spec.brokers.len(), 80);
        assert_eq!(p.spec.edges.len(), 79);
        // Max fan-out of 2 children per broker.
        let mut children: BTreeMap<BrokerId, usize> = BTreeMap::new();
        for (parent, _) in &p.spec.edges {
            *children.entry(*parent).or_default() += 1;
        }
        assert!(children.values().all(|&c| c <= 2));
        assert_eq!(p.publisher_homes.len(), 40);
        assert_eq!(p.subscriber_homes.len(), 200);
    }

    #[test]
    fn heterogeneous_manual_puts_big_brokers_on_top() {
        let s = heterogeneous(100, 2);
        let p = manual(&s, 2);
        // Root (position 0 in sorted order) is a full-capacity broker.
        let root = &p.spec.brokers[0];
        assert_eq!(root.out_bandwidth, crate::scenario::FULL_BANDWIDTH);
        // Big brokers get proportionally more subscribers.
        let full_ids: Vec<BrokerId> = p
            .spec
            .brokers
            .iter()
            .filter(|b| b.out_bandwidth == crate::scenario::FULL_BANDWIDTH)
            .map(|b| b.id)
            .collect();
        let on_full = p
            .subscriber_homes
            .iter()
            .filter(|b| full_ids.contains(b))
            .count() as f64
            / p.subscriber_homes.len() as f64;
        // Full brokers hold 15×48k of 15×48k+25×24k+40×12k = 40% of
        // capacity; expect roughly that share of subscribers.
        assert!((0.30..0.52).contains(&on_full), "share {on_full}");
    }

    #[test]
    fn automatic_is_a_spanning_tree() {
        let s = homogeneous(100, 3);
        let p = automatic(&s, 3);
        assert_eq!(p.spec.edges.len(), 79);
        // Connectivity: union-find over edges.
        let mut parent: BTreeMap<BrokerId, BrokerId> =
            p.spec.brokers.iter().map(|b| (b.id, b.id)).collect();
        fn find(parent: &mut BTreeMap<BrokerId, BrokerId>, x: BrokerId) -> BrokerId {
            let p = parent[&x];
            if p == x {
                x
            } else {
                let r = find(parent, p);
                parent.insert(x, r);
                r
            }
        }
        for &(a, b) in &p.spec.edges {
            let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
            parent.insert(ra, rb);
        }
        let roots: std::collections::BTreeSet<BrokerId> = p
            .spec
            .brokers
            .iter()
            .map(|b| find(&mut parent, b.id))
            .collect();
        assert_eq!(roots.len(), 1, "tree is connected");
    }

    #[test]
    fn deploy_small_scenario_delivers() {
        let mut s = homogeneous(40, 4);
        s.brokers.truncate(8);
        let p = manual(&s, 4);
        let mut d = deploy(&s, &p);
        d.run_for(SimDuration::from_secs(5));
        let m = d.measure(SimDuration::from_secs(30));
        assert!(m.deliveries > 0, "publications flow end to end");
        assert_eq!(placed_sub_ids(&s).len(), 40);
    }

    #[test]
    fn placements_are_deterministic() {
        let s = homogeneous(100, 5);
        let a = manual(&s, 9);
        let b = manual(&s, 9);
        assert_eq!(a.publisher_homes, b.publisher_homes);
        assert_eq!(a.subscriber_homes, b.subscriber_homes);
        let c = automatic(&s, 9);
        let d = automatic(&s, 9);
        assert_eq!(c.subscriber_homes, d.subscriber_homes);
    }
}
