//! Output checks, all untimed and run after `VmHWM` has been read so
//! their memory never lands in `peak_rss_mib`.
//!
//! * The delivery oracle: `NaiveMatcher` over the global subscription
//!   set defines the expected `(subscriber, adv, msg)` multiset, which
//!   is compared with `NetDeployReport::deliveries`.
//! * The plan check: every subscription placed exactly once, the
//!   overlay a tree, every home a broker of that tree.

use greenps_broker::NetScenario;
use greenps_core::croc::ReconfigurationPlan;
use greenps_pubsub::ids::{AdvId, ClientId, SubId};
use greenps_pubsub::matching::{Matcher, NaiveMatcher};
use greenps_pubsub::message::Publication;
use greenps_workload::scenario::Scenario;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;

/// Per subscriber, the sorted multiset of `(advertisement, message)`
/// ids — the shape of `NetDeployReport::deliveries`.
pub type Deliveries = BTreeMap<ClientId, Vec<(u64, u64)>>;

/// How a delivery report differs from the oracle.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Mismatch {
    /// Expected deliveries that never arrived.
    pub missing: u64,
    /// Deliveries that arrived more often than expected.
    pub duplicate: u64,
    /// Deliveries the oracle does not expect at all.
    pub unexpected: u64,
}

impl Mismatch {
    /// Total failed operations.
    pub fn total(&self) -> u64 {
        self.missing + self.duplicate + self.unexpected
    }
}

/// The attribute content of a publication, ids excluded: stock quotes
/// repeat every 252 messages, so the match set is computed once per
/// distinct content and reused.
fn content_key(p: &Publication) -> String {
    let mut key = String::new();
    for (attr, value) in p.iter() {
        let _ = write!(key, "{attr}\u{1f}{value}\u{1e}");
    }
    key
}

/// What every subscriber of `scenario` must receive, by the naive
/// matcher over all subscriptions.
pub fn expected_deliveries(scenario: &NetScenario) -> Deliveries {
    let mut matcher = NaiveMatcher::new();
    let mut client_of: BTreeMap<SubId, ClientId> = BTreeMap::new();
    let mut expected: Deliveries = BTreeMap::new();
    for s in &scenario.subscribers {
        matcher.insert(s.subscription.id, s.subscription.filter.clone());
        client_of.insert(s.subscription.id, s.client);
        expected.entry(s.client).or_default();
    }
    let mut memo: HashMap<String, Vec<ClientId>> = HashMap::new();
    for publisher in &scenario.publishers {
        for p in &publisher.publications {
            let clients = memo.entry(content_key(p)).or_insert_with(|| {
                matcher
                    .matches(p)
                    .iter()
                    .filter_map(|id| client_of.get(id).copied())
                    .collect()
            });
            for c in clients.iter() {
                expected
                    .entry(*c)
                    .or_default()
                    .push((p.adv_id.raw(), p.msg_id.raw()));
            }
        }
    }
    for got in expected.values_mut() {
        got.sort_unstable();
    }
    expected
}

/// Number of expected deliveries.
pub fn delivery_count(d: &Deliveries) -> u64 {
    d.values().map(|v| v.len() as u64).sum()
}

/// Compares a report's deliveries (sorted per subscriber) with the
/// oracle's.
pub fn compare(expected: &Deliveries, got: &Deliveries) -> Mismatch {
    let mut m = Mismatch::default();
    let empty = Vec::new();
    let clients: std::collections::BTreeSet<&ClientId> =
        expected.keys().chain(got.keys()).collect();
    for c in clients {
        let e = expected.get(c).unwrap_or(&empty);
        let g = got.get(c).unwrap_or(&empty);
        let (mut i, mut j) = (0, 0);
        while i < e.len() || j < g.len() {
            match (e.get(i), g.get(j)) {
                (Some(a), Some(b)) if a == b => {
                    i += 1;
                    j += 1;
                }
                (Some(a), Some(b)) if a < b => {
                    m.missing += 1;
                    i += 1;
                }
                (Some(_), None) => {
                    m.missing += 1;
                    i += 1;
                }
                (_, Some(b)) => {
                    if j > 0 && g[j - 1] == *b {
                        m.duplicate += 1;
                    } else {
                        m.unexpected += 1;
                    }
                    j += 1;
                }
                (None, None) => break,
            }
        }
    }
    m
}

/// Checks a reconfiguration plan against the scenario it was made for.
/// Returns `(checks made, checks failed)`: one per subscription (placed
/// exactly once, on a broker of the overlay), one per publisher (home
/// is a broker of the overlay) and one for the tree invariant.
pub fn check_plan(scenario: &Scenario, plan: &ReconfigurationPlan) -> (u64, u64) {
    let mut failed = 0u64;
    let mut placed: BTreeMap<SubId, u32> = BTreeMap::new();
    for load in &plan.allocation.loads {
        for id in load.sub_ids() {
            *placed.entry(id).or_default() += 1;
        }
    }
    for sub in &scenario.subs {
        let once = placed.get(&sub.id) == Some(&1);
        let homed = plan
            .subscription_homes
            .get(&sub.id)
            .is_some_and(|b| plan.overlay.node(*b).is_some());
        if !(once && homed) {
            failed += 1;
        }
    }
    // Placements of subscriptions the scenario never had.
    failed += placed.len().saturating_sub(scenario.subs.len()) as u64;
    for i in 0..scenario.publisher_count() {
        let homed = plan
            .publisher_homes
            .get(&AdvId::new(i as u64 + 1))
            .is_some_and(|b| plan.overlay.node(*b).is_some());
        if !homed {
            failed += 1;
        }
    }
    // `check_tree` reports a violation by panicking.
    let overlay = std::panic::AssertUnwindSafe(&plan.overlay);
    if std::panic::catch_unwind(|| overlay.check_tree()).is_err() {
        failed += 1;
    }
    let checks = scenario.subs.len() as u64 + scenario.publisher_count() as u64 + 1;
    (checks, failed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use greenps_broker::{BrokerMsg, NetDeployment};
    use greenps_core::pipeline::CancelToken;
    use greenps_net::SimTransport;

    fn chain_report() -> (NetScenario, Deliveries) {
        let scenario = NetScenario::stock_chain(3, 20);
        let mut transport: SimTransport<BrokerMsg> = SimTransport::new();
        let report = NetDeployment::build(&mut transport, &scenario)
            .expect("build")
            .run(&CancelToken::never())
            .expect("run");
        (scenario, report.deliveries)
    }

    #[test]
    fn a_correct_run_matches_the_oracle() {
        let (scenario, got) = chain_report();
        let expected = expected_deliveries(&scenario);
        assert_eq!(delivery_count(&expected), 60);
        assert_eq!(compare(&expected, &got), Mismatch::default());
    }

    #[test]
    fn the_oracle_bites_on_a_dropped_delivery() {
        let (scenario, mut got) = chain_report();
        let expected = expected_deliveries(&scenario);
        got.values_mut().next().expect("a subscriber").remove(7);
        let m = compare(&expected, &got);
        assert_eq!(
            m,
            Mismatch {
                missing: 1,
                duplicate: 0,
                unexpected: 0
            }
        );
        assert!(m.total() > 0, "a dropped delivery fails the run");
    }

    #[test]
    fn duplicates_and_strays_are_told_apart() {
        let c = ClientId::new(1);
        let expected: Deliveries = [(c, vec![(1, 0), (1, 1), (1, 2)])].into();
        let got: Deliveries = [
            (c, vec![(1, 0), (1, 1), (1, 1), (1, 5)]),
            (ClientId::new(2), vec![(1, 0)]),
        ]
        .into();
        assert_eq!(
            compare(&expected, &got),
            Mismatch {
                missing: 1,
                duplicate: 1,
                unexpected: 2
            }
        );
    }

    #[test]
    fn subscribers_that_match_nothing_are_expected_to_get_nothing() {
        let mut scenario = NetScenario::stock_chain(2, 5);
        scenario.subscribers[1].subscription.filter =
            greenps_pubsub::filter::stock_template("GOOG");
        let expected = expected_deliveries(&scenario);
        assert_eq!(expected.len(), 2);
        assert_eq!(delivery_count(&expected), 5);
    }
}
