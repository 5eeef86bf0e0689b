//! A CROC plan executed on OS threads and loopback sockets: the overlay
//! the planner designed must deliver to every subscriber exactly the
//! publications a naive matcher says it should.

use greenps::broker::{NetDeployReport, NetDeployment, NetScenario};
use greenps::core::croc::{plan, PlanConfig};
use greenps::core::pipeline::ReconfigContext;
use greenps::profile::ClosenessMetric;
use greenps_bench::ideal_input;
use greenps_net::TcpTransport;
use greenps_workload::{from_plan, net_scenario, ScenarioBuilder, Topology};

/// Every publication published, and every subscriber handed exactly
/// what a naive match of its filter over all of them selects.
fn assert_exactly_the_oracle(net: &NetScenario, report: &NetDeployReport) {
    let pubs = || net.publishers.iter().flat_map(|p| &p.publications);
    assert_eq!(report.published, pubs().count() as u64);
    for sub in &net.subscribers {
        let mut oracle: Vec<(u64, u64)> = pubs()
            .filter(|p| sub.subscription.filter.matches(p))
            .map(|p| (p.adv_id.raw(), p.msg_id.raw()))
            .collect();
        oracle.sort_unstable();
        assert_eq!(
            report.deliveries[&sub.client], oracle,
            "deliveries for {}",
            sub.subscription.filter
        );
    }
}

#[test]
fn plan_runs_over_tcp() {
    // A tenth of the default broker bandwidth: at full capacity CRAM packs
    // these 120 subscriptions onto one broker and there is no overlay.
    let mut scenario = ScenarioBuilder::new(Topology::Homogeneous)
        .total_subs(120)
        .capacity_scale(0.1)
        .seed(51)
        .build();
    scenario.brokers.truncate(12);
    let input = ideal_input(&scenario);
    let ctx = ReconfigContext::new();
    let plan = plan(&input, &PlanConfig::cram(ClosenessMetric::Ios), &ctx).expect("plan");

    // Every publisher at its GRAPE home, every subscription at its
    // planned home, 30 quotes per publisher.
    let net = net_scenario(&scenario, &from_plan(&scenario, &plan), 30);
    assert_eq!(net.subscribers.len(), 120);
    let report = NetDeployment::build(&mut TcpTransport::new(), &net)
        .and_then(|d| d.run(&ctx.cancel_token()))
        .expect("deploy and run the plan over tcp");

    assert_exactly_the_oracle(&net, &report);
    assert!(plan.broker_count() > 1, "the plan has overlay edges");
    assert!(report.total_delivered() > 0);
    assert_eq!(report.send_errors, 0);
}

/// Two publishers whose publications differ in shape — as many
/// attributes, the same first name — interleave on one broker link, so
/// the link's reader decodes against two name tables by turns.
#[test]
fn two_publication_shapes_share_one_link() {
    use greenps::broker::{BrokerConfig, NetPublisher, NetSubscriber};
    use greenps::core::model::LinearFn;
    use greenps::pubsub::ids::{AdvId, BrokerId, ClientId, MsgId, SubId};
    use greenps::pubsub::message::{Advertisement, Publication, Subscription};
    use greenps::pubsub::{Filter, Op, Predicate};

    let class = |c: &str| Filter::new().and(Predicate::eq("class", c));
    let publisher = |id: u64, filter: Filter, publications: Vec<Publication>| NetPublisher {
        client: ClientId::new(id),
        broker: BrokerId::new(0),
        advertisement: Advertisement::new(AdvId::new(id), filter),
        publications,
    };
    let quotes = (0..200u64)
        .map(|m| {
            Publication::builder(AdvId::new(1), MsgId::new(m))
                .attr("class", "STOCK")
                .attr("symbol", "YHOO")
                .attr("low", 15.0 + (m % 11) as f64)
                .build()
        })
        .collect();
    let readings = (0..200u64)
        .map(|m| {
            Publication::builder(AdvId::new(2), MsgId::new(m))
                .attr("class", "SENSOR")
                .attr("site", if m % 3 == 0 { "roof" } else { "yard" })
                .attr("temp", (m % 40) as i64)
                .build()
        })
        .collect();
    let subscriber = |id: u64, broker: u64, filter: Filter| NetSubscriber {
        client: ClientId::new(100 + id),
        broker: BrokerId::new(broker),
        subscription: Subscription::new(SubId::new(id), filter),
    };
    let net = NetScenario {
        brokers: (0..2)
            .map(|b| BrokerConfig::new(BrokerId::new(b), LinearFn::new(0.0, 0.0), 1e9))
            .collect(),
        edges: vec![(BrokerId::new(0), BrokerId::new(1))],
        publishers: vec![
            publisher(1, class("STOCK"), quotes),
            publisher(2, class("SENSOR"), readings),
        ],
        subscribers: vec![
            subscriber(
                1,
                1,
                class("STOCK").and(Predicate::new("low", Op::Gt, 20.0)),
            ),
            subscriber(2, 1, class("SENSOR").and(Predicate::eq("site", "roof"))),
            subscriber(
                3,
                1,
                Filter::new().and(Predicate::new("class", Op::Present, true)),
            ),
            subscriber(
                4,
                0,
                class("SENSOR").and(Predicate::new("temp", Op::Lt, 10i64)),
            ),
        ],
    };
    let ctx = ReconfigContext::new();
    let report = NetDeployment::build(&mut TcpTransport::new(), &net)
        .and_then(|d| d.run(&ctx.cancel_token()))
        .expect("deploy and run over tcp");

    assert_exactly_the_oracle(&net, &report);
    // Both shapes reach the subscriber across the link, whole.
    assert_eq!(report.deliveries[&ClientId::new(103)].len(), 400);
    for sub in &net.subscribers {
        assert!(!report.deliveries[&sub.client].is_empty());
    }
    assert_eq!(report.send_errors, 0);
}
