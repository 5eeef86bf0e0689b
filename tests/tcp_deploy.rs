//! A CROC plan executed on OS threads and loopback sockets: the overlay
//! the planner designed must deliver to every subscriber exactly the
//! publications a naive matcher says it should.

use greenps::broker::NetDeployment;
use greenps::core::croc::{plan, PlanConfig};
use greenps::core::pipeline::ReconfigContext;
use greenps::profile::ClosenessMetric;
use greenps_bench::ideal_input;
use greenps_net::TcpTransport;
use greenps_workload::{from_plan, net_scenario, ScenarioBuilder, Topology};

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
    assert!(plan.broker_count() > 1, "the plan has overlay edges");
    assert!(report.total_delivered() > 0);
    assert_eq!(report.send_errors, 0);
}
