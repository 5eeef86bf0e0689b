//! Backend equivalence: the same [`NetScenario`] replayed over the
//! deterministic sim transport and over real loopback TCP sockets must
//! deliver the same message multiset to every subscriber and the same
//! per-broker delivery counts (DESIGN.md §13).

use greenps_broker::messages::BrokerMsg;
use greenps_broker::{NetDeployment, NetScenario, NetSubscriber};
use greenps_core::pipeline::CancelToken;
use greenps_net::{SimTransport, TcpTransport, Transport};
use greenps_pubsub::filter::stock_template;
use greenps_pubsub::ids::{BrokerId, ClientId, SubId};
use greenps_pubsub::message::Subscription;

fn run<T, E>(mut transport: T, scenario: &NetScenario) -> greenps_broker::NetDeployReport
where
    T: Transport<BrokerMsg, Endpoint = E>,
    E: greenps_net::Endpoint<BrokerMsg>,
{
    NetDeployment::build(&mut transport, scenario)
        .expect("build deployment")
        .run(&CancelToken::new())
        .expect("run deployment")
}

#[test]
fn sim_and_tcp_deliver_the_same_multiset() {
    let mut scenario = NetScenario::stock_chain(3, 25);
    // A subscriber no YHOO publication matches: it must stay silent.
    let goog = ClientId::new(200);
    scenario.subscribers.push(NetSubscriber {
        client: goog,
        broker: BrokerId::new(1),
        subscription: Subscription::new(SubId::new(99), stock_template("GOOG")),
    });
    let sim = run(SimTransport::new(), &scenario);
    let tcp = run(TcpTransport::new(), &scenario);

    assert_eq!(sim.published, 25);
    assert_eq!(tcp.published, 25);
    // Same deliveries, subscriber by subscriber, as sorted multisets.
    assert_eq!(sim.deliveries, tcp.deliveries);
    // Same per-broker matched/delivered counters.
    assert_eq!(sim.broker_stats, tcp.broker_stats);
    // And the chain actually carried traffic end to end: all 25 to
    // each matching subscriber, none to the non-matching one.
    assert_eq!(sim.total_delivered(), 75);
    for (client, got) in &tcp.deliveries {
        assert_eq!(got.len(), if *client == goog { 0 } else { 25 }, "{client}");
    }
    assert_eq!(sim.mean_hops, tcp.mean_hops);
    assert_eq!(tcp.send_errors, 0);
}

#[test]
fn tcp_overlay_reports_latency_per_broker() {
    let scenario = NetScenario::stock_chain(2, 10);
    let report = run(TcpTransport::new(), &scenario);
    assert_eq!(report.total_delivered(), 20);
    // Both home brokers produced latency samples on the wall clock.
    assert_eq!(report.latency_us_by_broker.len(), 2);
    for samples in report.latency_us_by_broker.values() {
        assert_eq!(samples.len(), 10);
    }
    assert!(report.elapsed.as_secs_f64() > 0.0);
}
