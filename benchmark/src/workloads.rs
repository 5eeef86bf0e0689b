//! The four workloads: input generation from a seed, one timed
//! repetition of each, and the checks on what it produced.
//!
//! A repetition runs in a process of its own (`perf one`), so `VmHWM`
//! belongs to that repetition alone. Inside it the order is fixed:
//! set-up (timed as `setup_s`), the operation (wall and CPU timed),
//! `VmHWM` read, and only then the untimed output checks.

use crate::json::Value;
use crate::layers;
use crate::oracle;
use crate::trace::{self, Span, Tracer};
use greenps_broker::{
    BrokerMsg, NetDeployReport, NetDeployment, NetPublisher, NetScenario, NetSubscriber,
};
use greenps_core::croc::{self, PlanConfig, ReconfigurationPlan};
use greenps_core::model::AllocationInput;
use greenps_core::pipeline::{CancelToken, Phase, ReconfigContext};
use greenps_net::{SimEndpoint, SimTransport, TcpTransport, Transport};
use greenps_profile::ClosenessMetric;
use greenps_pubsub::filter::stock_advertisement;
use greenps_pubsub::ids::{AdvId, ClientId, MsgId};
use greenps_pubsub::message::{Advertisement, Subscription};
use greenps_simnet::SimDuration;
use greenps_telemetry::Registry;
use greenps_workload::pipeline::GatherPhase;
use greenps_workload::scenario::Scenario;
use greenps_workload::topology::{self, Placement};
use greenps_workload::{RunConfig, ScenarioBuilder, StockSeries, Topology};
use std::collections::BTreeMap;
use std::time::Instant;

/// A benchmark workload. Names are normative: issues cite them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Workload {
    /// Four brokers in a chain over loopback TCP.
    TcpChain,
    /// 8 000 subscriptions on the 80-broker MANUAL tree, many
    /// publications, simulated transport.
    SimFanout,
    /// 40 000 subscriptions installed on the same tree, one publication
    /// per publisher.
    SimSubscribe,
    /// One reconfiguration: gather, allocate, build overlay, deploy.
    Reconfigure,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 4] = [
        Workload::TcpChain,
        Workload::SimFanout,
        Workload::SimSubscribe,
        Workload::Reconfigure,
    ];

    /// The name used on the command line and in result files.
    pub fn name(self) -> &'static str {
        match self {
            Workload::TcpChain => "tcp_chain",
            Workload::SimFanout => "sim_fanout",
            Workload::SimSubscribe => "sim_subscribe",
            Workload::Reconfigure => "reconfigure",
        }
    }

    /// Parses a workload name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// What one operation is — the unit of `ops_per_s` and
    /// `cpu_us_per_op` on this workload.
    pub fn op(self) -> &'static str {
        match self {
            Workload::TcpChain | Workload::SimFanout => "delivery",
            Workload::SimSubscribe => "subscription installed",
            Workload::Reconfigure => "subscription re-placed",
        }
    }
}

/// Input sizes of one repetition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Size {
    /// `tcp_chain`: publications sent down the chain.
    pub tcp_publications: u64,
    /// `sim_fanout`: subscriptions.
    pub fanout_subs: usize,
    /// `sim_fanout`: publications per publisher (40 publishers).
    pub fanout_pubs_per_publisher: usize,
    /// `sim_subscribe`: subscriptions.
    pub subscribe_subs: usize,
    /// `reconfigure`: subscriptions.
    pub reconfigure_subs: usize,
    /// `reconfigure`: publications per publisher sent through the new
    /// deployment afterwards, untimed, to prove it delivers.
    pub reconfigure_pubs_per_publisher: usize,
}

impl Size {
    /// The measured size: one repetition takes one to two and a half
    /// seconds on a 2-core box, so a twenty-second run holds 7 to 11.
    pub const FULL: Size = Size {
        tcp_publications: 40_000,
        fanout_subs: 8_000,
        fanout_pubs_per_publisher: 50,
        subscribe_subs: 40_000,
        reconfigure_subs: 4_000,
        reconfigure_pubs_per_publisher: 20,
    };

    /// About a twentieth of [`Size::FULL`], for `perf run --quick` and
    /// the unit tests.
    pub const QUICK: Size = Size {
        tcp_publications: 2_000,
        fanout_subs: 2_000,
        fanout_pubs_per_publisher: 20,
        subscribe_subs: 2_000,
        reconfigure_subs: 400,
        reconfigure_pubs_per_publisher: 5,
    };

    /// `"full"` or `"quick"`.
    pub fn label(&self) -> &'static str {
        if *self == Size::QUICK {
            "quick"
        } else {
            "full"
        }
    }
}

/// What one repetition measured and found.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Rep {
    /// Input generation plus `NetDeployment::build` (for `reconfigure`:
    /// scenario generation only), seconds.
    pub setup_s: f64,
    /// Wall time of the operation, seconds.
    pub wall_s: f64,
    /// Process CPU time (user + system, all threads) over the
    /// operation, seconds.
    pub cpu_s: f64,
    /// Operations completed (see [`Workload::op`]).
    pub ops: u64,
    /// `VmHWM` right after the operation, KiB.
    pub peak_rss_kib: u64,
    /// Output checks made.
    pub attempted: u64,
    /// Output checks failed.
    pub failed: u64,
    /// Counts that repeat exactly for a given seed and size.
    pub counts: BTreeMap<String, u64>,
    /// Per-layer rows (traced repetitions only).
    pub layers: BTreeMap<String, f64>,
    /// Harness spans (traced repetitions only).
    pub spans: Vec<Span>,
}

impl Rep {
    /// The JSON line `perf one` prints.
    pub fn to_json(&self) -> Value {
        Value::obj()
            .with("setup_s", self.setup_s)
            .with("wall_s", self.wall_s)
            .with("cpu_s", self.cpu_s)
            .with("ops", self.ops)
            .with("peak_rss_kib", self.peak_rss_kib)
            .with("attempted", self.attempted)
            .with("failed", self.failed)
            .with("counts", self.counts.clone().into_iter().collect::<Value>())
            .with("layers", self.layers.clone().into_iter().collect::<Value>())
            .with("spans", Value::Arr(trace::spans_to_json(&self.spans, "")))
    }

    /// Reads back what [`Rep::to_json`] wrote.
    pub fn from_json(v: &Value) -> Option<Rep> {
        let f = |k: &str| v.get(k)?.as_f64();
        let u = |k: &str| v.get(k)?.as_u64();
        Some(Rep {
            setup_s: f("setup_s")?,
            wall_s: f("wall_s")?,
            cpu_s: f("cpu_s")?,
            ops: u("ops")?,
            peak_rss_kib: u("peak_rss_kib")?,
            attempted: u("attempted")?,
            failed: u("failed")?,
            counts: v
                .get("counts")?
                .as_obj()?
                .iter()
                .map(|(k, c)| Some((k.clone(), c.as_u64()?)))
                .collect::<Option<_>>()?,
            layers: v
                .get("layers")?
                .as_obj()?
                .iter()
                // A non-finite row was written as `null`.
                .map(|(k, x)| (k.clone(), x.as_f64().unwrap_or(f64::NAN)))
                .collect(),
            spans: trace::spans_from_json(v.get("spans")?.as_arr()?)?,
        })
    }
}

/// User plus system CPU time of this process so far, all threads, from
/// `/proc/self/stat` (fields 14 and 15, in clock ticks). The tick is
/// taken as 1/100 s, which is `USER_HZ` on every Linux ABI; 0 where the
/// file is missing.
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // The command name (field 2) may hold spaces; fields resume after
    // its closing parenthesis, starting with field 3.
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return 0.0;
    };
    let ticks: u64 = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|t| t.parse::<u64>().ok())
        .sum();
    ticks as f64 / 100.0
}

fn peak_rss_kib() -> u64 {
    greenps_bench::peak_rss_kib().unwrap_or(0)
}

/// `tcp_chain` input: the topology and subscribers of
/// `NetScenario::stock_chain`, with the publisher's stream drawn from a
/// seeded YHOO quote series so the input follows the seed.
pub fn tcp_chain_scenario(seed: u64, publications: u64) -> NetScenario {
    let mut scenario = NetScenario::stock_chain(4, 0);
    let series = StockSeries::generate("YHOO", seed, 252);
    for publisher in &mut scenario.publishers {
        let adv = publisher.advertisement.id;
        publisher.publications = (0..publications)
            .map(|m| series.publication(adv, MsgId::new(m)))
            .collect();
    }
    scenario
}

/// A placement as a pre-generated transport scenario, `per_publisher`
/// publications each. (`workload::topology::net_scenario` does this but
/// is crate-private.)
pub fn net_scenario(
    scenario: &Scenario,
    placement: &Placement,
    per_publisher: usize,
) -> NetScenario {
    let publishers = scenario
        .stocks
        .iter()
        .enumerate()
        .map(|(i, stock)| {
            let adv = AdvId::new(i as u64 + 1);
            NetPublisher {
                client: ClientId::new(1_000_000 + i as u64),
                broker: placement.publisher_homes[i],
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
        .enumerate()
        .map(|(i, sub)| NetSubscriber {
            client: ClientId::new(2_000_000 + sub.id.raw()),
            broker: placement.subscriber_homes[i],
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

fn homogeneous(seed: u64, subs: usize) -> Scenario {
    ScenarioBuilder::new(Topology::Homogeneous)
        .total_subs(subs)
        .seed(seed)
        .build()
}

/// `sim_fanout` / `sim_subscribe` input: the paper's homogeneous
/// scenario on the MANUAL fan-out-2 tree. MANUAL, not a CRAM overlay,
/// so the data-plane input does not change when an allocator changes.
pub fn manual_scenario(seed: u64, subs: usize, per_publisher: usize) -> NetScenario {
    let scenario = homogeneous(seed, subs);
    let placement = topology::manual(&scenario, seed);
    net_scenario(&scenario, &placement, per_publisher)
}

/// The timed part of a data-plane repetition and what it returned.
struct NetRun {
    build_s: f64,
    wall_s: f64,
    cpu_s: f64,
    peak_rss_kib: u64,
    report: NetDeployReport,
}

/// Builds `scenario` on `transport` and runs it to completion.
fn deploy_and_run<T>(tracer: &mut Tracer, transport: &mut T, scenario: &NetScenario) -> NetRun
where
    T: Transport<BrokerMsg>,
{
    let t0 = Instant::now();
    let deployment = tracer.span("netdeploy.build", |_| {
        NetDeployment::build(transport, scenario).expect("the generated overlay builds")
    });
    let build_s = t0.elapsed().as_secs_f64();
    let cpu0 = cpu_seconds();
    let t1 = Instant::now();
    let report = tracer.span("netdeploy.run", |_| {
        deployment
            .run(&CancelToken::never())
            .expect("an uncancelled run completes")
    });
    let wall_s = t1.elapsed().as_secs_f64();
    NetRun {
        build_s,
        wall_s,
        cpu_s: cpu_seconds() - cpu0,
        peak_rss_kib: peak_rss_kib(),
        report,
    }
}

/// Untimed: the oracle's verdict on a finished run, as `(deliveries
/// expected, failed)`.
fn check_deliveries(
    tracer: &mut Tracer,
    scenario: &NetScenario,
    report: &NetDeployReport,
) -> (u64, u64) {
    tracer.span("oracle", |_| {
        let expected = oracle::expected_deliveries(scenario);
        let mismatch = oracle::compare(&expected, &report.deliveries);
        (
            oracle::delivery_count(&expected),
            mismatch.total() + report.send_errors,
        )
    })
}

/// The exact counts of a finished data-plane run.
fn delivery_counts(report: &NetDeployReport) -> BTreeMap<String, u64> {
    let handled = report.broker_stats.values().map(|s| s.matched).sum();
    BTreeMap::from([
        ("published".to_string(), report.published),
        ("broker_msgs".to_string(), handled),
        ("deliveries".to_string(), report.total_delivered()),
    ])
}

/// One repetition of a data-plane workload.
fn data_plane_rep(workload: Workload, seed: u64, size: &Size, traced: bool) -> Rep {
    let mut tracer = Tracer::new(traced);
    let registry = if traced {
        Registry::new()
    } else {
        Registry::disabled()
    };
    let t0 = Instant::now();
    let scenario = tracer.span("scenario.generate", |_| match workload {
        Workload::TcpChain => tcp_chain_scenario(seed, size.tcp_publications),
        Workload::SimFanout => {
            manual_scenario(seed, size.fanout_subs, size.fanout_pubs_per_publisher)
        }
        _ => manual_scenario(seed, size.subscribe_subs, 1),
    });
    let generate_s = t0.elapsed().as_secs_f64();
    let run = match workload {
        Workload::TcpChain => {
            let mut transport = if traced {
                TcpTransport::with_telemetry(&registry)
            } else {
                TcpTransport::new()
            };
            deploy_and_run(&mut tracer, &mut transport, &scenario)
        }
        _ => {
            let mut transport: SimTransport<BrokerMsg> = SimTransport::new();
            deploy_and_run(&mut tracer, &mut transport, &scenario)
        }
    };
    let (attempted, failed) = check_deliveries(&mut tracer, &scenario, &run.report);
    let deliveries = run.report.total_delivered();
    let mut rep = Rep {
        setup_s: generate_s + run.build_s,
        wall_s: run.wall_s,
        cpu_s: run.cpu_s,
        ops: match workload {
            Workload::SimSubscribe => scenario.subscribers.len() as u64,
            _ => deliveries,
        },
        peak_rss_kib: run.peak_rss_kib,
        attempted,
        failed,
        counts: delivery_counts(&run.report),
        ..Rep::default()
    };
    if traced {
        let on_tcp = workload == Workload::TcpChain;
        let (rows, replayed) = layers::data_plane(&mut tracer, &scenario, on_tcp);
        rep.layers = rows;
        layers::net_run(
            &mut rep.layers,
            &run.report,
            run.wall_s,
            &registry.snapshot(),
            replayed,
        );
        rep.spans = tracer.into_spans();
    }
    rep
}

/// The reconfiguration's planning configuration: CRAM with the IOS
/// closeness metric, the paper's recommended set-up.
pub fn plan_config() -> PlanConfig {
    PlanConfig::cram(ClosenessMetric::Ios)
}

/// Virtual-time windows of the gather phase: 2 s for subscriptions to
/// settle, 60 s of profiling.
pub fn run_config(seed: u64) -> RunConfig {
    RunConfig {
        warmup: SimDuration::from_secs(2),
        profile: SimDuration::from_secs(60),
        measure: SimDuration::from_secs(60),
        seed,
    }
}

/// What the timed part of `reconfigure` produced.
pub struct Reconfigured {
    /// The gathered Phase-2 input.
    pub input: AllocationInput,
    /// The plan.
    pub plan: ReconfigurationPlan,
    /// The placement deployed.
    pub placement: Placement,
    /// The new overlay as a transport scenario.
    pub net: NetScenario,
}

/// gather → allocate → build overlay → GRAPE → placement → build of
/// the new deployment on the simulated transport, each step under a
/// span. Returns the artefacts and the built deployment.
fn reconfigure(
    tracer: &mut Tracer,
    scenario: &Scenario,
    size: &Size,
    ctx: &ReconfigContext,
) -> (Reconfigured, NetDeployment<SimEndpoint<BrokerMsg>>) {
    let cfg = run_config(scenario.seed);
    let config = plan_config();
    let gathered = tracer.span("gather", |_| {
        GatherPhase { scenario, cfg }
            .run((), ctx)
            .expect("phase 1 gathers within its virtual deadline")
    });
    let planned = tracer.span("allocate", |_| {
        croc::allocate(&gathered.input, &config, ctx).expect("the broker pool hosts the workload")
    });
    let plan = tracer.span("overlay_grape", |_| {
        croc::finish_plan(&gathered.input, planned, &config, ctx)
            .expect("an overlay exists over a non-empty allocation")
    });
    let (placement, net) = tracer.span("placement", |_| {
        let placement = topology::from_plan(scenario, &plan);
        let net = net_scenario(scenario, &placement, size.reconfigure_pubs_per_publisher);
        (placement, net)
    });
    let deployment = tracer.span("net_build", |_| {
        let mut transport: SimTransport<BrokerMsg> = SimTransport::new();
        NetDeployment::build(&mut transport, &net).expect("the planned overlay builds")
    });
    (
        Reconfigured {
            input: gathered.input,
            plan,
            placement,
            net,
        },
        deployment,
    )
}

/// One repetition of `reconfigure`.
fn reconfigure_rep(seed: u64, size: &Size, traced: bool) -> Rep {
    let mut tracer = Tracer::new(traced);
    let registry = if traced {
        Registry::new()
    } else {
        Registry::disabled()
    };
    let ctx = ReconfigContext::new().with_registry(&registry);
    let t0 = Instant::now();
    let scenario = tracer.span("scenario.generate", |_| {
        homogeneous(seed, size.reconfigure_subs)
    });
    let setup_s = t0.elapsed().as_secs_f64();

    let cpu0 = cpu_seconds();
    let t1 = Instant::now();
    let (done, deployment) = tracer.span("reconfigure", |t| reconfigure(t, &scenario, size, &ctx));
    let wall_s = t1.elapsed().as_secs_f64();
    let cpu_s = cpu_seconds() - cpu0;
    let peak = peak_rss_kib();

    // Untimed from here: the plan is checked against the paper's
    // constraints and the new deployment has to deliver.
    let (plan_checks, plan_failed) =
        tracer.span("check_plan", |_| oracle::check_plan(&scenario, &done.plan));
    let t2 = Instant::now();
    let report = tracer.span("netdeploy.run", |_| {
        deployment
            .run(&CancelToken::never())
            .expect("an uncancelled run completes")
    });
    let deliver_wall_s = t2.elapsed().as_secs_f64();
    let (expected, delivery_failed) = check_deliveries(&mut tracer, &done.net, &report);

    let mut rep = Rep {
        setup_s,
        wall_s,
        cpu_s,
        ops: scenario.sub_count() as u64,
        peak_rss_kib: peak,
        attempted: plan_checks + expected,
        failed: plan_failed + delivery_failed,
        counts: delivery_counts(&report),
        ..Rep::default()
    };
    rep.counts
        .insert("allocated_brokers".into(), done.plan.broker_count() as u64);
    if let Some(stats) = &done.plan.cram_stats {
        rep.counts.insert(
            "cram.closeness_computations".into(),
            stats.closeness_computations,
        );
        rep.counts.insert("cram.merges".into(), stats.merges as u64);
    }
    if traced {
        let (rows, replayed) = layers::data_plane(&mut tracer, &done.net, false);
        rep.layers = rows;
        layers::net_run(
            &mut rep.layers,
            &report,
            deliver_wall_s,
            &registry.snapshot(),
            replayed,
        );
        layers::control_plane(&mut tracer, &mut rep.layers, &scenario, &done);
        rep.spans = tracer.into_spans();
        layers::reconfigure_spans(&mut rep.layers, &rep.spans);
    }
    rep
}

/// SplitMix64's output function. The scenario builder derives stock
/// `i`'s series from `seed + i`, so neighbouring seeds would share 39 of
/// 40 series; mixing first makes every seed an independent draw.
fn mix(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Runs one repetition of `workload` in this process.
pub fn run_rep(workload: Workload, seed: u64, size: &Size, traced: bool) -> Rep {
    let seed = mix(seed);
    match workload {
        Workload::Reconfigure => reconfigure_rep(seed, size, traced),
        _ => data_plane_rep(workload, seed, size, traced),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }

    #[test]
    fn inputs_follow_the_seed() {
        let a = tcp_chain_scenario(3, 50);
        let b = tcp_chain_scenario(3, 50);
        let c = tcp_chain_scenario(4, 50);
        assert_eq!(a.publishers[0].publications, b.publishers[0].publications);
        assert_ne!(a.publishers[0].publications, c.publishers[0].publications);
        assert_eq!(a.brokers.len(), 4);
        assert_eq!(a.subscribers.len(), 4);

        let m = manual_scenario(3, 200, 2);
        let n = manual_scenario(4, 200, 2);
        assert_eq!(m.brokers.len(), 80);
        assert_eq!(m.edges.len(), 79);
        assert_eq!(m.publishers.len(), 40);
        assert_eq!(m.subscribers.len(), 200);
        let homes = |s: &NetScenario| s.subscribers.iter().map(|x| x.broker).collect::<Vec<_>>();
        assert_ne!(homes(&m), homes(&n));
    }

    #[test]
    fn quick_repetitions_are_correct_and_round_trip() {
        for w in [
            Workload::SimFanout,
            Workload::SimSubscribe,
            Workload::Reconfigure,
        ] {
            let rep = run_rep(w, 9, &Size::QUICK, false);
            assert!(rep.attempted > 0, "{}", w.name());
            assert_eq!(rep.failed, 0, "{}", w.name());
            assert!(rep.ops > 0 && rep.wall_s > 0.0 && rep.setup_s > 0.0);
            assert!(rep.counts["deliveries"] > 0 && rep.counts["broker_msgs"] > 0);
            assert!(rep.layers.is_empty() && rep.spans.is_empty());
            let back = Rep::from_json(&crate::json::parse(&rep.to_json().compact()).expect("json"));
            assert_eq!(back, Some(rep));
        }
    }

    #[test]
    fn a_broken_plan_fails_the_plan_check() {
        let scenario = homogeneous(9, Size::QUICK.reconfigure_subs);
        let mut tracer = Tracer::new(false);
        let (mut done, _deployment) = reconfigure(
            &mut tracer,
            &scenario,
            &Size::QUICK,
            &ReconfigContext::new(),
        );
        assert_eq!(oracle::check_plan(&scenario, &done.plan).1, 0);
        let lost = scenario.subs[0].id;
        done.plan.subscription_homes.remove(&lost);
        done.plan.publisher_homes.clear();
        let (checks, failed) = oracle::check_plan(&scenario, &done.plan);
        assert_eq!(checks, 400 + 40 + 1);
        assert_eq!(failed, 1 + 40);
    }

    #[test]
    fn cpu_clock_advances() {
        let before = cpu_seconds();
        let mut x = 0u64;
        let t = Instant::now();
        while t.elapsed().as_millis() < 60 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(cpu_seconds() > before);
    }
}
