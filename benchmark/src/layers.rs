//! Per-layer rows, measured from outside: each probe times calls into
//! one layer's public functions on the inputs the workload generated.
//! A layer is a module of the workspace and rows are named after it.
//!
//! Every traced run reports every row of [`PER_LAYER`]; a row whose
//! layer the workload does not exercise reads 0.

use crate::stats;
use crate::trace::{self, Span, Tracer};
use crate::workloads::{self, Reconfigured};
use greenps_broker::{
    BrokerCore, BrokerMsg, BrokerSink, NetDeployReport, NetDeployment, NetScenario, NetSubscriber,
    PubEnvelope,
};
use greenps_core::grape::{place_publishers, InterestTree};
use greenps_core::overlay::build_overlay;
use greenps_core::pipeline::{CancelToken, CheckpointStore, Phase, PhaseKind, ReconfigContext};
use greenps_core::sorting;
use greenps_net::{
    decode_exact, Endpoint, NetEvent, NodeName, SimTransport, TcpTransport, Transport, Wire,
};
use greenps_profile::{BitsetArena, ClosenessMetric, Poset, SubscriptionProfile, DEFAULT_CAPACITY};
use greenps_pubsub::matching::{BucketMatcher, Matcher};
use greenps_pubsub::message::{Publication, Subscription};
use greenps_pubsub::routing::RoutingTables;
use greenps_simnet::{SimDuration, SimTime};
use greenps_telemetry::registry::Snapshot;
use greenps_workload::pipeline::{MeasurePhase, PlacementOut, ReconfigPipeline};
use greenps_workload::scenario::Scenario;
use greenps_workload::Approach;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Name, unit and better direction of every per-layer row. The end-to-
/// end metric and workload each row should move is in `README.md`.
pub const PER_LAYER: [(&str, &str, &str); 53] = [
    ("wire.encode_ns_per_frame", "ns", "lower"),
    ("wire.decode_ns_per_frame", "ns", "lower"),
    ("wire.bytes_per_frame", "bytes", "lower"),
    ("tcp.pair_frames_per_s", "1/s", "higher"),
    ("tcp.send_ns_per_frame", "ns", "lower"),
    ("tcp.poll_ns_per_frame", "ns", "lower"),
    ("tcp.frames_per_delivery", "count", "lower"),
    ("tcp.bytes_per_delivery", "bytes", "lower"),
    ("tcp.stale_events_fenced", "count", "lower"),
    ("sim.dispatch_events_per_s", "1/s", "higher"),
    ("matching.match_ns_per_pub.leaf", "ns", "lower"),
    ("matching.match_ns_per_pub.full", "ns", "lower"),
    ("matching.matches_per_pub", "count", "lower"),
    ("matching.build_ms", "ms", "lower"),
    ("matching.insert_ns_per_sub", "ns", "lower"),
    ("routing.insert_ns_per_sub", "ns", "lower"),
    ("routing.match_ns_per_pub", "ns", "lower"),
    ("logic.publication_ns", "ns", "lower"),
    ("logic.sends_per_pub", "count", "lower"),
    ("logic.subscribe_ns", "ns", "lower"),
    ("netdeploy.settle_ms", "ms", "lower"),
    ("netdeploy.deliver_p50_us", "us", "lower"),
    ("netdeploy.deliver_p99_us", "us", "lower"),
    ("netdeploy.deliver_tail_us", "us", "lower"),
    ("netdeploy.deliver_tail_pct", "%", "higher"),
    ("netdeploy.p99_last_over_first", "ratio", "lower"),
    ("netdeploy.mean_hops", "count", "lower"),
    ("netdeploy.gap_to_ceiling_x", "ratio", "lower"),
    ("netdeploy.accounted_pct", "%", "higher"),
    ("gather.wall_ms", "ms", "lower"),
    ("gather.subs_gathered", "count", "higher"),
    ("cram.wall_ms", "ms", "lower"),
    ("cram.closeness_computations", "count", "lower"),
    ("cram.merges", "count", "lower"),
    ("cram.gifs", "count", "lower"),
    ("croc.allocated_brokers", "count", "lower"),
    ("kernel.pair_ns", "ns", "lower"),
    ("poset.insert_us_per_gif", "us", "lower"),
    ("poset.relation_ops", "count", "lower"),
    ("packing.bin_packing_ms", "ms", "lower"),
    ("packing.fbf_ms", "ms", "lower"),
    ("overlay.build_ms", "ms", "lower"),
    ("overlay.depth", "count", "lower"),
    ("overlay.edges", "count", "lower"),
    ("grape.place_ms", "ms", "lower"),
    ("deploy.placement_ms", "ms", "lower"),
    ("deploy.net_build_ms", "ms", "lower"),
    ("checkpoint.to_json_ms", "ms", "lower"),
    ("checkpoint.from_json_ms", "ms", "lower"),
    ("checkpoint.bytes", "bytes", "lower"),
    ("measure.broker_msg_rate", "msgs/s", "lower"),
    ("telemetry.overhead_pct", "%", "lower"),
    ("reconfigure.accounted_pct", "%", "higher"),
];

/// Rows by name.
pub type Layers = BTreeMap<String, f64>;

/// Publications a probe cycles over.
const SAMPLE: usize = 4096;
/// How long each timed loop runs.
const BUDGET: Duration = Duration::from_millis(150);
/// Frames sent through the bare TCP pair.
const TCP_PAIR_FRAMES: usize = 100_000;
/// Messages sent through the bare simulated pair.
const SIM_PAIR_EVENTS: usize = 500_000;
/// Frames in flight between drains of a pair probe.
const PAIR_BATCH: usize = 256;

/// Calls `f(i)` with `i` cycling over `0..len` until [`BUDGET`] has
/// passed, whole passes only and at least one; mean nanoseconds per
/// call.
fn ns_per_call(len: usize, mut f: impl FnMut(usize)) -> f64 {
    if len == 0 {
        return 0.0;
    }
    let start = Instant::now();
    let mut calls = 0u64;
    loop {
        for i in 0..len {
            f(i);
        }
        calls += len as u64;
        if start.elapsed() >= BUDGET {
            return start.elapsed().as_nanos() as f64 / calls as f64;
        }
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Up to [`SAMPLE`] publications, taken round-robin from the heads of
/// the publishers' streams.
fn sample_publications(scenario: &NetScenario) -> Vec<Publication> {
    let publishers = scenario.publishers.len().max(1);
    let each = SAMPLE.div_ceil(publishers);
    let mut out = Vec::new();
    for m in 0..each {
        for p in &scenario.publishers {
            if let Some(publication) = p.publications.get(m) {
                out.push(publication.clone());
            }
        }
    }
    out.truncate(SAMPLE);
    out
}

fn envelope(p: &Publication) -> BrokerMsg {
    BrokerMsg::Publication(PubEnvelope::new(p.clone(), SimTime::ZERO))
}

/// The clients attached to one broker: the home of the first
/// subscriber.
fn leaf_subscribers(scenario: &NetScenario) -> Vec<&NetSubscriber> {
    let Some(home) = scenario.subscribers.first().map(|s| s.broker) else {
        return Vec::new();
    };
    scenario
        .subscribers
        .iter()
        .filter(|s| s.broker == home)
        .collect()
}

fn wire(layers: &mut Layers, msgs: &[BrokerMsg]) {
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let encode = ns_per_call(msgs.len(), |i| {
        buf.clear();
        msgs[i].encode(&mut buf);
        black_box(buf.len());
    });
    let frames: Vec<Vec<u8>> = msgs
        .iter()
        .map(|m| {
            let mut b = Vec::new();
            m.encode(&mut b);
            b
        })
        .collect();
    let decode = ns_per_call(frames.len(), |i| {
        black_box(decode_exact::<BrokerMsg>(&frames[i]).is_ok());
    });
    let bytes: usize = frames.iter().map(Vec::len).sum();
    layers.insert("wire.encode_ns_per_frame".into(), encode);
    layers.insert("wire.decode_ns_per_frame".into(), decode);
    layers.insert(
        "wire.bytes_per_frame".into(),
        bytes as f64 / frames.len().max(1) as f64,
    );
}

/// Sends `total` messages from one endpoint to another in batches,
/// draining each batch before the next. Returns `(wall, time in send,
/// time in poll)`.
fn pump<E: Endpoint<BrokerMsg>>(
    a: &mut E,
    b: &mut E,
    peer: NodeName,
    msgs: &[BrokerMsg],
    total: usize,
) -> (Duration, Duration, Duration) {
    let start = Instant::now();
    let (mut sending, mut polling) = (Duration::ZERO, Duration::ZERO);
    let mut sent = 0;
    while sent < total && !msgs.is_empty() {
        let batch = PAIR_BATCH.min(total - sent);
        let t = Instant::now();
        for i in 0..batch {
            a.send(peer, &msgs[(sent + i) % msgs.len()])
                .expect("the pair's session stays up");
        }
        sending += t.elapsed();
        let t = Instant::now();
        let mut got = 0;
        let deadline = Instant::now() + Duration::from_secs(10);
        while got < batch {
            match b.poll(Duration::from_millis(5)) {
                Some(NetEvent::Msg { .. }) => got += 1,
                Some(_) => {}
                None => assert!(Instant::now() < deadline, "pair probe stalled"),
            }
        }
        polling += t.elapsed();
        sent += batch;
    }
    (start.elapsed(), sending, polling)
}

fn tcp_pair(layers: &mut Layers, msgs: &[BrokerMsg]) {
    let mut transport = TcpTransport::new();
    let mut a: <TcpTransport as Transport<BrokerMsg>>::Endpoint =
        transport.open(1).expect("loopback listener");
    let mut b: <TcpTransport as Transport<BrokerMsg>>::Endpoint =
        transport.open(2).expect("loopback listener");
    let peer = a.connect(&b.addr()).expect("loopback connect");
    let (wall, sending, polling) = pump(&mut a, &mut b, peer, msgs, TCP_PAIR_FRAMES);
    a.shutdown();
    b.shutdown();
    let n = TCP_PAIR_FRAMES as f64;
    layers.insert("tcp.pair_frames_per_s".into(), n / wall.as_secs_f64());
    layers.insert(
        "tcp.send_ns_per_frame".into(),
        sending.as_nanos() as f64 / n,
    );
    layers.insert(
        "tcp.poll_ns_per_frame".into(),
        polling.as_nanos() as f64 / n,
    );
}

fn sim_pair(layers: &mut Layers, msgs: &[BrokerMsg]) {
    let mut transport: SimTransport<BrokerMsg> = SimTransport::new();
    let mut a = transport.open(1).expect("fresh sim node");
    let mut b = transport.open(2).expect("fresh sim node");
    let peer = a.connect(&b.addr()).expect("sim connect");
    let (wall, _, _) = pump(&mut a, &mut b, peer, msgs, SIM_PAIR_EVENTS);
    layers.insert(
        "sim.dispatch_events_per_s".into(),
        SIM_PAIR_EVENTS as f64 / wall.as_secs_f64(),
    );
}

fn matching(layers: &mut Layers, scenario: &NetScenario, sample: &[Publication]) {
    let all: Vec<&Subscription> = scenario
        .subscribers
        .iter()
        .map(|s| &s.subscription)
        .collect();
    let build = |subs: &[&Subscription]| {
        let owned: Vec<Subscription> = subs.iter().map(|s| (*s).clone()).collect();
        let mut matcher = BucketMatcher::new();
        let t = Instant::now();
        for s in owned {
            matcher.insert(s.id, s.filter);
        }
        let inserting = t.elapsed();
        let t = Instant::now();
        matcher.ensure_built();
        (matcher, inserting, t.elapsed())
    };
    let (full, inserting, building) = build(&all);
    let leaf_subs: Vec<&Subscription> = leaf_subscribers(scenario)
        .into_iter()
        .map(|s| &s.subscription)
        .collect();
    let (leaf, _, _) = build(&leaf_subs);
    let mut out = Vec::new();
    let mut matched = 0u64;
    let mut calls = 0u64;
    let full_ns = ns_per_call(sample.len(), |i| {
        full.matches_into(&sample[i], &mut out);
        matched += out.len() as u64;
        calls += 1;
    });
    let leaf_ns = ns_per_call(sample.len(), |i| {
        leaf.matches_into(&sample[i], &mut out);
        black_box(out.len());
    });
    layers.insert("matching.match_ns_per_pub.full".into(), full_ns);
    layers.insert("matching.match_ns_per_pub.leaf".into(), leaf_ns);
    layers.insert(
        "matching.matches_per_pub".into(),
        matched as f64 / calls.max(1) as f64,
    );
    layers.insert("matching.build_ms".into(), ms(building));
    layers.insert(
        "matching.insert_ns_per_sub".into(),
        inserting.as_nanos() as f64 / all.len().max(1) as f64,
    );
}

fn routing(layers: &mut Layers, scenario: &NetScenario, sample: &[Publication]) {
    let mut tables: RoutingTables<NodeName> = RoutingTables::new();
    for (i, p) in scenario.publishers.iter().enumerate() {
        tables.insert_advertisement(p.advertisement.clone(), i as NodeName);
    }
    let subs: Vec<Subscription> = scenario
        .subscribers
        .iter()
        .map(|s| s.subscription.clone())
        .collect();
    let count = subs.len();
    let t = Instant::now();
    for (i, s) in subs.into_iter().enumerate() {
        black_box(tables.insert_subscription(s, (1 << 20) + i as NodeName));
    }
    let inserting = t.elapsed();
    let matching = ns_per_call(sample.len(), |i| {
        black_box(tables.matching_subscriptions_mut(&sample[i]).len());
    });
    layers.insert(
        "routing.insert_ns_per_sub".into(),
        inserting.as_nanos() as f64 / count.max(1) as f64,
    );
    layers.insert("routing.match_ns_per_pub".into(), matching);
}

/// Output of one broker core during the replay: queued for whoever it
/// is addressed to.
struct QueueSink<'a> {
    me: NodeName,
    queue: &'a mut VecDeque<(NodeName, NodeName, BrokerMsg)>,
    sends: &'a mut u64,
}

impl BrokerSink<NodeName> for QueueSink<'_> {
    fn now(&self) -> SimTime {
        SimTime::ZERO
    }

    fn send(&mut self, to: NodeName, msg: BrokerMsg) {
        *self.sends += 1;
        self.queue.push_back((to, self.me, msg));
    }

    fn send_after(&mut self, _delay: SimDuration, to: NodeName, msg: BrokerMsg) {
        self.send(to, msg);
    }
}

/// The broker logic of a whole scenario with no transport under it: one
/// `BrokerCore` per broker, messages handed from core to core through a
/// queue in this thread, every `on_message` call timed. The cores end
/// up with exactly the tables the deployed brokers hold, so the time
/// summed here is the logic layer's share of the run, measured rather
/// than modelled.
struct Replay {
    cores: Vec<BrokerCore<NodeName>>,
    index: BTreeMap<NodeName, usize>,
    queue: VecDeque<(NodeName, NodeName, BrokerMsg)>,
    sends: u64,
    subscribe: (Duration, u64),
    publication: (Duration, u64),
    deliveries: u64,
}

impl Replay {
    /// First client name; broker names are their raw ids, as in
    /// `NetDeployment`.
    const CLIENT_BASE: NodeName = 1 << 32;

    fn new(scenario: &NetScenario) -> Replay {
        let mut cores: Vec<BrokerCore<NodeName>> = scenario
            .brokers
            .iter()
            .map(|c| BrokerCore::new(c.clone()))
            .collect();
        let index: BTreeMap<NodeName, usize> = scenario
            .brokers
            .iter()
            .enumerate()
            .map(|(i, c)| (c.id.raw(), i))
            .collect();
        for (a, b) in &scenario.edges {
            if let (Some(&ia), Some(&ib)) = (index.get(&a.raw()), index.get(&b.raw())) {
                cores[ia].add_broker_neighbor(b.raw());
                cores[ib].add_broker_neighbor(a.raw());
            }
        }
        Replay {
            cores,
            index,
            queue: VecDeque::new(),
            sends: 0,
            subscribe: (Duration::ZERO, 0),
            publication: (Duration::ZERO, 0),
            deliveries: 0,
        }
    }

    /// Handles queued messages until none is left.
    fn drain(&mut self) {
        while let Some((to, from, msg)) = self.queue.pop_front() {
            let Some(&i) = self.index.get(&to) else {
                // Addressed to a client: a delivery if it is a publication.
                if matches!(msg, BrokerMsg::Publication(_)) {
                    self.deliveries += 1;
                }
                continue;
            };
            let timed = match msg {
                BrokerMsg::Subscribe(_) => Some(&mut self.subscribe),
                BrokerMsg::Publication(_) => Some(&mut self.publication),
                _ => None,
            };
            let mut sink = QueueSink {
                me: to,
                queue: &mut self.queue,
                sends: &mut self.sends,
            };
            let t = Instant::now();
            self.cores[i].on_message(&mut sink, from, msg);
            if let Some((total, count)) = timed {
                *total += t.elapsed();
                *count += 1;
            }
        }
    }

    /// Control plane first, then the publications in the rounds
    /// `NetDeployment::run` sends them in.
    fn run(&mut self, scenario: &NetScenario) {
        let mut client = Self::CLIENT_BASE;
        for s in &scenario.subscribers {
            let to = s.broker.raw();
            self.queue
                .push_back((to, client, BrokerMsg::ClientHello { client: s.client }));
            self.queue
                .push_back((to, client, BrokerMsg::Subscribe(s.subscription.clone())));
            client += 1;
        }
        let first_publisher = client;
        for p in &scenario.publishers {
            let to = p.broker.raw();
            self.queue
                .push_back((to, client, BrokerMsg::ClientHello { client: p.client }));
            self.queue
                .push_back((to, client, BrokerMsg::Advertise(p.advertisement.clone())));
            client += 1;
        }
        self.drain();
        self.sends = 0;
        let rounds = scenario
            .publishers
            .iter()
            .map(|p| p.publications.len())
            .max()
            .unwrap_or(0);
        for round in 0..rounds {
            for (i, p) in scenario.publishers.iter().enumerate() {
                if let Some(publication) = p.publications.get(round) {
                    self.queue.push_back((
                        p.broker.raw(),
                        first_publisher + i as NodeName,
                        envelope(publication),
                    ));
                }
            }
            self.drain();
        }
    }
}

/// What the replay handled, for [`net_run`]'s budget and as a cross-
/// check on the deployed run's own counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct LogicTotals {
    /// Publications handled by broker cores.
    pub handled: u64,
    /// Publications that reached a subscriber.
    pub deliveries: u64,
    /// Subscribe messages handled by broker cores, forwarding hops
    /// included.
    pub subscribes: u64,
}

/// Replays the scenario's broker logic (see [`Replay`]) and writes the
/// per-message means.
fn logic(layers: &mut Layers, scenario: &NetScenario) -> LogicTotals {
    let mut replay = Replay::new(scenario);
    replay.run(scenario);
    let mean_ns = |(total, count): (Duration, u64)| total.as_nanos() as f64 / count.max(1) as f64;
    layers.insert("logic.publication_ns".into(), mean_ns(replay.publication));
    layers.insert("logic.subscribe_ns".into(), mean_ns(replay.subscribe));
    layers.insert(
        "logic.sends_per_pub".into(),
        replay.sends as f64 / replay.publication.1.max(1) as f64,
    );
    LogicTotals {
        handled: replay.publication.1,
        deliveries: replay.deliveries,
        subscribes: replay.subscribe.1,
    }
}

/// The fixed part of a data-plane wall: `run` of the scenario with no
/// publication to send — control-plane settle plus the final drain.
fn settle(layers: &mut Layers, scenario: &NetScenario, on_tcp: bool) {
    let mut idle = scenario.clone();
    for p in &mut idle.publishers {
        p.publications.clear();
    }
    fn run<T: Transport<BrokerMsg>>(transport: &mut T, idle: &NetScenario) -> Duration {
        let deployment = NetDeployment::build(transport, idle).expect("the overlay builds");
        let t = Instant::now();
        deployment
            .run(&CancelToken::never())
            .expect("an uncancelled run completes");
        t.elapsed()
    }
    let wall = if on_tcp {
        run(&mut TcpTransport::new(), &idle)
    } else {
        run(&mut SimTransport::<BrokerMsg>::new(), &idle)
    };
    layers.insert("netdeploy.settle_ms".into(), ms(wall));
}

/// The data-plane probes on a workload's own scenario. `on_tcp` says
/// which transport the workload ran on; both pair probes run either
/// way, since they take only the publications.
pub fn data_plane(
    tracer: &mut Tracer,
    scenario: &NetScenario,
    on_tcp: bool,
) -> (Layers, LogicTotals) {
    let mut layers = Layers::new();
    let sample = sample_publications(scenario);
    let msgs: Vec<BrokerMsg> = sample.iter().map(envelope).collect();
    tracer.span("probe.wire", |_| wire(&mut layers, &msgs));
    tracer.span("probe.tcp", |_| tcp_pair(&mut layers, &msgs));
    tracer.span("probe.sim", |_| sim_pair(&mut layers, &msgs));
    tracer.span("probe.matching", |_| {
        matching(&mut layers, scenario, &sample);
    });
    tracer.span("probe.routing", |_| {
        routing(&mut layers, scenario, &sample);
    });
    let totals = tracer.span("probe.logic", |_| logic(&mut layers, scenario));
    tracer.span("probe.netdeploy", |_| {
        settle(&mut layers, scenario, on_tcp);
    });
    (layers, totals)
}

/// Rows read off a finished `NetDeployment::run`: latency as the
/// lock-step driver sees it, the transport counters of a traced TCP run
/// (`snapshot`; absent otherwise), and how much of the wall the probed
/// per-unit costs explain.
///
/// The budget: every frame costs one transport send and one poll, as
/// the pair probe measured them; every publication and every
/// subscription a broker handles costs `logic.publication_ns` and
/// `logic.subscribe_ns`, the means the replay measured over the same
/// messages on the same tables. Frames are `transport.frames_sent` on
/// TCP, and messages handled plus deliveries on the simulated
/// transport. What the budget leaves unexplained is the driver's
/// scheduling.
pub fn net_run(
    layers: &mut Layers,
    report: &NetDeployReport,
    wall_s: f64,
    snapshot: &Snapshot,
    replayed: LogicTotals,
) {
    let mut all: Vec<u64> = report
        .latency_us_by_broker
        .values()
        .flatten()
        .copied()
        .collect();
    all.sort_unstable();
    let pct = |sorted: &[u64], p: f64| {
        stats::percentile_nearest_rank(sorted, p).map_or(0.0, |v| v as f64)
    };
    let tail = stats::highest_supported_percentile(all.len());
    layers.insert("netdeploy.deliver_p50_us".into(), pct(&all, 50.0));
    layers.insert("netdeploy.deliver_p99_us".into(), pct(&all, 99.0));
    layers.insert("netdeploy.deliver_tail_us".into(), pct(&all, tail));
    layers.insert("netdeploy.deliver_tail_pct".into(), tail);
    let p99_of = |samples: &Vec<u64>| {
        let mut s = samples.clone();
        s.sort_unstable();
        pct(&s, 99.0)
    };
    let mut by_broker = report
        .latency_us_by_broker
        .values()
        .filter(|v| !v.is_empty());
    let first = by_broker.next().map(p99_of);
    let last = by_broker.next_back().map(p99_of).or(first);
    let staircase = match (first, last) {
        (Some(f), Some(l)) if f > 0.0 => l / f,
        _ => 0.0,
    };
    layers.insert("netdeploy.p99_last_over_first".into(), staircase);
    layers.insert(
        "netdeploy.mean_hops".into(),
        report.mean_hops.unwrap_or(0.0),
    );

    let deliveries = report.total_delivered() as f64;
    let handled: u64 = report.broker_stats.values().map(|s| s.matched).sum();
    if (replayed.handled, replayed.deliveries) != (handled, report.total_delivered()) {
        eprintln!(
            "note: the logic replay handled {} publications and delivered {}, the run {} and {}",
            replayed.handled,
            replayed.deliveries,
            handled,
            report.total_delivered()
        );
    }
    let counter = |name: &str| snapshot.counters.get(name).copied().unwrap_or(0) as f64;
    let tcp_frames = counter("transport.frames_sent");
    let on_tcp = tcp_frames > 0.0;
    if on_tcp && deliveries > 0.0 {
        layers.insert("tcp.frames_per_delivery".into(), tcp_frames / deliveries);
        layers.insert(
            "tcp.bytes_per_delivery".into(),
            counter("transport.bytes_sent") / deliveries,
        );
        layers.insert(
            "tcp.stale_events_fenced".into(),
            counter("transport.stale_events_fenced"),
        );
    }

    let row = |name: &str| layers.get(name).copied().unwrap_or(0.0);
    let (frames, frame_ns, frame_ceiling) = if on_tcp {
        (
            tcp_frames,
            row("tcp.send_ns_per_frame") + row("tcp.poll_ns_per_frame"),
            row("tcp.pair_frames_per_s"),
        )
    } else {
        let per_s = row("sim.dispatch_events_per_s");
        let ns = if per_s > 0.0 { 1e9 / per_s } else { 0.0 };
        let messages = handled + replayed.subscribes;
        (messages as f64 + deliveries, ns, per_s)
    };
    let logic_ns = row("logic.publication_ns");
    let subscribe_ns = replayed.subscribes as f64 * row("logic.subscribe_ns");
    if wall_s <= 0.0 || deliveries == 0.0 {
        return;
    }
    let accounted_ns = frames * frame_ns + handled as f64 * logic_ns + subscribe_ns;
    // Each layer's ceiling in deliveries per second, were it alone.
    let transport_ceiling = frame_ceiling * deliveries / frames.max(1.0);
    let logic_ceiling = if logic_ns > 0.0 {
        1e9 / logic_ns * deliveries / (handled as f64).max(1.0)
    } else {
        f64::INFINITY
    };
    layers.insert(
        "netdeploy.accounted_pct".into(),
        accounted_ns / (wall_s * 1e9) * 100.0,
    );
    layers.insert(
        "netdeploy.gap_to_ceiling_x".into(),
        transport_ceiling.min(logic_ceiling) / (deliveries / wall_s),
    );
}

/// Pair kernel: `BitsetArena::pair_cardinalities` over the gathered
/// profiles' bit vectors, neighbours in insertion order.
fn kernel(layers: &mut Layers, profiles: &[&SubscriptionProfile]) {
    let mut arena = BitsetArena::new(DEFAULT_CAPACITY);
    let rows: Vec<_> = profiles
        .iter()
        .flat_map(|p| p.iter())
        .take(SAMPLE)
        .filter_map(|(_, v)| arena.try_insert(v))
        .collect();
    if rows.len() < 2 {
        return;
    }
    let ns = ns_per_call(rows.len() - 1, |i| {
        black_box(arena.pair_cardinalities(rows[i], rows[i + 1]));
    });
    layers.insert("kernel.pair_ns".into(), ns);
}

/// Poset maintenance: insert the distinct gathered profiles (the GIFs).
fn poset(layers: &mut Layers, profiles: &[&SubscriptionProfile]) {
    let gifs: BTreeSet<&SubscriptionProfile> = profiles.iter().copied().collect();
    let owned: Vec<SubscriptionProfile> = gifs.into_iter().cloned().collect();
    let count = owned.len();
    let mut poset: Poset<usize> = Poset::new();
    let t = Instant::now();
    for (k, p) in owned.into_iter().enumerate() {
        poset.insert(k, p);
    }
    let inserting = t.elapsed();
    layers.insert(
        "poset.insert_us_per_gif".into(),
        inserting.as_secs_f64() * 1e6 / count.max(1) as f64,
    );
    layers.insert("poset.relation_ops".into(), poset.relation_ops() as f64);
}

/// The control-plane probes, on what the reconfiguration gathered and
/// planned, plus the untimed measurement of the new placement.
pub fn control_plane(
    tracer: &mut Tracer,
    layers: &mut Layers,
    scenario: &Scenario,
    done: &Reconfigured,
) {
    let input = &done.input;
    let config = workloads::plan_config();
    layers.insert(
        "gather.subs_gathered".into(),
        input.subscriptions.len() as f64,
    );
    if let Some(stats) = &done.plan.cram_stats {
        layers.insert(
            "cram.closeness_computations".into(),
            stats.closeness_computations as f64,
        );
        layers.insert("cram.merges".into(), stats.merges as f64);
        layers.insert("cram.gifs".into(), stats.initial_gifs as f64);
    }
    layers.insert(
        "croc.allocated_brokers".into(),
        done.plan.broker_count() as f64,
    );
    let profiles: Vec<&SubscriptionProfile> =
        input.subscriptions.iter().map(|s| &s.profile).collect();
    tracer.span("probe.kernel", |_| kernel(layers, &profiles));
    tracer.span("probe.poset", |_| poset(layers, &profiles));
    tracer.span("probe.packing", |_| {
        let t = Instant::now();
        black_box(sorting::bin_packing(input).is_ok());
        layers.insert("packing.bin_packing_ms".into(), ms(t.elapsed()));
        let t = Instant::now();
        black_box(sorting::fbf(input, scenario.seed).is_ok());
        layers.insert("packing.fbf_ms".into(), ms(t.elapsed()));
    });
    tracer.span("probe.overlay", |_| {
        let t = Instant::now();
        let overlay = build_overlay(input, &done.plan.allocation, &config.overlay)
            .expect("the run already built this overlay");
        layers.insert("overlay.build_ms".into(), ms(t.elapsed()));
        layers.insert("overlay.depth".into(), overlay.depth() as f64);
        layers.insert("overlay.edges".into(), overlay.edges().count() as f64);
        let t = Instant::now();
        let tree = InterestTree::from_overlay(&overlay);
        black_box(place_publishers(&tree, &input.publishers, config.grape));
        layers.insert("grape.place_ms".into(), ms(t.elapsed()));
    });
    tracer.span("probe.checkpoint", |_| {
        let ctx = ReconfigContext::new();
        let cfg = workloads::run_config(scenario.seed);
        let pipeline =
            ReconfigPipeline::approach(scenario, Approach::Cram(ClosenessMetric::Ios), cfg);
        let store = pipeline
            .run_until(&ctx, PhaseKind::BuildOverlay)
            .expect("the pipeline reaches the overlay phase");
        let t = Instant::now();
        let json = store.to_json();
        layers.insert("checkpoint.to_json_ms".into(), ms(t.elapsed()));
        layers.insert("checkpoint.bytes".into(), json.len() as f64);
        let t = Instant::now();
        black_box(CheckpointStore::from_json(&json).is_ok());
        layers.insert("checkpoint.from_json_ms".into(), ms(t.elapsed()));
    });
    tracer.span("probe.measure", |_| {
        let cfg = workloads::run_config(scenario.seed);
        let metrics = MeasurePhase { scenario, cfg }
            .run(
                PlacementOut(done.placement.clone()),
                &ReconfigContext::new(),
            )
            .expect("the simulated measurement completes")
            .0;
        layers.insert(
            "measure.broker_msg_rate".into(),
            metrics.avg_broker_msg_rate,
        );
    });
}

/// Phase rows of the timed reconfiguration, from the harness spans, and
/// the share of its wall they cover.
pub fn reconfigure_spans(layers: &mut Layers, spans: &[Span]) {
    let total = trace::durations_ns(spans);
    let of = |name: &str| total.get(name).copied().unwrap_or(0) as f64;
    layers.insert("gather.wall_ms".into(), of("gather") / 1e6);
    layers.insert("cram.wall_ms".into(), of("allocate") / 1e6);
    layers.insert("deploy.placement_ms".into(), of("placement") / 1e6);
    layers.insert("deploy.net_build_ms".into(), of("net_build") / 1e6);
    let phases = [
        "gather",
        "allocate",
        "overlay_grape",
        "placement",
        "net_build",
    ];
    let covered: f64 = phases.iter().map(|p| of(p)).sum();
    if of("reconfigure") > 0.0 {
        layers.insert(
            "reconfigure.accounted_pct".into(),
            covered / of("reconfigure") * 100.0,
        );
    }
}

/// Every [`PER_LAYER`] row in order, 0 where `layers` has none (or
/// nothing finite, which JSON could not carry).
pub fn complete(layers: &Layers) -> Vec<(&'static str, &'static str, f64)> {
    PER_LAYER
        .iter()
        .map(|(name, unit, _)| {
            let value = layers.get(*name).copied().filter(|v| v.is_finite());
            (*name, *unit, value.unwrap_or(0.0))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_is_round_robin_and_bounded() {
        let scenario = workloads::manual_scenario(1, 100, 200);
        let sample = sample_publications(&scenario);
        assert_eq!(sample.len(), SAMPLE);
        assert_ne!(sample[0].adv_id, sample[1].adv_id);
        let small = workloads::manual_scenario(1, 100, 1);
        assert_eq!(sample_publications(&small).len(), 40);
    }

    #[test]
    fn every_row_a_probe_writes_is_declared() {
        let declared: BTreeSet<&str> = PER_LAYER.iter().map(|r| r.0).collect();
        assert_eq!(declared.len(), PER_LAYER.len(), "row names are unique");
        let size = workloads::Size::QUICK;
        let rep = workloads::run_rep(workloads::Workload::Reconfigure, 9, &size, true);
        for name in rep.layers.keys() {
            assert!(declared.contains(name.as_str()), "undeclared row {name}");
        }
        assert!(rep.layers["reconfigure.accounted_pct"] >= 90.0);
        assert!(rep.layers["cram.closeness_computations"] > 0.0);
        assert!(rep.layers["netdeploy.accounted_pct"] > 0.0);
        assert_eq!(rep.layers.get("tcp.frames_per_delivery"), None);
        assert_eq!(complete(&rep.layers).len(), PER_LAYER.len());
        // The spans nest: every phase sits under `reconfigure`.
        let own = trace::self_times_ns(&rep.spans);
        assert!(own.contains_key("gather") && own.contains_key("reconfigure"));
    }
}
