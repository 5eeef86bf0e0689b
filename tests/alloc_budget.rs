//! Allocation budgets of the per-publication paths, counted.
//!
//! What a broker pays per publication — matching delay and output
//! bandwidth (paper §III) — is what the green allocation minimises, so
//! the per-publication paths must not allocate in steady state. This
//! binary swaps in a global allocator that counts every `alloc` and
//! `realloc` of the calling thread (test threads run in parallel), and
//! asserts the exact count of each call after a warm-up on the same
//! input (DESIGN.md §9). Inputs are the stock scenarios of
//! `ScenarioBuilder` over several seeds.
//!
//! The counter is the tree's only `unsafe impl`; it lives here, in a
//! test binary, so every shipped crate keeps `forbid(unsafe_code)`.

use greenps::broker::{BrokerCore, BrokerMsg, BrokerSink, PubEnvelope};
use greenps::core::pipeline::{CancelToken, ReconfigContext};
use greenps::profile::{ArenaKernel, BitsetArena, SubscriptionProfile};
use greenps::pubsub::filter::stock_advertisement;
use greenps::pubsub::routing::RoutingTables;
use greenps::pubsub::{
    AdvId, BucketMatcher, Filter, Matcher, MsgId, Publication, SubId, Subscription,
};
use greenps::simnet::{SimDuration, SimTime};
use greenps::telemetry::{names, Registry, Span};
use greenps::workload::{Scenario, ScenarioBuilder, Topology};
use greenps_net::{decode_exact, Endpoint, NetEvent, TcpTransport, Transport, Wire};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;
use std::time::Duration;

/// Delegates to [`System`], counting allocations per thread.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // A `const` thread-local without a destructor is reachable for the
    // whole life of its thread, so this never fails in practice; if it
    // did, an uncounted allocation could only hide a cost, never
    // invent one.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's
// arguments unchanged; counting touches only a thread-local `Cell`.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: forwarded from the caller's contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: forwarded from the caller's contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: forwarded from the caller's contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded from the caller's contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Allocations this thread made while running `f`.
fn allocations<R>(f: impl FnOnce() -> R) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    black_box(f());
    ALLOCATIONS.with(Cell::get) - before
}

/// Allocations of the second of two calls: the first warms up.
fn per_call<R>(mut f: impl FnMut() -> R) -> u64 {
    black_box(f());
    allocations(f)
}

const SEEDS: [u64; 3] = [3, 17, 2011];

/// Messages per publisher in a pass. The stock series repeats every
/// [`DAYS`] message ids, so a second pass at `DAYS + msg` carries the
/// same contents under fresh ids.
const PASS: u64 = 12;
const DAYS: u64 = 252;

fn scenario(seed: u64) -> Scenario {
    ScenarioBuilder::new(Topology::Homogeneous)
        .total_subs(200)
        .seed(seed)
        .build()
}

fn adv_of(publisher: usize) -> AdvId {
    AdvId::new(publisher as u64 + 1)
}

fn advertisements(s: &Scenario) -> Vec<Filter> {
    s.stocks
        .iter()
        .map(|stock| stock_advertisement(&stock.symbol))
        .collect()
}

/// `PASS` publications of every publisher, starting at message `from`.
fn publications(s: &Scenario, from: u64) -> Vec<Publication> {
    s.stocks
        .iter()
        .enumerate()
        .flat_map(|(i, stock)| {
            (from..from + PASS).map(move |m| stock.publication(adv_of(i), MsgId::new(m)))
        })
        .collect()
}

/// A built publication's envelope and the same envelope as a broker
/// receives it off the wire.
fn built_and_received(publication: &Publication) -> [PubEnvelope; 2] {
    let built = PubEnvelope::new(publication.clone(), SimTime::from_micros(5));
    let mut frame = Vec::new();
    BrokerMsg::Publication(built.clone()).encode(&mut frame);
    let Ok(BrokerMsg::Publication(received)) = decode_exact::<BrokerMsg>(&frame) else {
        panic!("a publication frame decodes as one");
    };
    [built, received]
}

#[test]
fn counter_sees_an_allocation_llvm_cannot_elide() {
    assert_eq!(allocations(|| black_box(Vec::<u8>::with_capacity(8))), 1);
    assert_eq!(allocations(|| black_box(0u8)), 0);
}

#[test]
fn routing_walk_allocates_nothing() {
    for seed in SEEDS {
        let s = scenario(seed);
        let mut tables: RoutingTables<u32> = RoutingTables::new();
        for (i, adv) in advertisements(&s).into_iter().enumerate() {
            tables.insert_advertisement(greenps::pubsub::Advertisement::new(adv_of(i), adv), 0);
        }
        // Four hops; hop 1 is a client, so it reports every match.
        for (k, sub) in s.subs.iter().enumerate() {
            tables.insert_subscription(
                Subscription::new(sub.id, sub.filter.clone()),
                1 + (k % 4) as u32,
            );
        }
        let mut out = Vec::with_capacity(s.subs.len());
        let mut client_matches = 0u64;
        let mut routed = 0;
        for publication in publications(&s, 0) {
            let n = per_call(|| {
                tables.route_into(
                    &publication,
                    Some(&0),
                    |hop| *hop == 1,
                    |_| client_matches += 1,
                    &mut out,
                );
            });
            assert_eq!(n, 0, "seed {seed}: route_into allocated {n} times");
            routed += out.len();
        }
        assert!(routed > 0, "seed {seed}: nothing was routed");
        assert!(client_matches > 0, "seed {seed}: no client match");
    }
}

#[test]
fn bucket_matcher_matches_into_allocates_nothing() {
    for seed in SEEDS {
        let s = scenario(seed);
        let mut matcher = BucketMatcher::new();
        for sub in &s.subs {
            matcher.insert(sub.id, sub.filter.clone());
        }
        matcher.ensure_built();
        let mut out: Vec<SubId> = Vec::with_capacity(s.subs.len());
        let mut matched = 0;
        for publication in publications(&s, 0) {
            let n = per_call(|| matcher.matches_into(&publication, &mut out));
            assert_eq!(n, 0, "seed {seed}: matches_into allocated {n} times");
            matched += out.len();
        }
        assert!(matched > 0, "seed {seed}: nothing matched");
    }
}

#[test]
fn intersects_advertisement_allocates_nothing() {
    for seed in SEEDS {
        let s = scenario(seed);
        let advs = advertisements(&s);
        let mut hits = 0;
        for sub in &s.subs {
            for adv in &advs {
                let mut hit = false;
                let n = per_call(|| hit = sub.filter.intersects_advertisement(adv));
                assert_eq!(n, 0, "seed {seed}: intersects_advertisement allocated");
                hits += usize::from(hit);
            }
        }
        assert!(
            hits >= s.subs.len(),
            "seed {seed}: every sub has its publisher"
        );
    }
}

#[test]
fn publication_get_allocates_nothing() {
    for seed in SEEDS {
        let s = scenario(seed);
        for publication in publications(&s, 0) {
            let names: Vec<String> = publication.iter().map(|(a, _)| a.to_string()).collect();
            for name in names.iter().map(String::as_str).chain(["absent"]) {
                let n = per_call(|| publication.get(name).is_some());
                assert_eq!(n, 0, "seed {seed}: get({name}) allocated");
            }
        }
    }
}

/// Each subscription's profile over one pass of its scenario.
fn profiles(s: &Scenario) -> Vec<SubscriptionProfile> {
    let pubs = publications(s, 0);
    s.subs
        .iter()
        .map(|sub| {
            let mut profile = SubscriptionProfile::new();
            for p in pubs.iter().filter(|p| sub.filter.matches(p)) {
                profile.record(p.adv_id, p.msg_id);
            }
            profile
        })
        .collect()
}

#[test]
fn pair_kernels_allocate_nothing() {
    for seed in SEEDS {
        let s = scenario(seed);
        let profiles = profiles(&s);
        let mut kernel = ArenaKernel::new(greenps::profile::DEFAULT_CAPACITY);
        let mut arena = BitsetArena::new(greenps::profile::DEFAULT_CAPACITY);
        let mut rows = Vec::new();
        for (key, profile) in profiles.iter().enumerate() {
            kernel.insert(key as u64, profile);
            for (_, vector) in profile.iter() {
                rows.push(
                    arena
                        .try_insert(vector)
                        .expect("a window fits its own stride"),
                );
            }
        }
        let keys = profiles.len() as u64;
        let mut shared = 0;
        for a in (0..keys).step_by(7) {
            for b in 0..keys {
                let mut both = 0;
                let n = per_call(|| both = kernel.pair_cardinalities(a, b).and);
                assert_eq!(n, 0, "seed {seed}: ArenaKernel pair allocated");
                shared += both;
            }
        }
        assert!(shared > 0, "seed {seed}: no two profiles share a bit");
        for &a in rows.iter().step_by(7) {
            for &b in &rows {
                let n = per_call(|| arena.pair_cardinalities(a, b));
                assert_eq!(n, 0, "seed {seed}: BitsetArena pair allocated");
            }
        }
    }
}

#[test]
fn hopped_envelope_allocates_nothing() {
    for seed in SEEDS {
        for publication in publications(&scenario(seed), 0) {
            for envelope in built_and_received(&publication) {
                assert_eq!(per_call(|| envelope.hopped()), 0, "seed {seed}");
            }
        }
    }
}

#[test]
fn cancel_polls_allocate_nothing() {
    let token = CancelToken::new();
    let ctx = ReconfigContext::new();
    assert_eq!(per_call(|| token.is_cancelled_hot()), 0);
    assert_eq!(per_call(|| ctx.is_cancelled_hot()), 0);
    ctx.cancel();
    assert_eq!(per_call(|| ctx.is_cancelled_hot()), 0);
}

/// Record sites look their instrument up by name on every run: once a
/// name is registered, a lookup of each kind and a span's enter and
/// finish copy no key and allocate nothing.
#[test]
fn telemetry_lookups_by_a_registered_name_allocate_nothing() {
    let registry = Registry::new();
    assert_eq!(per_call(|| registry.counter(&names::CRAM_MERGES)), 0);
    assert_eq!(
        per_call(|| registry.gauge(&names::PAIR_CACHE_HIT_RATE_PCT)),
        0
    );
    assert_eq!(
        per_call(|| registry.histogram(&names::SIMNET_DELIVERY_DELAY_US)),
        0
    );
    assert_eq!(per_call(|| registry.ring(&names::CRAM_RING)), 0);
    assert_eq!(
        per_call(|| Span::enter(&registry, &names::PHASE2_ALLOCATION).finish()),
        0
    );
}

#[test]
fn encode_into_a_reserved_buffer_allocates_nothing() {
    for seed in SEEDS {
        let mut out = Vec::with_capacity(4096);
        for publication in publications(&scenario(seed), 0) {
            for envelope in built_and_received(&publication) {
                let msg = BrokerMsg::Publication(envelope);
                let n = per_call(|| {
                    out.clear();
                    msg.encode(&mut out);
                });
                assert_eq!(n, 0, "seed {seed}: encode allocated");
            }
        }
    }
}

#[test]
fn tcp_enqueue_allocates_nothing_in_steady_state() {
    let mut transport = TcpTransport::new();
    let mut a = Transport::<BrokerMsg>::open(&mut transport, 1).expect("open 1");
    let mut b = Transport::<BrokerMsg>::open(&mut transport, 2).expect("open 2");
    let peer = a.connect(&b.addr()).expect("connect");
    let msgs: Vec<BrokerMsg> = SEEDS
        .iter()
        .flat_map(|&seed| publications(&scenario(seed), 0))
        .flat_map(|p| built_and_received(&p))
        .map(BrokerMsg::Publication)
        .collect();
    // Steady state: the connection's write buffer has grown to a frame.
    for msg in &msgs {
        a.enqueue(peer, msg).expect("enqueue");
        a.flush().expect("flush");
    }
    for msg in &msgs {
        let n = allocations(|| a.enqueue(peer, msg).is_ok());
        assert_eq!(n, 0, "enqueue allocated {n} times");
        a.flush().expect("flush");
    }
    // `poll` may come back empty before its wait is up; give up only
    // after a run of empty polls (about ten seconds).
    let (mut delivered, mut idle) = (0, 0);
    while delivered < 2 * msgs.len() {
        match b.poll(Duration::from_millis(100)) {
            Some(NetEvent::Msg { .. }) => (delivered, idle) = (delivered + 1, 0),
            Some(_) => {}
            None if idle < 100 => idle += 1,
            None => panic!("{delivered} of {} frames arrived", 2 * msgs.len()),
        }
    }
    a.shutdown();
    b.shutdown();
}

/// Records what a broker sends into storage reserved up front.
struct ReservedSink {
    sent: Vec<(u32, BrokerMsg)>,
}

impl BrokerSink<u32> for ReservedSink {
    fn now(&self) -> SimTime {
        SimTime::from_micros(1_000)
    }
    fn send(&mut self, to: u32, msg: BrokerMsg) {
        self.sent.push((to, msg));
    }
    fn send_after(&mut self, _delay: SimDuration, to: u32, msg: BrokerMsg) {
        self.sent.push((to, msg));
    }
}

const PUBLISHER: u32 = 1;
const NEIGHBOUR: u32 = 2;

/// A broker with every publisher attached as client [`PUBLISHER`], a
/// neighbour broker and four subscriber clients, each holding a share
/// of the scenario's subscriptions.
fn broker(s: &Scenario) -> BrokerCore<u32> {
    let mut core = BrokerCore::new(s.brokers[0].clone());
    let mut sink = ReservedSink { sent: Vec::new() };
    core.add_broker_neighbor(NEIGHBOUR);
    for client in [PUBLISHER, 10, 11, 12, 13] {
        let hello = BrokerMsg::ClientHello {
            client: greenps::pubsub::ClientId::new(u64::from(client)),
        };
        core.on_message(&mut sink, client, hello);
    }
    for (i, adv) in advertisements(s).into_iter().enumerate() {
        let adv = greenps::pubsub::Advertisement::new(adv_of(i), adv);
        core.on_message(&mut sink, PUBLISHER, BrokerMsg::Advertise(adv));
    }
    for (k, sub) in s.subs.iter().enumerate() {
        let from = if k % 5 == 0 {
            NEIGHBOUR
        } else {
            10 + (k % 4) as u32
        };
        let sub = Subscription::new(sub.id, sub.filter.clone());
        core.on_message(&mut sink, from, BrokerMsg::Subscribe(sub));
    }
    core
}

/// `BrokerCore::on_message` over a steady-state pass: a first pass
/// starts every CBC profile and per-publisher record, the measured pass
/// repeats its contents under fresh ids. A built publication allocates
/// nothing. A received one is decoded where it is matched: its values,
/// its body and one string per string value, nothing else.
#[test]
fn broker_on_message_pays_only_a_received_publications_decode() {
    for (seed, received) in SEEDS.into_iter().flat_map(|s| [(s, false), (s, true)]) {
        let s = scenario(seed);
        let mut core = broker(&s);
        let mut sink = ReservedSink {
            sent: Vec::with_capacity(64),
        };
        let envelope = |p: &Publication| built_and_received(p)[usize::from(received)].clone();
        for p in publications(&s, 0) {
            core.on_message(&mut sink, PUBLISHER, BrokerMsg::Publication(envelope(&p)));
            sink.sent.clear();
        }
        let mut forwarded = 0;
        for p in publications(&s, DAYS) {
            let strings = p
                .iter()
                .filter(|(_, v)| matches!(v, greenps::pubsub::Value::Str(_)))
                .count() as u64;
            let msg = BrokerMsg::Publication(envelope(&p));
            let n = allocations(|| core.on_message(&mut sink, PUBLISHER, msg));
            let budget = if received { 2 + strings } else { 0 };
            assert_eq!(n, budget, "seed {seed}, received {received}");
            forwarded += sink.sent.len();
            sink.sent.clear();
        }
        assert!(forwarded > 0, "seed {seed}: nothing was forwarded");
    }
}
