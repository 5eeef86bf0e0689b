//! Property-based tests of the content-based language: overlap
//! soundness against sampled publications, matcher agreement,
//! the routing index against the naive matcher (deliveries and send
//! order), and parser round-trips.

use greenps_pubsub::filter::Filter;
use greenps_pubsub::ids::{AdvId, MsgId, SubId};
use greenps_pubsub::matching::{BucketMatcher, Matcher, NaiveMatcher};
use greenps_pubsub::message::{Advertisement, Publication, Subscription};
use greenps_pubsub::parser::parse_filter;
use greenps_pubsub::predicate::{Op, Predicate};
use greenps_pubsub::routing::{Forward, RoutingTables};
use greenps_pubsub::value::Value;
use proptest::prelude::*;
use std::collections::BTreeMap;

const ATTRS: [&str; 4] = ["w", "x", "y", "z"];
const SYMBOLS: [&str; 3] = ["AAA", "BBB", "CCC"];

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        (-20i64..20).prop_map(Value::Int),
        (-20.0f64..20.0).prop_map(|f| Value::Float((f * 4.0).round() / 4.0)),
        proptest::sample::select(SYMBOLS.to_vec()).prop_map(Value::str),
        any::<bool>().prop_map(Value::Bool),
    ]
}

/// Numbers whose equality is not the equality of their spelling: the
/// two zeros, and `i64::MAX` against the float it rounds to.
fn arb_edge_number() -> impl Strategy<Value = Value> {
    proptest::sample::select(vec![
        Value::Float(0.0),
        Value::Float(-0.0),
        Value::Int(0),
        Value::Int(i64::MAX),
        Value::Int(i64::MAX - 1),
        Value::Float(i64::MAX as f64),
    ])
}

fn arb_predicate() -> impl Strategy<Value = Predicate> {
    arb_predicate_over(arb_value())
}

fn arb_predicate_over(value: impl Strategy<Value = Value>) -> impl Strategy<Value = Predicate> {
    (
        proptest::sample::select(ATTRS.to_vec()),
        proptest::sample::select(vec![
            Op::Eq,
            Op::Neq,
            Op::Lt,
            Op::Le,
            Op::Gt,
            Op::Ge,
            Op::Present,
        ]),
        value,
    )
        .prop_map(|(attr, op, value)| Predicate {
            attr: attr.to_string(),
            op,
            value,
        })
}

fn arb_filter() -> impl Strategy<Value = Filter> {
    proptest::collection::vec(arb_predicate(), 0..4).prop_map(Filter::from_predicates)
}

fn arb_publication() -> impl Strategy<Value = Publication> {
    arb_publication_over(arb_value())
}

fn arb_publication_over(value: impl Strategy<Value = Value>) -> impl Strategy<Value = Publication> {
    proptest::collection::vec((proptest::sample::select(ATTRS.to_vec()), value), 0..5).prop_map(
        |attrs| {
            let mut b = Publication::builder(AdvId::new(1), MsgId::new(0));
            for (a, v) in attrs {
                b = b.attr(a, v);
            }
            b.build()
        },
    )
}

/// One step against a broker's routing tables.
#[derive(Debug, Clone)]
enum Step {
    /// (Re-)insert subscription `id` arriving from `hop`.
    Insert {
        id: u64,
        filter: Filter,
        hop: u8,
    },
    Remove {
        id: u64,
    },
    /// Route a publication arriving from `from` (`None`: from nowhere).
    Route {
        publication: Publication,
        from: Option<u8>,
    },
}

const HOPS: u8 = 5;

fn arb_step() -> impl Strategy<Value = Step> {
    let value = || prop_oneof![arb_value(), arb_edge_number()];
    let filter = proptest::collection::vec(arb_predicate_over(value()), 0..4)
        .prop_map(Filter::from_predicates);
    prop_oneof![
        (0u64..12, filter, 0..HOPS).prop_map(|(id, filter, hop)| Step::Insert { id, filter, hop }),
        (0u64..12).prop_map(|id| Step::Remove { id }),
        (arb_publication_over(value()), 0..HOPS + 1).prop_map(|(publication, from)| Step::Route {
            publication,
            from: (from < HOPS).then_some(from),
        }),
    ]
}

/// The intersection test as it reads without a summary: every
/// attribute the subscription constrains is declared, and no two
/// predicates on one attribute are disjoint.
fn intersects_reference(sub: &Filter, adv: &Filter) -> bool {
    let (sub, adv) = (sub.predicates(), adv.predicates());
    sub.iter().all(|p| adv.iter().any(|q| q.attr == p.attr))
        && sub
            .iter()
            .all(|p| adv.iter().all(|q| p.attr != q.attr || p.overlaps(q)))
}

/// Filters of up to eight predicates, so more equality predicates than
/// a summary fingerprints, over the edge numbers and every domain, on
/// four names (repeats are common), built whole, predicate by
/// predicate or in two runs.
fn arb_summarised_filter() -> impl Strategy<Value = Filter> {
    let value = || prop_oneof![arb_value(), arb_edge_number()];
    let eq = (proptest::sample::select(ATTRS.to_vec()), value())
        .prop_map(|(attr, value)| Predicate::eq(attr, value));
    (
        proptest::collection::vec(prop_oneof![arb_predicate_over(value()), eq], 0..9),
        0u8..3,
        0usize..9,
    )
        .prop_map(|(preds, build, split)| match build {
            0 => Filter::from_predicates(preds),
            1 => preds.into_iter().fold(Filter::new(), Filter::and),
            _ => {
                let mut f: Filter = preds.iter().take(split).cloned().collect();
                f.extend(preds.into_iter().skip(split));
                f
            }
        })
}

/// One step against a broker's subscription and advertisement tables.
#[derive(Debug, Clone)]
enum ControlStep {
    Subscribe { id: u64, filter: Filter, hop: u8 },
    Unsubscribe { id: u64 },
    Advertise { id: u64, filter: Filter, hop: u8 },
}

fn arb_control_step() -> impl Strategy<Value = ControlStep> {
    prop_oneof![
        (0u64..10, arb_summarised_filter(), 0..HOPS)
            .prop_map(|(id, filter, hop)| ControlStep::Subscribe { id, filter, hop }),
        (0u64..10).prop_map(|id| ControlStep::Unsubscribe { id }),
        (0u64..10, arb_summarised_filter(), 0..HOPS)
            .prop_map(|(id, filter, hop)| ControlStep::Advertise { id, filter, hop }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// The summary never changes an answer: `intersects_advertisement`
    /// equals the reference test on every pair.
    #[test]
    fn summary_rejection_agrees_with_the_exact_test(
        adv in arb_summarised_filter(),
        subs in proptest::collection::vec(arb_summarised_filter(), 1..8),
    ) {
        for sub in &subs {
            prop_assert_eq!(
                sub.intersects_advertisement(&adv),
                intersects_reference(sub, &adv),
                "{} against {}", sub, adv
            );
        }
    }
}

proptest! {
    /// Advertisements before and after subscriptions: what
    /// `insert_subscription` forwards and `subscriptions_toward` lists
    /// equal, in order, a naive reference over the reference
    /// intersection test; and every subscription reaches every hop an
    /// intersecting advertisement came from, other than its own,
    /// exactly once per version of it.
    #[test]
    fn subscription_forwards_match_a_naive_reference_whatever_arrives_first(
        steps in proptest::collection::vec(arb_control_step(), 0..40),
    ) {
        let mut tables: RoutingTables<u8> = RoutingTables::new();
        let mut advs: BTreeMap<AdvId, (Filter, u8)> = BTreeMap::new();
        let mut subs: BTreeMap<SubId, (Filter, u8)> = BTreeMap::new();
        let mut sent: BTreeMap<SubId, Vec<u8>> = BTreeMap::new();
        for step in steps {
            match step {
                ControlStep::Subscribe { id, filter, hop } => {
                    let id = SubId::new(id);
                    let mut want: Vec<u8> = Vec::new();
                    for (adv, adv_hop) in advs.values() {
                        if *adv_hop != hop && intersects_reference(&filter, adv) && !want.contains(adv_hop) {
                            want.push(*adv_hop);
                        }
                    }
                    let got = tables.insert_subscription(Subscription::new(id, filter.clone()), hop);
                    prop_assert_eq!(&got, &want, "forwards of {}", filter);
                    subs.insert(id, (filter, hop));
                    sent.insert(id, got);
                }
                ControlStep::Unsubscribe { id } => {
                    let id = SubId::new(id);
                    prop_assert_eq!(tables.remove_subscription(id), subs.remove(&id).map(|(_, h)| h));
                    sent.remove(&id);
                }
                ControlStep::Advertise { id, filter, hop } => {
                    let adv = Advertisement::new(AdvId::new(id), filter.clone());
                    let new = !advs.contains_key(&adv.id);
                    prop_assert_eq!(tables.insert_advertisement(adv.clone(), hop), new);
                    if !new {
                        continue;
                    }
                    let want: Vec<SubId> = subs
                        .iter()
                        .filter(|(_, (sub, sub_hop))| {
                            *sub_hop != hop
                                && intersects_reference(sub, &filter)
                                && !advs.values().any(|(other, other_hop)| {
                                    *other_hop == hop && intersects_reference(sub, other)
                                })
                        })
                        .map(|(&id, _)| id)
                        .collect();
                    let got = tables.subscriptions_toward(&adv, &hop);
                    prop_assert_eq!(&got, &want, "toward {}", filter);
                    for id in got {
                        sent.entry(id).or_default().push(hop);
                    }
                    advs.insert(adv.id, (filter, hop));
                }
            }
            for (id, (sub, sub_hop)) in &subs {
                let mut need: Vec<u8> = advs
                    .values()
                    .filter(|(adv, adv_hop)| adv_hop != sub_hop && intersects_reference(sub, adv))
                    .map(|&(_, hop)| hop)
                    .collect();
                need.sort_unstable();
                need.dedup();
                let mut got = sent.get(id).cloned().unwrap_or_default();
                got.sort_unstable();
                prop_assert_eq!(&got, &need, "hops {} was sent to", id.raw());
            }
        }
    }

    /// Overlap soundness: a publication matching both filters implies
    /// `overlaps` returned true (never a false "disjoint").
    #[test]
    fn overlaps_is_sound(
        a in arb_filter(),
        b in arb_filter(),
        pubs in proptest::collection::vec(arb_publication(), 0..40),
    ) {
        if !a.overlaps(&b) {
            for p in &pubs {
                prop_assert!(
                    !(a.matches(p) && b.matches(p)),
                    "{a} and {b} claimed disjoint but {p} matches both"
                );
            }
        }
    }

    /// The routing index against the naive matcher, through any
    /// interleaving of inserts, re-inserts (new filter, new hop),
    /// removals and publications: client hops are told exactly the
    /// naive match set of their subscriptions, and the forward list is
    /// — in order — the distinct hops other than `from` by ascending
    /// lowest matching `SubId`, which is the order a broker that fully
    /// matched and walked the matches by id would send in.
    #[test]
    fn routing_index_delivers_and_orders_like_a_full_match(
        steps in proptest::collection::vec(arb_step(), 0..60),
        clients in 0u8..32,
    ) {
        let is_client = |hop: &u8| clients & (1 << hop) != 0;
        let mut tables: RoutingTables<u8> = RoutingTables::new();
        let mut bucket = BucketMatcher::new();
        let mut naive = NaiveMatcher::new();
        let mut hop_of: BTreeMap<SubId, u8> = BTreeMap::new();
        let mut forwards = Vec::new();
        for step in steps {
            match step {
                Step::Insert { id, filter, hop } => {
                    let id = SubId::new(id);
                    tables.insert_subscription(Subscription::new(id, filter.clone()), hop);
                    bucket.insert(id, filter.clone());
                    naive.insert(id, filter);
                    hop_of.insert(id, hop);
                    prop_assert_eq!(bucket.len(), naive.len());
                }
                Step::Remove { id } => {
                    let id = SubId::new(id);
                    prop_assert_eq!(tables.remove_subscription(id), hop_of.remove(&id));
                    prop_assert_eq!(bucket.remove(id), naive.remove(id));
                    prop_assert_eq!(bucket.len(), naive.len());
                }
                Step::Route { publication, from } => {
                    let matching = naive.matches(&publication);
                    prop_assert_eq!(&bucket.matches(&publication), &matching, "stale, on {}", publication);
                    prop_assert_eq!(&bucket.matches_mut(&publication), &matching, "on {}", publication);
                    let mut want_told = Vec::new();
                    let mut want: Vec<Forward<u8>> = Vec::new();
                    for &witness in &matching {
                        let hop = hop_of[&witness];
                        if Some(hop) == from {
                            continue;
                        }
                        let client = is_client(&hop);
                        if client {
                            want_told.push(witness);
                        }
                        if want.iter().all(|f| f.hop != hop) {
                            want.push(Forward { hop, witness, client });
                        }
                    }
                    let mut told = Vec::new();
                    tables.route_into(
                        &publication,
                        from.as_ref(),
                        is_client,
                        |id| told.push(id),
                        &mut forwards,
                    );
                    told.sort_unstable();
                    prop_assert_eq!(&told, &want_told, "client matches on {}", publication);
                    prop_assert_eq!(&forwards, &want, "forwards on {} from {:?}", publication, from);
                }
            }
        }
    }

    /// Any filter survives a display → parse round trip.
    #[test]
    fn parser_round_trips(filter in arb_filter()) {
        if filter.is_empty() {
            return Ok(()); // empty filters have no textual form
        }
        let text = filter.to_string();
        let parsed = parse_filter(&text).unwrap();
        prop_assert_eq!(&parsed, &filter, "text: {}", text);
    }

    /// Canonical keys are equal exactly for permutation-equal filters.
    #[test]
    fn canonical_key_is_permutation_invariant(
        preds in proptest::collection::vec(arb_predicate(), 1..4),
        seed in 0usize..24,
    ) {
        let f1 = Filter::from_predicates(preds.clone());
        let mut rotated = preds.clone();
        rotated.rotate_left(seed % preds.len());
        let f2 = Filter::from_predicates(rotated);
        prop_assert_eq!(f1.canonical_key(), f2.canonical_key());
    }
}
