//! Property tests of the broker wire codec: every [`BrokerMsg`]
//! variant must survive encode → decode → re-encode with the re-encoded
//! bytes identical to the original (byte stability), for arbitrary
//! filters, publications, profiles and gathered BIA payloads.

#![expect(
    clippy::disallowed_methods,
    reason = "a deadline bounds how long the hostile-peer test waits on a real socket; no output depends on the clock"
)]

use greenps_broker::messages::{BrokerMsg, GatheredBroker, PubEnvelope};
use greenps_broker::wire::read_publication;
use greenps_core::model::{BrokerSpec, LinearFn, SubscriptionEntry};
use greenps_net::frame::{write_hello, Hello, HELLO_LEN};
use greenps_net::wire::{put_f64, put_i64, put_seq_len, put_str, put_u32, put_u64, put_u8};
use greenps_net::{
    decode_exact, Endpoint, EndpointAddr, NetEvent, TcpTransport, Transport, Wire, WireError,
    WireReader,
};
use greenps_profile::{PublisherProfile, ShiftingBitVector, SubscriptionProfile};
use greenps_pubsub::filter::Filter;
use greenps_pubsub::ids::{AdvId, BrokerId, ClientId, MsgId, SubId};
use greenps_pubsub::message::{Advertisement, Publication, Subscription};
use greenps_pubsub::predicate::{Op, Predicate};
use greenps_pubsub::value::Value;
use greenps_simnet::SimTime;
use greenps_telemetry::Registry;
use proptest::prelude::*;
use std::borrow::Cow;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

const ATTRS: [&str; 4] = ["class", "symbol", "low", "volume"];
const SYMBOLS: [&str; 3] = ["YHOO", "GOOG", "AAPL"];

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        (-1000i64..1000).prop_map(Value::Int),
        (-100.0f64..100.0).prop_map(Value::Float),
        proptest::sample::select(SYMBOLS.to_vec()).prop_map(Value::str),
        any::<bool>().prop_map(Value::Bool),
    ]
}

fn arb_op() -> impl Strategy<Value = Op> {
    proptest::sample::select(vec![
        Op::Eq,
        Op::Neq,
        Op::Lt,
        Op::Le,
        Op::Gt,
        Op::Ge,
        Op::Prefix,
        Op::Suffix,
        Op::Contains,
        Op::Present,
    ])
}

fn arb_filter() -> impl Strategy<Value = Filter> {
    proptest::collection::vec(
        (
            proptest::sample::select(ATTRS.to_vec()),
            arb_op(),
            arb_value(),
        )
            .prop_map(|(attr, op, value)| Predicate::new(attr, op, value)),
        0..4,
    )
    .prop_map(Filter::from_predicates)
}

fn arb_publication() -> impl Strategy<Value = Publication> {
    (
        0u64..100,
        0u64..1000,
        proptest::collection::vec(
            (proptest::sample::select(ATTRS.to_vec()), arb_value()),
            0..5,
        ),
    )
        .prop_map(|(adv, msg, attrs)| {
            let mut b = Publication::builder(AdvId::new(adv), MsgId::new(msg));
            for (a, v) in attrs {
                b = b.attr(a, v);
            }
            b.build()
        })
}

fn arb_profile() -> impl Strategy<Value = SubscriptionProfile> {
    proptest::collection::vec(
        (0u64..4, proptest::collection::vec(0u64..2000, 0..12)),
        0..4,
    )
    .prop_map(|advs| {
        let mut p = SubscriptionProfile::with_capacity(64);
        for (adv, msgs) in advs {
            for m in msgs {
                p.record(AdvId::new(adv), MsgId::new(m));
            }
        }
        p
    })
}

fn arb_gathered() -> impl Strategy<Value = GatheredBroker> {
    (
        0u64..50,
        proptest::sample::select(vec!["", "sim://b0", "tcp://127.0.0.1:7000", "broker-url"]),
        (0.0f64..2.0, 0.0f64..2.0, 0.0f64..1e9),
        proptest::collection::vec((0u64..100, arb_filter(), arb_profile()), 0..3),
        proptest::collection::vec((0u64..100, 0.0f64..500.0, 0.0f64..1e6, 0u64..1000), 0..3),
    )
        .prop_map(
            |(id, url, (base, per_sub, bw), subs, pubs)| GatheredBroker {
                spec: BrokerSpec::new(
                    greenps_pubsub::ids::BrokerId::new(id),
                    url,
                    LinearFn::new(base, per_sub),
                    bw,
                ),
                subscriptions: subs
                    .into_iter()
                    .map(|(s, f, p)| SubscriptionEntry::new(SubId::new(s), f, p))
                    .collect(),
                publishers: pubs
                    .into_iter()
                    .map(|(adv, rate, bw, last)| {
                        PublisherProfile::new(AdvId::new(adv), rate, bw, MsgId::new(last))
                    })
                    .collect(),
            },
        )
}

fn arb_msg() -> impl Strategy<Value = BrokerMsg> {
    prop_oneof![
        (0u64..1000).prop_map(|c| BrokerMsg::ClientHello {
            client: ClientId::new(c)
        }),
        (0u64..100, arb_filter())
            .prop_map(|(id, f)| BrokerMsg::Advertise(Advertisement::new(AdvId::new(id), f))),
        (0u64..100).prop_map(|id| BrokerMsg::Unadvertise(AdvId::new(id))),
        (0u64..100, arb_filter())
            .prop_map(|(id, f)| BrokerMsg::Subscribe(Subscription::new(SubId::new(id), f))),
        (0u64..100).prop_map(|id| BrokerMsg::Unsubscribe(SubId::new(id))),
        (arb_publication(), 0u32..16, 0u64..1_000_000).prop_map(|(p, hops, at)| {
            let mut env = PubEnvelope::new(p, SimTime::from_micros(at));
            for _ in 0..hops {
                env = env.hopped();
            }
            BrokerMsg::Publication(env)
        }),
        (0u64..1000).prop_map(|request| BrokerMsg::Bir { request }),
        (0u64..1000, proptest::collection::vec(arb_gathered(), 0..3))
            .prop_map(|(request, infos)| BrokerMsg::Bia { request, infos }),
    ]
}

fn encode(msg: &BrokerMsg) -> Vec<u8> {
    let mut bytes = Vec::new();
    msg.encode(&mut bytes);
    bytes
}

/// The frame of a publication built here, hop 0, stamp 0.
fn frame_of(p: &Publication) -> Vec<u8> {
    encode(&BrokerMsg::Publication(PubEnvelope::new(
        p.clone(),
        SimTime::ZERO,
    )))
}

/// The envelope a frame is received as, checked on this thread.
fn receive(frame: &[u8]) -> Result<PubEnvelope, TestCaseError> {
    match decode_exact(frame) {
        Ok(BrokerMsg::Publication(e)) => Ok(e),
        other => Err(TestCaseError::fail(format!("not a publication: {other:?}"))),
    }
}

fn decode(env: &PubEnvelope) -> Result<Publication, TestCaseError> {
    env.publication()
        .map(Cow::into_owned)
        .map_err(|e| TestCaseError::fail(format!("a received publication failed to decode: {e}")))
}

proptest! {
    /// Encode → decode → re-encode is the identity on bytes: the codec
    /// is deterministic and byte-stable for every message variant.
    #[test]
    fn broker_msg_round_trips_byte_stably(msg in arb_msg()) {
        let mut bytes = Vec::new();
        msg.encode(&mut bytes);
        let decoded: BrokerMsg = decode_exact(&bytes).expect("decode what we encoded");
        let mut again = Vec::new();
        decoded.encode(&mut again);
        prop_assert_eq!(&bytes, &again, "re-encoded bytes diverged");
    }

    /// A publication decodes the same whatever the receiving thread
    /// checked before it (onto the table the priming frame left, off it
    /// mid-frame, or cold) and on whichever thread it is decoded.
    #[test]
    fn publication_decode_is_independent_of_the_frames_before(
        priming in arb_publication(),
        subject in arb_publication(),
    ) {
        let bytes = frame_of(&subject);
        let cold = std::thread::scope(|s| s.spawn(|| receive(&bytes)).join().expect("check"))?;
        receive(&frame_of(&priming))?;
        let warm = receive(&bytes)?;
        let elsewhere = std::thread::scope(|s| s.spawn(|| decode(&warm)).join().expect("decode"))?;
        prop_assert_eq!(&decode(&warm)?, &decode(&cold)?);
        prop_assert_eq!(&elsewhere, &subject);
        prop_assert_eq!(frame_of(&elsewhere), bytes.clone());
        prop_assert_eq!(encode(&BrokerMsg::Publication(warm)), bytes);
    }

    /// Decoding never panics on arbitrary garbage — it returns a typed
    /// error or (rarely) a valid message.
    #[test]
    fn decoder_is_total_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..200)) {
        let _ = decode_exact::<BrokerMsg>(&bytes);
    }

    /// Truncating a valid encoding at any point yields an error, never
    /// a silently short message.
    #[test]
    fn truncation_is_detected(msg in arb_msg(), cut in 0usize..64) {
        let mut bytes = Vec::new();
        msg.encode(&mut bytes);
        if cut < bytes.len() {
            prop_assert!(decode_exact::<BrokerMsg>(&bytes[..cut]).is_err());
        }
    }
}

/// Names of raw frames: the stock ones and one that is not ASCII.
const NAMES: [&str; 5] = ["class", "symbol", "low", "volume", "größe"];

fn arb_raw_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        arb_value(),
        proptest::sample::select(vec!["", "Zürich"]).prop_map(Value::str),
    ]
}

/// A publication frame with exactly these attributes, repeated names
/// included, and where its fields are.
struct RawFrame {
    bytes: Vec<u8>,
    /// Offset of the attribute count.
    count: usize,
    /// Per attribute, the offset of its name's length prefix.
    names: Vec<usize>,
    /// Per attribute, the offset of its value's tag.
    tags: Vec<usize>,
}

fn raw_frame(adv: u64, msg: u64, attrs: &[(&str, Value)]) -> RawFrame {
    let mut bytes = Vec::new();
    put_u8(&mut bytes, 5); // the publication tag
    put_u64(&mut bytes, adv);
    put_u64(&mut bytes, msg);
    let count = bytes.len();
    put_seq_len(&mut bytes, attrs.len());
    let (mut names, mut tags) = (Vec::new(), Vec::new());
    for (name, value) in attrs {
        names.push(bytes.len());
        put_str(&mut bytes, name);
        tags.push(bytes.len());
        match value {
            Value::Int(i) => {
                put_u8(&mut bytes, 0);
                put_i64(&mut bytes, *i);
            }
            Value::Float(f) => {
                put_u8(&mut bytes, 1);
                put_f64(&mut bytes, *f);
            }
            Value::Str(s) => {
                put_u8(&mut bytes, 2);
                put_str(&mut bytes, s);
            }
            Value::Bool(b) => {
                put_u8(&mut bytes, 3);
                put_u8(&mut bytes, u8::from(*b));
            }
        }
    }
    put_u32(&mut bytes, 0); // hops
    put_u64(&mut bytes, 0); // published_at
    RawFrame {
        bytes,
        count,
        names,
        tags,
    }
}

/// A structure-aware edit of a publication frame. An index picks a
/// field modulo how many of that kind the frame has; an edit of a kind
/// the frame has none of leaves it as it is.
#[derive(Debug, Clone)]
enum Mutation {
    Keep,
    FlipBit(usize),
    Truncate(usize),
    InflateCount(u32),
    InflateName(usize, u32),
    InflateString(usize, u32),
    SwapTag(usize, u8),
    BadUtf8Name(usize, usize),
    BadUtf8String(usize, usize),
}

fn arb_mutation() -> impl Strategy<Value = Mutation> {
    let by = || proptest::sample::select(vec![1u32, 2, 7, 1000, 16_000_000]);
    prop_oneof![
        Just(Mutation::Keep),
        any::<usize>().prop_map(Mutation::FlipBit),
        any::<usize>().prop_map(Mutation::Truncate),
        by().prop_map(Mutation::InflateCount),
        (any::<usize>(), by()).prop_map(|(i, n)| Mutation::InflateName(i, n)),
        (any::<usize>(), by()).prop_map(|(i, n)| Mutation::InflateString(i, n)),
        (any::<usize>(), 0u8..6).prop_map(|(i, t)| Mutation::SwapTag(i, t)),
        (any::<usize>(), any::<usize>()).prop_map(|(i, k)| Mutation::BadUtf8Name(i, k)),
        (any::<usize>(), any::<usize>()).prop_map(|(i, k)| Mutation::BadUtf8String(i, k)),
    ]
}

/// The `u32` at `at`.
fn u32_at(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().expect("four bytes"))
}

impl Mutation {
    fn apply(&self, frame: &RawFrame) -> Vec<u8> {
        let mut bytes = frame.bytes.clone();
        let pick = |at: &[usize], i: usize| (!at.is_empty()).then(|| at[i % at.len()]);
        // Length prefixes of the string values.
        let strings: Vec<usize> = frame
            .tags
            .iter()
            .filter(|&&t| bytes[t] == 2)
            .map(|t| t + 1)
            .collect();
        let inflate = |bytes: &mut Vec<u8>, at: usize, by: u32| {
            let n = u32_at(bytes, at).wrapping_add(by);
            bytes[at..at + 4].copy_from_slice(&n.to_le_bytes());
        };
        // A byte no UTF-8 string holds, into a non-empty string.
        let corrupt = |bytes: &mut Vec<u8>, at: usize, k: usize| {
            let len = u32_at(bytes, at) as usize;
            if len > 0 {
                bytes[at + 4 + k % len] = 0xFF;
            }
        };
        match *self {
            Mutation::Keep => {}
            Mutation::FlipBit(bit) => {
                let bit = bit % (bytes.len() * 8);
                bytes[bit / 8] ^= 1 << (bit % 8);
            }
            Mutation::Truncate(at) => bytes.truncate(at % bytes.len()),
            Mutation::InflateCount(by) => inflate(&mut bytes, frame.count, by),
            Mutation::InflateName(i, by) => {
                if let Some(at) = pick(&frame.names, i) {
                    inflate(&mut bytes, at, by);
                }
            }
            Mutation::InflateString(i, by) => {
                if let Some(at) = pick(&strings, i) {
                    inflate(&mut bytes, at, by);
                }
            }
            Mutation::SwapTag(i, tag) => {
                if let Some(at) = pick(&frame.tags, i) {
                    bytes[at] = tag;
                }
            }
            Mutation::BadUtf8Name(i, k) => {
                if let Some(at) = pick(&frame.names, i) {
                    corrupt(&mut bytes, at, k);
                }
            }
            Mutation::BadUtf8String(i, k) => {
                if let Some(at) = pick(&strings, i) {
                    corrupt(&mut bytes, at, k);
                }
            }
        }
        bytes
    }
}

/// A whole publication frame read by the reference: the tag,
/// `read_publication`, the trailer, and nothing after.
fn reference(frame: &[u8]) -> Result<Publication, WireError> {
    let mut r = WireReader::new(frame);
    match r.u8()? {
        5 => {}
        t => return Err(WireError::BadTag(t)),
    }
    let p = read_publication(&mut r)?;
    r.u32()?;
    r.u64()?;
    if !r.is_empty() {
        return Err(WireError::TrailingBytes);
    }
    Ok(p)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// The receipt check accepts a mutated publication frame exactly
    /// when `read_publication` does. An accepted frame's publication is
    /// the reference's, whether this thread's tables were primed with
    /// the frame's shape or a fresh thread checked it, and it goes out
    /// again as the bytes it came in as.
    #[test]
    fn the_receipt_check_accepts_exactly_what_the_decoder_does(
        (adv, msg) in (0u64..100, 0u64..1000),
        attrs in proptest::collection::vec(
            (proptest::sample::select(NAMES.to_vec()), arb_raw_value()),
            0..6,
        ),
        mutation in arb_mutation(),
    ) {
        let base = raw_frame(adv, msg, &attrs);
        receive(&base.bytes)?;
        let bytes = mutation.apply(&base);
        let checked = match decode_exact::<BrokerMsg>(&bytes) {
            Ok(BrokerMsg::Publication(env)) => Some(env),
            _ => None,
        };
        let expected = reference(&bytes);
        prop_assert_eq!(checked.is_some(), expected.is_ok(), "{:?}: {:?}", mutation, expected);
        if let (Some(env), Ok(expected)) = (checked, expected) {
            let cold = std::thread::scope(|s| s.spawn(|| receive(&bytes)).join().expect("check"))?;
            prop_assert_eq!(frame_of(&decode(&env)?), frame_of(&expected));
            prop_assert_eq!(frame_of(&decode(&cold)?), frame_of(&expected));
            prop_assert_eq!((env.adv_id(), env.msg_id()), (expected.adv_id, expected.msg_id));
            let out = encode(&BrokerMsg::Publication(env.hopped()));
            prop_assert_eq!(&out[..out.len() - 12], &bytes[..bytes.len() - 12]);
        }
    }
}

/// Writes `sound`, `bad`, `sound` from a raw socket and checks what any
/// garbage gets: a typed decode error, counted, and a closed session —
/// after the sound frame before it was delivered.
fn a_bad_frame_closes_the_session(sound: &[u8], bad: &[u8]) {
    assert!(decode_exact::<BrokerMsg>(sound).is_ok());
    assert!(decode_exact::<BrokerMsg>(bad).is_err());
    let registry = Registry::new();
    let mut transport = TcpTransport::with_telemetry(&registry);
    let mut ep: <TcpTransport as Transport<BrokerMsg>>::Endpoint = transport.open(1).expect("open");
    let EndpointAddr::Tcp(addr) = ep.addr() else {
        panic!("a tcp endpoint has a tcp address");
    };
    let mut raw = TcpStream::connect(addr).expect("dial");
    write_hello(&mut raw, Hello { node: 77, epoch: 1 }).expect("hello out");
    let mut theirs = [0u8; HELLO_LEN];
    raw.read_exact(&mut theirs).expect("hello back");

    let mut bytes = Vec::new();
    for payload in [sound, bad, sound] {
        bytes.extend_from_slice(&u32::try_from(payload.len()).unwrap().to_le_bytes());
        bytes.extend_from_slice(payload);
    }
    raw.write_all(&bytes).expect("write");

    let (mut msgs, mut closed) = (0, false);
    let deadline = Instant::now() + Duration::from_secs(20);
    while !closed && Instant::now() < deadline {
        match ep.poll(Duration::from_millis(50)) {
            Some(NetEvent::Msg { from: 77, .. }) => msgs += 1,
            Some(NetEvent::Closed { peer: 77 }) => closed = true,
            _ => {}
        }
    }
    assert!(closed, "the session was closed");
    assert_eq!(msgs, 1, "the frame after the bad one is never seen");
    let counters = registry.snapshot().counters;
    assert_eq!(counters.get("transport.decode_errors"), Some(&1));
    assert_eq!(counters.get("transport.frames_received"), Some(&1));
}

/// A peer that writes a count its frame has no room for.
#[test]
fn a_frame_with_an_inflated_count_closes_the_session() {
    let p = Publication::builder(AdvId::new(1), MsgId::new(1))
        .attr("class", "STOCK")
        .attr("low", 18.5)
        .build();
    let mut sound = Vec::new();
    BrokerMsg::Publication(PubEnvelope::new(p, SimTime::ZERO)).encode(&mut sound);
    // Tag, two ids, then the attribute count.
    let mut inflated = sound.clone();
    inflated[17..21].copy_from_slice(&16_000_000u32.to_le_bytes());
    a_bad_frame_closes_the_session(&sound, &inflated);
}

/// A BIA whose broker spec or publisher profile carries a NaN,
/// infinite or negative capacity is refused: decoded, it would make
/// the broker unbounded to every feasibility test.
#[test]
fn a_bia_with_a_non_finite_capacity_fails_to_decode() {
    let bia = |bandwidth: f64, per_sub: f64, rate: f64| {
        let mut frame = Vec::new();
        BrokerMsg::Bia {
            request: 1,
            infos: vec![GatheredBroker {
                spec: BrokerSpec::new(
                    BrokerId::new(0),
                    "sim://b0",
                    LinearFn::new(0.5, per_sub),
                    bandwidth,
                ),
                subscriptions: Vec::new(),
                publishers: vec![PublisherProfile::new(
                    AdvId::new(1),
                    rate,
                    1_000.0,
                    MsgId::new(9),
                )],
            }],
        }
        .encode(&mut frame);
        decode_exact::<BrokerMsg>(&frame)
    };
    assert!(bia(120_000.0, 0.01, 10.0).is_ok());
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0] {
        for got in [
            bia(bad, 0.01, 10.0),
            bia(120_000.0, bad, 10.0),
            bia(120_000.0, 0.01, bad),
        ] {
            assert!(
                matches!(got, Err(WireError::BadValue)),
                "{bad} decoded as {got:?}"
            );
        }
    }
}

/// A peer that claims a profile window of 2^40 bits — 128 GiB of
/// words — in a BIA of a few dozen bytes.
#[test]
fn a_bia_claiming_a_huge_window_closes_the_session() {
    let window = 777; // a capacity to find in the frame and replace
    let mut profile = SubscriptionProfile::with_capacity(64);
    profile.insert_vector(AdvId::new(7), ShiftingBitVector::starting_at(window, 10));
    let info = GatheredBroker {
        spec: BrokerSpec::new(BrokerId::new(2), "", LinearFn::new(0.5, 0.01), 1e6),
        subscriptions: vec![SubscriptionEntry::new(
            SubId::new(5),
            Filter::new(),
            profile,
        )],
        publishers: Vec::new(),
    };
    let mut sound = Vec::new();
    BrokerMsg::Bia {
        request: 1,
        infos: vec![info],
    }
    .encode(&mut sound);
    let mark = (window as u64).to_le_bytes();
    let at: Vec<usize> = (0..sound.len() - 8)
        .filter(|&i| sound[i..i + 8] == mark)
        .collect();
    assert_eq!(at.len(), 1, "the window capacity is found once");
    let mut huge = sound.clone();
    huge[at[0]..at[0] + 8].copy_from_slice(&(1u64 << 40).to_le_bytes());
    assert!(matches!(
        decode_exact::<BrokerMsg>(&huge),
        Err(WireError::BadLength(n)) if n == 1 << 40
    ));
    a_bad_frame_closes_the_session(&sound, &huge);
}
