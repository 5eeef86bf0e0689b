//! Byte-stable wire codec for [`BrokerMsg`] (DESIGN.md §13.4).
//!
//! Implements `greenps_net::Wire` for the broker message vocabulary so
//! the TCP transport can carry real frames. Nested vocabulary types
//! (values, filters, profiles) are foreign to this crate, so they are
//! encoded through free `put_*`/`read_*` helper pairs rather than
//! trait impls — which also keeps the encode-side call graph fully
//! resolvable for the hot-path-alloc lint: the publish frame-encode
//! path allocates nothing beyond the caller's reusable scratch buffer.
//!
//! The encoding is byte-stable: every container iterates in a
//! deterministic order (`Vec` insertion order, `BTreeMap` key order),
//! so `encode(decode(encode(x))) == encode(x)` byte for byte. The
//! round-trip property is pinned by proptests in
//! `tests/wire_roundtrip.rs`.

use crate::messages::{Body, BrokerMsg, GatheredBroker, PubEnvelope};
use greenps_core::model::{BrokerSpec, LinearFn, SubscriptionEntry};
use greenps_net::wire::{
    put_bool, put_f64, put_i64, put_seq_len, put_str, put_u32, put_u64, put_u8, Wire, WireError,
    WireReader,
};
use greenps_profile::{PublisherProfile, ShiftingBitVector, SubscriptionProfile};
use greenps_pubsub::ids::{AdvId, BrokerId, ClientId, MsgId, SubId};
use greenps_pubsub::message::{Advertisement, AttrNames, Publication, Subscription};
use greenps_pubsub::predicate::{Op, Predicate};
use greenps_pubsub::value::Value;
use greenps_simnet::SimTime;
use std::cell::RefCell;
use std::sync::Arc;

// --- values and predicates -------------------------------------------

fn put_value(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Int(i) => {
            put_u8(out, 0);
            put_i64(out, *i);
        }
        Value::Float(f) => {
            put_u8(out, 1);
            put_f64(out, *f);
        }
        Value::Str(s) => {
            put_u8(out, 2);
            put_str(out, s);
        }
        Value::Bool(b) => {
            put_u8(out, 3);
            put_bool(out, *b);
        }
    }
}

fn read_value(r: &mut WireReader<'_>) -> Result<Value, WireError> {
    match r.u8()? {
        0 => Ok(Value::Int(r.i64()?)),
        1 => Ok(Value::Float(r.f64()?)),
        2 => Ok(Value::str(r.str()?)),
        3 => Ok(Value::Bool(r.bool()?)),
        t => Err(WireError::BadTag(t)),
    }
}

fn put_op(out: &mut Vec<u8>, op: Op) {
    let tag = match op {
        Op::Eq => 0,
        Op::Neq => 1,
        Op::Lt => 2,
        Op::Le => 3,
        Op::Gt => 4,
        Op::Ge => 5,
        Op::Prefix => 6,
        Op::Suffix => 7,
        Op::Contains => 8,
        Op::Present => 9,
    };
    put_u8(out, tag);
}

fn read_op(r: &mut WireReader<'_>) -> Result<Op, WireError> {
    match r.u8()? {
        0 => Ok(Op::Eq),
        1 => Ok(Op::Neq),
        2 => Ok(Op::Lt),
        3 => Ok(Op::Le),
        4 => Ok(Op::Gt),
        5 => Ok(Op::Ge),
        6 => Ok(Op::Prefix),
        7 => Ok(Op::Suffix),
        8 => Ok(Op::Contains),
        9 => Ok(Op::Present),
        t => Err(WireError::BadTag(t)),
    }
}

fn put_predicate(out: &mut Vec<u8>, p: &Predicate) {
    put_str(out, &p.attr);
    put_op(out, p.op);
    put_value(out, &p.value);
}

fn read_predicate(r: &mut WireReader<'_>) -> Result<Predicate, WireError> {
    let attr = r.str()?;
    let op = read_op(r)?;
    let value = read_value(r)?;
    Ok(Predicate::new(attr, op, value))
}

fn put_filter(out: &mut Vec<u8>, f: &greenps_pubsub::filter::Filter) {
    let preds = f.predicates();
    put_seq_len(out, preds.len());
    for p in preds {
        put_predicate(out, p);
    }
}

/// Fewest bytes one predicate encodes to: an empty name, the
/// operator, a `bool`.
const MIN_PREDICATE: usize = 7;

fn read_filter(r: &mut WireReader<'_>) -> Result<greenps_pubsub::filter::Filter, WireError> {
    let n = r.seq_len_of(MIN_PREDICATE)?;
    let mut preds = Vec::with_capacity(n);
    for _ in 0..n {
        preds.push(read_predicate(r)?);
    }
    Ok(greenps_pubsub::filter::Filter::from_predicates(preds))
}

// --- publications ----------------------------------------------------

fn put_publication(out: &mut Vec<u8>, p: &Publication) {
    put_u64(out, p.adv_id.raw());
    put_u64(out, p.msg_id.raw());
    put_seq_len(out, p.len());
    for (attr, value) in p.iter() {
        put_str(out, attr);
        put_value(out, value);
    }
}

/// Fewest bytes one attribute encodes to: an empty name and a `bool`.
const MIN_ATTRIBUTE: usize = 6;

/// Bytes of a publication's two ids.
const IDS: usize = 16;

/// Decodes one publication on its own: every name read and validated,
/// the attributes gathered by the builder, so a repeated name replaces
/// the earlier value in its first position. The receipt check accepts
/// exactly the publications this accepts.
pub fn read_publication(r: &mut WireReader<'_>) -> Result<Publication, WireError> {
    let adv = AdvId::new(r.u64()?);
    let msg = MsgId::new(r.u64()?);
    let n = r.seq_len_of(MIN_ATTRIBUTE)?;
    let mut b = Publication::builder(adv, msg);
    for _ in 0..n {
        let name = r.str()?;
        b.push(name, read_value(r)?);
    }
    Ok(b.build())
}

/// Walks one value exactly as [`read_value`] reads it, building nothing.
fn skip_value(r: &mut WireReader<'_>) -> Result<(), WireError> {
    match r.u8()? {
        0 | 1 => r.take(8).map(drop),
        2 => r.str().map(drop),
        3 => r.bool().map(drop),
        t => Err(WireError::BadTag(t)),
    }
}

/// Name tables a checking thread remembers. A connection carries the
/// shapes of the publishers routed over it, most of the time one.
const TABLES: usize = 4;

thread_local! {
    /// The name tables of the publications this thread checked last,
    /// most recent first. A reader thread serves one connection, so
    /// per thread is per session: no lock, nothing shared, and what is
    /// kept is at most [`TABLES`] tables whose names arrived in frames
    /// under the frame cap.
    static RECENT: RefCell<Vec<AttrNames>> = const { RefCell::new(Vec::new()) };
}

/// Checks a publication without building it (DESIGN.md §13.4): every
/// count, length and tag, and the UTF-8 of every name and string value,
/// as [`read_publication`] reads them. Returns its ids and the name
/// table of its names. A frame whose names equal, in order and byte for
/// byte, those of a remembered table shares that table; its names are
/// UTF-8 because the table's are. Any other frame is walked again for a
/// table of its own names, validated as they are read (a repeated one
/// kept at its first position, as the builder keeps it), remembered in
/// place of the least recently used.
fn check_publication(r: &mut WireReader<'_>) -> Result<(AdvId, MsgId, AttrNames), WireError> {
    let adv = AdvId::new(r.u64()?);
    let msg = MsgId::new(r.u64()?);
    let n = r.seq_len_of(MIN_ATTRIBUTE)?;
    RECENT.with_borrow_mut(|tables| {
        // `live[t]`: `tables[t]` equals the frame as far as it is read.
        let mut live = [false; TABLES];
        for (l, table) in live.iter_mut().zip(tables.iter()) {
            *l = table.len() == n;
        }
        let ((), attributes) = r.spanned(|r| {
            for at in 0..n {
                let name = r.bytes()?;
                for (l, table) in live.iter_mut().zip(tables.iter()) {
                    *l = *l && table.get(at).map(str::as_bytes) == Some(name);
                }
                skip_value(r)?;
            }
            Ok(())
        })?;
        let hit = live.iter().position(|&l| l);
        if let Some(names) = hit.and_then(|t| tables.get(t)).cloned() {
            if let Some(front) = hit.and_then(|t| tables.get_mut(..=t)) {
                front.rotate_right(1);
            }
            return Ok((adv, msg, names));
        }
        let mut r = WireReader::new(attributes);
        let names = (0..n)
            .map(|_| {
                let name = r.str()?;
                skip_value(&mut r)?;
                Ok(name)
            })
            .collect::<Result<AttrNames, WireError>>()?;
        tables.truncate(TABLES - 1);
        tables.insert(0, names.clone());
        Ok((adv, msg, names))
    })
}

/// A publication as it arrived: the bytes `put_publication` wrote,
/// checked on receipt, with the ids read from its header and the name
/// table the check found for its names (DESIGN.md §13.4).
#[derive(Debug)]
pub(crate) struct Received {
    pub(crate) adv_id: AdvId,
    pub(crate) msg_id: MsgId,
    names: AttrNames,
    bytes: Box<[u8]>,
}

impl Received {
    /// The publication, read on the table the check found: the values
    /// only, unless a repeated name makes the frame longer than its
    /// table, when the builder's rule decides as for any frame.
    pub(crate) fn decode(&self) -> Result<Publication, WireError> {
        let mut r = WireReader::new(&self.bytes);
        r.take(IDS)?;
        let n = r.seq_len_of(MIN_ATTRIBUTE)?;
        if n != self.names.len() {
            return read_publication(&mut WireReader::new(&self.bytes));
        }
        let mut values = Vec::with_capacity(n);
        for _ in 0..n {
            // The name, compared or validated on receipt.
            r.bytes()?;
            values.push(read_value(&mut r)?);
        }
        Publication::with_names(self.adv_id, self.msg_id, &self.names, values)
            .ok_or(WireError::BadValue)
    }
}

/// A built publication is encoded; a received one is copied as it came,
/// which for a frame without a repeated name is the same bytes. Either
/// way the hop count and stamp are written fresh.
fn put_envelope(out: &mut Vec<u8>, e: &PubEnvelope) {
    match &e.body {
        Body::Built(p) => put_publication(out, p),
        Body::Received(r) => out.extend_from_slice(&r.bytes),
    }
    put_u32(out, e.hops);
    put_u64(out, e.published_at.as_micros());
}

fn read_envelope(r: &mut WireReader<'_>) -> Result<PubEnvelope, WireError> {
    let ((adv_id, msg_id, names), bytes) = r.spanned(check_publication)?;
    let hops = r.u32()?;
    let published_at = SimTime::from_micros(r.u64()?);
    let received = Received {
        adv_id,
        msg_id,
        names,
        bytes: bytes.into(),
    };
    Ok(PubEnvelope {
        body: Body::Received(Arc::new(received)),
        hops,
        published_at,
    })
}

// --- profiles --------------------------------------------------------

fn put_bitvec(out: &mut Vec<u8>, v: &ShiftingBitVector) {
    put_u64(out, v.capacity() as u64);
    put_u64(out, v.first_id());
    put_seq_len(out, v.count_ones());
    for id in v.iter_ids() {
        put_u64(out, id);
    }
}

/// Largest profile window, in bits, a peer may state: 51× the
/// 1 280-bit default, the largest window any experiment uses. A
/// window's capacity sizes its word vector (`capacity / 64` words) and
/// bears no relation to the frame's length, so it is bounded here.
pub const MAX_WINDOW_BITS: usize = 65_536;

/// A window capacity: positive and at most [`MAX_WINDOW_BITS`],
/// checked before anything is sized by it.
fn read_window_bits(r: &mut WireReader<'_>) -> Result<usize, WireError> {
    let cap64 = r.u64()?;
    match usize::try_from(cap64) {
        Ok(0) => Err(WireError::BadValue),
        Ok(capacity) if capacity <= MAX_WINDOW_BITS => Ok(capacity),
        _ => Err(WireError::BadLength(cap64)),
    }
}

fn read_bitvec(r: &mut WireReader<'_>) -> Result<ShiftingBitVector, WireError> {
    let capacity = read_window_bits(r)?;
    let first_id = r.u64()?;
    // The window end must not overflow: `window_end()` computes
    // `first_id + capacity` internally.
    let end = first_id
        .checked_add(capacity as u64)
        .ok_or(WireError::BadValue)?;
    let n = r.seq_len()?;
    let mut v = ShiftingBitVector::starting_at(capacity, first_id);
    for _ in 0..n {
        let id = r.u64()?;
        if id < first_id || id >= end {
            return Err(WireError::BadValue);
        }
        v.record(id);
    }
    Ok(v)
}

fn put_profile(out: &mut Vec<u8>, p: &SubscriptionProfile) {
    put_u64(out, p.capacity() as u64);
    put_seq_len(out, p.publisher_count());
    for (adv, vector) in p.iter() {
        put_u64(out, adv.raw());
        put_bitvec(out, vector);
    }
}

fn read_profile(r: &mut WireReader<'_>) -> Result<SubscriptionProfile, WireError> {
    let capacity = read_window_bits(r)?;
    let n = r.seq_len()?;
    let mut p = SubscriptionProfile::with_capacity(capacity);
    for _ in 0..n {
        let adv = AdvId::new(r.u64()?);
        let vector = read_bitvec(r)?;
        p.insert_vector(adv, vector);
    }
    Ok(p)
}

fn put_publisher_profile(out: &mut Vec<u8>, p: &PublisherProfile) {
    put_u64(out, p.adv_id.raw());
    put_f64(out, p.rate);
    put_f64(out, p.bandwidth);
    put_u64(out, p.last_msg_id.raw());
}

fn read_publisher_profile(r: &mut WireReader<'_>) -> Result<PublisherProfile, WireError> {
    let adv = AdvId::new(r.u64()?);
    let rate = r.f64()?;
    let bandwidth = r.f64()?;
    let last = MsgId::new(r.u64()?);
    Ok(PublisherProfile::new(adv, rate, bandwidth, last))
}

// --- broker information ----------------------------------------------

fn put_spec(out: &mut Vec<u8>, s: &BrokerSpec) {
    put_u64(out, s.id.raw());
    put_str(out, &s.url);
    put_f64(out, s.matching_delay.base);
    put_f64(out, s.matching_delay.per_sub);
    put_f64(out, s.out_bandwidth);
}

fn read_spec(r: &mut WireReader<'_>) -> Result<BrokerSpec, WireError> {
    let id = BrokerId::new(r.u64()?);
    let url = r.str()?;
    let base = r.f64()?;
    let per_sub = r.f64()?;
    let out_bandwidth = r.f64()?;
    Ok(BrokerSpec::new(
        id,
        url,
        LinearFn::new(base, per_sub),
        out_bandwidth,
    ))
}

fn put_sub_entry(out: &mut Vec<u8>, e: &SubscriptionEntry) {
    put_u64(out, e.id.raw());
    put_filter(out, &e.filter);
    put_profile(out, &e.profile);
}

fn read_sub_entry(r: &mut WireReader<'_>) -> Result<SubscriptionEntry, WireError> {
    let id = SubId::new(r.u64()?);
    let filter = read_filter(r)?;
    let profile = read_profile(r)?;
    Ok(SubscriptionEntry::new(id, filter, profile))
}

fn put_gathered(out: &mut Vec<u8>, g: &GatheredBroker) {
    put_spec(out, &g.spec);
    put_seq_len(out, g.subscriptions.len());
    for s in &g.subscriptions {
        put_sub_entry(out, s);
    }
    put_seq_len(out, g.publishers.len());
    for p in &g.publishers {
        put_publisher_profile(out, p);
    }
}

/// Fewest bytes one subscription entry encodes to: its id, an empty
/// filter, a profile with no publisher.
const MIN_SUB_ENTRY: usize = 24;
/// Bytes of one publisher profile.
const PUBLISHER_PROFILE: usize = 32;
/// Fewest bytes one broker's information encodes to: a spec with an
/// empty URL and two empty lists.
const MIN_GATHERED: usize = 44;

fn read_gathered(r: &mut WireReader<'_>) -> Result<GatheredBroker, WireError> {
    let spec = read_spec(r)?;
    let n_subs = r.seq_len_of(MIN_SUB_ENTRY)?;
    let mut subscriptions = Vec::with_capacity(n_subs);
    for _ in 0..n_subs {
        subscriptions.push(read_sub_entry(r)?);
    }
    let n_pubs = r.seq_len_of(PUBLISHER_PROFILE)?;
    let mut publishers = Vec::with_capacity(n_pubs);
    for _ in 0..n_pubs {
        publishers.push(read_publisher_profile(r)?);
    }
    Ok(GatheredBroker {
        spec,
        subscriptions,
        publishers,
    })
}

// --- the message envelope --------------------------------------------

const TAG_CLIENT_HELLO: u8 = 0;
const TAG_ADVERTISE: u8 = 1;
const TAG_UNADVERTISE: u8 = 2;
const TAG_SUBSCRIBE: u8 = 3;
const TAG_UNSUBSCRIBE: u8 = 4;
const TAG_PUBLICATION: u8 = 5;
const TAG_BIR: u8 = 6;
const TAG_BIA: u8 = 7;

impl Wire for BrokerMsg {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            BrokerMsg::ClientHello { client } => {
                put_u8(out, TAG_CLIENT_HELLO);
                put_u64(out, client.raw());
            }
            BrokerMsg::Advertise(a) => {
                put_u8(out, TAG_ADVERTISE);
                put_u64(out, a.id.raw());
                put_filter(out, &a.filter);
            }
            BrokerMsg::Unadvertise(id) => {
                put_u8(out, TAG_UNADVERTISE);
                put_u64(out, id.raw());
            }
            BrokerMsg::Subscribe(s) => {
                put_u8(out, TAG_SUBSCRIBE);
                put_u64(out, s.id.raw());
                put_filter(out, &s.filter);
            }
            BrokerMsg::Unsubscribe(id) => {
                put_u8(out, TAG_UNSUBSCRIBE);
                put_u64(out, id.raw());
            }
            BrokerMsg::Publication(e) => {
                put_u8(out, TAG_PUBLICATION);
                put_envelope(out, e);
            }
            BrokerMsg::Bir { request } => {
                put_u8(out, TAG_BIR);
                put_u64(out, *request);
            }
            BrokerMsg::Bia { request, infos } => {
                put_u8(out, TAG_BIA);
                put_u64(out, *request);
                put_seq_len(out, infos.len());
                for g in infos {
                    put_gathered(out, g);
                }
            }
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            TAG_CLIENT_HELLO => Ok(BrokerMsg::ClientHello {
                client: ClientId::new(r.u64()?),
            }),
            TAG_ADVERTISE => {
                let id = AdvId::new(r.u64()?);
                let filter = read_filter(r)?;
                Ok(BrokerMsg::Advertise(Advertisement::new(id, filter)))
            }
            TAG_UNADVERTISE => Ok(BrokerMsg::Unadvertise(AdvId::new(r.u64()?))),
            TAG_SUBSCRIBE => {
                let id = SubId::new(r.u64()?);
                let filter = read_filter(r)?;
                Ok(BrokerMsg::Subscribe(Subscription::new(id, filter)))
            }
            TAG_UNSUBSCRIBE => Ok(BrokerMsg::Unsubscribe(SubId::new(r.u64()?))),
            TAG_PUBLICATION => Ok(BrokerMsg::Publication(read_envelope(r)?)),
            TAG_BIR => Ok(BrokerMsg::Bir { request: r.u64()? }),
            TAG_BIA => {
                let request = r.u64()?;
                let n = r.seq_len_of(MIN_GATHERED)?;
                let mut infos = Vec::with_capacity(n);
                for _ in 0..n {
                    infos.push(read_gathered(r)?);
                }
                Ok(BrokerMsg::Bia { request, infos })
            }
            t => Err(WireError::BadTag(t)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use greenps_net::wire::decode_exact;
    use greenps_pubsub::filter::stock_template;

    fn round_trip(msg: &BrokerMsg) -> (Vec<u8>, BrokerMsg) {
        let mut buf = Vec::new();
        msg.encode(&mut buf);
        let back: BrokerMsg = decode_exact(&buf).expect("decode");
        (buf, back)
    }

    fn re_encode(msg: &BrokerMsg) -> Vec<u8> {
        let mut buf = Vec::new();
        msg.encode(&mut buf);
        buf
    }

    #[test]
    fn publication_round_trips_byte_stably() {
        let p = Publication::builder(AdvId::new(3), MsgId::new(99))
            .attr("class", "STOCK")
            .attr("close", 18.37)
            .attr("volume", 40_000i64)
            .attr("closeEqualsLow", true)
            .build();
        let msg = BrokerMsg::Publication(PubEnvelope::new(p, SimTime::from_micros(77)));
        let (bytes, back) = round_trip(&msg);
        assert_eq!(re_encode(&back), bytes);
    }

    #[test]
    fn bia_with_profiles_round_trips() {
        let mut profile = SubscriptionProfile::with_capacity(64);
        let mut v = ShiftingBitVector::starting_at(64, 10);
        v.record(12);
        v.record(63);
        profile.insert_vector(AdvId::new(7), v);
        let info = GatheredBroker {
            spec: BrokerSpec::new(BrokerId::new(2), "b2.local", LinearFn::new(0.5, 0.01), 1e6),
            subscriptions: vec![SubscriptionEntry::new(
                SubId::new(5),
                stock_template("YHOO"),
                profile,
            )],
            publishers: vec![PublisherProfile::new(
                AdvId::new(7),
                10.0,
                320.0,
                MsgId::new(63),
            )],
        };
        let msg = BrokerMsg::Bia {
            request: 42,
            infos: vec![info],
        };
        let (bytes, back) = round_trip(&msg);
        assert_eq!(re_encode(&back), bytes);
    }

    #[test]
    fn truncation_and_bad_tags_are_typed_errors() {
        let mut buf = Vec::new();
        BrokerMsg::Bir { request: 9 }.encode(&mut buf);
        buf.truncate(buf.len() - 1);
        assert!(matches!(
            decode_exact::<BrokerMsg>(&buf),
            Err(WireError::Truncated)
        ));
        assert!(matches!(
            decode_exact::<BrokerMsg>(&[200]),
            Err(WireError::BadTag(200))
        ));
    }

    #[test]
    fn zero_capacity_bitvec_is_rejected_not_a_panic() {
        let mut buf = Vec::new();
        put_u64(&mut buf, 0); // capacity
        put_u64(&mut buf, 0); // first_id
        put_seq_len(&mut buf, 0);
        let mut r = WireReader::new(&buf);
        assert!(matches!(read_bitvec(&mut r), Err(WireError::BadValue)));
    }

    #[test]
    fn a_window_past_the_cap_is_refused_before_it_is_sized() {
        let bitvec = |capacity: u64| {
            let mut buf = Vec::new();
            put_u64(&mut buf, capacity);
            put_u64(&mut buf, 0); // first_id
            put_seq_len(&mut buf, 0);
            read_bitvec(&mut WireReader::new(&buf)).map(|v| v.capacity())
        };
        let profile = |capacity: u64| {
            let mut buf = Vec::new();
            put_u64(&mut buf, capacity);
            put_seq_len(&mut buf, 0);
            read_profile(&mut WireReader::new(&buf)).map(|p| p.capacity())
        };
        let cap = MAX_WINDOW_BITS as u64;
        assert_eq!(bitvec(cap), Ok(MAX_WINDOW_BITS));
        assert_eq!(profile(cap), Ok(MAX_WINDOW_BITS));
        for claimed in [cap + 1, 1 << 40, u64::MAX] {
            assert_eq!(bitvec(claimed), Err(WireError::BadLength(claimed)));
            assert_eq!(profile(claimed), Err(WireError::BadLength(claimed)));
        }
    }

    /// A publication frame with exactly these `(name, value)` pairs —
    /// repeats included, which `put_publication` cannot produce.
    fn raw_frame(attrs: &[(&str, i64)]) -> Vec<u8> {
        let mut buf = Vec::new();
        put_u8(&mut buf, TAG_PUBLICATION);
        put_u64(&mut buf, 1);
        put_u64(&mut buf, 2);
        put_seq_len(&mut buf, attrs.len());
        for &(name, value) in attrs {
            put_str(&mut buf, name);
            put_value(&mut buf, &Value::Int(value));
        }
        put_u32(&mut buf, 0);
        put_u64(&mut buf, 0);
        buf
    }

    /// The envelope a frame is received as, checked on this thread.
    fn receive(frame: &[u8]) -> PubEnvelope {
        match decode_exact(frame) {
            Ok(BrokerMsg::Publication(e)) => e,
            other => panic!("not a publication: {other:?}"),
        }
    }

    fn decode_publication(frame: &[u8]) -> Publication {
        receive(frame).publication().expect("decode").into_owned()
    }

    /// Checks on a thread that has remembered nothing and decodes here,
    /// where the frame was not checked.
    fn decode_cold(frame: &[u8]) -> Publication {
        let env = std::thread::scope(|s| s.spawn(|| receive(frame)).join().expect("check"));
        env.publication().expect("decode").into_owned()
    }

    fn expect(attrs: &[(&str, i64)]) -> Publication {
        let mut b = Publication::builder(AdvId::new(1), MsgId::new(2));
        for &(name, value) in attrs {
            b.push(name, Value::Int(value));
        }
        b.build()
    }

    #[test]
    fn frames_of_one_shape_share_a_table_while_it_is_remembered() {
        let stock = [("class", 1), ("symbol", 2), ("low", 3)];
        let first = decode_publication(&raw_frame(&stock));
        let second = decode_publication(&raw_frame(&[("class", 4), ("symbol", 5), ("low", 6)]));
        assert!(first.same_names(&second));
        assert_eq!(second.get("low"), Some(&Value::Int(6)));
        let other = decode_publication(&raw_frame(&[("class", 1), ("symbol", 2), ("high", 3)]));
        assert!(!other.same_names(&first));
        let fourth = decode_publication(&raw_frame(&stock));
        assert!(fourth.same_names(&first));
        assert_eq!(fourth, first);
    }

    #[test]
    fn a_frame_that_leaves_the_table_decodes_as_it_would_cold() {
        let primed = [("a", 1), ("b", 2), ("c", 3), ("d", 4)];
        let subjects: [&[(&str, i64)]; 8] = [
            &[("a", 5), ("b", 6), ("x", 7), ("d", 8)],
            &[("d", 5), ("c", 6), ("b", 7), ("a", 8)],
            &[("a", 5), ("b", 6), ("c", 7), ("d", 8), ("e", 9)],
            &[("a", 5), ("b", 6), ("c", 7)],
            &[],
            &[("a", 5), ("b", 6), ("a", 7), ("d", 8)],
            &[("a", 5), ("b", 6), ("c", 7), ("c", 8)],
            &[("x", 5), ("x", 6)],
        ];
        for attrs in subjects {
            let frame = raw_frame(attrs);
            // Twice: off the primed table, then onto its own.
            for _ in 0..2 {
                decode_publication(&raw_frame(&primed));
                let warm = decode_publication(&frame);
                assert_eq!(warm, decode_cold(&frame), "{attrs:?}");
                assert_eq!(warm, expect(attrs), "{attrs:?}");
            }
            let again = decode_publication(&frame);
            assert_eq!(again, expect(attrs), "{attrs:?}");
            let distinct = expect(attrs).len() == attrs.len();
            if distinct {
                let env = PubEnvelope::new(again, SimTime::ZERO);
                assert_eq!(re_encode(&BrokerMsg::Publication(env)), frame);
            }
            // Received, it goes out as it came, repeats and all.
            assert_eq!(re_encode(&BrokerMsg::Publication(receive(&frame))), frame);
        }
        // Later wins, first position kept — the builder's rule.
        let dup = decode_publication(&raw_frame(&[("a", 5), ("b", 6), ("a", 7)]));
        assert_eq!(dup.to_string(), "Adv1#2:[a,7],[b,6]");
    }

    /// What a received frame goes out as, hopped: asserted equal to the
    /// frame up to its 12-byte trailer, and the trailer written after.
    fn forwarded_trailer(frame: &[u8]) -> Vec<u8> {
        let mut out = re_encode(&BrokerMsg::Publication(receive(frame).hopped()));
        let trailer = out.split_off(out.len() - 12);
        assert_eq!(out, frame[..frame.len() - 12]);
        trailer
    }

    #[test]
    fn a_received_publication_is_forwarded_as_the_bytes_it_came_in() {
        let quote = Publication::builder(AdvId::new(4), MsgId::new(144))
            .attr("class", "STOCK")
            .attr("symbol", "YHOO")
            .attr("open", 18.37)
            .attr("high", 18.63)
            .attr("low", 18.37)
            .attr("close", 18.37)
            .attr("volume", 40_000i64)
            .attr("date", "5-Sep-96")
            .attr("openClose%Diff", 0.0)
            .attr("highLow%Diff", 0.014)
            .attr("closeEqualsLow", true)
            .attr("closeEqualsHigh", false)
            .build();
        let mut env = PubEnvelope::new(quote.clone(), SimTime::from_micros(77));
        env.hops = 2;
        let stock = re_encode(&BrokerMsg::Publication(env));
        let trailer = forwarded_trailer(&stock);
        assert_eq!(
            trailer,
            [&3u32.to_le_bytes()[..], &77u64.to_le_bytes()].concat()
        );
        assert_eq!(decode_publication(&stock), quote);

        // A repeated name is forwarded as it came, not canonicalised,
        // and every receiver decodes it as the builder would.
        let repeated = raw_frame(&[("a", 5), ("b", 6), ("a", 7)]);
        forwarded_trailer(&repeated);
        let env = receive(&repeated).hopped();
        assert_eq!((env.adv_id(), env.msg_id()), (AdvId::new(1), MsgId::new(2)));
        let p = env.publication().expect("decode").into_owned();
        assert_eq!(p, expect(&[("a", 5), ("b", 6), ("a", 7)]));
        assert_eq!(p.to_string(), "Adv1#2:[a,7],[b,6]");
    }

    #[test]
    fn more_shapes_than_tables_still_decode_and_stay_bounded() {
        let shapes: Vec<Vec<(String, i64)>> = (0..2 * TABLES)
            .map(|s| (0..3).map(|a| (format!("s{s}a{a}"), 0)).collect())
            .collect();
        for round in 0..3 {
            for shape in &shapes {
                let attrs: Vec<(&str, i64)> =
                    shape.iter().map(|(n, _)| (n.as_str(), round)).collect();
                assert_eq!(decode_publication(&raw_frame(&attrs)), expect(&attrs));
                assert!(RECENT.with_borrow(Vec::len) <= TABLES);
            }
        }
        // The most recent shapes are the ones kept.
        let kept: Vec<(&str, i64)> = shapes[2 * TABLES - 1]
            .iter()
            .map(|(n, _)| (n.as_str(), 9))
            .collect();
        let a = decode_publication(&raw_frame(&kept));
        assert!(a.same_names(&decode_publication(&raw_frame(&kept))));
        assert!(RECENT.with_borrow(|t| t.first() == Some(a.names())));
    }

    #[test]
    fn a_count_the_frame_has_no_room_for_is_refused_before_reserving() {
        // Sixteen million attributes, predicates, brokers: each claimed
        // by a frame of a few dozen bytes.
        let mut publication = raw_frame(&[("a", 1), ("b", 2)]);
        publication[17..21].copy_from_slice(&16_000_000u32.to_le_bytes());
        let mut subscribe = Vec::new();
        BrokerMsg::Subscribe(Subscription::new(SubId::new(1), stock_template("YHOO")))
            .encode(&mut subscribe);
        subscribe[9..13].copy_from_slice(&16_000_000u32.to_le_bytes());
        let mut bia = Vec::new();
        BrokerMsg::Bia {
            request: 1,
            infos: Vec::new(),
        }
        .encode(&mut bia);
        bia[9..13].copy_from_slice(&16_000_000u32.to_le_bytes());
        bia.extend_from_slice(&[0; 64]);
        for frame in [&publication, &subscribe, &bia] {
            assert_eq!(
                decode_exact::<BrokerMsg>(frame).err(),
                Some(WireError::BadLength(16_000_000))
            );
        }
        // A count the bytes could hold, over elements that are not
        // there: refused at the first of them.
        let mut short = raw_frame(&[("a", 1), ("b", 2)]);
        short[17..21].copy_from_slice(&4u32.to_le_bytes());
        assert_eq!(
            decode_exact::<BrokerMsg>(&short).err(),
            Some(WireError::Truncated)
        );
    }
}
