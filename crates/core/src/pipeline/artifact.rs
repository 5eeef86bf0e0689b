//! Serializable phase artifacts.
//!
//! Every pipeline phase output implements [`Artifact`]: a conversion to
//! and from the checkpoint [`JsonValue`] tree. Encoding is
//! deterministic (BTreeMap-ordered collections, insertion-ordered
//! objects) and lossless — `from_json(to_json(x)) == x` bit-for-bit,
//! including every `f64` (carried as a JSON number in its shortest
//! round-trip form, see [`greenps_telemetry::json`]).
//!
//! This module owns the codecs for the core model types; higher layers
//! (e.g. `greenps-workload`) build their artifacts out of the public
//! field helpers below.

use crate::cram::CramStats;
use crate::model::{
    Allocation, AllocationInput, BrokerLoad, BrokerSpec, LinearFn, SubscriptionEntry, Unit,
};
use crate::overlay::{Overlay, OverlayNode, OverlayStats};
use greenps_profile::{PublisherProfile, PublisherTable, ShiftingBitVector, SubscriptionProfile};
use greenps_pubsub::ids::{AdvId, BrokerId, MsgId, SubId};
use greenps_pubsub::parser::parse_filter;
use greenps_pubsub::Filter;
use greenps_telemetry::json::{self, JsonValue};
use std::fmt;

/// A decode failure: which field or structure was wrong.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArtifactError {
    message: String,
}

impl ArtifactError {
    /// Creates an error with a description.
    pub fn new(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
        }
    }
}

impl fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "artifact decode failed: {}", self.message)
    }
}

impl std::error::Error for ArtifactError {}

impl From<json::JsonError> for ArtifactError {
    fn from(e: json::JsonError) -> Self {
        ArtifactError::new(e.to_string())
    }
}

/// A checkpointable phase output: a named kind plus a lossless JSON
/// codec.
pub trait Artifact: Sized {
    /// Stable artifact-kind tag recorded next to the payload, so a
    /// checkpoint loaded for the wrong phase fails loudly instead of
    /// decoding garbage.
    const KIND: &'static str;

    /// Encodes the artifact. Deterministic: equal values produce equal
    /// trees (and therefore equal bytes).
    fn to_json(&self) -> JsonValue;

    /// Decodes an artifact previously produced by [`Artifact::to_json`].
    ///
    /// # Errors
    /// Fails on missing fields, wrong types, or values violating the
    /// type's invariants.
    fn from_json(value: &JsonValue) -> Result<Self, ArtifactError>;
}

// ---------------------------------------------------------------------
// Field helpers
// ---------------------------------------------------------------------

/// Looks up a required object field.
///
/// # Errors
/// Fails when `value` is not an object or lacks `key`.
pub fn field<'a>(value: &'a JsonValue, key: &str) -> Result<&'a JsonValue, ArtifactError> {
    value
        .get(key)
        .ok_or_else(|| ArtifactError::new(format!("missing field `{key}`")))
}

/// Reads a required `u64` field.
///
/// # Errors
/// Fails when the field is missing or not an integer.
pub fn u64_field(value: &JsonValue, key: &str) -> Result<u64, ArtifactError> {
    field(value, key)?
        .as_u64()
        .ok_or_else(|| ArtifactError::new(format!("field `{key}` is not an integer")))
}

/// Reads a required `usize` field.
///
/// # Errors
/// Fails when the field is missing, not an integer, or overflows
/// `usize`.
pub fn usize_field(value: &JsonValue, key: &str) -> Result<usize, ArtifactError> {
    usize::try_from(u64_field(value, key)?)
        .map_err(|_| ArtifactError::new(format!("field `{key}` overflows usize")))
}

/// Reads a required `f64` field.
///
/// # Errors
/// Fails when the field is missing or not a number (`null`, the
/// spelling of a non-finite float, is not).
pub fn f64_field(value: &JsonValue, key: &str) -> Result<f64, ArtifactError> {
    field(value, key)?
        .as_f64()
        .ok_or_else(|| ArtifactError::new(format!("field `{key}` is not a number")))
}

/// Reads a rate, bandwidth or delay coefficient: an [`f64_field`] that
/// must be finite and non-negative. A NaN or infinite capacity would
/// pass every feasibility test and make a broker unbounded.
///
/// # Errors
/// Fails when the field is missing, is not a float, or is NaN,
/// infinite or negative.
pub fn quantity_field(value: &JsonValue, key: &str) -> Result<f64, ArtifactError> {
    let v = f64_field(value, key)?;
    if v.is_finite() && v >= 0.0 {
        Ok(v)
    } else {
        Err(ArtifactError::new(format!(
            "field `{key}` is {v}, not a finite non-negative number"
        )))
    }
}

/// Reads a required `bool` field.
///
/// # Errors
/// Fails when the field is missing or not a boolean.
pub fn bool_field(value: &JsonValue, key: &str) -> Result<bool, ArtifactError> {
    field(value, key)?
        .as_bool()
        .ok_or_else(|| ArtifactError::new(format!("field `{key}` is not a boolean")))
}

/// Reads a required string field.
///
/// # Errors
/// Fails when the field is missing or not a string.
pub fn str_field<'a>(value: &'a JsonValue, key: &str) -> Result<&'a str, ArtifactError> {
    field(value, key)?
        .as_str()
        .ok_or_else(|| ArtifactError::new(format!("field `{key}` is not a string")))
}

/// Reads a required array field.
///
/// # Errors
/// Fails when the field is missing or not an array.
pub fn arr_field<'a>(value: &'a JsonValue, key: &str) -> Result<&'a [JsonValue], ArtifactError> {
    field(value, key)?
        .as_arr()
        .ok_or_else(|| ArtifactError::new(format!("field `{key}` is not an array")))
}

/// Encodes a sequence of ids as a JSON array of raw integers.
pub fn ids_to_json<I: Into<u64>>(ids: impl IntoIterator<Item = I>) -> JsonValue {
    JsonValue::Arr(ids.into_iter().map(|i| JsonValue::U64(i.into())).collect())
}

/// Decodes an array of raw integers into ids.
///
/// # Errors
/// Fails when an element is not an integer.
pub fn ids_from_json<I: From<u64>>(items: &[JsonValue]) -> Result<Vec<I>, ArtifactError> {
    items
        .iter()
        .map(|v| {
            v.as_u64()
                .map(I::from)
                .ok_or_else(|| ArtifactError::new("id is not an integer"))
        })
        .collect()
}

// ---------------------------------------------------------------------
// Profile-layer codecs
// ---------------------------------------------------------------------

/// Encodes a shifting bit vector as `{capacity, first_id, ids}`.
pub fn bitvec_to_json(v: &ShiftingBitVector) -> JsonValue {
    JsonValue::obj()
        .field("capacity", JsonValue::U64(v.capacity() as u64))
        .field("first_id", JsonValue::U64(v.first_id()))
        .field("ids", ids_to_json(v.iter_ids()))
}

/// Decodes a shifting bit vector.
///
/// # Errors
/// Fails on missing fields, a zero capacity, or ids outside the window.
pub fn bitvec_from_json(value: &JsonValue) -> Result<ShiftingBitVector, ArtifactError> {
    let capacity = usize_field(value, "capacity")?;
    if capacity == 0 {
        return Err(ArtifactError::new("bit vector capacity is zero"));
    }
    let first_id = u64_field(value, "first_id")?;
    let mut bits = vec![false; capacity];
    for id in ids_from_json::<u64>(arr_field(value, "ids")?)? {
        let slot = id
            .checked_sub(first_id)
            .and_then(|i| usize::try_from(i).ok())
            .and_then(|i| bits.get_mut(i));
        match slot {
            Some(b) => *b = true,
            None => {
                return Err(ArtifactError::new(format!(
                    "bit id {id} outside window [{first_id}, {first_id}+{capacity})"
                )));
            }
        }
    }
    Ok(ShiftingBitVector::from_bits(capacity, first_id, &bits))
}

/// Encodes a subscription profile as `{capacity, vectors}`.
pub fn profile_to_json(p: &SubscriptionProfile) -> JsonValue {
    JsonValue::obj()
        .field("capacity", JsonValue::U64(p.capacity() as u64))
        .field(
            "vectors",
            JsonValue::Arr(
                p.iter()
                    .map(|(adv, v)| {
                        JsonValue::obj()
                            .field("adv", JsonValue::U64(adv.raw()))
                            .field("vector", bitvec_to_json(v))
                    })
                    .collect(),
            ),
        )
}

/// Decodes a subscription profile.
///
/// # Errors
/// Fails when a vector entry is malformed.
pub fn profile_from_json(value: &JsonValue) -> Result<SubscriptionProfile, ArtifactError> {
    let mut p = SubscriptionProfile::with_capacity(usize_field(value, "capacity")?);
    for entry in arr_field(value, "vectors")? {
        let adv = AdvId::new(u64_field(entry, "adv")?);
        p.insert_vector(adv, bitvec_from_json(field(entry, "vector")?)?);
    }
    Ok(p)
}

fn filter_to_json(f: &Filter) -> JsonValue {
    JsonValue::string(&f.to_string())
}

fn filter_from_json(value: &JsonValue) -> Result<Filter, ArtifactError> {
    let src = value
        .as_str()
        .ok_or_else(|| ArtifactError::new("filter is not a string"))?;
    if src.is_empty() {
        return Ok(Filter::new());
    }
    parse_filter(src).map_err(|e| ArtifactError::new(format!("bad filter `{src}`: {e}")))
}

fn publisher_to_json(p: &PublisherProfile) -> JsonValue {
    JsonValue::obj()
        .field("adv", JsonValue::U64(p.adv_id.raw()))
        .field("rate", JsonValue::from_f64(p.rate))
        .field("bandwidth", JsonValue::from_f64(p.bandwidth))
        .field("last_msg_id", JsonValue::U64(p.last_msg_id.raw()))
}

fn publisher_from_json(value: &JsonValue) -> Result<PublisherProfile, ArtifactError> {
    Ok(PublisherProfile::new(
        AdvId::new(u64_field(value, "adv")?),
        quantity_field(value, "rate")?,
        quantity_field(value, "bandwidth")?,
        MsgId::new(u64_field(value, "last_msg_id")?),
    ))
}

// ---------------------------------------------------------------------
// Model codecs
// ---------------------------------------------------------------------

/// Encodes a linear cost function as `{base, per_sub}`.
pub fn linear_fn_to_json(l: &LinearFn) -> JsonValue {
    JsonValue::obj()
        .field("base", JsonValue::from_f64(l.base))
        .field("per_sub", JsonValue::from_f64(l.per_sub))
}

/// Decodes a linear cost function.
///
/// # Errors
/// Fails on missing or malformed coefficients.
pub fn linear_fn_from_json(value: &JsonValue) -> Result<LinearFn, ArtifactError> {
    Ok(LinearFn::new(
        quantity_field(value, "base")?,
        quantity_field(value, "per_sub")?,
    ))
}

fn broker_spec_to_json(b: &BrokerSpec) -> JsonValue {
    JsonValue::obj()
        .field("id", JsonValue::U64(b.id.raw()))
        .field("url", JsonValue::string(&b.url))
        .field("matching_delay", linear_fn_to_json(&b.matching_delay))
        .field("out_bandwidth", JsonValue::from_f64(b.out_bandwidth))
}

fn broker_spec_from_json(value: &JsonValue) -> Result<BrokerSpec, ArtifactError> {
    Ok(BrokerSpec::new(
        BrokerId::new(u64_field(value, "id")?),
        str_field(value, "url")?.to_string(),
        linear_fn_from_json(field(value, "matching_delay")?)?,
        quantity_field(value, "out_bandwidth")?,
    ))
}

fn subscription_to_json(s: &SubscriptionEntry) -> JsonValue {
    JsonValue::obj()
        .field("id", JsonValue::U64(s.id.raw()))
        .field("filter", filter_to_json(&s.filter))
        .field("profile", profile_to_json(&s.profile))
}

fn subscription_from_json(value: &JsonValue) -> Result<SubscriptionEntry, ArtifactError> {
    Ok(SubscriptionEntry::new(
        SubId::new(u64_field(value, "id")?),
        filter_from_json(field(value, "filter")?)?,
        profile_from_json(field(value, "profile")?)?,
    ))
}

/// Encodes a subscription unit.
pub fn unit_to_json(u: &Unit) -> JsonValue {
    JsonValue::obj()
        .field("subs", ids_to_json(u.subs.iter().copied()))
        .field("profile", profile_to_json(&u.profile))
        .field("out_bandwidth", JsonValue::from_f64(u.out_bandwidth))
}

/// Decodes a subscription unit.
///
/// # Errors
/// Fails on malformed members.
pub fn unit_from_json(value: &JsonValue) -> Result<Unit, ArtifactError> {
    Ok(Unit {
        subs: ids_from_json(arr_field(value, "subs")?)?,
        profile: profile_from_json(field(value, "profile")?)?,
        out_bandwidth: f64_field(value, "out_bandwidth")?,
    })
}

fn broker_load_to_json(l: &BrokerLoad) -> JsonValue {
    JsonValue::obj()
        .field("broker", JsonValue::U64(l.broker.raw()))
        .field(
            "units",
            JsonValue::Arr(l.units.iter().map(unit_to_json).collect()),
        )
        .field("union_profile", profile_to_json(&l.union_profile))
        .field("out_bw_used", JsonValue::from_f64(l.out_bw_used))
        .field("in_rate", JsonValue::from_f64(l.in_rate))
        .field("in_bandwidth", JsonValue::from_f64(l.in_bandwidth))
}

fn broker_load_from_json(value: &JsonValue) -> Result<BrokerLoad, ArtifactError> {
    Ok(BrokerLoad {
        broker: BrokerId::new(u64_field(value, "broker")?),
        units: arr_field(value, "units")?
            .iter()
            .map(unit_from_json)
            .collect::<Result<_, _>>()?,
        union_profile: profile_from_json(field(value, "union_profile")?)?,
        out_bw_used: f64_field(value, "out_bw_used")?,
        in_rate: f64_field(value, "in_rate")?,
        in_bandwidth: f64_field(value, "in_bandwidth")?,
    })
}

/// Encodes a Phase-2 allocation.
pub fn allocation_to_json(a: &Allocation) -> JsonValue {
    JsonValue::obj().field(
        "loads",
        JsonValue::Arr(a.loads.iter().map(broker_load_to_json).collect()),
    )
}

/// Decodes a Phase-2 allocation.
///
/// # Errors
/// Fails on malformed loads.
pub fn allocation_from_json(value: &JsonValue) -> Result<Allocation, ArtifactError> {
    Ok(Allocation {
        loads: arr_field(value, "loads")?
            .iter()
            .map(broker_load_from_json)
            .collect::<Result<_, _>>()?,
    })
}

/// Encodes CRAM statistics.
pub fn cram_stats_to_json(s: &CramStats) -> JsonValue {
    JsonValue::obj()
        .field("subscriptions", JsonValue::U64(s.subscriptions as u64))
        .field("initial_gifs", JsonValue::U64(s.initial_gifs as u64))
        .field("iterations", JsonValue::U64(s.iterations as u64))
        .field("merges", JsonValue::U64(s.merges as u64))
        .field("failed_merges", JsonValue::U64(s.failed_merges as u64))
        .field(
            "one_to_many_merges",
            JsonValue::U64(s.one_to_many_merges as u64),
        )
        .field(
            "closeness_computations",
            JsonValue::U64(s.closeness_computations),
        )
        .field("poset_relation_ops", JsonValue::U64(s.poset_relation_ops))
        .field("final_units", JsonValue::U64(s.final_units as u64))
}

/// Decodes CRAM statistics.
///
/// # Errors
/// Fails on missing counters.
pub fn cram_stats_from_json(value: &JsonValue) -> Result<CramStats, ArtifactError> {
    Ok(CramStats {
        subscriptions: usize_field(value, "subscriptions")?,
        initial_gifs: usize_field(value, "initial_gifs")?,
        iterations: usize_field(value, "iterations")?,
        merges: usize_field(value, "merges")?,
        failed_merges: usize_field(value, "failed_merges")?,
        one_to_many_merges: usize_field(value, "one_to_many_merges")?,
        closeness_computations: u64_field(value, "closeness_computations")?,
        poset_relation_ops: u64_field(value, "poset_relation_ops")?,
        final_units: usize_field(value, "final_units")?,
    })
}

impl Artifact for AllocationInput {
    const KIND: &'static str = "allocation-input";

    fn to_json(&self) -> JsonValue {
        JsonValue::obj()
            .field(
                "brokers",
                JsonValue::Arr(self.brokers.iter().map(broker_spec_to_json).collect()),
            )
            .field(
                "subscriptions",
                JsonValue::Arr(
                    self.subscriptions
                        .iter()
                        .map(subscription_to_json)
                        .collect(),
                ),
            )
            .field(
                "publishers",
                JsonValue::Arr(self.publishers.iter().map(publisher_to_json).collect()),
            )
    }

    fn from_json(value: &JsonValue) -> Result<Self, ArtifactError> {
        Ok(AllocationInput {
            brokers: arr_field(value, "brokers")?
                .iter()
                .map(broker_spec_from_json)
                .collect::<Result<_, _>>()?,
            subscriptions: arr_field(value, "subscriptions")?
                .iter()
                .map(subscription_from_json)
                .collect::<Result<_, _>>()?,
            publishers: arr_field(value, "publishers")?
                .iter()
                .map(publisher_from_json)
                .collect::<Result<PublisherTable, _>>()?,
        })
    }
}

// ---------------------------------------------------------------------
// Overlay codecs
// ---------------------------------------------------------------------

/// Encodes overlay-construction statistics.
pub fn overlay_stats_to_json(s: &OverlayStats) -> JsonValue {
    JsonValue::obj()
        .field("layers", JsonValue::U64(s.layers as u64))
        .field(
            "pure_forwarders_removed",
            JsonValue::U64(s.pure_forwarders_removed as u64),
        )
        .field("takeovers", JsonValue::U64(s.takeovers as u64))
        .field("best_fit_swaps", JsonValue::U64(s.best_fit_swaps as u64))
        .field("forced_root", JsonValue::Bool(s.forced_root))
}

/// Decodes overlay-construction statistics.
///
/// # Errors
/// Fails on missing counters.
pub fn overlay_stats_from_json(value: &JsonValue) -> Result<OverlayStats, ArtifactError> {
    Ok(OverlayStats {
        layers: usize_field(value, "layers")?,
        pure_forwarders_removed: usize_field(value, "pure_forwarders_removed")?,
        takeovers: usize_field(value, "takeovers")?,
        best_fit_swaps: usize_field(value, "best_fit_swaps")?,
        forced_root: bool_field(value, "forced_root")?,
    })
}

fn overlay_node_to_json(n: &OverlayNode) -> JsonValue {
    JsonValue::obj()
        .field("broker", JsonValue::U64(n.broker.raw()))
        .field("children", ids_to_json(n.children.iter().copied()))
        .field(
            "units",
            JsonValue::Arr(n.units.iter().map(unit_to_json).collect()),
        )
        .field("profile", profile_to_json(&n.profile))
        .field("in_bandwidth", JsonValue::from_f64(n.in_bandwidth))
        .field("in_rate", JsonValue::from_f64(n.in_rate))
        .field("out_bw_used", JsonValue::from_f64(n.out_bw_used))
        .field("route_entries", JsonValue::U64(n.route_entries as u64))
}

fn overlay_node_from_json(value: &JsonValue) -> Result<OverlayNode, ArtifactError> {
    Ok(OverlayNode {
        broker: BrokerId::new(u64_field(value, "broker")?),
        children: ids_from_json(arr_field(value, "children")?)?,
        units: arr_field(value, "units")?
            .iter()
            .map(unit_from_json)
            .collect::<Result<_, _>>()?,
        profile: profile_from_json(field(value, "profile")?)?,
        in_bandwidth: f64_field(value, "in_bandwidth")?,
        in_rate: f64_field(value, "in_rate")?,
        out_bw_used: f64_field(value, "out_bw_used")?,
        route_entries: usize_field(value, "route_entries")?,
    })
}

/// Encodes a constructed overlay tree.
pub fn overlay_to_json(o: &Overlay) -> JsonValue {
    JsonValue::obj()
        .field("root", JsonValue::U64(o.root().raw()))
        .field("stats", overlay_stats_to_json(&o.stats))
        .field(
            "nodes",
            JsonValue::Arr(o.nodes().map(overlay_node_to_json).collect()),
        )
}

/// Decodes a constructed overlay tree, revalidating the tree invariant.
///
/// # Errors
/// Fails on malformed nodes or a node set that is not a tree.
pub fn overlay_from_json(value: &JsonValue) -> Result<Overlay, ArtifactError> {
    let root = BrokerId::new(u64_field(value, "root")?);
    let stats = overlay_stats_from_json(field(value, "stats")?)?;
    let mut nodes = std::collections::BTreeMap::new();
    for entry in arr_field(value, "nodes")? {
        let node = overlay_node_from_json(entry)?;
        nodes.insert(node.broker, node);
    }
    Overlay::from_parts(nodes, root, stats).map_err(|e| ArtifactError::new(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use greenps_pubsub::{Op, Predicate, Value};

    fn profile(adv: u64, ids: &[u64]) -> SubscriptionProfile {
        let mut v = ShiftingBitVector::starting_at(64, 10);
        for &id in ids {
            v.record(id);
        }
        let mut p = SubscriptionProfile::with_capacity(64);
        p.insert_vector(AdvId::new(adv), v);
        p
    }

    #[test]
    fn profile_round_trips() {
        let p = profile(3, &[10, 12, 40]);
        let back = profile_from_json(&profile_to_json(&p)).unwrap();
        assert_eq!(p, back);
        assert_eq!(back.capacity(), 64);
        let v = back.vector(AdvId::new(3)).unwrap();
        assert_eq!(v.first_id(), 10);
        assert_eq!(v.iter_ids().collect::<Vec<_>>(), vec![10, 12, 40]);
    }

    #[test]
    fn filters_round_trip_including_empty() {
        let empty = Filter::new();
        assert_eq!(
            filter_from_json(&filter_to_json(&empty)).unwrap(),
            empty,
            "empty filter survives"
        );
        let f = Filter::from_predicates(vec![
            Predicate {
                attr: "class".into(),
                op: Op::Eq,
                value: Value::Str("STOCK".into()),
            },
            Predicate {
                attr: "volume".into(),
                op: Op::Gt,
                value: Value::Int(100),
            },
        ]);
        assert_eq!(filter_from_json(&filter_to_json(&f)).unwrap(), f);
    }

    #[test]
    fn allocation_input_round_trips() {
        let input = AllocationInput {
            brokers: vec![BrokerSpec::new(
                BrokerId::new(4),
                "sim://4",
                LinearFn::new(0.0001, 1e-7),
                48_000.5,
            )],
            subscriptions: vec![SubscriptionEntry::new(
                SubId::new(9),
                Filter::new(),
                profile(1, &[11, 13]),
            )],
            publishers: [PublisherProfile::new(
                AdvId::new(1),
                49.75,
                50_000.25,
                MsgId::new(321),
            )]
            .into_iter()
            .collect(),
        };
        let json = input.to_json();
        let back = AllocationInput::from_json(&json).unwrap();
        assert_eq!(back.to_json(), json, "re-encode is byte-identical");
        assert_eq!(back.brokers, input.brokers);
        assert_eq!(back.subscriptions, input.subscriptions);
        assert_eq!(
            back.publishers.get(AdvId::new(1)),
            input.publishers.get(AdvId::new(1))
        );
        assert_eq!(AllocationInput::KIND, "allocation-input");
    }

    #[test]
    fn cram_and_overlay_stats_round_trip() {
        let s = CramStats {
            subscriptions: 10,
            initial_gifs: 8,
            iterations: 5,
            merges: 4,
            failed_merges: 1,
            one_to_many_merges: 2,
            closeness_computations: 123,
            poset_relation_ops: 456,
            final_units: 3,
        };
        assert_eq!(cram_stats_from_json(&cram_stats_to_json(&s)).unwrap(), s);
        let o = OverlayStats {
            layers: 3,
            pure_forwarders_removed: 2,
            takeovers: 1,
            best_fit_swaps: 4,
            forced_root: true,
        };
        assert_eq!(
            overlay_stats_from_json(&overlay_stats_to_json(&o)).unwrap(),
            o
        );
    }

    #[test]
    fn bad_bitvec_ids_fail() {
        let v = json::parse(r#"{"capacity":8,"first_id":10,"ids":[5]}"#).unwrap();
        assert!(bitvec_from_json(&v).is_err(), "id below the window");
        let v = json::parse(r#"{"capacity":8,"first_id":10,"ids":[18]}"#).unwrap();
        assert!(bitvec_from_json(&v).is_err(), "id past the window");
    }

    #[test]
    fn missing_fields_are_described() {
        let e = u64_field(&JsonValue::obj(), "nope").unwrap_err();
        assert!(e.to_string().contains("nope"));
    }
}
