//! Message types exchanged in the publish/subscribe network.
//!
//! Publications carry attribute/value pairs plus the publisher's
//! advertisement id and a per-publisher message id — the two fields the
//! paper's bit-vector profiling framework relies on (Section III-B).

use crate::filter::Filter;
use crate::ids::{AdvId, MsgId, SubId};
use crate::value::Value;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// The attribute names of one publication shape: ordered, free of
/// duplicates, and shared by reference count between every publication
/// built on it.
#[derive(Debug, Clone, PartialEq)]
pub struct AttrNames(Arc<[Arc<str>]>);

/// Where `name` is in `names`.
fn position(names: &[Arc<str>], name: &str) -> Option<usize> {
    names.iter().position(|n| **n == *name)
}

impl AttrNames {
    /// Number of names.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True for the table of an attribute-less publication.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The name at `index`.
    pub fn get(&self, index: usize) -> Option<&str> {
        self.0.get(index).map(|n| &**n)
    }

    /// Iterates over the names in order.
    pub fn iter(&self) -> impl Iterator<Item = &str> {
        self.0.iter().map(|n| &**n)
    }
}

/// Collects names into a table; a repeated name keeps its first
/// position, as [`PublicationBuilder::attr`] does.
impl<'a> FromIterator<&'a str> for AttrNames {
    fn from_iter<I: IntoIterator<Item = &'a str>>(names: I) -> Self {
        let mut distinct: Vec<Arc<str>> = Vec::new();
        for name in names {
            if position(&distinct, name).is_none() {
                distinct.push(Arc::from(name));
            }
        }
        Self(Arc::from(distinct))
    }
}

/// What every clone of a publication shares.
#[derive(Debug, PartialEq)]
struct Body {
    names: AttrNames,
    /// `values[i]` belongs to `names[i]`; the lengths are equal.
    values: Box<[Value]>,
}

/// An immutable publication message.
///
/// Publications are reference-counted so a broker can forward one
/// message to many neighbors without copying the payload, and
/// publications of one shape share one [`AttrNames`] table, so making
/// one costs its values, not its names.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Publication {
    /// Advertisement id identifying the publisher (paper §III-B).
    pub adv_id: AdvId,
    /// Per-publisher sequence number appended by the publisher.
    pub msg_id: MsgId,
    body: Arc<Body>,
}

impl Publication {
    /// Starts building a publication for the given publisher identity.
    pub fn builder(adv_id: AdvId, msg_id: MsgId) -> PublicationBuilder {
        PublicationBuilder {
            adv_id,
            msg_id,
            names: Vec::new(),
            values: Vec::new(),
        }
    }

    /// A publication on an existing name table: `values[i]` is the
    /// value of `names[i]`. `None` when the lengths differ.
    pub fn with_names(
        adv_id: AdvId,
        msg_id: MsgId,
        names: &AttrNames,
        values: Vec<Value>,
    ) -> Option<Self> {
        (names.len() == values.len()).then(|| Self {
            adv_id,
            msg_id,
            body: Arc::new(Body {
                names: names.clone(),
                values: values.into_boxed_slice(),
            }),
        })
    }

    /// The name table this publication is built on.
    pub fn names(&self) -> &AttrNames {
        &self.body.names
    }

    /// True when both publications point at one name table, not merely
    /// at equal ones.
    pub fn same_names(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.body.names.0, &other.body.names.0)
    }

    /// Looks up the value of an attribute.
    pub fn get(&self, attr: &str) -> Option<&Value> {
        self.body.values.get(position(&self.body.names.0, attr)?)
    }

    /// Iterates over `(attribute, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Value)> {
        self.body.names.iter().zip(self.body.values.iter())
    }

    /// Number of attributes.
    pub fn len(&self) -> usize {
        self.body.values.len()
    }

    /// True when the publication carries no attributes.
    pub fn is_empty(&self) -> bool {
        self.body.values.is_empty()
    }

    /// Approximate serialized size in bytes, used for bandwidth
    /// accounting in the simulator (ids + attribute payload).
    pub fn wire_size(&self) -> usize {
        16 + self
            .iter()
            .map(|(a, v)| a.len() + 1 + v.wire_size())
            .sum::<usize>()
    }
}

impl fmt::Display for Publication {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{}:", self.adv_id, self.msg_id)?;
        for (i, (a, v)) in self.iter().enumerate() {
            if i > 0 {
                f.write_str(",")?;
            }
            write!(f, "[{a},{v}]")?;
        }
        Ok(())
    }
}

/// Attributes reserved for on the first [`PublicationBuilder::push`]:
/// the paper's stock quote has twelve, and `build` keeps none of the
/// slack.
const RESERVE: usize = 12;

/// Builder for [`Publication`].
#[derive(Debug)]
pub struct PublicationBuilder {
    adv_id: AdvId,
    msg_id: MsgId,
    names: Vec<Arc<str>>,
    values: Vec<Value>,
}

impl PublicationBuilder {
    /// Adds an attribute/value pair; setting an attribute twice
    /// replaces the earlier value (publications are attribute maps).
    #[must_use]
    pub fn attr(mut self, name: impl Into<String>, value: impl Into<Value>) -> Self {
        let name: String = name.into();
        self.push(&name, value.into());
        self
    }

    /// [`attr`](Self::attr) for a caller that holds the builder by
    /// reference and the name as a slice.
    pub fn push(&mut self, name: &str, value: Value) {
        match position(&self.names, name) {
            Some(at) => {
                if let Some(slot) = self.values.get_mut(at) {
                    *slot = value;
                }
            }
            None => {
                if self.names.is_empty() {
                    self.names.reserve_exact(RESERVE);
                    self.values.reserve_exact(RESERVE);
                }
                self.names.push(Arc::from(name));
                self.values.push(value);
            }
        }
    }

    /// Finalizes the publication.
    pub fn build(self) -> Publication {
        Publication {
            adv_id: self.adv_id,
            msg_id: self.msg_id,
            body: Arc::new(Body {
                names: AttrNames(Arc::from(self.names)),
                values: self.values.into_boxed_slice(),
            }),
        }
    }
}

/// An advertisement: a publisher's declaration of the publications it
/// will emit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Advertisement {
    /// Globally unique advertisement id.
    pub id: AdvId,
    /// The filter describing future publications.
    pub filter: Filter,
}

impl Advertisement {
    /// Creates an advertisement.
    pub fn new(id: AdvId, filter: Filter) -> Self {
        Self { id, filter }
    }
}

/// A subscription registered by a subscriber.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Subscription {
    /// Globally unique subscription id.
    pub id: SubId,
    /// The filter describing wanted publications.
    pub filter: Filter,
}

impl Subscription {
    /// Creates a subscription.
    pub fn new(id: SubId, filter: Filter) -> Self {
        Self { id, filter }
    }
}

/// The messages a content-based broker routes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Message {
    /// Data message flowing from publishers to matching subscribers.
    Publication(Publication),
    /// Advertisement flooded through the overlay.
    Advertise(Advertisement),
    /// Retract an advertisement.
    Unadvertise(AdvId),
    /// Subscription routed toward matching advertisements.
    Subscribe(Subscription),
    /// Retract a subscription.
    Unsubscribe(SubId),
}

impl Message {
    /// Approximate serialized size in bytes for bandwidth accounting.
    pub fn wire_size(&self) -> usize {
        match self {
            Message::Publication(p) => p.wire_size(),
            Message::Advertise(a) => 8 + a.filter.wire_size(),
            Message::Subscribe(s) => 8 + s.filter.wire_size(),
            Message::Unadvertise(_) | Message::Unsubscribe(_) => 8,
        }
    }

    /// True for publication (data-plane) messages.
    pub fn is_publication(&self) -> bool {
        matches!(self, Message::Publication(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::stock_template;

    #[test]
    fn builder_preserves_attribute_order_and_lookup() {
        let p = Publication::builder(AdvId::new(2), MsgId::new(144))
            .attr("class", "STOCK")
            .attr("close", 18.37)
            .build();
        assert_eq!(p.get("class"), Some(&Value::str("STOCK")));
        assert_eq!(p.get("close"), Some(&Value::Float(18.37)));
        assert_eq!(p.get("missing"), None);
        assert_eq!(p.len(), 2);
        assert!(!p.is_empty());
    }

    #[test]
    fn publication_display_includes_identity() {
        let p = Publication::builder(AdvId::new(1), MsgId::new(75))
            .attr("symbol", "YHOO")
            .build();
        assert_eq!(p.to_string(), "Adv1#75:[symbol,'YHOO']");
    }

    #[test]
    fn clone_shares_payload() {
        let p = Publication::builder(AdvId::new(1), MsgId::new(1))
            .attr("a", 1i64)
            .build();
        let q = p.clone();
        assert!(Arc::ptr_eq(&p.body, &q.body));
        assert_eq!(std::mem::size_of::<Publication>(), 24);
    }

    #[test]
    fn later_duplicate_wins_and_keeps_the_first_position() {
        let p = Publication::builder(AdvId::new(1), MsgId::new(1))
            .attr("a", 1i64)
            .attr("b", 2i64)
            .attr("a", 3i64)
            .build();
        let pairs: Vec<_> = p.iter().collect();
        assert_eq!(pairs, [("a", &Value::Int(3)), ("b", &Value::Int(2))]);
        assert_eq!(p.to_string(), "Adv1#1:[a,3],[b,2]");
    }

    #[test]
    fn publications_on_one_table_share_it_and_equal_builder_made_ones() {
        let names: AttrNames = ["a", "b", "a"].into_iter().collect();
        assert_eq!(names.iter().collect::<Vec<_>>(), ["a", "b"]);
        let make = |m: u64, a: i64| {
            Publication::with_names(
                AdvId::new(1),
                MsgId::new(m),
                &names,
                vec![Value::Int(a), Value::Bool(true)],
            )
        };
        let (p, q) = (make(1, 7).unwrap(), make(2, 8).unwrap());
        assert!(p.same_names(&q));
        let built = Publication::builder(AdvId::new(1), MsgId::new(1))
            .attr("a", 7i64)
            .attr("b", true)
            .build();
        assert_eq!(p, built);
        assert!(!p.same_names(&built));
        assert_eq!(p.wire_size(), built.wire_size());
        assert!(
            Publication::with_names(AdvId::new(1), MsgId::new(3), &names, vec![Value::Int(1)])
                .is_none()
        );
    }

    #[test]
    fn wire_sizes_are_positive_and_ordered() {
        let small = Message::Unsubscribe(SubId::new(1));
        let sub = Message::Subscribe(Subscription::new(SubId::new(1), stock_template("YHOO")));
        assert!(small.wire_size() < sub.wire_size());
        assert!(!small.is_publication());
    }

    #[test]
    fn publication_is_data_plane() {
        let p = Publication::builder(AdvId::new(1), MsgId::new(1)).build();
        assert!(Message::Publication(p).is_publication());
    }
}
