//! Subscription workload generator (paper §VI-A).
//!
//! "Using the YHOO stock as an example …, 40% of the subscriptions
//! subscribe to the template `[class,=,'STOCK'],[symbol,=,'YHOO']`,
//! while the other 60% also subscribe to that same subscription but
//! with an additional inequality attribute, such as
//! `[class,=,'STOCK'],[symbol,=,'YHOO'],[low,<,x]`."
//!
//! Inequality thresholds are drawn from the stock's own value range so
//! selectivities spread over (0, 1) without assuming any distribution.

use crate::stock::StockSeries;
use greenps_pubsub::filter::stock_template;
use greenps_pubsub::ids::SubId;
use greenps_pubsub::predicate::{Op, Predicate};
use greenps_pubsub::Filter;
use rand::{rngs::StdRng, Rng, SeedableRng};

/// Fraction of subscriptions that are the pure symbol template.
pub const TEMPLATE_FRACTION: f64 = 0.4;

/// Numeric attributes eligible for the inequality predicate.
const INEQ_ATTRS: [&str; 5] = ["open", "high", "low", "close", "volume"];

/// A generated subscription bound to the publisher (stock) it follows.
#[derive(Debug, Clone, PartialEq)]
pub struct GeneratedSub {
    /// Subscription identity.
    pub id: SubId,
    /// The content filter.
    pub filter: Filter,
    /// Index of the stock/publisher this subscription follows.
    pub publisher_index: usize,
    /// Locality zone tag for hierarchical allocation (DESIGN.md §12).
    /// `None` for the flat §VI-A topologies; `Some(zone)` for
    /// [`crate::scenario::Topology::Zoned`] workloads.
    pub locality: Option<u32>,
}

/// Generates `counts[i]` subscriptions for publisher `i` of `series`.
///
/// Ids are assigned sequentially from 0.
pub fn generate(series: &[StockSeries], counts: &[usize], seed: u64) -> Vec<GeneratedSub> {
    assert_eq!(series.len(), counts.len(), "one count per publisher");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(counts.iter().sum());
    let mut next_id = 0u64;
    for (i, (stock, &count)) in series.iter().zip(counts).enumerate() {
        for _ in 0..count {
            let filter = one_subscription(stock, &mut rng);
            out.push(GeneratedSub {
                id: SubId::new(next_id),
                filter,
                publisher_index: i,
                locality: None,
            });
            next_id += 1;
        }
    }
    out
}

/// Generates one subscription for a stock: 40% pure template, 60% with
/// an inequality attribute.
pub fn one_subscription(stock: &StockSeries, rng: &mut StdRng) -> Filter {
    let base = stock_template(&stock.symbol);
    if rng.gen_bool(TEMPLATE_FRACTION) {
        return base;
    }
    let attr = INEQ_ATTRS[rng.gen_range(0..INEQ_ATTRS.len())];
    let (lo, hi) = stock.attr_range(attr).expect("numeric attribute");
    // A threshold inside the observed range gives selectivity in (0,1);
    // widen slightly so some subscriptions match (almost) everything or
    // (almost) nothing, like real traders' standing orders.
    let span = (hi - lo).max(1e-6);
    let threshold = rng.gen_range((lo - 0.05 * span)..(hi + 0.05 * span));
    let op = [Op::Lt, Op::Le, Op::Gt, Op::Ge][rng.gen_range(0..4)];
    #[expect(
        clippy::cast_possible_truncation,
        reason = "volume thresholds lie within 5% of the observed volume range, far inside i64; rounding toward zero is intended"
    )]
    let value = if attr == "volume" {
        greenps_pubsub::Value::Int(threshold as i64)
    } else {
        greenps_pubsub::Value::Float((threshold * 100.0).round() / 100.0)
    };
    base.and(Predicate::new(attr, op, value))
}

#[cfg(test)]
mod tests {
    use super::*;
    use greenps_pubsub::ids::{AdvId, MsgId};

    fn series() -> Vec<StockSeries> {
        vec![
            StockSeries::generate("YHOO", 1, 250),
            StockSeries::generate("GOOG", 2, 250),
        ]
    }

    #[test]
    fn counts_and_ids_are_sequential() {
        let subs = generate(&series(), &[10, 5], 42);
        assert_eq!(subs.len(), 15);
        for (i, s) in subs.iter().enumerate() {
            assert_eq!(s.id, SubId::new(i as u64));
        }
        assert_eq!(subs.iter().filter(|s| s.publisher_index == 0).count(), 10);
        assert_eq!(subs.iter().filter(|s| s.publisher_index == 1).count(), 5);
    }

    #[test]
    fn roughly_forty_percent_templates() {
        let subs = generate(&series(), &[2000, 0], 7);
        let templates = subs.iter().filter(|s| s.filter.len() == 2).count();
        let frac = templates as f64 / 2000.0;
        assert!((0.35..0.45).contains(&frac), "template fraction {frac}");
        // the rest have exactly one extra predicate
        for s in &subs {
            assert!(s.filter.len() == 2 || s.filter.len() == 3);
        }
    }

    #[test]
    fn subscriptions_only_match_their_own_symbol() {
        let sers = series();
        let subs = generate(&sers, &[50, 50], 3);
        let yhoo_pub = sers[0].publication(AdvId::new(1), MsgId::new(0));
        for s in subs.iter().filter(|s| s.publisher_index == 1) {
            assert!(!s.filter.matches(&yhoo_pub), "GOOG sub matched YHOO pub");
        }
    }

    #[test]
    fn inequality_selectivities_spread() {
        let sers = series();
        let subs = generate(&sers, &[400, 0], 11);
        // Evaluate each subscription against all publications of its
        // stock and check the selectivity histogram is not degenerate.
        let pubs: Vec<_> = (0..250)
            .map(|i| sers[0].publication(AdvId::new(1), MsgId::new(i)))
            .collect();
        let mut matched_everything = 0;
        let mut matched_nothing = 0;
        let mut middle = 0;
        for s in subs.iter().filter(|s| s.filter.len() == 3) {
            let hits = pubs.iter().filter(|p| s.filter.matches(p)).count();
            if hits == pubs.len() {
                matched_everything += 1;
            } else if hits == 0 {
                matched_nothing += 1;
            } else {
                middle += 1;
            }
        }
        assert!(middle > 100, "most inequality subs are partially selective");
        assert!(matched_everything < 100);
        assert!(matched_nothing < 100);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate(&series(), &[20, 20], 9);
        let b = generate(&series(), &[20, 20], 9);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.filter, y.filter);
        }
    }

    #[test]
    #[should_panic(expected = "one count per publisher")]
    fn mismatched_counts_panic() {
        let _ = generate(&series(), &[1], 0);
    }
}
