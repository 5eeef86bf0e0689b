//! Closeness metrics between subscription profiles (paper §IV-C).
//!
//! Given two profiles `S1`, `S2` (bit-vector sets):
//!
//! * **INTERSECT** — `|S1 ∩ S2|`;
//! * **XOR** — `1 / |S1 ⊕ S2|`, capped when the xor cardinality is zero
//!   (derived from Gryphon's metric; note it cannot distinguish empty
//!   from non-empty relationships);
//! * **IOS** — `|S1 ∩ S2|² / (|S1| + |S2|)`;
//! * **IOU** — `|S1 ∩ S2|² / |S1 ∪ S2|`.
//!
//! IOS and IOU favour clustering higher-traffic subscriptions (the
//! squared numerator) while penalizing non-overlapping traffic, and are
//! zero exactly when the relationship is empty — the property CRAM's
//! poset search pruning relies on.

use crate::bitvec::PairCardinalities;
use crate::profile::SubscriptionProfile;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A pluggable closeness measure between subscription profiles.
///
/// The paper's four metrics implement this via [`ClosenessMetric`];
/// downstream users can supply their own measure to CRAM
/// (`greenps_core::cram::CramBuilder::custom`). Higher values indicate
/// more favourable clustering candidates; a measure that returns `0.0`
/// exactly for empty relationships should report
/// [`Closeness::supports_empty_pruning`] so CRAM can prune its poset
/// search.
///
/// The `Sync` bound lets the parallel closeness engine share a measure
/// across its scoped worker threads; stateless measures (like the four
/// paper metrics) satisfy it automatically.
pub trait Closeness: Sync {
    /// Closeness between two profiles; higher is more favourable.
    fn closeness(&self, a: &SubscriptionProfile, b: &SubscriptionProfile) -> f64;

    /// True when the measure is zero exactly for empty relationships.
    fn supports_empty_pruning(&self) -> bool {
        false
    }
}

impl Closeness for ClosenessMetric {
    fn closeness(&self, a: &SubscriptionProfile, b: &SubscriptionProfile) -> f64 {
        ClosenessMetric::closeness(*self, a, b)
    }

    fn supports_empty_pruning(&self) -> bool {
        ClosenessMetric::supports_empty_pruning(*self)
    }
}

/// Cap applied to the XOR metric when `|S1 ⊕ S2| = 0` (identical sets),
/// standing in for "division by zero handled with a capped maximum".
pub const XOR_CAP: f64 = 1e9;

/// The four closeness metrics evaluated in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ClosenessMetric {
    /// Cardinality of the intersection.
    Intersect,
    /// Inverse of the xor'ed cardinality (Gryphon-derived).
    Xor,
    /// Intersect-over-sum: `|∩|² / (|S1| + |S2|)`.
    Ios,
    /// Intersect-over-union: `|∩|² / |∪|`.
    Iou,
}

impl ClosenessMetric {
    /// All metrics, in the paper's presentation order.
    pub const ALL: [ClosenessMetric; 4] = [
        ClosenessMetric::Intersect,
        ClosenessMetric::Xor,
        ClosenessMetric::Ios,
        ClosenessMetric::Iou,
    ];

    /// Computes the closeness between two profiles. Higher is more
    /// favourable for clustering.
    ///
    /// All four metrics are served by one batch popcount pass
    /// ([`SubscriptionProfile::pair_cardinalities`]) rather than
    /// separate intersect/union/count walks.
    pub fn closeness(self, a: &SubscriptionProfile, b: &SubscriptionProfile) -> f64 {
        self.from_cardinalities(a.pair_cardinalities(b))
    }

    /// Evaluates the metric from precomputed pair cardinalities.
    ///
    /// This is the scalar half of [`Self::closeness`]: the
    /// [`crate::kernel::ArenaKernel`] produces the cardinalities from
    /// its contiguous rows, and this function turns them into the
    /// metric value. Because `closeness` itself routes through here, a
    /// kernel whose cardinalities match the per-profile pass yields
    /// bit-identical `f64` results.
    pub fn from_cardinalities(self, c: PairCardinalities) -> f64 {
        match self {
            ClosenessMetric::Intersect => c.and as f64,
            ClosenessMetric::Xor => {
                let x = c.xor();
                if x == 0 {
                    XOR_CAP
                } else {
                    1.0 / x as f64
                }
            }
            ClosenessMetric::Ios => {
                let inter = c.and as f64;
                let denom = (c.left + c.right) as f64;
                if denom == 0.0 {
                    0.0
                } else {
                    inter * inter / denom
                }
            }
            ClosenessMetric::Iou => {
                let inter = c.and as f64;
                let union = c.or as f64;
                if union == 0.0 {
                    0.0
                } else {
                    inter * inter / union
                }
            }
        }
    }

    /// True when the metric is zero exactly for empty relationships,
    /// enabling poset search pruning (INTERSECT, IOS, IOU — not XOR).
    pub fn supports_empty_pruning(self) -> bool {
        !matches!(self, ClosenessMetric::Xor)
    }
}

impl fmt::Display for ClosenessMetric {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ClosenessMetric::Intersect => "INTERSECT",
            ClosenessMetric::Xor => "XOR",
            ClosenessMetric::Ios => "IOS",
            ClosenessMetric::Iou => "IOU",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitvec::ShiftingBitVector;
    use greenps_pubsub::ids::AdvId;

    /// Builds a profile with `ones` bits set starting at `offset`, on a
    /// universe of `cap` slots of a single publisher.
    fn profile(cap: usize, offset: usize, ones: usize) -> SubscriptionProfile {
        let mut bits = vec![false; cap];
        for slot in bits.iter_mut().skip(offset).take(ones) {
            *slot = true;
        }
        let mut p = SubscriptionProfile::with_capacity(cap);
        p.insert_vector(AdvId::new(1), ShiftingBitVector::from_bits(cap, 0, &bits));
        p
    }

    #[test]
    fn figure_3_ios_arithmetic() {
        // S1 has 36 bits, S2 has 16 bits, overlap is 8 bits:
        // IOS(S1,S2) = 8²/52 ... the paper works with |S1|+|S2| = 60
        // because its S1∩S2 region is counted in both: 8²/(36+16+8) is
        // not the paper's reading — it uses |S1|=36, |S2|=16 where the 8
        // shaded bits belong to both, so |S1|+|S2| = 52? The paper
        // computes 8² ÷ 60 ≈ 1.07, i.e. |S1|=36 and |S2|=24 overall.
        // We reproduce the arithmetic with explicit sets: |S1|=36,
        // |S2|=24, |∩|=8.
        let s1 = profile(64, 0, 36); // ids 0..36
        let s2 = profile(64, 28, 24); // ids 28..52, overlap 28..36 = 8
        assert_eq!(s1.intersect_count(&s2), 8);
        let ios = ClosenessMetric::Ios.closeness(&s1, &s2);
        assert!((ios - 64.0 / 60.0).abs() < 1e-9, "got {ios}");
        assert!((ios - 1.07).abs() < 0.01);
    }

    #[test]
    fn figure_3_covered_subscription_closeness() {
        // closeness between S1 (36 bits) and one of its covered 4-bit
        // subscriptions: 4²/40 = 0.4
        let s1 = profile(64, 0, 36);
        let small = profile(64, 0, 4);
        let ios = ClosenessMetric::Ios.closeness(&s1, &small);
        assert!((ios - 0.4).abs() < 1e-9);
        // and S2 (24 bits in the paper's totals) with a 1-bit covered
        // subscription: 1²/25 = 0.04
        let s2 = profile(64, 0, 24);
        let unit = profile(64, 0, 1);
        let ios = ClosenessMetric::Ios.closeness(&s2, &unit);
        assert!((ios - 0.04).abs() < 1e-9);
    }

    #[test]
    fn figure_3_cgs_closeness_beats_pairwise() {
        // S1 with ALL of its covered subscriptions: 12²/48 = 3 — greater
        // than S1-S2 closeness 1.07, supporting optimization 3.
        let s1 = profile(64, 0, 36);
        let covered = profile(64, 0, 12);
        let ios = ClosenessMetric::Ios.closeness(&s1, &covered);
        assert!((ios - 3.0).abs() < 1e-9);
        // S2 with its covered set: 8²/32 = 2.
        let s2 = profile(64, 0, 24);
        let covered2 = profile(64, 0, 8);
        let ios2 = ClosenessMetric::Ios.closeness(&s2, &covered2);
        assert!((ios2 - 2.0).abs() < 1e-9);
        assert!(ios > 1.07 && ios2 > 1.07);
    }

    #[test]
    fn intersect_metric() {
        let a = profile(32, 0, 10);
        let b = profile(32, 5, 10);
        assert_eq!(ClosenessMetric::Intersect.closeness(&a, &b), 5.0);
    }

    #[test]
    fn xor_metric_and_cap() {
        let a = profile(32, 0, 10);
        let b = profile(32, 5, 10);
        // xor = 10 non-shared bits
        assert!((ClosenessMetric::Xor.closeness(&a, &b) - 0.1).abs() < 1e-12);
        assert_eq!(ClosenessMetric::Xor.closeness(&a, &a.clone()), XOR_CAP);
    }

    #[test]
    fn xor_cannot_detect_empty_relation() {
        let a = profile(32, 0, 4);
        let b = profile(32, 10, 4);
        assert_eq!(a.intersect_count(&b), 0);
        assert!(ClosenessMetric::Xor.closeness(&a, &b) > 0.0);
        assert!(!ClosenessMetric::Xor.supports_empty_pruning());
    }

    #[test]
    fn ios_iou_zero_on_empty_relation() {
        let a = profile(32, 0, 4);
        let b = profile(32, 10, 4);
        for m in [
            ClosenessMetric::Intersect,
            ClosenessMetric::Ios,
            ClosenessMetric::Iou,
        ] {
            assert_eq!(m.closeness(&a, &b), 0.0, "{m}");
            assert!(m.supports_empty_pruning());
        }
    }

    #[test]
    fn iou_formula() {
        let a = profile(32, 0, 10);
        let b = profile(32, 5, 10); // inter 5, union 15
        let iou = ClosenessMetric::Iou.closeness(&a, &b);
        assert!((iou - 25.0 / 15.0).abs() < 1e-9);
    }

    #[test]
    fn metrics_are_symmetric() {
        let a = profile(64, 0, 20);
        let b = profile(64, 10, 30);
        for m in ClosenessMetric::ALL {
            assert_eq!(m.closeness(&a, &b), m.closeness(&b, &a), "{m}");
        }
    }

    #[test]
    fn empty_profiles_yield_zero_not_nan() {
        let e = SubscriptionProfile::new();
        for m in [
            ClosenessMetric::Intersect,
            ClosenessMetric::Ios,
            ClosenessMetric::Iou,
        ] {
            let v = m.closeness(&e, &e);
            assert_eq!(v, 0.0, "{m}");
        }
        // identical empties under XOR hit the cap (xor = 0)
        assert_eq!(ClosenessMetric::Xor.closeness(&e, &e), XOR_CAP);
    }

    #[test]
    fn trait_object_dispatch() {
        let a = profile(32, 0, 10);
        let b = profile(32, 5, 10);
        let dyn_metric: &dyn Closeness = &ClosenessMetric::Ios;
        assert_eq!(
            dyn_metric.closeness(&a, &b),
            ClosenessMetric::Ios.closeness(&a, &b)
        );
        assert!(dyn_metric.supports_empty_pruning());

        /// A custom measure: plain union cardinality.
        struct UnionSize;
        impl Closeness for UnionSize {
            fn closeness(&self, a: &SubscriptionProfile, b: &SubscriptionProfile) -> f64 {
                a.union_count(b) as f64
            }
        }
        assert_eq!(UnionSize.closeness(&a, &b), 15.0);
        assert!(!UnionSize.supports_empty_pruning());
    }

    #[test]
    fn display_names() {
        let names: Vec<String> = ClosenessMetric::ALL.iter().map(|m| m.to_string()).collect();
        assert_eq!(names, vec!["INTERSECT", "XOR", "IOS", "IOU"]);
    }
}
