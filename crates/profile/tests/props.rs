//! Property-based tests of the bit-vector framework: the shifting bit
//! vector against a reference set model, closeness-metric laws, profile
//! relationship consistency, and poset invariants.

use greenps_profile::{
    ClosenessMetric, Poset, Relation, ShiftingBitVector, SubscriptionProfile, XOR_CAP,
};
use greenps_pubsub::ids::{AdvId, MsgId};
use proptest::prelude::*;
use std::collections::BTreeSet;

fn arb_ops() -> impl Strategy<Value = (usize, Vec<u64>)> {
    (8usize..200, proptest::collection::vec(0u64..500, 0..120))
}

proptest! {
    /// The bit vector behaves exactly like a BTreeSet restricted to the
    /// trailing window.
    #[test]
    fn bitvec_matches_set_model((cap, ids) in arb_ops()) {
        let mut v = ShiftingBitVector::new(cap);
        let mut model: BTreeSet<u64> = BTreeSet::new();
        let mut max_id = 0u64;
        for id in ids {
            max_id = max_id.max(id);
            let accepted = v.record(id);
            if accepted {
                model.insert(id);
            }
            // Window invariant: first_id tracks the newest id so the
            // window always covers it.
            prop_assert!(v.window_end() > max_id || v.is_empty() || !accepted);
            model.retain(|&m| m >= v.first_id());
            prop_assert_eq!(v.count_ones(), model.len());
        }
        let got: Vec<u64> = v.iter_ids().collect();
        let want: Vec<u64> = model.into_iter().collect();
        prop_assert_eq!(got, want);
    }

    /// Set operations agree with the set model across arbitrary window
    /// placements.
    #[test]
    fn bitvec_set_ops_match_model(
        (cap_a, ids_a) in arb_ops(),
        (cap_b, ids_b) in arb_ops(),
    ) {
        let mut a = ShiftingBitVector::new(cap_a);
        let mut b = ShiftingBitVector::new(cap_b);
        for id in ids_a { a.record(id); }
        for id in ids_b { b.record(id); }
        let sa: BTreeSet<u64> = a.iter_ids().collect();
        let sb: BTreeSet<u64> = b.iter_ids().collect();
        let c = a.pair_cardinalities(&b);
        prop_assert_eq!(c.and, sa.intersection(&sb).count());
        prop_assert_eq!(c.or, sa.union(&sb).count());
        prop_assert_eq!(c.xor(), sa.symmetric_difference(&sb).count());
        prop_assert_eq!(a.is_subset_of(&b), sa.is_subset(&sb));
    }

    /// OR-merging keeps exactly the most recent `capacity` window of the
    /// union.
    #[test]
    fn bitvec_or_assign_is_windowed_union(
        (cap, ids_a) in arb_ops(),
        ids_b in proptest::collection::vec(0u64..500, 0..120),
    ) {
        let mut a = ShiftingBitVector::new(cap);
        let mut b = ShiftingBitVector::new(cap);
        for id in ids_a { a.record(id); }
        for id in &ids_b { b.record(*id); }
        let sa: BTreeSet<u64> = a.iter_ids().collect();
        let sb: BTreeSet<u64> = b.iter_ids().collect();
        let merged = a.or(&b);
        let got: BTreeSet<u64> = merged.iter_ids().collect();
        let expected: BTreeSet<u64> = sa
            .union(&sb)
            .copied()
            .filter(|&id| id >= merged.first_id())
            .collect();
        prop_assert_eq!(&got, &expected);
        // Nothing below the window start survives, and the window is at
        // most `capacity` wide.
        prop_assert!(merged.window_end() - merged.first_id() == cap as u64);
    }
}

fn arb_profile() -> impl Strategy<Value = SubscriptionProfile> {
    proptest::collection::vec(
        (1u64..4, proptest::collection::btree_set(0u64..96, 0..40)),
        1..3,
    )
    .prop_map(|entries| {
        let mut p = SubscriptionProfile::with_capacity(96);
        for (adv, ids) in entries {
            for id in ids {
                p.record(AdvId::new(adv), MsgId::new(id));
            }
        }
        p
    })
}

proptest! {
    /// Closeness metrics are symmetric, non-negative, and zero exactly
    /// on empty relationships (except XOR, which cannot detect them).
    #[test]
    fn closeness_laws(a in arb_profile(), b in arb_profile()) {
        for metric in ClosenessMetric::ALL {
            let ab = metric.closeness(&a, &b);
            let ba = metric.closeness(&b, &a);
            prop_assert_eq!(ab, ba, "symmetry of {}", metric);
            prop_assert!(ab >= 0.0);
            prop_assert!(ab <= XOR_CAP);
            if metric.supports_empty_pruning() {
                let empty_rel = a.intersect_count(&b) == 0;
                prop_assert_eq!(ab == 0.0, empty_rel, "{} zero iff empty", metric);
            }
        }
    }

    /// Relationship classification agrees with raw set relations, and
    /// flip() mirrors argument order.
    #[test]
    fn relationship_consistency(a in arb_profile(), b in arb_profile()) {
        let rel = a.relationship(&b);
        prop_assert_eq!(rel.flip(), b.relationship(&a));
        let inter = a.intersect_count(&b);
        let (ca, cb) = (a.count_ones(), b.count_ones());
        match rel {
            Relation::Empty => prop_assert_eq!(inter, 0),
            Relation::Equal => {
                prop_assert_eq!(inter, ca);
                prop_assert_eq!(inter, cb);
            }
            Relation::Superset => {
                prop_assert_eq!(inter, cb);
                prop_assert!(ca > cb);
            }
            Relation::Subset => {
                prop_assert_eq!(inter, ca);
                prop_assert!(cb > ca);
            }
            Relation::Intersect => {
                prop_assert!(inter > 0 && inter < ca && inter < cb);
            }
        }
    }

    /// The OR of two profiles covers both inputs.
    #[test]
    fn or_covers_both(a in arb_profile(), b in arb_profile()) {
        let merged = a.or(&b);
        for p in [&a, &b] {
            let rel = merged.relationship(p);
            prop_assert!(
                matches!(rel, Relation::Equal | Relation::Superset) || p.is_empty(),
                "merged must cover input, got {:?}", rel
            );
        }
    }

    /// Poset structural invariants hold under random insert/remove.
    #[test]
    fn poset_invariants(
        profiles in proptest::collection::vec(arb_profile(), 1..25),
        removals in proptest::collection::vec(0usize..25, 0..12),
    ) {
        let mut poset: Poset<usize> = Poset::new();
        let mut live: Vec<usize> = Vec::new();
        for (i, p) in profiles.iter().enumerate() {
            poset.insert(i, p.clone());
            live.push(i);
            poset.check_invariants();
        }
        for r in removals {
            if live.is_empty() { break; }
            let idx = r % live.len();
            let k = live.swap_remove(idx);
            prop_assert!(poset.remove(k).is_some());
            poset.check_invariants();
        }
        prop_assert_eq!(poset.len(), live.len());
    }

    /// Load estimates are monotone: the union's estimated rate is at
    /// least each input's and at most their sum.
    #[test]
    fn union_load_bounds(a in arb_profile(), b in arb_profile()) {
        use greenps_profile::{PublisherProfile, PublisherTable};
        let publishers: PublisherTable = (1..4)
            .map(|i| PublisherProfile::new(AdvId::new(i), 10.0, 1000.0, MsgId::new(95)))
            .collect();
        let la = a.estimate_load(&publishers);
        let lb = b.estimate_load(&publishers);
        let lu = a.or(&b).estimate_load(&publishers);
        prop_assert!(lu.rate >= la.rate.max(lb.rate) - 1e-9);
        prop_assert!(lu.rate <= la.rate + lb.rate + 1e-9);
        prop_assert!(lu.bandwidth >= la.bandwidth.max(lb.bandwidth) - 1e-6);
        prop_assert!(lu.bandwidth <= la.bandwidth + lb.bandwidth + 1e-6);
    }
}
