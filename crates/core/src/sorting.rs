//! The two sorting allocation algorithms: FBF and BIN PACKING
//! (paper §IV-A, §IV-B).
//!
//! * **FBF** (Fastest Broker First): brokers sorted in descending
//!   resource capacity; subscriptions drawn in *random* order and placed
//!   on the most resourceful broker with capacity. `O(S)`.
//! * **BIN PACKING**: identical except subscriptions are first sorted in
//!   descending bandwidth requirement. `O(S log S)`. The paper observes
//!   it consistently allocates one broker fewer than FBF, in line with
//!   first-fit-decreasing theory.

use crate::capacity::{pack_all, pack_order};
use crate::model::{AllocError, Allocation, AllocationInput, Unit};
use crate::pipeline::CancelToken;
use greenps_profile::PublisherTable;
use rand::{rngs::StdRng, seq::SliceRandom, SeedableRng};

/// Builds singleton units for every subscription in the input.
pub fn units_from_input(input: &AllocationInput) -> Vec<Unit> {
    input
        .subscriptions
        .iter()
        .map(|s| Unit::from_subscription(s, &input.publishers))
        .collect()
}

/// Fastest Broker First: random subscription order, most resourceful
/// broker first.
///
/// `seed` fixes the random draw order so experiments are reproducible.
///
/// # Errors
/// Fails when any subscription cannot be placed on any broker.
pub fn fbf(input: &AllocationInput, seed: u64) -> Result<Allocation, AllocError> {
    fbf_cancellable(input, seed, &CancelToken::never())
}

/// [`fbf`] with a cancellation token: the packing pass polls it between
/// units and stops with [`AllocError::Cancelled`].
///
/// # Errors
/// As [`fbf`], plus [`AllocError::Cancelled`] when the token trips.
pub(crate) fn fbf_cancellable(
    input: &AllocationInput,
    seed: u64,
    cancel: &CancelToken,
) -> Result<Allocation, AllocError> {
    let mut units = units_from_input(input);
    let mut rng = StdRng::seed_from_u64(seed);
    units.shuffle(&mut rng);
    pack_all(&input.brokers, &input.publishers, units, cancel)
}

/// BIN PACKING: subscriptions sorted by descending bandwidth
/// requirement, most resourceful broker first.
///
/// # Errors
/// Fails when any subscription cannot be placed on any broker.
pub fn bin_packing(input: &AllocationInput) -> Result<Allocation, AllocError> {
    bin_packing_cancellable(input, &CancelToken::never())
}

/// [`bin_packing`] with a cancellation token: the packing pass polls it
/// between units and stops with [`AllocError::Cancelled`].
///
/// # Errors
/// As [`bin_packing`], plus [`AllocError::Cancelled`] when the token
/// trips.
pub(crate) fn bin_packing_cancellable(
    input: &AllocationInput,
    cancel: &CancelToken,
) -> Result<Allocation, AllocError> {
    let units = units_from_input(input);
    bin_packing_units(&input.brokers, &input.publishers, units, cancel)
}

/// BIN PACKING over prebuilt units — the allocation test CRAM re-runs on
/// every clustering iteration, and the allocator Phase 3 reuses for
/// virtual subscriptions.
///
/// # Errors
/// Fails when any unit cannot be placed on any broker.
pub fn bin_packing_units(
    brokers: &[crate::model::BrokerSpec],
    publishers: &PublisherTable,
    mut units: Vec<Unit>,
    cancel: &CancelToken,
) -> Result<Allocation, AllocError> {
    units.sort_by(pack_order);
    pack_all(brokers, publishers, units, cancel)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{BrokerSpec, LinearFn, SubscriptionEntry};
    use greenps_profile::{
        PublisherProfile, PublisherTable, ShiftingBitVector, SubscriptionProfile,
    };
    use greenps_pubsub::ids::{AdvId, BrokerId, MsgId, SubId};
    use greenps_pubsub::Filter;

    /// Builds an input with `n` subscriptions of varying bandwidth on
    /// `b` identical brokers.
    fn input(n: u64, b: u64, broker_bw: f64) -> AllocationInput {
        let publishers: PublisherTable = [PublisherProfile::new(
            AdvId::new(1),
            100.0,
            100_000.0,
            MsgId::new(99),
        )]
        .into_iter()
        .collect();
        let subscriptions = (0..n)
            .map(|i| {
                let mut v = ShiftingBitVector::starting_at(100, 0);
                // subscription i sinks (i % 10) + 1 of the 100 slots
                for k in 0..=(i % 10) {
                    v.record((i * 7 + k * 11) % 100);
                }
                let mut p = SubscriptionProfile::with_capacity(100);
                p.insert_vector(AdvId::new(1), v);
                SubscriptionEntry::new(SubId::new(i), Filter::new(), p)
            })
            .collect();
        let brokers = (0..b)
            .map(|i| {
                BrokerSpec::new(
                    BrokerId::new(i),
                    format!("b{i}"),
                    LinearFn::new(0.0001, 0.0),
                    broker_bw,
                )
            })
            .collect();
        AllocationInput {
            brokers,
            subscriptions,
            publishers,
        }
    }

    #[test]
    fn fbf_allocates_everything() {
        let inp = input(50, 10, 100_000.0);
        let alloc = fbf(&inp, 1).unwrap();
        assert_eq!(alloc.sub_count(), 50);
        assert!(alloc.broker_count() >= 1);
    }

    #[test]
    fn fbf_is_deterministic_per_seed() {
        let inp = input(40, 10, 60_000.0);
        let a = fbf(&inp, 7).unwrap();
        let b = fbf(&inp, 7).unwrap();
        let ids = |x: &Allocation| {
            x.loads
                .iter()
                .map(|l| (l.broker, l.sub_count()))
                .collect::<Vec<_>>()
        };
        assert_eq!(ids(&a), ids(&b));
    }

    #[test]
    fn bin_packing_never_worse_than_fbf() {
        // Across several seeds, BIN PACKING (first-fit-decreasing)
        // allocates no more brokers than FBF — the paper reports one
        // fewer consistently.
        let inp = input(120, 20, 50_000.0);
        let bp = bin_packing(&inp).unwrap().broker_count();
        for seed in 0..5 {
            let f = fbf(&inp, seed).unwrap().broker_count();
            assert!(bp <= f, "bin packing {bp} vs fbf {f} (seed {seed})");
        }
    }

    #[test]
    fn allocation_respects_capacity() {
        let inp = input(100, 20, 40_000.0);
        let alloc = bin_packing(&inp).unwrap();
        for load in &alloc.loads {
            let spec = inp.brokers.iter().find(|b| b.id == load.broker).unwrap();
            assert!(load.out_bw_used < spec.out_bandwidth);
            let max = spec.matching_delay.max_rate(load.sub_count());
            assert!(load.in_rate <= max + 1e-9);
        }
    }

    #[test]
    fn infeasible_input_fails() {
        let inp = input(100, 2, 1_000.0); // tiny brokers
        assert!(bin_packing(&inp).is_err());
        assert!(fbf(&inp, 0).is_err());
    }

    #[test]
    fn no_subscriptions_is_trivially_empty() {
        let inp = input(0, 3, 1e6);
        let alloc = bin_packing(&inp).unwrap();
        assert_eq!(alloc.broker_count(), 0);
    }

    #[test]
    fn units_from_input_builds_one_unit_per_subscription() {
        let inp = input(9, 1, 1e9);
        let units = units_from_input(&inp);
        assert_eq!(units.len(), 9);
        assert!(units.iter().all(|u| u.sub_count() == 1));
    }
}
