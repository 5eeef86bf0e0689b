//! Capacity bookkeeping and the allocation feasibility test (paper
//! §IV-A).
//!
//! A broker "is deemed to have enough capacity to handle a subscription
//! only if by accepting this subscription, its remaining available
//! output bandwidth is greater than 0 and its incoming publication rate
//! is less than or equal to its maximum matching rate", where the
//! maximum matching rate is the inverse of the linear matching-delay
//! function.
//!
//! The test is implemented once, by `FastPacker`: brokers sorted by
//! resourcefulness (descending total output bandwidth), each with a
//! running input rate, used output bandwidth and stored subscription
//! count. FBF, BIN PACKING and the overlay recursion pack on a fresh one
//! through [`pack_all`]; CRAM's allocation test — thousands of packs per
//! run over almost the same units — keeps one for the whole run. The
//! borrow-and-re-sort packer it replaced survives under `#[cfg(test)]`
//! as the oracle `FastPacker` is proven against, decision by decision.
//! Both orders packing relies on are spelled once: brokers by
//! `sorted_specs`, units by `pack_order`.

use crate::model::{AllocError, Allocation, BrokerLoad, BrokerSpec, Unit};
use crate::pipeline::CancelToken;
use greenps_profile::{PublisherTable, ShiftingBitVector, SubscriptionProfile};
use greenps_pubsub::ids::{AdvId, BrokerId};
use std::sync::Arc;

/// The broker order every packer fills in: descending total output
/// bandwidth — most resourceful first — ties broken by id for
/// determinism.
fn sorted_specs(brokers: &[BrokerSpec]) -> Vec<BrokerSpec> {
    let mut specs = brokers.to_vec();
    specs.sort_by(|a, b| {
        b.out_bandwidth
            .total_cmp(&a.out_bandwidth)
            .then(a.id.cmp(&b.id))
    });
    specs
}

/// The unit order BIN PACKING and CRAM's allocation test pack in:
/// output bandwidth descending, subscription list ascending as the
/// tiebreak. Over any live CRAM pool plus one trial merged unit the
/// subscription lists are pairwise disjoint and non-empty, so this is a
/// strict total order — which is what lets the engine maintain one
/// sorted unit list incrementally instead of re-sorting per test.
pub(crate) fn pack_order(a: &Unit, b: &Unit) -> std::cmp::Ordering {
    b.out_bandwidth
        .total_cmp(&a.out_bandwidth)
        .then_with(|| a.subs.cmp(&b.subs))
}

/// One per-publisher union window of one broker, reused across packs.
///
/// A slot is live for the current pack iff its `epoch` matches the
/// packer's; stale slots are logically empty, so resetting all broker
/// unions between packs is a single counter bump instead of a walk.
#[derive(Debug)]
struct FastSlot {
    epoch: u64,
    vec: ShiftingBitVector,
    /// Cached popcount of `vec` — the `old` side of the rate-delta
    /// fraction, saving one full word pass per placement probe.
    ones: usize,
}

/// Per-broker running state of the current [`FastPacker`] pack.
#[derive(Debug)]
struct FastBroker {
    spec: BrokerSpec,
    out_used: f64,
    in_rate: f64,
    subs: usize,
    /// Units placed on this broker, in placement order — the recipe a
    /// best-so-far allocation is later materialized from.
    picks: Vec<Arc<Unit>>,
}

/// The allocation-test packer: every allocator places units through it,
/// and CRAM keeps one for a whole run.
///
/// A packer that rebuilds its broker states per test re-walks every
/// union profile with two popcount passes per probe, on each of the
/// thousands of feasibility tests a CRAM run performs. `FastPacker` is
/// constructed **once** per run and reset per pack by bumping an epoch
/// counter; per-(broker, publisher) union windows live in reusable
/// [`FastSlot`]s with cached popcounts, so a placement probe costs one
/// streaming [`ShiftingBitVector::pair_cardinalities`] pass.
///
/// The acceptance decisions are bit-identical to the test oracle's
/// (`SubscriptionProfile::estimate_rate_delta` per probe) over the same
/// unit order, whatever that order is: both take their brokers from
/// [`sorted_specs`], and the rate check reproduces
/// `estimate_rate_delta`'s exact f64 operation sequence (same fraction
/// arguments, same accumulation order). Publishers absent from the
/// table are skipped entirely — the reference delta never reads them,
/// so they cannot influence any accept/reject decision.
#[derive(Debug)]
pub(crate) struct FastPacker {
    brokers: Vec<FastBroker>,
    /// Publisher advertisement ids, ascending (the slot column index).
    advs: Vec<AdvId>,
    /// Publication rate per publisher, parallel to `advs`.
    rates: Vec<f64>,
    /// Raw `last_msg_id` per publisher, parallel to `advs`.
    last_msgs: Vec<u64>,
    /// Dense broker-major `(broker, publisher)` union slots.
    slots: Vec<FastSlot>,
    epoch: u64,
    /// Scratch: `(slot index, |union|)` for the most recent probe's
    /// shared-publisher legs, so acceptance reuses the probe's popcount.
    or_scratch: Vec<(usize, usize)>,
}

impl FastPacker {
    /// Builds the persistent packer: brokers in [`sorted_specs`] order,
    /// one slot per (broker, publisher).
    pub(crate) fn new(brokers: &[BrokerSpec], publishers: &PublisherTable) -> Self {
        let specs = sorted_specs(brokers);
        let advs: Vec<AdvId> = publishers.iter().map(|p| p.adv_id).collect();
        let rates: Vec<f64> = publishers.iter().map(|p| p.rate).collect();
        let last_msgs: Vec<u64> = publishers.iter().map(|p| p.last_msg_id.raw()).collect();
        let slots = (0..specs.len() * advs.len())
            .map(|_| FastSlot {
                epoch: 0,
                vec: ShiftingBitVector::new(1),
                ones: 0,
            })
            .collect();
        Self {
            brokers: specs
                .into_iter()
                .map(|spec| FastBroker {
                    spec,
                    out_used: 0.0,
                    in_rate: 0.0,
                    subs: 0,
                    picks: Vec::new(),
                })
                .collect(),
            advs,
            rates,
            last_msgs,
            slots,
            epoch: 0,
            or_scratch: Vec::new(),
        }
    }

    /// Packs units, in the order given, onto the brokers, resetting all
    /// per-pack state via the epoch bump. CRAM feeds them in
    /// [`pack_order`]; FBF in its shuffled order.
    ///
    /// # Errors
    /// Fails with the subscriptions of the first unplaceable unit, or
    /// [`AllocError::NoBrokers`] when units exist but the pool is empty.
    pub(crate) fn pack<'x>(
        &mut self,
        units: impl Iterator<Item = &'x Arc<Unit>>,
    ) -> Result<(), AllocError> {
        self.epoch += 1;
        let n_advs = self.advs.len();
        for st in &mut self.brokers {
            st.out_used = 0.0;
            st.in_rate = 0.0;
            st.subs = 0;
            st.picks.clear();
        }
        let mut units = units;
        if self.brokers.is_empty() {
            return match units.next() {
                None => Ok(()),
                Some(_) => Err(AllocError::NoBrokers),
            };
        }
        'units: for unit in units {
            for (b, st) in self.brokers.iter_mut().enumerate() {
                // Cheap bandwidth check first — the dominant rejection.
                if st.out_used + unit.out_bandwidth >= st.spec.out_bandwidth {
                    continue;
                }
                // Incremental rate check replicating the reference
                // `estimate_rate_delta` f64 sequence, with the union's
                // cached popcount standing in for its `count_ones` walk.
                self.or_scratch.clear();
                // At most one entry per advertisement slot hit below.
                self.or_scratch.reserve(self.advs.len());
                let mut delta = 0.0;
                for (adv, o) in unit.profile.iter() {
                    let Ok(ai) = self.advs.binary_search(&adv) else {
                        continue;
                    };
                    let (rate, last) = match (self.rates.get(ai), self.last_msgs.get(ai)) {
                        (Some(r), Some(l)) => (*r, *l),
                        _ => continue,
                    };
                    let ones_new = o.count_ones();
                    if ones_new == 0 {
                        continue;
                    }
                    let fraction = |ones: usize, first: u64, cap: usize| -> f64 {
                        if ones == 0 {
                            return 0.0;
                        }
                        let observed = last
                            .saturating_sub(first)
                            .saturating_add(1)
                            .min(cap as u64)
                            .max(ones as u64);
                        ones as f64 / observed as f64
                    };
                    let si = b * n_advs + ai;
                    match self.slots.get(si).filter(|s| s.epoch == self.epoch) {
                        Some(s) => {
                            let old = fraction(s.ones, s.vec.first_id(), s.vec.capacity());
                            let c = s.vec.pair_cardinalities(o);
                            let new = fraction(
                                c.or,
                                s.vec.first_id().min(o.first_id()),
                                s.vec.capacity().max(o.capacity()),
                            );
                            self.or_scratch.push((si, c.or));
                            delta += (new - old) * rate;
                        }
                        None => {
                            delta += fraction(ones_new, o.first_id(), o.capacity()) * rate;
                        }
                    }
                }
                let in_rate = st.in_rate + delta;
                let max_rate = st.spec.matching_delay.max_rate(st.subs + unit.sub_count());
                if in_rate > max_rate {
                    continue;
                }
                // Accept: fold every publisher-backed window of the
                // unit into its slot (including empty windows — their
                // placement can widen a union window, which the
                // materialized union's `or_assign` also does).
                for (adv, o) in unit.profile.iter() {
                    let Ok(ai) = self.advs.binary_search(&adv) else {
                        continue;
                    };
                    let si = b * n_advs + ai;
                    let Some(s) = self.slots.get_mut(si) else {
                        continue;
                    };
                    if s.epoch == self.epoch {
                        let lo = s.vec.first_id().min(o.first_id());
                        let hi_end = s.vec.window_end().max(o.window_end());
                        let truncated = hi_end - lo > s.vec.capacity() as u64;
                        s.vec.or_assign(o);
                        let cached = self
                            .or_scratch
                            .iter()
                            .find(|(i, _)| *i == si)
                            .map(|(_, or)| *or);
                        s.ones = match (truncated, cached) {
                            (false, Some(or)) => or,
                            _ => s.vec.count_ones(),
                        };
                    } else {
                        s.vec.copy_from(o);
                        s.ones = s.vec.count_ones();
                        s.epoch = self.epoch;
                    }
                }
                st.in_rate = in_rate;
                st.out_used += unit.out_bandwidth;
                st.subs += unit.sub_count();
                st.picks.push(Arc::clone(unit));
                continue 'units;
            }
            return Err(AllocError::Infeasible {
                subs: unit.subs.clone(),
            });
        }
        Ok(())
    }

    /// Number of brokers that received at least one unit in the most
    /// recent pack.
    pub(crate) fn used_brokers(&self) -> usize {
        self.brokers.iter().filter(|s| !s.picks.is_empty()).count()
    }

    /// Moves the most recent pack's per-broker placements (placement
    /// order preserved) into `out`, reusing its spine —
    /// [`materialize_recipe`] turns them into an [`Allocation`].
    pub(crate) fn drain_picks_into(&mut self, out: &mut Vec<(BrokerId, Vec<Arc<Unit>>)>) {
        out.clear();
        for st in &mut self.brokers {
            if !st.picks.is_empty() {
                out.push((st.spec.id, std::mem::take(&mut st.picks)));
            }
        }
    }
}

/// Materializes a packing recipe ([`FastPacker::drain_picks_into`])
/// into a full [`Allocation`]: per broker, replay `or_assign` over the
/// picked units in placement order, sum their bandwidths, and estimate
/// the union load. A pick held by no one else is moved out of its `Arc`;
/// only a unit the caller still shares (CRAM's pool) is cloned.
pub(crate) fn materialize_recipe(
    picks: Vec<(BrokerId, Vec<Arc<Unit>>)>,
    publishers: &PublisherTable,
) -> Allocation {
    let loads = picks
        .into_iter()
        .map(|(broker, picked)| {
            let mut union = SubscriptionProfile::new();
            let mut out_bw_used = 0.0;
            let units = picked
                .into_iter()
                .map(|u| {
                    union.or_assign(&u.profile);
                    out_bw_used += u.out_bandwidth;
                    Arc::try_unwrap(u).unwrap_or_else(|shared| (*shared).clone())
                })
                .collect();
            let input = union.estimate_load(publishers);
            BrokerLoad {
                broker,
                units,
                union_profile: union,
                out_bw_used,
                in_rate: input.rate,
                in_bandwidth: input.bandwidth,
            }
        })
        .collect();
    Allocation { loads }
}

/// Runs a complete packing pass on a fresh `FastPacker`: places every
/// unit in the given order, polling `cancel` before each one.
///
/// # Errors
/// Fails fast with the unit that could not be placed, mirroring the
/// paper's "the algorithm ends … if at least one subscription cannot be
/// allocated to any broker", or with [`AllocError::Cancelled`] when the
/// token trips mid-pass.
pub fn pack_all(
    brokers: &[BrokerSpec],
    publishers: &PublisherTable,
    units: impl IntoIterator<Item = Unit>,
    cancel: &CancelToken,
) -> Result<Allocation, AllocError> {
    let units: Vec<Arc<Unit>> = units.into_iter().map(Arc::new).collect();
    let mut packer = FastPacker::new(brokers, publishers);
    let mut cancelled = false;
    packer.pack(units.iter().take_while(|_| {
        cancelled = cancel.is_cancelled_hot();
        !cancelled
    }))?;
    if cancelled {
        return Err(AllocError::Cancelled);
    }
    // The packer's picks become the only handles, so materializing
    // moves every unit instead of cloning it.
    drop(units);
    let mut picks = Vec::new();
    packer.drain_picks_into(&mut picks);
    Ok(materialize_recipe(picks, publishers))
}

/// The packer CRAM's allocation test ran on before [`FastPacker`]:
/// fresh broker states per test, borrowed units re-sorted per test,
/// `estimate_rate_delta` per probe. Not shipped — it is the bit-exact
/// oracle the tests here and in [`crate::cram`] compare the production
/// path against, seam by seam.
#[cfg(test)]
pub(crate) mod oracle {
    use super::*;

    #[derive(Debug)]
    pub(crate) struct RefPacker<'u> {
        pub(super) states: Vec<RefBrokerState<'u>>,
    }

    #[derive(Debug)]
    pub(super) struct RefBrokerState<'u> {
        pub(super) spec: BrokerSpec,
        union: SubscriptionProfile,
        /// Running estimate of the union profile's input rate.
        pub(super) in_rate: f64,
        pub(super) out_used: f64,
        pub(super) subs: usize,
        pub(super) units: Vec<&'u Unit>,
    }

    impl<'u> RefPacker<'u> {
        pub(crate) fn new(brokers: &[BrokerSpec]) -> Self {
            Self {
                states: sorted_specs(brokers)
                    .into_iter()
                    .map(|spec| RefBrokerState {
                        spec,
                        union: SubscriptionProfile::new(),
                        in_rate: 0.0,
                        out_used: 0.0,
                        subs: 0,
                        units: Vec::new(),
                    })
                    .collect(),
            }
        }

        /// Stable-sorts the borrowed units into [`pack_order`] and packs
        /// them, failing with the first unplaceable unit.
        pub(crate) fn pack_sorted(
            &mut self,
            publishers: &PublisherTable,
            mut units: Vec<&'u Unit>,
        ) -> Result<(), AllocError> {
            units.sort_by(|a, b| pack_order(a, b));
            self.pack_in_order(publishers, units)
        }

        /// Packs the borrowed units in the order given, failing with the
        /// first unplaceable unit.
        pub(crate) fn pack_in_order(
            &mut self,
            publishers: &PublisherTable,
            units: Vec<&'u Unit>,
        ) -> Result<(), AllocError> {
            if self.states.is_empty() {
                return if units.is_empty() {
                    Ok(())
                } else {
                    Err(AllocError::NoBrokers)
                };
            }
            'units: for unit in units {
                for state in &mut self.states {
                    if state.out_used + unit.out_bandwidth >= state.spec.out_bandwidth {
                        continue;
                    }
                    let delta = state.union.estimate_rate_delta(&unit.profile, publishers);
                    let in_rate = state.in_rate + delta;
                    let max_rate = state
                        .spec
                        .matching_delay
                        .max_rate(state.subs + unit.sub_count());
                    if in_rate > max_rate {
                        continue;
                    }
                    state.union.or_assign(&unit.profile);
                    state.in_rate = in_rate;
                    state.out_used += unit.out_bandwidth;
                    state.subs += unit.sub_count();
                    state.units.push(unit);
                    continue 'units;
                }
                return Err(AllocError::Infeasible {
                    subs: unit.subs.clone(),
                });
            }
            Ok(())
        }

        pub(crate) fn used_brokers(&self) -> usize {
            self.states.iter().filter(|s| !s.units.is_empty()).count()
        }

        pub(crate) fn into_allocation(self, publishers: &PublisherTable) -> Allocation {
            let loads = self
                .states
                .into_iter()
                .filter(|s| !s.units.is_empty())
                .map(|s| {
                    let input = s.union.estimate_load(publishers);
                    BrokerLoad {
                        broker: s.spec.id,
                        units: s.units.into_iter().cloned().collect(),
                        union_profile: s.union,
                        out_bw_used: s.out_used,
                        in_rate: input.rate,
                        in_bandwidth: input.bandwidth,
                    }
                })
                .collect();
            Allocation { loads }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::oracle::RefPacker;
    use super::*;
    use crate::model::LinearFn;
    use greenps_profile::{PublisherProfile, ShiftingBitVector};
    use greenps_pubsub::ids::{AdvId, MsgId, SubId};
    use proptest::prelude::*;
    use rand::{rngs::StdRng, seq::SliceRandom, SeedableRng};

    fn publishers() -> PublisherTable {
        [PublisherProfile::new(
            AdvId::new(1),
            100.0,
            100_000.0,
            MsgId::new(99),
        )]
        .into_iter()
        .collect()
    }

    fn unit(sub: u64, ids: &[u64], publishers: &PublisherTable) -> Unit {
        let mut v = ShiftingBitVector::starting_at(100, 0);
        for &id in ids {
            v.record(id);
        }
        let mut p = SubscriptionProfile::with_capacity(100);
        p.insert_vector(AdvId::new(1), v);
        let load = p.estimate_load(publishers);
        Unit {
            subs: vec![SubId::new(sub)],
            profile: p,
            out_bandwidth: load.bandwidth,
        }
    }

    fn broker(id: u64, bw: f64) -> BrokerSpec {
        BrokerSpec::new(
            BrokerId::new(id),
            format!("b{id}"),
            LinearFn::new(0.0001, 0.0),
            bw,
        )
    }

    fn pack(
        brokers: &[BrokerSpec],
        pubs: &PublisherTable,
        units: Vec<Unit>,
    ) -> Result<Allocation, AllocError> {
        pack_all(brokers, pubs, units, &CancelToken::never())
    }

    /// One broker with unbounded bandwidth and the given matching delay.
    fn slow_broker(base: f64, per_sub: f64) -> [BrokerSpec; 1] {
        let delay = LinearFn::new(base, per_sub);
        [BrokerSpec::new(BrokerId::new(1), "b1", delay, 1e9)]
    }

    /// `pack_all` polls once per unit: the third poll trips, which a
    /// single poll before the pass would never reach.
    #[test]
    fn pack_all_polls_the_cancel_token() {
        let pubs = publishers();
        let brokers = vec![broker(1, 10_000.0), broker(2, 50_000.0)];
        let units: Vec<Unit> = (0..4).map(|s| unit(s, &[s], &pubs)).collect();
        assert!(pack(&brokers, &pubs, units.clone()).is_ok());
        let got = pack_all(&brokers, &pubs, units, &CancelToken::tripping_at(3));
        assert!(matches!(got, Err(AllocError::Cancelled)));
    }

    #[test]
    fn places_on_most_resourceful_first() {
        let pubs = publishers();
        let brokers = vec![broker(1, 10_000.0), broker(2, 50_000.0)];
        let alloc = pack(&brokers, &pubs, vec![unit(1, &[0], &pubs)]).unwrap();
        assert_eq!(alloc.loads[0].broker, BrokerId::new(2), "most resourceful");
    }

    #[test]
    fn bandwidth_must_stay_strictly_positive() {
        let pubs = publishers();
        // unit uses 5% of 100kB/s = 5000 B/s; broker has exactly 5000.
        let brokers = vec![broker(1, 5_000.0)];
        let u = unit(1, &[0, 1, 2, 3, 4], &pubs);
        assert!((u.out_bandwidth - 5_000.0).abs() < 1e-9);
        assert!(matches!(
            pack(&brokers, &pubs, vec![u]),
            Err(AllocError::Infeasible { .. })
        ));
    }

    #[test]
    fn overflows_to_next_broker() {
        let pubs = publishers();
        let brokers = vec![broker(1, 12_000.0), broker(2, 12_000.0)];
        // each unit needs 10kB/s; first goes to b1, second to b2.
        let units = vec![
            unit(1, &(0..10).collect::<Vec<_>>(), &pubs),
            unit(2, &(10..20).collect::<Vec<_>>(), &pubs),
        ];
        let alloc = pack(&brokers, &pubs, units).unwrap();
        assert_eq!(alloc.broker_count(), 2);
        assert_ne!(alloc.loads[0].broker, alloc.loads[1].broker);
    }

    #[test]
    fn matching_rate_constraint_limits_subscriptions() {
        let pubs = publishers();
        // 25 ms per message with one sub: max rate = 40 msg/s; a unit
        // inducing 50 msg/s (50 of 100 slots) cannot be hosted.
        let slow = slow_broker(0.025, 0.0);
        let u = unit(1, &(0..50).collect::<Vec<_>>(), &pubs);
        assert!(pack(&slow, &pubs, vec![u]).is_err());
        // 10 msg/s unit is fine.
        let u = unit(2, &(0..10).collect::<Vec<_>>(), &pubs);
        assert!(pack(&slow, &pubs, vec![u]).is_ok());
    }

    #[test]
    fn per_sub_delay_term_tightens_with_count() {
        let pubs = publishers();
        // base 10ms + 10ms/sub; two 1-sub units each inducing 30 msg/s
        // of *distinct* traffic: first fits (rate 30 <= 1/(0.02)=50),
        // second would make union rate 60 > 1/(0.03)=33 → second bounces.
        let b = slow_broker(0.01, 0.01);
        let first = unit(1, &(0..30).collect::<Vec<_>>(), &pubs);
        assert!(pack(&b, &pubs, vec![first.clone()]).is_ok());
        let second = unit(2, &(30..60).collect::<Vec<_>>(), &pubs);
        assert_eq!(
            pack(&b, &pubs, vec![first, second]),
            Err(AllocError::Infeasible {
                subs: vec![SubId::new(2)]
            })
        );
    }

    #[test]
    fn shared_traffic_does_not_double_count_input() {
        let pubs = publishers();
        // Two units with identical 40-slot profiles: union input stays
        // 40 msg/s, so both fit on a broker whose cap is 50 msg/s.
        let b = slow_broker(0.02, 0.0);
        let ids: Vec<u64> = (0..40).collect();
        let alloc = pack(&b, &pubs, vec![unit(1, &ids, &pubs), unit(2, &ids, &pubs)]).unwrap();
        assert_eq!(alloc.broker_count(), 1);
        let load = &alloc.loads[0];
        assert_eq!(load.sub_count(), 2);
        assert!((load.in_rate - 40.0).abs() < 1e-9);
        // output is per-copy: 2 × 40 kB/s
        assert!((load.out_bw_used - 80_000.0).abs() < 1e-6);
    }

    #[test]
    fn empty_pool_errors() {
        let pubs = publishers();
        assert_eq!(
            pack(&[], &pubs, vec![unit(1, &[0], &pubs)]),
            Err(AllocError::NoBrokers)
        );
        assert_eq!(
            pack(&[], &pubs, Vec::new()).map(|a| a.broker_count()),
            Ok(0)
        );
    }

    /// Builds a unit with explicit per-publisher windows:
    /// `(adv, first_id, ids)` legs.
    fn multi_unit(sub: u64, legs: &[(u64, u64, Vec<u64>)], pubs: &PublisherTable) -> Unit {
        let mut p = SubscriptionProfile::with_capacity(100);
        for (adv, first, ids) in legs {
            let mut v = ShiftingBitVector::starting_at(100, *first);
            for &id in ids {
                v.record(id);
            }
            p.insert_vector(AdvId::new(*adv), v);
        }
        let load = p.estimate_load(pubs);
        Unit {
            subs: vec![SubId::new(sub)],
            profile: p,
            out_bandwidth: load.bandwidth.max(1_000.0) + sub as f64,
        }
    }

    fn two_publishers() -> PublisherTable {
        [
            PublisherProfile::new(AdvId::new(1), 100.0, 100_000.0, MsgId::new(99)),
            PublisherProfile::new(AdvId::new(2), 40.0, 20_000.0, MsgId::new(999)),
        ]
        .into_iter()
        .collect()
    }

    /// Packs `subset` (already in [`pack_order`]) on the persistent
    /// `fast` packer and on a fresh oracle and compares everything a
    /// CRAM allocation test reads: accept/reject (and the error), the
    /// broker count, every broker's running state bit for bit, and —
    /// on success — the allocation materialized from the recipe.
    fn assert_same_pack(
        fast: &mut FastPacker,
        brokers: &[BrokerSpec],
        pubs: &PublisherTable,
        subset: &[&Arc<Unit>],
    ) -> Result<(), TestCaseError> {
        let mut reference = RefPacker::new(brokers);
        let ref_result = reference.pack_in_order(pubs, subset.iter().map(|u| &***u).collect());
        let fast_result = fast.pack(subset.iter().copied());
        prop_assert_eq!(&ref_result, &fast_result);
        prop_assert_eq!(reference.used_brokers(), fast.used_brokers());
        for (rs, fs) in reference.states.iter().zip(&fast.brokers) {
            prop_assert_eq!(rs.spec.id, fs.spec.id);
            prop_assert_eq!(rs.in_rate.to_bits(), fs.in_rate.to_bits());
            prop_assert_eq!(rs.out_used.to_bits(), fs.out_used.to_bits());
            prop_assert_eq!(rs.subs, fs.subs);
            let ref_subs: Vec<_> = rs.units.iter().map(|u| &u.subs).collect();
            let fast_subs: Vec<_> = fs.picks.iter().map(|u| &u.subs).collect();
            prop_assert_eq!(ref_subs, fast_subs);
        }
        if ref_result.is_ok() {
            let mut picks = Vec::new();
            fast.drain_picks_into(&mut picks);
            assert_same_allocation(
                &materialize_recipe(picks, pubs),
                &reference.into_allocation(pubs),
            )?;
        }
        Ok(())
    }

    /// Equal allocations, with every `f64` compared by its bits.
    fn assert_same_allocation(got: &Allocation, want: &Allocation) -> Result<(), TestCaseError> {
        let bits = |a: &Allocation| -> Vec<[u64; 3]> {
            a.loads
                .iter()
                .map(|l| {
                    [
                        l.out_bw_used.to_bits(),
                        l.in_rate.to_bits(),
                        l.in_bandwidth.to_bits(),
                    ]
                })
                .collect()
        };
        prop_assert_eq!(got, want);
        prop_assert_eq!(bits(got), bits(want));
        Ok(())
    }

    /// Units covering every delta-path branch: shared windows, shifted
    /// windows (forcing `or_assign` truncation), empty vectors, a
    /// publisher-less advertisement, and multi-publisher profiles.
    fn tricky_units(pubs: &PublisherTable) -> Vec<Arc<Unit>> {
        let mut units = vec![
            multi_unit(0, &[(1, 0, (0..30).collect())], pubs),
            multi_unit(
                1,
                &[(1, 0, (20..50).collect()), (2, 0, (0..80).collect())],
                pubs,
            ),
            multi_unit(2, &[(2, 900, (900..960).collect())], pubs),
            multi_unit(3, &[(1, 0, (0..10).collect()), (2, 0, vec![])], pubs),
            multi_unit(
                4,
                &[(2, 940, (950..999).collect()), (7, 0, (0..5).collect())],
                pubs,
            ),
            multi_unit(5, &[(1, 50, (50..90).collect())], pubs),
            multi_unit(6, &[(2, 0, (0..40).step_by(2).collect())], pubs),
        ];
        units.sort_by(pack_order);
        units.into_iter().map(Arc::new).collect()
    }

    /// One persistent packer (the CRAM usage) against a fresh oracle
    /// per pack: the full set, each unit dropped in turn — slot state
    /// must never leak from the previous pack — and the full set again.
    fn assert_same_packs(
        brokers: &[BrokerSpec],
        pubs: &PublisherTable,
        units: &[Arc<Unit>],
    ) -> Result<(), TestCaseError> {
        let mut fast = FastPacker::new(brokers, pubs);
        for round in 0..units.len() + 2 {
            let subset: Vec<&Arc<Unit>> = units
                .iter()
                .enumerate()
                .filter(|(i, _)| *i + 1 != round)
                .map(|(_, u)| u)
                .collect();
            assert_same_pack(&mut fast, brokers, pubs, &subset)?;
        }
        Ok(())
    }

    /// The hand-built units, through that comparison.
    #[test]
    fn fast_packer_matches_the_oracle_on_tricky_units() {
        let pubs = two_publishers();
        let brokers = [
            broker(1, 120_000.0),
            broker(2, 80_000.0),
            broker(3, 80_000.0),
        ];
        assert_same_packs(&brokers, &pubs, &tricky_units(&pubs)).unwrap();
    }

    /// One `(adv, first_id, offsets)` leg: advertisement 7 has no
    /// publisher, the window starts force shifted and truncating
    /// unions, and the offset set may be empty.
    fn arb_leg() -> impl Strategy<Value = (u64, u64, Vec<u64>)> {
        (
            proptest::sample::select(vec![1u64, 2, 7]),
            proptest::sample::select(vec![0u64, 50, 900, 940]),
            proptest::collection::btree_set(0u64..100, 0..60),
        )
            .prop_map(|(adv, first, offsets)| {
                (adv, first, offsets.into_iter().map(|o| first + o).collect())
            })
    }

    fn arb_brokers() -> impl Strategy<Value = Vec<BrokerSpec>> {
        proptest::collection::vec(
            (
                proptest::sample::select(vec![15_000.0, 40_000.0, 80_000.0, 120_000.0]),
                proptest::sample::select(vec![(0.0001, 0.0), (0.01, 0.0005), (0.02, 0.0)]),
            ),
            0..5,
        )
        .prop_map(|specs| {
            specs
                .into_iter()
                .enumerate()
                .map(|(i, (bw, (base, per_sub)))| {
                    let id = i as u64 + 1;
                    BrokerSpec::new(
                        BrokerId::new(id),
                        format!("b{id}"),
                        LinearFn::new(base, per_sub),
                        bw,
                    )
                })
                .collect()
        })
    }

    proptest! {
        /// Seam oracle for the allocation test: over arbitrary brokers
        /// and units, one persistent `FastPacker` fed a `pack_order`
        /// stream (CRAM, BIN PACKING) or a seeded shuffle (FBF) decides,
        /// counts and materializes exactly as a fresh oracle packer
        /// does, and so does `pack_all` on the shuffle.
        #[test]
        fn fast_packer_matches_the_oracle_bit_for_bit(
            brokers in arb_brokers(),
            legs in proptest::collection::vec(proptest::collection::vec(arb_leg(), 1..4), 0..9),
            seed in any::<u64>(),
        ) {
            let pubs = two_publishers();
            let mut units: Vec<Unit> = legs
                .iter()
                .enumerate()
                .map(|(i, legs)| multi_unit(i as u64, legs, &pubs))
                .collect();
            units.shuffle(&mut StdRng::seed_from_u64(seed));
            let mut reference = RefPacker::new(&brokers);
            let ref_result = reference.pack_in_order(&pubs, units.iter().collect());
            match (ref_result, pack_all(&brokers, &pubs, units.clone(), &CancelToken::never())) {
                (Ok(()), Ok(got)) => assert_same_allocation(&got, &reference.into_allocation(&pubs))?,
                (want, got) => prop_assert_eq!(want.err(), got.err()),
            }
            let shuffled: Vec<Arc<Unit>> = units.iter().cloned().map(Arc::new).collect();
            assert_same_packs(&brokers, &pubs, &shuffled)?;
            units.sort_by(pack_order);
            let units: Vec<Arc<Unit>> = units.into_iter().map(Arc::new).collect();
            assert_same_packs(&brokers, &pubs, &units)?;
        }
    }

    /// Both packers reject the same first unit with the same error.
    #[test]
    fn fast_packer_reports_identical_infeasibility() {
        let pubs = publishers();
        let brokers = vec![broker(1, 12_000.0)];
        let units: Vec<Arc<Unit>> = {
            let mut us = vec![
                unit(1, &(0..10).collect::<Vec<_>>(), &pubs),
                unit(2, &(10..20).collect::<Vec<_>>(), &pubs),
            ];
            us.sort_by(pack_order);
            us.into_iter().map(Arc::new).collect()
        };
        let mut reference = RefPacker::new(&brokers);
        let ref_err = reference
            .pack_sorted(&pubs, units.iter().map(|u| &**u).collect())
            .unwrap_err();
        let mut fast = FastPacker::new(&brokers, &pubs);
        let fast_err = fast.pack(units.iter()).unwrap_err();
        assert_eq!(ref_err, fast_err);
        // Empty pool: Ok for no units, NoBrokers otherwise.
        let mut empty = FastPacker::new(&[], &pubs);
        assert!(empty.pack(std::iter::empty()).is_ok());
        assert_eq!(empty.pack(units.iter()), Err(AllocError::NoBrokers));
    }

    #[test]
    fn pack_all_round_trip() {
        let pubs = publishers();
        let brokers = vec![broker(1, 1e6), broker(2, 1e6)];
        let units: Vec<Unit> = (0..5)
            .map(|i| unit(i, &[i * 2, i * 2 + 1], &pubs))
            .collect();
        let alloc = pack_all(&brokers, &pubs, units, &CancelToken::never()).unwrap();
        assert_eq!(alloc.sub_count(), 5);
        assert_eq!(
            alloc.broker_count(),
            1,
            "everything fits on the first broker"
        );
    }
}
