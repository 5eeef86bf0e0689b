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
use greenps_profile::{PublisherTable, ShiftingBitVector, SubscriptionProfile, WindowRef};
use greenps_pubsub::ids::{AdvId, BrokerId, SubId};
use std::ops::Range;

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
    /// fraction, and with the window's own popcount and one
    /// intersection the `new` side.
    ones: usize,
}

/// Per-broker running state of the current [`FastPacker`] pack.
#[derive(Debug)]
struct FastBroker {
    spec: BrokerSpec,
    out_used: f64,
    in_rate: f64,
    subs: usize,
    /// Positions, in the packed stream, of the units placed on this
    /// broker, in placement order — the recipe a best-so-far
    /// allocation is later materialized from.
    picks: Vec<usize>,
}

/// One publisher-backed window of a [`PackRecord`].
#[derive(Debug, Clone)]
struct PackLeg {
    /// The publisher's column in the packer (its slot offset).
    column: usize,
    first_id: u64,
    capacity: usize,
    /// Popcount of the window.
    ones: usize,
    /// The window's words in [`PackRecord::words`], trailing zero
    /// words trimmed.
    words: Range<usize>,
}

/// A unit as the packer reads it, flat: bandwidth, subscription count
/// and each publisher-backed window with its publisher column, window
/// placement and popcount resolved once — so a placement probe does no
/// map walk, no publisher search and no popcount of the unit.
#[derive(Debug, Clone, Default)]
pub(crate) struct PackRecord {
    out_bandwidth: f64,
    subs: usize,
    legs: Vec<PackLeg>,
    words: Vec<u64>,
}

impl PackRecord {
    fn window(&self, leg: &PackLeg) -> WindowRef<'_> {
        WindowRef {
            first_id: leg.first_id,
            capacity: leg.capacity,
            words: self.words.get(leg.words.clone()).unwrap_or_default(),
        }
    }
}

/// Why a pack failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Unplaced {
    /// Units exist but the pool is empty.
    NoBrokers,
    /// The unit at this position of the stream fits no broker.
    Unit(usize),
}

/// The allocation-test packer: every allocator places units through it,
/// and CRAM keeps one for a whole run.
///
/// A packer that rebuilds its broker states per test re-walks every
/// union profile with two popcount passes per probe, on each of the
/// thousands of feasibility tests a CRAM run performs. `FastPacker` is
/// constructed **once** per run and reset per pack by bumping an epoch
/// counter; per-(broker, publisher) union windows live in reusable
/// [`FastSlot`]s with cached popcounts. Units arrive as flat
/// [`PackRecord`]s, so a placement probe reads only what it uses: the
/// rate check needs `|slot ∪ window|`, which is the slot's cached
/// popcount plus the window's minus one intersection over the
/// window's trimmed words.
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
    /// Scratch: per leg of the unit being placed, `|slot ∪ window|`
    /// from the probe (meaningful for live slots), so acceptance
    /// reuses the probe's count.
    unions: Vec<usize>,
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
            unions: Vec::new(),
        }
    }

    /// The flat record of `unit` for this packer's publisher columns.
    pub(crate) fn record(&self, unit: &Unit) -> PackRecord {
        let mut record = PackRecord::default();
        self.record_into(unit, &mut record);
        record
    }

    /// [`FastPacker::record`] into a reused record.
    pub(crate) fn record_into(&self, unit: &Unit, record: &mut PackRecord) {
        record.out_bandwidth = unit.out_bandwidth;
        record.subs = unit.sub_count();
        record.legs.clear();
        record.words.clear();
        for (adv, v) in unit.profile.iter() {
            let Ok(column) = self.advs.binary_search(&adv) else {
                continue;
            };
            let window = v.trimmed();
            let start = record.words.len();
            record.words.extend_from_slice(window.words);
            record.legs.push(PackLeg {
                column,
                first_id: window.first_id,
                capacity: window.capacity,
                ones: v.count_ones(),
                words: start..record.words.len(),
            });
        }
    }

    /// Packs units, in the order given, onto the brokers, resetting all
    /// per-pack state via the epoch bump. Each unit comes with its
    /// position in the caller's stream, which is what the picks record.
    /// CRAM feeds them in [`pack_order`]; FBF in its shuffled order.
    ///
    /// # Errors
    /// Fails with the position of the first unplaceable unit, or
    /// [`Unplaced::NoBrokers`] when units exist but the pool is empty.
    pub(crate) fn pack<'x>(
        &mut self,
        units: impl Iterator<Item = (usize, &'x PackRecord)>,
    ) -> Result<(), Unplaced> {
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
                Some(_) => Err(Unplaced::NoBrokers),
            };
        }
        'units: for (at, unit) in units {
            self.unions.clear();
            self.unions.resize(unit.legs.len(), 0);
            for (b, st) in self.brokers.iter_mut().enumerate() {
                // Cheap bandwidth check first — the dominant rejection.
                if st.out_used + unit.out_bandwidth >= st.spec.out_bandwidth {
                    continue;
                }
                // Incremental rate check replicating the reference
                // `estimate_rate_delta` f64 sequence, with cached
                // popcounts standing in for its `count_ones` walks.
                let mut delta = 0.0;
                for (leg, union) in unit.legs.iter().zip(&mut self.unions) {
                    if leg.ones == 0 {
                        continue;
                    }
                    let (rate, last) =
                        match (self.rates.get(leg.column), self.last_msgs.get(leg.column)) {
                            (Some(r), Some(l)) => (*r, *l),
                            _ => continue,
                        };
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
                    let si = b * n_advs + leg.column;
                    match self.slots.get(si).filter(|s| s.epoch == self.epoch) {
                        Some(s) => {
                            let old = fraction(s.ones, s.vec.first_id(), s.vec.capacity());
                            *union = s.ones + leg.ones - s.vec.intersect_count(unit.window(leg));
                            let new = fraction(
                                *union,
                                s.vec.first_id().min(leg.first_id),
                                s.vec.capacity().max(leg.capacity),
                            );
                            delta += (new - old) * rate;
                        }
                        None => {
                            delta += fraction(leg.ones, leg.first_id, leg.capacity) * rate;
                        }
                    }
                }
                let in_rate = st.in_rate + delta;
                let max_rate = st.spec.matching_delay.max_rate(st.subs + unit.subs);
                if in_rate > max_rate {
                    continue;
                }
                // Accept: fold every publisher-backed window of the
                // unit into its slot (including empty windows — their
                // placement can widen a union window, which the
                // materialized union's `or_assign` also does).
                for (leg, &union) in unit.legs.iter().zip(&self.unions) {
                    let Some(s) = self.slots.get_mut(b * n_advs + leg.column) else {
                        continue;
                    };
                    let window = unit.window(leg);
                    if s.epoch == self.epoch {
                        let lo = s.vec.first_id().min(leg.first_id);
                        let hi_end = s.vec.window_end().max(window.window_end());
                        let truncated = hi_end - lo > s.vec.capacity() as u64;
                        s.vec.or_assign_window(window);
                        // An empty window adds no id; a probed one
                        // added `union − ones` of them.
                        s.ones = match (truncated, leg.ones) {
                            (true, _) => s.vec.count_ones(),
                            (false, 0) => s.ones,
                            (false, _) => union,
                        };
                    } else {
                        s.vec.copy_from_window(window);
                        s.ones = leg.ones;
                        s.epoch = self.epoch;
                    }
                }
                st.in_rate = in_rate;
                st.out_used += unit.out_bandwidth;
                st.subs += unit.subs;
                st.picks.push(at);
                continue 'units;
            }
            return Err(Unplaced::Unit(at));
        }
        Ok(())
    }

    /// A pass that stands alone (BIN PACKING, FBF, CRAM's baseline):
    /// packs `records` in order, polling `cancel` before each, and fails
    /// as the allocators do — with the subscriptions of the first
    /// unplaceable unit (`subs_of` its position), with
    /// [`AllocError::NoBrokers`], or with [`AllocError::Cancelled`] when
    /// the token trips first.
    pub(crate) fn pack_polled<'x>(
        &mut self,
        records: impl Iterator<Item = &'x PackRecord>,
        cancel: &CancelToken,
        subs_of: impl FnOnce(usize) -> Vec<SubId>,
    ) -> Result<(), AllocError> {
        let mut cancelled = false;
        let packed = self.pack(records.enumerate().take_while(|_| {
            cancelled = cancel.is_cancelled_hot();
            !cancelled
        }));
        match packed {
            Err(Unplaced::NoBrokers) => Err(AllocError::NoBrokers),
            Err(Unplaced::Unit(at)) => Err(AllocError::Infeasible { subs: subs_of(at) }),
            Ok(()) if cancelled => Err(AllocError::Cancelled),
            Ok(()) => Ok(()),
        }
    }

    /// Number of brokers that received at least one unit in the most
    /// recent pack.
    pub(crate) fn used_brokers(&self) -> usize {
        self.brokers.iter().filter(|s| !s.picks.is_empty()).count()
    }

    /// The most recent pack's placements: per used broker, the stream
    /// positions of its units in placement order — the recipe
    /// [`materialize_recipe`] turns into an [`Allocation`] once the
    /// caller swaps positions for units.
    pub(crate) fn picks(&self) -> impl Iterator<Item = (BrokerId, &[usize])> {
        self.brokers
            .iter()
            .filter(|st| !st.picks.is_empty())
            .map(|st| (st.spec.id, st.picks.as_slice()))
    }
}

/// Materializes a packing recipe into a full [`Allocation`]: per
/// broker, replay `or_assign` over the picked units in placement order,
/// sum their bandwidths, and estimate the union load.
pub(crate) fn materialize_recipe(
    picks: impl IntoIterator<Item = (BrokerId, Vec<Unit>)>,
    publishers: &PublisherTable,
) -> Allocation {
    let loads = picks
        .into_iter()
        .map(|(broker, units)| {
            let mut union = SubscriptionProfile::new();
            let mut out_bw_used = 0.0;
            for u in &units {
                union.or_assign(&u.profile);
                out_bw_used += u.out_bandwidth;
            }
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
    let mut packer = FastPacker::new(brokers, publishers);
    let units: Vec<Unit> = units.into_iter().collect();
    let records: Vec<PackRecord> = units.iter().map(|u| packer.record(u)).collect();
    packer.pack_polled(records.iter(), cancel, |at| {
        units.get(at).map(|u| u.subs.clone()).unwrap_or_default()
    })?;
    // Every unit was placed exactly once, so each moves into its load.
    let mut units: Vec<Option<Unit>> = units.into_iter().map(Some).collect();
    let picks: Vec<(BrokerId, Vec<Unit>)> = packer
        .picks()
        .map(|(broker, at)| {
            let placed = at
                .iter()
                .filter_map(|&i| units.get_mut(i).and_then(Option::take))
                .collect();
            (broker, placed)
        })
        .collect();
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

    /// One per-publisher window of a test unit: `(adv, first_id,
    /// capacity, ids)`.
    type Leg = (u64, u64, usize, Vec<u64>);

    /// Builds a unit with explicit per-publisher windows.
    fn multi_unit(sub: u64, legs: &[Leg], pubs: &PublisherTable) -> Unit {
        let mut p = SubscriptionProfile::with_capacity(100);
        for (adv, first, capacity, ids) in legs {
            let mut v = ShiftingBitVector::starting_at(*capacity, *first);
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
        subset: &[&Unit],
    ) -> Result<(), TestCaseError> {
        let mut reference = RefPacker::new(brokers);
        let ref_result = reference.pack_in_order(pubs, subset.to_vec());
        let records: Vec<PackRecord> = subset.iter().map(|u| fast.record(u)).collect();
        let fast_result = fast.pack(records.iter().enumerate()).map_err(|e| match e {
            Unplaced::NoBrokers => AllocError::NoBrokers,
            Unplaced::Unit(at) => AllocError::Infeasible {
                subs: subset[at].subs.clone(),
            },
        });
        prop_assert_eq!(&ref_result, &fast_result);
        prop_assert_eq!(reference.used_brokers(), fast.used_brokers());
        for (rs, fs) in reference.states.iter().zip(&fast.brokers) {
            prop_assert_eq!(rs.spec.id, fs.spec.id);
            prop_assert_eq!(rs.in_rate.to_bits(), fs.in_rate.to_bits());
            prop_assert_eq!(rs.out_used.to_bits(), fs.out_used.to_bits());
            prop_assert_eq!(rs.subs, fs.subs);
            let ref_subs: Vec<_> = rs.units.iter().map(|u| &u.subs).collect();
            let fast_subs: Vec<_> = fs.picks.iter().map(|&at| &subset[at].subs).collect();
            prop_assert_eq!(ref_subs, fast_subs);
        }
        if ref_result.is_ok() {
            let picks = fast
                .picks()
                .map(|(broker, at)| (broker, at.iter().map(|&i| subset[i].clone()).collect()));
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
    fn tricky_units(pubs: &PublisherTable) -> Vec<Unit> {
        let mut units = vec![
            multi_unit(0, &[(1, 0, 100, (0..30).collect())], pubs),
            multi_unit(
                1,
                &[
                    (1, 0, 100, (20..50).collect()),
                    (2, 0, 100, (0..80).collect()),
                ],
                pubs,
            ),
            multi_unit(2, &[(2, 900, 100, (900..960).collect())], pubs),
            multi_unit(
                3,
                &[(1, 0, 100, (0..10).collect()), (2, 0, 100, vec![])],
                pubs,
            ),
            multi_unit(
                4,
                &[
                    (2, 940, 100, (950..999).collect()),
                    (7, 0, 100, (0..5).collect()),
                ],
                pubs,
            ),
            multi_unit(5, &[(1, 50, 100, (50..90).collect())], pubs),
            multi_unit(6, &[(2, 0, 100, (0..40).step_by(2).collect())], pubs),
            multi_unit(7, &[(1, 10, 130, (10..25).collect())], pubs),
        ];
        units.sort_by(pack_order);
        units
    }

    /// One persistent packer (the CRAM usage) against a fresh oracle
    /// per pack: the full set, each unit dropped in turn — slot state
    /// must never leak from the previous pack — and the full set again.
    fn assert_same_packs(
        brokers: &[BrokerSpec],
        pubs: &PublisherTable,
        units: &[Unit],
    ) -> Result<(), TestCaseError> {
        let mut fast = FastPacker::new(brokers, pubs);
        for round in 0..units.len() + 2 {
            let subset: Vec<&Unit> = units
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

    /// One leg: advertisement 7 has no publisher, the window starts
    /// force misaligned and truncating unions, the capacities
    /// mismatched ones (a 64-bit window also shifts as ids arrive), and
    /// the offsets are kept whole, confined to the window's first word
    /// (leaving zero words for the flat record to trim) or dropped (an
    /// empty window, which places without adding an id).
    fn arb_leg() -> impl Strategy<Value = Leg> {
        (
            proptest::sample::select(vec![1u64, 2, 7]),
            proptest::sample::select(vec![0u64, 50, 900, 940]),
            proptest::sample::select(vec![100usize, 100, 130, 64]),
            proptest::collection::btree_set(0u64..100, 0..60),
            proptest::sample::select(vec![100u64, 100, 20, 0]),
        )
            .prop_map(|(adv, first, capacity, offsets, below)| {
                let ids = offsets
                    .into_iter()
                    .filter(|&o| o < below)
                    .map(|o| first + o)
                    .collect();
                (adv, first, capacity, ids)
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
        /// stream (CRAM, BIN PACKING) or a seeded shuffle (FBF) of flat
        /// records — trimmed, misaligned, mismatched and truncating
        /// windows, the union counted from one intersection — decides,
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
            assert_same_packs(&brokers, &pubs, &units)?;
            units.sort_by(pack_order);
            assert_same_packs(&brokers, &pubs, &units)?;
        }
    }

    /// An empty window placed where its publisher's union is live adds
    /// no id, so the slot's count must stay, not reset: the next
    /// probe's `|slot ∪ window|` reads it. (Windows past publisher 1's
    /// last message observe as many slots as they hold ids, so the
    /// rate fraction is not linear in the count and a wrong one shows.)
    #[test]
    fn an_empty_window_keeps_its_slots_count() {
        let pubs = two_publishers();
        let mut units = vec![
            multi_unit(0, &[(1, 900, 100, (900..940).collect())], &pubs),
            multi_unit(
                1,
                &[(1, 900, 100, vec![]), (2, 0, 100, (0..10).collect())],
                &pubs,
            ),
            multi_unit(2, &[(1, 900, 100, (920..960).collect())], &pubs),
        ];
        // Placed in this order on the one broker.
        for (i, u) in units.iter_mut().enumerate() {
            u.out_bandwidth = 3_000.0 - i as f64;
        }
        assert_same_packs(&[broker(1, 1e9)], &pubs, &units).unwrap();
    }

    /// Both packers reject the same first unit with the same error.
    #[test]
    fn fast_packer_reports_identical_infeasibility() {
        let pubs = publishers();
        let brokers = vec![broker(1, 12_000.0)];
        let mut units = [
            unit(1, &(0..10).collect::<Vec<_>>(), &pubs),
            unit(2, &(10..20).collect::<Vec<_>>(), &pubs),
        ];
        units.sort_by(pack_order);
        let mut reference = RefPacker::new(&brokers);
        let ref_err = reference
            .pack_sorted(&pubs, units.iter().collect())
            .unwrap_err();
        let mut fast = FastPacker::new(&brokers, &pubs);
        let records: Vec<PackRecord> = units.iter().map(|u| fast.record(u)).collect();
        let fast_err = fast.pack(records.iter().enumerate()).unwrap_err();
        assert_eq!(fast_err, Unplaced::Unit(1));
        assert_eq!(
            ref_err,
            AllocError::Infeasible {
                subs: units[1].subs.clone()
            }
        );
        // Empty pool: Ok for no units, NoBrokers otherwise.
        let mut empty = FastPacker::new(&[], &pubs);
        assert!(empty.pack(std::iter::empty()).is_ok());
        assert_eq!(
            empty.pack(records.iter().enumerate()),
            Err(Unplaced::NoBrokers)
        );
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
