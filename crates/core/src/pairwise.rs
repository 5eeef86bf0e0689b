//! PAIRWISE-K and PAIRWISE-N — the related-work baselines derived from
//! Riabov et al.'s pairwise clustering (paper §VI).
//!
//! The original pairwise algorithm clusters subscriptions bottom-up by
//! repeatedly merging the closest pair (XOR metric) until a *given*
//! number of clusters remains; it neither respects broker resource
//! constraints nor builds an overlay. Following the paper, we extend it
//! to use bit vectors and to assign the finished clusters to brokers:
//!
//! * **PAIRWISE-K** — the cluster count is set to the number of clusters
//!   CRAM-XOR computed for the same input; clusters are then assigned to
//!   *random* brokers.
//! * **PAIRWISE-N** — the cluster count equals the number of brokers;
//!   each cluster is assigned to one broker.
//!
//! Assignments ignore capacity on purpose: the baselines have no notion
//! of resource awareness, and the evaluation shows what that costs.
//!
//! The quadratic initial partner scan runs on the parallel closeness
//! engine ([`crate::engine`]): slots are sharded across worker threads
//! against a frozen snapshot, and the agglomeration loop serves repeat
//! pair closenesses from a [`PairCache`] keyed by slot index. Results
//! are bit-identical to the sequential scan for any worker count, so
//! the thread count is chosen automatically.

#![expect(
    clippy::indexing_slicing,
    reason = "cluster slots are checked via is_some before each access"
)]

use crate::engine::{available_threads, shard_map, PairCache};
use crate::model::{AllocError, Allocation, AllocationInput, BrokerLoad, Unit};
use crate::pipeline::CancelToken;
use crate::sorting::units_from_input;
use greenps_profile::{ClosenessMetric, PublisherTable};
use rand::{rngs::StdRng, seq::SliceRandom, Rng, SeedableRng};

/// Result of a pairwise run: the allocation plus the cluster count used.
#[derive(Debug, Clone)]
pub struct PairwiseResult {
    /// Cluster-to-broker assignment (capacity **not** guaranteed).
    pub allocation: Allocation,
    /// Number of clusters produced.
    pub clusters: usize,
}

/// Agglomeratively clusters units down to at most `k` clusters using the
/// XOR closeness metric, with GIF-style grouping of equal profiles as a
/// starting point (the bit-vector extension the paper grants the
/// baselines).
fn cluster_to_k(
    mut units: Vec<Unit>,
    k: usize,
    cancel: &CancelToken,
) -> Result<Vec<Unit>, AllocError> {
    if k == 0 {
        return Ok(units);
    }
    // Merge equal profiles first — equivalent free wins.
    units.sort_by(|a, b| a.subs.first().cmp(&b.subs.first()));
    let mut clusters: Vec<Option<Unit>> = Vec::with_capacity(units.len());
    'outer: for u in units {
        if cancel.is_cancelled_hot() {
            return Err(AllocError::Cancelled);
        }
        for c in clusters.iter_mut().flatten() {
            if c.profile == u.profile {
                *c = c.merge(&u);
                continue 'outer;
            }
        }
        clusters.push(Some(u));
    }

    let metric = ClosenessMetric::Xor;
    // Closest-partner bookkeeping, recomputed on merge. The scan reads
    // a frozen cache snapshot and reports what it had to compute, so
    // the initial sharded pass is order-independent (see crate::engine).
    let mut live = clusters.iter().filter(|c| c.is_some()).count();
    let mut partner: Vec<Option<(usize, f64)>> = vec![None; clusters.len()];
    let mut cache: PairCache<usize> = PairCache::default();
    struct Scan {
        best: Option<(usize, f64)>,
        computed: Vec<(usize, f64)>,
    }
    let scan = |clusters: &[Option<Unit>], cache: &PairCache<usize>, i: usize| -> Scan {
        let mut out = Scan {
            best: None,
            computed: Vec::new(),
        };
        let Some(me) = clusters.get(i).and_then(Option::as_ref) else {
            return out;
        };
        for (j, c) in clusters.iter().enumerate() {
            if i == j {
                continue;
            }
            let Some(c) = c else { continue };
            let cl = match cache.get(i, j) {
                Some(cl) => cl,
                None => {
                    let cl = metric.closeness(&me.profile, &c.profile);
                    out.computed.push((j, cl));
                    cl
                }
            };
            match out.best {
                Some((_, bc)) if bc >= cl => {}
                _ => out.best = Some((j, cl)),
            }
        }
        out
    };
    let idx: Vec<usize> = (0..clusters.len()).collect();
    let outcomes = shard_map(&idx, available_threads().min(8), |&i| {
        scan(&clusters, &cache, i)
    });
    for (i, s) in outcomes.into_iter().enumerate() {
        if cancel.is_cancelled_hot() {
            return Err(AllocError::Cancelled);
        }
        partner[i] = s.best;
        for (j, cl) in s.computed {
            cache.insert(i, j, cl);
        }
    }
    while live > k {
        if cancel.is_cancelled_hot() {
            return Err(AllocError::Cancelled);
        }
        let Some((i, j, _)) = partner
            .iter()
            .enumerate()
            .filter_map(|(i, p)| p.map(|(j, c)| (i, j, c)))
            .filter(|&(i, j, _)| clusters[i].is_some() && clusters[j].is_some())
            .max_by(|a, b| a.2.total_cmp(&b.2))
        else {
            break;
        };
        let (Some(ci), Some(cj)) = (clusters[i].as_ref(), clusters[j].as_ref()) else {
            break;
        };
        let merged = ci.merge(cj);
        clusters[i] = Some(merged);
        clusters[j] = None;
        partner[j] = None;
        live -= 1;
        // Slot i's profile changed and slot j is gone: every cached
        // closeness touching either is stale.
        cache.invalidate(i);
        cache.invalidate(j);
        // Refresh partners pointing at i or j, and i itself; untouched
        // pairs are served from the cache.
        for idx in 0..clusters.len() {
            if clusters[idx].is_none() {
                continue;
            }
            let needs = idx == i
                || matches!(partner[idx], Some((p, _)) if p == i || p == j)
                || partner[idx].is_none();
            if needs {
                let s = scan(&clusters, &cache, idx);
                partner[idx] = s.best;
                for (p, cl) in s.computed {
                    cache.insert(idx, p, cl);
                }
            }
        }
    }
    Ok(clusters.into_iter().flatten().collect())
}

/// Assigns clusters to brokers, ignoring capacity.
fn assign(
    input: &AllocationInput,
    clusters: Vec<Unit>,
    publishers: &PublisherTable,
    one_per_broker: bool,
    rng: &mut StdRng,
    cancel: &CancelToken,
) -> Result<Allocation, AllocError> {
    let mut broker_ids: Vec<_> = input.brokers.iter().map(|b| b.id).collect();
    broker_ids.shuffle(rng);
    // One `BrokerLoad` per distinct broker at most.
    let mut loads: Vec<BrokerLoad> = Vec::with_capacity(broker_ids.len());
    for (i, unit) in clusters.into_iter().enumerate() {
        if cancel.is_cancelled_hot() {
            return Err(AllocError::Cancelled);
        }
        let broker = if one_per_broker {
            broker_ids[i % broker_ids.len()]
        } else {
            broker_ids[rng.gen_range(0..broker_ids.len())]
        };
        match loads.iter_mut().find(|l| l.broker == broker) {
            Some(l) => {
                l.union_profile.or_assign(&unit.profile);
                l.out_bw_used += unit.out_bandwidth;
                let input_load = l.union_profile.estimate_load(publishers);
                l.in_rate = input_load.rate;
                l.in_bandwidth = input_load.bandwidth;
                l.units.push(unit);
            }
            None => {
                let input_load = unit.profile.estimate_load(publishers);
                loads.push(BrokerLoad {
                    broker,
                    union_profile: unit.profile.clone(),
                    out_bw_used: unit.out_bandwidth,
                    in_rate: input_load.rate,
                    in_bandwidth: input_load.bandwidth,
                    units: vec![unit],
                });
            }
        }
    }
    loads.sort_by_key(|l| l.broker);
    Ok(Allocation { loads })
}

/// PAIRWISE-K: cluster to `k` clusters (the count computed by CRAM-XOR),
/// then assign clusters to random brokers. The clustering and
/// assignment loops poll `cancel` once per iteration and stop with
/// [`AllocError::Cancelled`].
///
/// # Errors
/// [`AllocError::Cancelled`] when the token trips mid-run.
pub fn pairwise_k(
    input: &AllocationInput,
    k: usize,
    seed: u64,
    cancel: &CancelToken,
) -> Result<PairwiseResult, AllocError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let clusters = cluster_to_k(units_from_input(input), k.max(1), cancel)?;
    let n = clusters.len();
    Ok(PairwiseResult {
        allocation: assign(input, clusters, &input.publishers, false, &mut rng, cancel)?,
        clusters: n,
    })
}

/// PAIRWISE-N: cluster to one cluster per broker and assign each cluster
/// to a broker. Polls `cancel` like [`pairwise_k`].
///
/// # Errors
/// [`AllocError::Cancelled`] when the token trips mid-run.
pub fn pairwise_n(
    input: &AllocationInput,
    seed: u64,
    cancel: &CancelToken,
) -> Result<PairwiseResult, AllocError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let clusters = cluster_to_k(units_from_input(input), input.brokers.len().max(1), cancel)?;
    let n = clusters.len();
    Ok(PairwiseResult {
        allocation: assign(input, clusters, &input.publishers, true, &mut rng, cancel)?,
        clusters: n,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{BrokerSpec, LinearFn, SubscriptionEntry};
    use greenps_profile::{PublisherProfile, ShiftingBitVector, SubscriptionProfile};
    use greenps_pubsub::ids::{AdvId, BrokerId, MsgId, SubId};
    use greenps_pubsub::Filter;

    fn input(groups: u64, per_group: u64, brokers: u64) -> AllocationInput {
        let publishers: PublisherTable = [PublisherProfile::new(
            AdvId::new(1),
            100.0,
            100_000.0,
            MsgId::new(99),
        )]
        .into_iter()
        .collect();
        let subscriptions = (0..groups * per_group)
            .map(|i| {
                let g = i % groups;
                let mut v = ShiftingBitVector::starting_at(100, 0);
                for id in g * 10..g * 10 + 8 {
                    v.record(id);
                }
                let mut p = SubscriptionProfile::with_capacity(100);
                p.insert_vector(AdvId::new(1), v);
                SubscriptionEntry::new(SubId::new(i), Filter::new(), p)
            })
            .collect();
        AllocationInput {
            brokers: (0..brokers)
                .map(|i| {
                    BrokerSpec::new(
                        BrokerId::new(i),
                        format!("b{i}"),
                        LinearFn::new(0.0001, 0.0),
                        1e9,
                    )
                })
                .collect(),
            subscriptions,
            publishers,
        }
    }

    fn cancelled<T>(got: Result<T, AllocError>) -> bool {
        matches!(got, Err(AllocError::Cancelled))
    }

    /// The equal-profile grouping polls once per unit: ten units of one
    /// profile make one cluster, so only that loop polls ten times.
    #[test]
    fn grouping_polls_the_cancel_token() {
        let units = units_from_input(&input(1, 10, 4));
        let token = CancelToken::tripping_at(10);
        assert!(cancelled(cluster_to_k(units, 1, &token)));
    }

    /// The partner fold polls once per cluster: with `k` at the cluster
    /// count no merge runs, so the poll after the grouping is its own.
    #[test]
    fn partner_fold_polls_the_cancel_token() {
        let units = units_from_input(&input(5, 1, 4));
        let token = CancelToken::tripping_at(5 + 1);
        assert!(cancelled(cluster_to_k(units, 5, &token)));
    }

    /// The merge loop polls once per merge.
    #[test]
    fn merge_loop_polls_the_cancel_token() {
        let units = units_from_input(&input(5, 1, 4));
        let token = CancelToken::tripping_at(5 + 5 + 1);
        assert!(cancelled(cluster_to_k(units, 1, &token)));
    }

    /// The assignment polls once per cluster.
    #[test]
    fn assignment_polls_the_cancel_token() {
        let inp = input(3, 2, 4);
        let units = units_from_input(&inp);
        let mut rng = StdRng::seed_from_u64(1);
        let token = CancelToken::tripping_at(1);
        assert!(cancelled(assign(
            &inp,
            units,
            &inp.publishers,
            false,
            &mut rng,
            &token
        )));
    }

    #[test]
    fn clusters_to_requested_count() {
        let inp = input(6, 5, 10);
        let r = pairwise_k(&inp, 3, 1, &CancelToken::never()).unwrap();
        assert_eq!(r.clusters, 3);
        assert_eq!(r.allocation.sub_count(), 30);
    }

    #[test]
    fn equal_profiles_merge_for_free() {
        let inp = input(4, 10, 10);
        // 4 distinct profiles → asking for 4 clusters needs no lossy merges
        let r = pairwise_k(&inp, 4, 1, &CancelToken::never()).unwrap();
        assert_eq!(r.clusters, 4);
        for load in &r.allocation.loads {
            for u in &load.units {
                assert_eq!(u.profile.count_ones(), 8, "groups stayed pure");
            }
        }
    }

    #[test]
    fn pairwise_n_spreads_one_cluster_per_broker() {
        let inp = input(8, 4, 8);
        let r = pairwise_n(&inp, 2, &CancelToken::never()).unwrap();
        assert_eq!(r.clusters, 8);
        assert_eq!(r.allocation.broker_count(), 8);
        for load in &r.allocation.loads {
            assert_eq!(load.units.len(), 1);
        }
    }

    #[test]
    fn k_larger_than_distinct_profiles_is_fine() {
        let inp = input(2, 3, 4);
        let r = pairwise_k(&inp, 100, 3, &CancelToken::never()).unwrap();
        assert_eq!(r.clusters, 2);
    }

    #[test]
    fn deterministic_per_seed() {
        let inp = input(5, 4, 6);
        let a = pairwise_k(&inp, 3, 9, &CancelToken::never()).unwrap();
        let b = pairwise_k(&inp, 3, 9, &CancelToken::never()).unwrap();
        let shape = |r: &PairwiseResult| {
            r.allocation
                .loads
                .iter()
                .map(|l| (l.broker, l.sub_count()))
                .collect::<Vec<_>>()
        };
        assert_eq!(shape(&a), shape(&b));
    }

    #[test]
    fn xor_merges_most_similar_groups_first() {
        // Two groups overlapping heavily (ids 0..8 vs 2..10) and one far
        // group (50..58): with k=2, the overlapping groups merge.
        let publishers: PublisherTable = [PublisherProfile::new(
            AdvId::new(1),
            100.0,
            100_000.0,
            MsgId::new(99),
        )]
        .into_iter()
        .collect();
        let mk = |id: u64, range: std::ops::Range<u64>| {
            let mut v = ShiftingBitVector::starting_at(100, 0);
            for x in range {
                v.record(x);
            }
            let mut p = SubscriptionProfile::with_capacity(100);
            p.insert_vector(AdvId::new(1), v);
            SubscriptionEntry::new(SubId::new(id), Filter::new(), p)
        };
        let inp = AllocationInput {
            brokers: (0..4)
                .map(|i| {
                    BrokerSpec::new(
                        BrokerId::new(i),
                        format!("b{i}"),
                        LinearFn::new(0.0001, 0.0),
                        1e9,
                    )
                })
                .collect(),
            subscriptions: vec![mk(0, 0..8), mk(1, 2..10), mk(2, 50..58)],
            publishers,
        };
        let r = pairwise_k(&inp, 2, 0, &CancelToken::never()).unwrap();
        assert_eq!(r.clusters, 2);
        let sizes: Vec<usize> = r
            .allocation
            .loads
            .iter()
            .flat_map(|l| l.units.iter().map(|u| u.sub_count()))
            .collect();
        assert!(sizes.contains(&2), "overlapping pair merged: {sizes:?}");
    }
}
