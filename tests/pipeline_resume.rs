//! Checkpoint/resume identity: interrupting the reconfiguration
//! pipeline after any phase and resuming from the exported checkpoint
//! JSON must reproduce the straight-through run bit for bit —
//! allocations, overlay-derived placement metrics, and CramStats — for
//! every closeness metric and thread budget.

use greenps::core::pipeline::{CheckpointStore, PhaseKind, ReconfigContext};
use greenps::profile::ClosenessMetric;
use greenps::simnet::SimDuration;
use greenps::workload::{
    Approach, Outcome, ReconfigPipeline, RunConfig, Scenario, ScenarioBuilder, Topology,
};
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};

const THREADS: [usize; 4] = [1, 2, 4, 8];
const STOPS: [PhaseKind; 5] = [
    PhaseKind::Gather,
    PhaseKind::Allocate,
    PhaseKind::BuildOverlay,
    PhaseKind::Deploy,
    PhaseKind::Measure,
];

fn scenario() -> (Scenario, RunConfig) {
    let mut s = ScenarioBuilder::new(Topology::Homogeneous)
        .total_subs(60)
        .seed(41)
        .build();
    s.brokers.truncate(10);
    let cfg = RunConfig {
        warmup: SimDuration::from_secs(2),
        profile: SimDuration::from_secs(30),
        measure: SimDuration::from_secs(30),
        seed: 41,
    };
    (s, cfg)
}

/// Straight-through outcomes, computed once per (metric, threads) pair —
/// the reference each interrupted/resumed case is compared against.
fn straight(metric_i: usize, threads_i: usize) -> Outcome {
    static CACHE: OnceLock<Mutex<HashMap<(usize, usize), Outcome>>> = OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    let mut cache = cache.lock().expect("straight-run cache");
    cache
        .entry((metric_i, threads_i))
        .or_insert_with(|| {
            let (s, cfg) = scenario();
            let metric = ClosenessMetric::ALL[metric_i];
            let ctx = ReconfigContext::new().with_threads(THREADS[threads_i]);
            ReconfigPipeline::approach(&s, Approach::Cram(metric), cfg)
                .run(&ctx)
                .expect("straight run")
        })
        .clone()
}

fn assert_bit_identical(resumed: &Outcome, reference: &Outcome, label: &str) {
    assert_eq!(
        resumed.allocated_brokers, reference.allocated_brokers,
        "{label}"
    );
    assert_eq!(resumed.cram_stats, reference.cram_stats, "{label}");
    assert_eq!(resumed.overlay_stats, reference.overlay_stats, "{label}");
    assert_eq!(
        resumed.metrics.deliveries, reference.metrics.deliveries,
        "{label}"
    );
    assert_eq!(
        resumed.metrics.total_msgs, reference.metrics.total_msgs,
        "{label}"
    );
    assert_eq!(
        resumed.metrics.avg_broker_msg_rate.to_bits(),
        reference.metrics.avg_broker_msg_rate.to_bits(),
        "{label}: pool-average message rate"
    );
    assert_eq!(
        resumed.metrics.avg_active_broker_msg_rate.to_bits(),
        reference.metrics.avg_active_broker_msg_rate.to_bits(),
        "{label}: active-average message rate"
    );
    assert_eq!(
        resumed.metrics.mean_hops.to_bits(),
        reference.metrics.mean_hops.to_bits(),
        "{label}: mean hops"
    );
    assert_eq!(
        resumed.metrics.mean_delay_s.to_bits(),
        reference.metrics.mean_delay_s.to_bits(),
        "{label}: mean delay"
    );
    // Per-broker rates pin down the overlay: a different tree or
    // placement shifts traffic between brokers even when the averages
    // happen to agree.
    assert_eq!(
        resumed.metrics.broker_msg_rates.len(),
        reference.metrics.broker_msg_rates.len(),
        "{label}"
    );
    for ((rb, rr), (sb, sr)) in resumed
        .metrics
        .broker_msg_rates
        .iter()
        .zip(&reference.metrics.broker_msg_rates)
    {
        assert_eq!(rb, sb, "{label}: broker order");
        assert_eq!(rr.to_bits(), sr.to_bits(), "{label}: rate of {rb}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Interrupt after a phase, export the store to JSON, reload, and
    /// resume: the outcome equals the straight-through run bit for bit.
    #[test]
    fn interrupted_and_resumed_run_is_bit_identical(
        metric_i in 0usize..4,
        threads_i in 0usize..4,
        stop_i in 0usize..5,
    ) {
        let (s, cfg) = scenario();
        let metric = ClosenessMetric::ALL[metric_i];
        let run = ReconfigPipeline::approach(&s, Approach::Cram(metric), cfg);
        let ctx = ReconfigContext::new().with_threads(THREADS[threads_i]);
        let label = format!("CRAM-{metric} t={} stop={:?}", THREADS[threads_i], STOPS[stop_i]);

        let store = run.run_until(&ctx, STOPS[stop_i]).expect("interrupted run");
        prop_assert_eq!(
            store.completed(),
            STOPS[..=stop_i].to_vec(),
            "checkpoints accumulate in phase order: {}", label
        );

        // The JSON codec is stable: decode(encode(store)) re-encodes
        // byte-identically, so a checkpoint survives being persisted.
        let json = store.to_json();
        let reloaded = CheckpointStore::from_json(&json).expect("reload checkpoints");
        prop_assert_eq!(&reloaded.to_json(), &json, "checkpoint JSON round-trips");

        let resumed = run.resume(&ctx, reloaded).expect("resumed run");
        assert_bit_identical(&resumed, &straight(metric_i, threads_i), &label);
    }
}
