//! Smoke tests of the experiment harness pieces at tiny scale: every
//! experiment's computational core runs and produces sane shapes, the
//! telemetry the harness emits stays within the declared name table
//! (`greenps_telemetry::names`), and the scale report emits exactly
//! its declared keys ([`BENCH_KEYS`]).

use greenps::core::cram::CramBuilder;
use greenps::core::croc::{plan, PlanConfig};
use greenps::core::overlay::{build_overlay, AllocatorKind, OverlayConfig};
use greenps::core::pairwise::{pairwise_k, pairwise_n};
use greenps::core::pipeline::{CancelToken, ReconfigContext};
use greenps::core::sorting::{bin_packing, fbf};
use greenps::profile::ClosenessMetric;
use greenps_bench::{check_input, ideal_input};
use greenps_simnet::SimDuration;
use greenps_telemetry::json::{self, JsonValue};
use greenps_telemetry::names::{self, Kind};
use greenps_telemetry::Registry;
use greenps_workload::{
    Approach, ReconfigPipeline, RunConfig, Scenario, ScenarioBuilder, Topology,
};

fn homogeneous(total_subs: usize, seed: u64) -> Scenario {
    ScenarioBuilder::new(Topology::Homogeneous)
        .total_subs(total_subs)
        .seed(seed)
        .build()
}

#[test]
fn e1_core_all_algorithms_allocate_same_subscriptions() {
    let mut scenario = homogeneous(200, 71);
    scenario.brokers.truncate(20);
    let input = ideal_input(&scenario);
    check_input(&input);

    let manual_brokers = scenario.broker_count();
    let fbf_alloc = fbf(&input, 71).unwrap();
    let bp = bin_packing(&input).unwrap();
    assert!(bp.broker_count() <= fbf_alloc.broker_count());
    for metric in ClosenessMetric::ALL {
        let (alloc, stats) = CramBuilder::new(metric).run(&input).unwrap();
        assert_eq!(alloc.sub_count(), 200, "{metric}");
        assert!(alloc.broker_count() <= bp.broker_count(), "{metric}");
        assert!(alloc.broker_count() < manual_brokers, "{metric}");
        assert!(
            stats.initial_gifs < stats.subscriptions,
            "{metric}: GIFs group"
        );
    }
    let pk = pairwise_k(&input, 10, 71, &CancelToken::never()).unwrap();
    assert_eq!(pk.allocation.sub_count(), 200);
    let pn = pairwise_n(&input, 71, &CancelToken::never()).unwrap();
    assert_eq!(pn.allocation.sub_count(), 200);
    assert!(pn.clusters <= 20);
}

#[test]
fn e4_core_heterogeneous_prefers_big_brokers() {
    let scenario = ScenarioBuilder::new(Topology::Heterogeneous)
        .ns(40)
        .seed(72)
        .build();
    let input = ideal_input(&scenario);
    let (alloc, _) = CramBuilder::new(ClosenessMetric::Ios).run(&input).unwrap();
    // The most resourceful brokers absorb the heaviest loads: the
    // busiest allocated broker must be a full-capacity one.
    let busiest = alloc
        .loads
        .iter()
        .max_by(|a, b| a.out_bw_used.total_cmp(&b.out_bw_used))
        .unwrap();
    let spec = input
        .brokers
        .iter()
        .find(|b| b.id == busiest.broker)
        .unwrap();
    let max_bw = input
        .brokers
        .iter()
        .map(|b| b.out_bandwidth)
        .fold(0.0, f64::max);
    assert_eq!(spec.out_bandwidth, max_bw, "heaviest load on a full broker");
}

#[test]
fn e5_core_scales_to_hundreds_of_brokers() {
    let scenario = ScenarioBuilder::new(Topology::Scinet)
        .brokers(120)
        .publishers(10)
        .subs_per_publisher(20)
        .seed(73)
        .build();
    let input = ideal_input(&scenario);
    let p = plan(
        &input,
        &PlanConfig::cram(ClosenessMetric::Iou),
        &ReconfigContext::new(),
    )
    .unwrap();
    assert!(
        p.broker_count() < 120 / 2,
        "collapses the pool: {}",
        p.broker_count()
    );
    p.overlay.check_tree();
}

#[test]
fn e8_core_pruning_cuts_computations_at_scale() {
    let mut scenario = homogeneous(320, 74);
    scenario.brokers.truncate(30);
    let input = ideal_input(&scenario);
    let pruned = CramBuilder::new(ClosenessMetric::Ios)
        .poset_pruning(true)
        .run(&input)
        .unwrap()
        .1;
    let full = CramBuilder::new(ClosenessMetric::Ios)
        .poset_pruning(false)
        .run(&input)
        .unwrap()
        .1;
    assert!(
        pruned.closeness_computations * 2 < full.closeness_computations,
        "pruning cuts computations by half or more: {} vs {}",
        pruned.closeness_computations,
        full.closeness_computations
    );
}

#[test]
fn e9_core_overlay_opts_monotone() {
    let mut scenario = homogeneous(240, 75);
    scenario.brokers.truncate(24);
    let input = ideal_input(&scenario);
    let (leaf, _) = CramBuilder::new(ClosenessMetric::Ios).run(&input).unwrap();
    let all_on = build_overlay(
        &input,
        &leaf,
        &OverlayConfig::new(AllocatorKind::BinPacking),
    )
    .unwrap();
    let mut cfg = OverlayConfig::new(AllocatorKind::BinPacking);
    cfg.eliminate_pure_forwarders = false;
    cfg.takeover_children = false;
    cfg.best_fit_replacement = false;
    let all_off = build_overlay(&input, &leaf, &cfg).unwrap();
    assert!(all_on.broker_count() <= all_off.broker_count());
    assert!(all_on.depth() <= all_off.depth() + 1);
}

/// True when `key` is declared in `names::ALL` as a `kind`, with any
/// decimal id in place of a template's `<id>`.
fn declared(kind: Kind, key: &str) -> bool {
    names::ALL
        .iter()
        .filter(|e| e.kind == kind)
        .any(|e| match e.name.split_once("<id>") {
            None => key == e.name,
            Some((pre, post)) => key
                .strip_prefix(pre)
                .and_then(|rest| rest.strip_suffix(post))
                .is_some_and(|id| !id.is_empty() && id.bytes().all(|b| b.is_ascii_digit())),
        })
}

/// Every instrument name a traced end-to-end run registers — the same
/// registry contents `experiments --telemetry <path>` exports — must be
/// declared in `names::ALL` with the kind it was recorded as.
#[test]
fn traced_run_snapshot_matches_telemetry_schema() {
    let mut scenario = homogeneous(60, 77);
    scenario.brokers.truncate(10);
    let registry = Registry::new();
    let cfg = RunConfig {
        warmup: SimDuration::from_secs(1),
        profile: SimDuration::from_secs(20),
        measure: SimDuration::from_secs(5),
        seed: 77,
    };
    let outcome = ReconfigPipeline::approach(
        &scenario,
        Approach::Cram(greenps::profile::ClosenessMetric::Intersect),
        cfg,
    )
    .run(&ReconfigContext::new().with_registry(&registry))
    .expect("traced run completed");
    assert_eq!(outcome.subscriptions, 60);

    let snap = registry.snapshot();
    let mut checked = 0usize;
    for (kind, keys) in [
        (Kind::Counter, snap.counters.keys().collect::<Vec<_>>()),
        (Kind::Gauge, snap.gauges.keys().collect::<Vec<_>>()),
        (Kind::Histogram, snap.histograms.keys().collect::<Vec<_>>()),
        (Kind::Span, snap.spans.keys().collect::<Vec<_>>()),
        (Kind::Ring, snap.rings.keys().collect::<Vec<_>>()),
    ] {
        for key in keys {
            checked += 1;
            assert!(
                declared(kind, key),
                "{kind:?} `{key}` is not declared in names::ALL"
            );
        }
    }
    for ring in snap.rings.values() {
        for event in &ring.events {
            checked += 1;
            assert!(
                declared(Kind::Event, &event.kind),
                "ring event kind `{}` is not declared in names::ALL",
                event.kind
            );
        }
    }
    // The traced run actually produced telemetry worth checking.
    assert!(checked > 10, "only {checked} names checked");
    assert!(snap.spans.keys().any(|s| s == "phase2.allocation"));
    assert!(snap.counters.keys().any(|c| c == "cram.merges"));
}

/// Collects every object key of a JSON document, at any depth.
fn json_keys(value: &JsonValue, keys: &mut std::collections::BTreeSet<String>) {
    match value {
        JsonValue::Obj(pairs) => {
            for (key, child) in pairs {
                keys.insert(key.clone());
                json_keys(child, keys);
            }
        }
        JsonValue::Arr(items) => items.iter().for_each(|item| json_keys(item, keys)),
        _ => {}
    }
}

/// The key vocabulary of `BENCH_scale.json`, which CI and readers of the
/// report depend on.
const BENCH_KEYS: [&str; 15] = [
    "metric",
    "quick",
    "available_parallelism",
    "runs",
    "subscriptions",
    "zones",
    "brokers",
    "threads",
    "effective_threads",
    "largest_zone",
    "gifs",
    "allocated_brokers",
    "cross_links",
    "wall_ms",
    "peak_rss_kib",
];

/// The key vocabulary of `BENCH_scale.json` equals [`BENCH_KEYS`] — no
/// undeclared keys, no dead entries.
#[test]
fn bench_report_keys_match_telemetry_schema() {
    let report = greenps_bench::scale_report_json(&[(600, 4)], 2, true, &Registry::disabled());
    let report = json::parse(&report).expect("the scale report is valid JSON");
    let mut keys = std::collections::BTreeSet::new();
    json_keys(&report, &mut keys);
    assert!(!keys.is_empty(), "no keys parsed out of the bench JSON");

    for key in &keys {
        assert!(
            BENCH_KEYS.contains(&key.as_str()),
            "bench report key `{key}` is not in BENCH_KEYS"
        );
    }
    for key in BENCH_KEYS {
        assert!(
            keys.contains(key),
            "bench key `{key}` is dead: the report no longer emits it"
        );
    }
}
