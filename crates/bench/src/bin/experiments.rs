//! Regenerates every figure/table of the evaluation (DESIGN.md §4).
//!
//! ```text
//! experiments [--quick] [--csv <dir>] [--telemetry <path>]
//!             <e1|e2|e3|e4|e5|e6|e7|e8|e9|e10|scale-report|pipeline-smoke|all>
//! ```
//!
//! `--quick` shrinks the grids so the whole suite finishes in a couple
//! of minutes; the default parameters follow the paper (80 brokers, 40
//! publishers at 70 msg/min, 2,000–8,000 subscriptions, heterogeneous
//! tiers, SciNet scales). `--telemetry <path>` traces every
//! run into a `greenps-telemetry` registry (phase spans, CRAM counters,
//! pair-cache hit rates, per-broker delivery-delay histograms) and
//! writes the whole-run snapshot as JSON at exit.

#![expect(
    clippy::disallowed_methods,
    reason = "plan and experiment timings are reported columns, never inputs to a plan"
)]

use greenps_bench::ideal_input;
use greenps_core::cram::{CramBuilder, CramConfig};
use greenps_core::croc::{plan, PlanConfig};
use greenps_core::engine::available_threads;
use greenps_core::overlay::{build_overlay, AllocatorKind, OverlayConfig};
use greenps_core::pipeline::{CheckpointStore, Phase, PhaseKind, ReconfigContext};
use greenps_core::sorting::{bin_packing, fbf};
use greenps_profile::{ClosenessMetric, Poset};
use greenps_telemetry::Registry;
use greenps_workload::pipeline::GatherPhase;
use greenps_workload::report::{outcome_table, reduction_pct, Table};
use greenps_workload::scenario::{Scenario, ScenarioBuilder, Topology};
use greenps_workload::{Approach, Outcome, ReconfigPipeline, RunConfig};
use std::path::PathBuf;
use std::time::Instant;

fn homogeneous(total_subs: usize, seed: u64) -> Scenario {
    ScenarioBuilder::new(Topology::Homogeneous)
        .total_subs(total_subs)
        .seed(seed)
        .build()
}

fn heterogeneous(ns: usize, seed: u64) -> Scenario {
    ScenarioBuilder::new(Topology::Heterogeneous)
        .ns(ns)
        .seed(seed)
        .build()
}

fn scinet_custom(
    brokers: usize,
    publishers: usize,
    subs_per_publisher: usize,
    seed: u64,
) -> Scenario {
    ScenarioBuilder::new(Topology::Scinet)
        .brokers(brokers)
        .publishers(publishers)
        .subs_per_publisher(subs_per_publisher)
        .seed(seed)
        .build()
}

fn every_broker_subscribes(brokers: usize, seed: u64) -> Scenario {
    ScenarioBuilder::new(Topology::EveryBrokerSubscribes)
        .brokers(brokers)
        .seed(seed)
        .build()
}

#[derive(Clone)]
struct Opts {
    quick: bool,
    csv: Option<PathBuf>,
    telemetry: Option<PathBuf>,
    registry: Registry,
}

impl Opts {
    /// The reconfiguration context every run executes under.
    fn ctx(&self) -> ReconfigContext {
        ReconfigContext::new().with_registry(&self.registry)
    }
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mut opts = Opts {
        quick: false,
        csv: None,
        telemetry: None,
        registry: Registry::disabled(),
    };
    let mut which = Vec::new();
    while let Some(a) = args.first().cloned() {
        args.remove(0);
        match a.as_str() {
            "--quick" => opts.quick = true,
            "--csv" => {
                let dir = args.first().expect("--csv needs a directory").clone();
                args.remove(0);
                opts.csv = Some(PathBuf::from(dir));
            }
            "--telemetry" => {
                let path = args.first().expect("--telemetry needs a path").clone();
                args.remove(0);
                opts.telemetry = Some(PathBuf::from(path));
                opts.registry = Registry::new();
            }
            "--help" | "-h" | "help" => {
                println!(
                    "usage: experiments [--quick] [--csv <dir>] [--telemetry <path>] \
                     <e1|e2|e3|e4|e5|e6|e7|e8|e9|e10|scale-report|pipeline-smoke|all>\n\
                     \n\
                     e1-e3   homogeneous cluster: msg rate, brokers, hops/delay\n\
                     e4      heterogeneous cluster (15/25/40 capacity tiers)\n\
                     e5      SciNet large-scale deployments\n\
                     e6      publisher-relocation limitation + GRAPE sweep\n\
                     e7      allocation computation time per algorithm\n\
                     e8      CRAM search-pruning ablation, poset timing\n\
                     e9      one-to-many + overlay optimization ablations\n\
                     e10     bit-vector load-estimation accuracy\n\
                     scale-report  hierarchical zoned CRAM at 100k-1M subs -> BENCH_scale.json\n\
                     pipeline-smoke  interrupt + resume a run -> pipeline_checkpoint.json"
                );
                return;
            }
            other => which.push(other.to_string()),
        }
    }
    if which.is_empty() {
        which.push("all".to_string());
    }
    if let Some(dir) = &opts.csv {
        std::fs::create_dir_all(dir).expect("create csv dir");
    }
    for w in which {
        match w.as_str() {
            "e1" | "e2" | "e3" => e1_e2_e3(&opts),
            "e4" => e4(&opts),
            "e5" => e5(&opts),
            "e6" => e6(&opts),
            "e7" => e7(&opts),
            "e8" => e8(&opts),
            "e9" => e9(&opts),
            "e10" => e10(&opts),
            "scale-report" => scale_report(&opts),
            "pipeline-smoke" => pipeline_smoke(&opts),
            "all" => {
                e1_e2_e3(&opts);
                e4(&opts);
                e5(&opts);
                e6(&opts);
                e7(&opts);
                e8(&opts);
                e9(&opts);
                e10(&opts);
            }
            other => eprintln!("unknown experiment: {other}"),
        }
    }
    if let Some(path) = &opts.telemetry {
        let json = opts.registry.snapshot().to_json();
        std::fs::write(path, format!("{json}\n")).expect("write telemetry json");
        println!("telemetry: wrote {}", path.display());
    }
}

fn emit(opts: &Opts, name: &str, title: &str, table: &Table) {
    println!("\n=== {name}: {title} ===");
    print!("{}", table.render());
    if let Some(dir) = &opts.csv {
        table
            .write_csv(&dir.join(format!("{name}.csv")))
            .expect("write csv");
    }
}

fn run_cfg(seed: u64) -> RunConfig {
    RunConfig {
        warmup: greenps_simnet::SimDuration::from_secs(5),
        profile: greenps_simnet::SimDuration::from_secs(90),
        measure: greenps_simnet::SimDuration::from_secs(90),
        seed,
    }
}

fn grid_outcomes(opts: &Opts, scenarios: &[Scenario], approaches: &[Approach]) -> Vec<Outcome> {
    let mut out = Vec::new();
    for s in scenarios {
        for &a in approaches {
            let t0 = Instant::now();
            let o = ReconfigPipeline::approach(s, a, run_cfg(s.seed))
                .run(&opts.ctx())
                .expect("approach run completed");
            eprintln!(
                "[{}] {} -> {} brokers, {:.1} msg/s avg ({:.1}s wall)",
                s.name,
                o.approach,
                o.allocated_brokers,
                o.metrics.avg_broker_msg_rate,
                t0.elapsed().as_secs_f64()
            );
            out.push(o);
        }
    }
    out
}

/// E1–E3: homogeneous cluster — message rate, allocated brokers, hops
/// and delay vs number of subscriptions, for all ten approaches.
fn e1_e2_e3(opts: &Opts) {
    let sizes: &[usize] = if opts.quick {
        &[400, 800]
    } else {
        &[2000, 4000, 6000, 8000]
    };
    let scenarios: Vec<Scenario> = sizes
        .iter()
        .map(|&n| {
            let mut s = homogeneous(n, 1);
            if opts.quick {
                s.brokers.truncate(24);
            }
            s
        })
        .collect();
    let outcomes = grid_outcomes(opts, &scenarios, &Approach::ALL_PAPER);
    emit(
        opts,
        "e1",
        "homogeneous cluster, all approaches",
        &outcome_table(&outcomes),
    );

    // Headline reductions vs MANUAL (the paper's 92% / 91% claims).
    let mut head = Table::new(&[
        "subs",
        "approach",
        "msg-rate reduction vs MANUAL (%)",
        "broker reduction vs MANUAL (%)",
    ]);
    for s in &scenarios {
        let base = outcomes
            .iter()
            .find(|o| o.scenario == s.name && o.approach == "MANUAL")
            .unwrap();
        for o in outcomes.iter().filter(|o| o.scenario == s.name) {
            if o.approach == "MANUAL" {
                continue;
            }
            head.row(vec![
                s.sub_count().to_string(),
                o.approach.clone(),
                format!(
                    "{:.1}",
                    reduction_pct(
                        base.metrics.avg_broker_msg_rate,
                        o.metrics.avg_broker_msg_rate
                    )
                ),
                format!(
                    "{:.1}",
                    reduction_pct(base.allocated_brokers as f64, o.allocated_brokers as f64)
                ),
            ]);
        }
    }
    emit(
        opts,
        "e2",
        "reductions vs MANUAL (headline: up to 92% / 91%)",
        &head,
    );

    let mut hops = Table::new(&["subs", "approach", "mean hops", "mean delay (ms)"]);
    for o in &outcomes {
        hops.row(vec![
            o.subscriptions.to_string(),
            o.approach.clone(),
            format!("{:.2}", o.metrics.mean_hops),
            format!("{:.2}", o.metrics.mean_delay_s * 1e3),
        ]);
    }
    emit(opts, "e3", "hop count and delivery delay", &hops);
}

/// E4: heterogeneous cluster (15×100% / 25×50% / 40×25% capacity).
fn e4(opts: &Opts) {
    let ns: &[usize] = if opts.quick {
        &[50]
    } else {
        &[50, 100, 150, 200]
    };
    let scenarios: Vec<Scenario> = ns.iter().map(|&n| heterogeneous(n, 2)).collect();
    let approaches: &[Approach] = if opts.quick {
        &[
            Approach::Manual,
            Approach::BinPacking,
            Approach::Cram(ClosenessMetric::Ios),
        ]
    } else {
        &Approach::ALL_PAPER
    };
    let outcomes = grid_outcomes(opts, &scenarios, approaches);
    emit(
        opts,
        "e4",
        "heterogeneous cluster",
        &outcome_table(&outcomes),
    );
}

/// E5: SciNet large-scale deployments.
fn e5(opts: &Opts) {
    let scales: Vec<Scenario> = if opts.quick {
        vec![scinet_custom(100, 18, 40, 3)]
    } else {
        // Reduced per-publisher subscription counts keep the full-grid
        // run in minutes while preserving the saturation shape; see
        // EXPERIMENTS.md.
        vec![
            scinet_custom(400, 72, 100, 3),
            scinet_custom(1000, 100, 100, 3),
        ]
    };
    let approaches = [
        Approach::Manual,
        Approach::Automatic,
        Approach::BinPacking,
        Approach::Cram(ClosenessMetric::Ios),
    ];
    let outcomes = grid_outcomes(opts, &scales, &approaches);
    emit(opts, "e5", "SciNet large-scale", &outcome_table(&outcomes));
}

/// E6: publisher relocation alone cannot reduce the message rate when
/// every broker hosts an identical subscription (§II-B).
fn e6(opts: &Opts) {
    let brokers = if opts.quick { 16 } else { 80 };
    let s = every_broker_subscribes(brokers, 4);
    let approaches = [
        Approach::Manual,
        Approach::GrapeOnly,
        Approach::Cram(ClosenessMetric::Ios),
    ];
    let outcomes = grid_outcomes(opts, &[s], &approaches);
    let mut t = Table::new(&["approach", "brokers", "avg msg rate", "vs MANUAL (%)"]);
    let base = outcomes[0].metrics.avg_broker_msg_rate;
    for o in &outcomes {
        t.row(vec![
            o.approach.clone(),
            o.allocated_brokers.to_string(),
            format!("{:.2}", o.metrics.avg_broker_msg_rate),
            format!("{:.1}", reduction_pct(base, o.metrics.avg_broker_msg_rate)),
        ]);
    }
    emit(opts, "e6", "publisher-relocation-only limitation", &t);

    // GRAPE priority sweep: trade total message rate against delivery
    // delay on a normal workload.
    let sweep_scenario = {
        let mut s = homogeneous(if opts.quick { 200 } else { 1000 }, 5);
        if opts.quick {
            s.brokers.truncate(16);
        }
        s
    };
    let mut t = Table::new(&[
        "GRAPE priority P",
        "brokers",
        "avg msg rate",
        "mean delay (ms)",
    ]);
    for priority in [0.0, 0.5, 1.0] {
        let mut plan_cfg = PlanConfig::cram(ClosenessMetric::Ios);
        plan_cfg.grape = greenps_core::grape::GrapeConfig { priority };
        let label = format!("CRAM-IOS/P={priority}");
        let o = ReconfigPipeline::custom_plan(&sweep_scenario, &label, &plan_cfg, run_cfg(5))
            .run(&opts.ctx())
            .expect("custom plan run completed");
        t.row(vec![
            format!("{priority:.1}"),
            o.allocated_brokers.to_string(),
            format!("{:.2}", o.metrics.avg_broker_msg_rate),
            format!("{:.2}", o.metrics.mean_delay_s * 1e3),
        ]);
    }
    emit(opts, "e6b", "GRAPE load/delay priority sweep", &t);
}

/// E7: allocation algorithm computation time (no simulation).
fn e7(opts: &Opts) {
    let sizes: &[usize] = if opts.quick {
        &[500, 1000]
    } else {
        &[2000, 4000, 6000, 8000]
    };
    let mut t = Table::new(&["subs", "algorithm", "time (ms)", "allocated brokers"]);
    let mut xor_vs_ios: Vec<(f64, f64)> = Vec::new();
    for &n in sizes {
        let scenario = homogeneous(n, 5);
        let input = ideal_input(&scenario);
        let timed = |f: &dyn Fn() -> usize| -> (f64, usize) {
            let t0 = Instant::now();
            let brokers = f();
            (t0.elapsed().as_secs_f64() * 1e3, brokers)
        };
        let (ms, b) = timed(&|| fbf(&input, 5).map(|a| a.broker_count()).unwrap_or(0));
        t.row(vec![
            n.to_string(),
            "FBF".into(),
            format!("{ms:.1}"),
            b.to_string(),
        ]);
        let (ms, b) = timed(&|| bin_packing(&input).map(|a| a.broker_count()).unwrap_or(0));
        t.row(vec![
            n.to_string(),
            "BINPACKING".into(),
            format!("{ms:.1}"),
            b.to_string(),
        ]);
        let mut times = std::collections::BTreeMap::new();
        for metric in ClosenessMetric::ALL {
            let (ms, b) = timed(&|| {
                CramBuilder::new(metric)
                    .run(&input)
                    .map(|(a, _)| a.broker_count())
                    .unwrap_or(0)
            });
            times.insert(metric.to_string(), ms);
            t.row(vec![
                n.to_string(),
                format!("CRAM-{metric}"),
                format!("{ms:.1}"),
                b.to_string(),
            ]);
        }
        xor_vs_ios.push((times["XOR"], times["IOS"]));
    }
    emit(
        opts,
        "e7",
        "allocation computation time (XOR ≥75% slower claim)",
        &t,
    );
    for (x, i) in xor_vs_ios {
        println!("  XOR/IOS time ratio: {:.2}x", x / i.max(1e-9));
    }
}

/// E8: search-pruning ablation, GIF reduction, poset insert time.
fn e8(opts: &Opts) {
    let n = if opts.quick { 1000 } else { 8000 };
    let scenario = homogeneous(n, 6);
    let input = ideal_input(&scenario);
    let mut t = Table::new(&[
        "variant",
        "closeness computations",
        "iterations",
        "merges",
        "brokers",
        "time (ms)",
    ]);
    for (label, pruning) in [("poset-pruned", true), ("exhaustive", false)] {
        let t0 = Instant::now();
        let (alloc, stats) = CramBuilder::new(ClosenessMetric::Ios)
            .poset_pruning(pruning)
            .run(&input)
            .expect("cram");
        t.row(vec![
            label.into(),
            stats.closeness_computations.to_string(),
            stats.iterations.to_string(),
            stats.merges.to_string(),
            alloc.broker_count().to_string(),
            format!("{:.1}", t0.elapsed().as_secs_f64() * 1e3),
        ]);
        if pruning {
            println!(
                "GIF grouping: {} subscriptions -> {} GIFs ({:.1}% reduction; paper: up to 61%)",
                stats.subscriptions,
                stats.initial_gifs,
                reduction_pct(stats.subscriptions as f64, stats.initial_gifs as f64)
            );
        }
    }
    emit(opts, "e8", "CRAM search-pruning ablation", &t);

    // Poset insert timing (paper: 3,200 GIFs ≈ 2 s).
    let mut poset: Poset<usize> = Poset::new();
    let profiles: Vec<_> = input
        .subscriptions
        .iter()
        .map(|s| s.profile.clone())
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .collect();
    let t0 = Instant::now();
    for (i, p) in profiles.iter().enumerate() {
        poset.insert(i, p.clone());
    }
    println!(
        "poset: inserted {} unique GIF profiles in {:.2} s ({} relationship ops)",
        profiles.len(),
        t0.elapsed().as_secs_f64(),
        poset.relation_ops()
    );
}

/// E9: one-to-many (CGS) ablation and overlay-optimization ablation.
fn e9(opts: &Opts) {
    let n = if opts.quick { 800 } else { 4000 };
    let scenario = homogeneous(n, 7);
    let input = ideal_input(&scenario);

    let mut t = Table::new(&["variant", "merges", "one-to-many merges", "brokers"]);
    for (label, otm) in [("with one-to-many", true), ("pairwise only", false)] {
        let (alloc, stats) = CramBuilder::new(ClosenessMetric::Ios)
            .one_to_many(otm)
            .run(&input)
            .expect("cram");
        t.row(vec![
            label.into(),
            stats.merges.to_string(),
            stats.one_to_many_merges.to_string(),
            alloc.broker_count().to_string(),
        ]);
    }
    emit(opts, "e9", "one-to-many clustering ablation", &t);

    // Overlay optimization ablation over a fixed leaf allocation.
    let (leaf, _) = CramBuilder::new(ClosenessMetric::Ios)
        .run(&input)
        .expect("leaf");
    let mut t = Table::new(&[
        "overlay variant",
        "total brokers",
        "pure forwarders removed",
        "takeovers",
        "best-fit swaps",
    ]);
    let variants: [(&str, bool, bool, bool); 5] = [
        ("all optimizations", true, true, true),
        ("no pure-forwarder elimination", false, true, true),
        ("no takeover", true, false, true),
        ("no best-fit", true, true, false),
        ("none", false, false, false),
    ];
    for (label, pf, take, fit) in variants {
        let cfg = OverlayConfig {
            allocator: AllocatorKind::Cram(CramConfig::with_metric(ClosenessMetric::Ios)),
            eliminate_pure_forwarders: pf,
            takeover_children: take,
            best_fit_replacement: fit,
        };
        let overlay = build_overlay(&input, &leaf, &cfg).expect("overlay");
        t.row(vec![
            label.into(),
            overlay.broker_count().to_string(),
            overlay.stats.pure_forwarders_removed.to_string(),
            overlay.stats.takeovers.to_string(),
            overlay.stats.best_fit_swaps.to_string(),
        ]);
    }
    emit(
        opts,
        "e9b",
        "overlay construction optimization ablation",
        &t,
    );
}

/// E10: bit-vector load-estimation accuracy — estimated subscription
/// rates vs rates actually observed in the simulator.
fn e10(opts: &Opts) {
    let n = if opts.quick { 200 } else { 1000 };
    let mut scenario = homogeneous(n, 8);
    scenario.brokers.truncate(20);
    let cfg = run_cfg(8);
    let input = GatherPhase {
        scenario: &scenario,
        cfg,
    }
    .run((), &opts.ctx())
    .expect("phase 1 gather completed")
    .input;

    // Ground truth: exact selectivity over the publication stream.
    let ideal = ideal_input(&scenario);
    let mut t = Table::new(&["percentile", "relative rate-estimation error (%)"]);
    let mut errors: Vec<f64> = Vec::new();
    for entry in &input.subscriptions {
        let est = entry.profile.estimate_load(&input.publishers).rate;
        let truth_entry = ideal
            .subscriptions
            .iter()
            .find(|e| e.id == entry.id)
            .expect("same ids");
        let truth = truth_entry.profile.estimate_load(&ideal.publishers).rate;
        if truth > 0.0 {
            errors.push(100.0 * (est - truth).abs() / truth);
        }
    }
    errors.sort_by(f64::total_cmp);
    for q in [0.5, 0.9, 0.99] {
        let idx = ((errors.len() as f64 * q) as usize).min(errors.len() - 1);
        t.row(vec![
            format!("p{:.0}", q * 100.0),
            format!("{:.1}", errors[idx]),
        ]);
    }
    let mean = errors.iter().sum::<f64>() / errors.len().max(1) as f64;
    t.row(vec!["mean".into(), format!("{mean:.1}")]);
    emit(opts, "e10", "bit-vector framework estimation accuracy", &t);

    // The framework feeds the planner: confirm a plan from *measured*
    // profiles matches one from ideal profiles within a broker or two.
    let measured =
        plan(&input, &PlanConfig::cram(ClosenessMetric::Ios), &opts.ctx()).expect("plan");
    let perfect = plan(&ideal, &PlanConfig::cram(ClosenessMetric::Ios), &opts.ctx()).expect("plan");
    println!(
        "plan from measured profiles: {} brokers; from ideal profiles: {} brokers",
        measured.broker_count(),
        perfect.broker_count()
    );

    // E10b: bit-vector capacity sweep — "a larger size will improve the
    // accuracy of estimating the anticipated load of a subscription, but
    // will lengthen the time required to profile subscriptions" (§III-B).
    let mut t = Table::new(&["bit-vector capacity", "mean rate-estimation error (%)"]);
    for bits in [160usize, 320, 640, 1280] {
        let mut s = scenario.clone();
        for b in &mut s.brokers {
            b.profile_bits = bits;
        }
        let input_b = GatherPhase { scenario: &s, cfg }
            .run((), &opts.ctx())
            .expect("phase 1 gather completed")
            .input;
        let mut errs = Vec::new();
        for entry in &input_b.subscriptions {
            let est = entry.profile.estimate_load(&input_b.publishers).rate;
            if let Some(truth_entry) = ideal.subscriptions.iter().find(|e| e.id == entry.id) {
                let truth = truth_entry.profile.estimate_load(&ideal.publishers).rate;
                if truth > 0.0 {
                    errs.push(100.0 * (est - truth).abs() / truth);
                }
            }
        }
        let mean = errs.iter().sum::<f64>() / errs.len().max(1) as f64;
        t.row(vec![bits.to_string(), format!("{mean:.1}")]);
    }
    emit(
        opts,
        "e10b",
        "bit-vector capacity vs estimation accuracy",
        &t,
    );
}

/// `pipeline-smoke`: run CRAM-IOS interrupted after the overlay builds,
/// export the checkpoint store as JSON (`pipeline_checkpoint.json`,
/// into `--csv <dir>` when given), reload it, resume, and verify the
/// resumed outcome is bit-identical to a straight-through run.
fn pipeline_smoke(opts: &Opts) {
    let mut scenario = homogeneous(if opts.quick { 150 } else { 400 }, 9);
    if opts.quick {
        scenario.brokers.truncate(12);
    }
    let cfg = RunConfig {
        warmup: greenps_simnet::SimDuration::from_secs(2),
        profile: greenps_simnet::SimDuration::from_secs(40),
        measure: greenps_simnet::SimDuration::from_secs(40),
        seed: 9,
    };
    let run = ReconfigPipeline::approach(&scenario, Approach::Cram(ClosenessMetric::Ios), cfg);
    let ctx = opts.ctx();
    let straight = run.run(&ctx).expect("straight run");

    let store = run
        .run_until(&ctx, PhaseKind::BuildOverlay)
        .expect("interrupted run");
    let json = store.to_json();
    let path = match &opts.csv {
        Some(dir) => dir.join("pipeline_checkpoint.json"),
        None => PathBuf::from("pipeline_checkpoint.json"),
    };
    std::fs::write(&path, &json).expect("write checkpoint json");

    let reloaded = CheckpointStore::from_json(&json).expect("reload checkpoint json");
    let resumed = run.resume(&ctx, reloaded).expect("resumed run");

    assert_eq!(resumed.allocated_brokers, straight.allocated_brokers);
    assert_eq!(resumed.cram_stats, straight.cram_stats);
    assert_eq!(resumed.metrics.deliveries, straight.metrics.deliveries);
    assert_eq!(resumed.metrics.total_msgs, straight.metrics.total_msgs);
    assert_eq!(
        resumed.metrics.avg_broker_msg_rate.to_bits(),
        straight.metrics.avg_broker_msg_rate.to_bits(),
        "resumed pool average must be bit-identical"
    );
    println!(
        "pipeline-smoke: interrupted after {} of 5 phases, resumed bit-identically \
         ({} brokers, {} deliveries); checkpoint at {}",
        store.completed().len(),
        resumed.allocated_brokers,
        resumed.metrics.deliveries,
        path.display()
    );
}

/// `scale-report`: hierarchical zoned allocation (DESIGN.md §12) over
/// streaming workloads — 100k subscriptions in quick mode, plus a
/// 1M-subscription row in the full run. Writes `BENCH_scale.json`
/// (into `--csv <dir>` when given, else the cwd).
fn scale_report(opts: &Opts) {
    // Zone counts keep the largest zone's GIF pool small enough for the
    // quadratic closest-pair search; the skew-1 weighting makes zone 0
    // roughly 2x the mean so the memory bound is actually exercised.
    let rows: &[(usize, usize)] = if opts.quick {
        &[(100_000, 8)]
    } else {
        &[(100_000, 8), (1_000_000, 64)]
    };
    let threads = available_threads().clamp(1, 8);
    let json = greenps_bench::scale_report_json(rows, threads, opts.quick);
    let path = match &opts.csv {
        Some(dir) => dir.join("BENCH_scale.json"),
        None => PathBuf::from("BENCH_scale.json"),
    };
    std::fs::write(&path, json).expect("write BENCH_scale.json");
    println!("scale-report: wrote {}", path.display());
}
