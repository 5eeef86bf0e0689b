//! What the experiments record under `--telemetry`: a traced
//! `e1 --quick` does a pinned amount of work, and every subcommand
//! leaves counters in its registry.

use greenps_bench::experiments::{self, Opts};
use greenps_telemetry::{Registry, Snapshot};

/// Runs one subcommand in quick mode into a fresh registry, writing its
/// tables to a throwaway directory.
fn traced(name: &str) -> Snapshot {
    let dir = std::env::temp_dir().join(format!(
        "greenps-experiment-records-{name}-{}",
        std::process::id()
    ));
    let opts = Opts {
        quick: true,
        csv: Some(dir.clone()),
        registry: Registry::new(),
    };
    let known = experiments::run(name, &opts);
    let _ = std::fs::remove_dir_all(&dir);
    assert!(known, "`{name}` is not a subcommand");
    opts.registry.snapshot()
}

/// The work counts of one traced `e1 --quick`. They are deterministic,
/// so a change that alters how much work is done changes a pin here on
/// purpose. The partner refresh is held to its rule here too: every
/// scan of a refresh round reads the pair cache as it stood when the
/// round began, and a scan that saw its round's earlier results would
/// move the closeness and pair-cache counts.
#[test]
fn e1_quick_does_a_pinned_amount_of_work() {
    let snap = traced("e1");
    let pins: [(&str, u64); 8] = [
        ("cram.closeness_computations", 804_414),
        ("cram.merges", 3_058),
        ("core.pair_cache.hits", 2_469_524),
        ("core.pair_cache.misses", 804_283),
        ("cram.packs", 4_214),
        ("cram.packs_failed", 0),
        ("routing.rebuilds", 651),
        ("routing.rebuild_entries", 90_269),
    ];
    for (name, want) in pins {
        assert_eq!(snap.counters.get(name).copied(), Some(want), "{name}");
    }
}

/// No subcommand may write a snapshot without counters under
/// `--telemetry`. `e1` is the pinned run above; `scale-report` runs its
/// report function on one small row, since its quick row alone is
/// 100 000 subscriptions.
#[test]
fn every_subcommand_records_counters() {
    for name in experiments::SUBCOMMANDS {
        let snap = match name {
            "e1" => continue,
            "scale-report" => {
                let registry = Registry::new();
                greenps_bench::scale_report_json(&[(600, 4)], 2, true, &registry);
                registry.snapshot()
            }
            _ => traced(name),
        };
        assert!(
            snap.counters.values().any(|&c| c > 0),
            "`{name}` recorded no counter: {:?}",
            snap.counters
        );
    }
}
