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
//! tiers, SciNet scales). `--csv <dir>` writes each table as
//! `<dir>/<name>.csv` and its wall-clock columns as
//! `<dir>/timing/<name>.csv`. `--telemetry <path>` traces every run
//! into a `greenps-telemetry` registry (phase spans, CRAM and
//! pair-cache counters, per-broker delivery-delay histograms) and
//! writes the whole-run snapshot as JSON at exit.

use greenps_bench::experiments::{self, Opts};
use greenps_telemetry::Registry;
use std::path::PathBuf;

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mut opts = Opts {
        quick: false,
        csv: None,
        registry: Registry::disabled(),
    };
    let mut telemetry: Option<PathBuf> = None;
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
                telemetry = Some(PathBuf::from(path));
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
    for w in which {
        if !experiments::run(&w, &opts) {
            eprintln!("unknown experiment: {w}");
        }
    }
    if let Some(path) = &telemetry {
        let json = opts.registry.snapshot().to_json();
        std::fs::write(path, format!("{json}\n")).expect("write telemetry json");
        println!("telemetry: wrote {}", path.display());
    }
}
