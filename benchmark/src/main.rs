//! # perf — the greenps benchmark
//!
//! One program measures both end-to-end numbers of the system —
//! publish → deliver through a deployed overlay, and gather → allocate
//! → build overlay → deploy for one reconfiguration — on four
//! workloads, checks every output against an oracle, and breaks each
//! number down into per-layer rows measured from outside the product
//! crates. `README.md` beside this package says what each workload and
//! metric is for; `../BENCHMARK.json` is the manifest the acceptance
//! driver reads.
//!
//! ```text
//! perf --workload <name> --seed <n> --seconds <s> --trace <0|1>   one result line (driver)
//! perf run     [--seed n] [--seconds s] [--quick] [--out file]    every workload, medians and quartiles
//! perf trace   [--seed n] [--quick] [--out file]                  per-layer rows and spans
//! perf compare <a.json> <b.json>                                  two `run --out` files
//! perf one <name> --seed <n> --size <full|quick> --trace <0|1>    one repetition (internal)
//! ```
//!
//! It claims no gain; it is the yardstick later claims use.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod json;
mod layers;
mod oracle;
mod report;
mod stats;
mod trace;
mod workloads;

use report::{RunOptions, Verdict};
use std::process::ExitCode;
use workloads::{Size, Workload};

const USAGE: &str = "usage:
  perf --workload <tcp_chain|sim_fanout|sim_subscribe|reconfigure> --seed <n> --seconds <s> --trace <0|1>
  perf run     [--seed n] [--seconds s] [--quick] [--out file]
  perf trace   [--seed n] [--quick] [--out file]
  perf compare <a.json> <b.json>";

/// `--name value` pairs and bare flags after the subcommand.
struct Args {
    pairs: Vec<(String, String)>,
    flags: Vec<String>,
    positional: Vec<String>,
}

impl Args {
    /// Splits `args`; names in `flags` take no value.
    fn parse(args: &[String], flags: &[&str]) -> Result<Args, String> {
        let mut out = Args {
            pairs: Vec::new(),
            flags: Vec::new(),
            positional: Vec::new(),
        };
        let mut it = args.iter();
        while let Some(a) = it.next() {
            match a.strip_prefix("--") {
                Some(name) if flags.contains(&name) => out.flags.push(name.to_string()),
                Some(name) => {
                    let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
                    out.pairs.push((name.to_string(), value.clone()));
                }
                None => out.positional.push(a.clone()),
            }
        }
        Ok(out)
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.pairs
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    fn number(&self, name: &str, default: Option<u64>) -> Result<u64, String> {
        match (self.get(name), default) {
            (Some(v), _) => v
                .parse()
                .map_err(|_| format!("--{name} takes a whole number, not {v:?}")),
            (None, Some(d)) => Ok(d),
            (None, None) => Err(format!("--{name} is required")),
        }
    }

    fn workload(&self, name: Option<&str>) -> Result<Workload, String> {
        let name = name.ok_or("a workload name is required")?;
        Workload::from_name(name).ok_or_else(|| format!("unknown workload {name:?}"))
    }

    fn trace(&self) -> Result<bool, String> {
        Ok(self.number("trace", Some(0))? != 0)
    }
}

/// Runs the command line; `Ok(true)` means every check passed.
fn dispatch(argv: &[String]) -> Result<bool, String> {
    let Some(first) = argv.first() else {
        return Err(USAGE.to_string());
    };
    match first.as_str() {
        "one" => {
            let args = Args::parse(&argv[1..], &[])?;
            let workload = args.workload(args.positional.first().map(String::as_str))?;
            let size = match args.get("size") {
                Some("quick") => Size::QUICK,
                Some("full") | None => Size::FULL,
                Some(other) => return Err(format!("unknown size {other:?}")),
            };
            let seed = args.number("seed", None)?;
            let rep = workloads::run_rep(workload, seed, &size, args.trace()?);
            println!("{}", rep.to_json().compact());
            Ok(true)
        }
        "run" => {
            let args = Args::parse(&argv[1..], &["quick"])?;
            report::run(&RunOptions {
                seed: args.number("seed", Some(report::DEFAULT_SEED))?,
                seconds: args.number("seconds", Some(report::DEFAULT_SECONDS))?,
                quick: args.flags.iter().any(|f| f == "quick"),
                out: args.get("out").map(str::to_string),
            })
        }
        "trace" => {
            let args = Args::parse(&argv[1..], &["quick"])?;
            report::trace_all(
                args.number("seed", Some(report::DEFAULT_SEED))?,
                args.flags.iter().any(|f| f == "quick"),
                args.get("out").unwrap_or("benchmark/results/trace.json"),
            )
        }
        "compare" => {
            let [a, b] = &argv[1..] else {
                return Err(USAGE.to_string());
            };
            let verdicts = report::compare(a, b)?;
            Ok(!verdicts.contains(&Verdict::Worse))
        }
        _ => {
            let args = Args::parse(argv, &[])?;
            if !args.positional.is_empty() {
                return Err(USAGE.to_string());
            }
            let workload = args.workload(args.get("workload"))?;
            let seed = args.number("seed", None)?;
            let line = if args.trace()? {
                report::driver_traced(workload, seed)?
            } else {
                report::driver_untraced(workload, seed, args.number("seconds", None)?)?
            };
            println!("{line}");
            Ok(true)
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&argv) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn arguments_split_into_pairs_flags_and_positionals() {
        let args = Args::parse(
            &strings(&["tcp_chain", "--seed", "7", "--quick", "--trace", "1"]),
            &["quick"],
        )
        .expect("well formed");
        assert_eq!(args.positional, ["tcp_chain"]);
        assert_eq!(args.flags, ["quick"]);
        assert_eq!(args.number("seed", None), Ok(7));
        assert_eq!(args.number("seconds", Some(10)), Ok(10));
        assert!(args.number("seconds", None).is_err());
        assert_eq!(args.trace(), Ok(true));
        assert!(Args::parse(&strings(&["--seed"]), &[]).is_err());
    }

    #[test]
    fn bad_command_lines_are_refused_before_anything_runs() {
        assert!(dispatch(&[]).is_err());
        assert!(dispatch(&strings(&["--workload", "nope", "--seed", "1"])).is_err());
        assert!(dispatch(&strings(&["--workload", "tcp_chain"])).is_err());
        assert!(dispatch(&strings(&["compare", "only-one.json"])).is_err());
        assert!(dispatch(&strings(&["one", "tcp_chain", "--seed", "x"])).is_err());
    }
}
