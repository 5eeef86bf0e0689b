//! Run sets: repetitions in child processes, their medians, the
//! one-line result the acceptance driver reads, result files, and the
//! comparison of two result files.

use crate::json::{self, Value};
use crate::layers::{self, Layers};
use crate::stats::Summary;
use crate::trace::{self, Span};
use crate::workloads::{Rep, Size, Workload};
use std::collections::BTreeMap;
use std::process::Command;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Name, unit, better direction and regression bound (share of the
/// parent's median) of every end-to-end metric. Every workload reports
/// every metric; what one operation is depends on the workload
/// ([`Workload::op`]).
pub const END_TO_END: [(&str, &str, &str, f64); 4] = [
    ("setup_s", "s", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.15),
    ("cpu_us_per_op", "us", "lower", 0.15),
    ("peak_rss_mib", "MiB", "lower", 0.25),
];

/// Seed of `perf run` / `perf trace` when none is given; the counts in
/// `results/expected.json` are pinned for it.
pub const DEFAULT_SEED: u64 = 9;
/// Measuring time per workload of `perf run` when none is given.
pub const DEFAULT_SECONDS: u64 = 20;
/// A run set holds at least this many measured repetitions, however
/// short the measuring time.
const MIN_REPS: usize = 3;

/// The end-to-end metrics of one repetition, in [`END_TO_END`] order.
pub fn end_to_end_of(rep: &Rep) -> [f64; 4] {
    let ops = rep.ops.max(1) as f64;
    [
        rep.setup_s,
        ops / rep.wall_s,
        rep.cpu_s * 1e6 / ops,
        rep.peak_rss_kib as f64 / 1024.0,
    ]
}

/// The CPU every repetition is pinned to with `taskset -c`: the
/// highest-numbered one this process may run on, or `None` where
/// `taskset` is missing or refuses.
///
/// Pinned, all of a repetition's threads share one core. On the 2-core
/// box the sizes were chosen on, `tcp_chain` unpinned differs by 7 %
/// from repetition to repetition and pinned by 3 %, at the same rate
/// and little more than half the CPU time per delivery: the second
/// core buys the current data plane nothing but cross-core traffic.
pub fn pinned_cpu() -> Option<&'static str> {
    static CPU: OnceLock<Option<String>> = OnceLock::new();
    CPU.get_or_init(|| {
        let status = std::fs::read_to_string("/proc/self/status").ok()?;
        let allowed = status
            .lines()
            .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?;
        // A list such as `0-1` or `0,2-3`: the last number is the
        // highest CPU.
        let cpu = allowed
            .rsplit(|c: char| !c.is_ascii_digit())
            .find(|t| !t.is_empty())?;
        let works = Command::new("taskset")
            .args(["-c", cpu, "true"])
            .status()
            .is_ok_and(|s| s.success());
        works.then(|| cpu.to_string())
    })
    .as_deref()
}

/// Runs one repetition in a fresh child process (`perf one …`), pinned
/// to [`pinned_cpu`] where that is possible.
///
/// # Errors
/// When the child cannot be started, exits non-zero or prints no
/// result.
pub fn spawn_rep(workload: Workload, seed: u64, size: &Size, traced: bool) -> Result<Rep, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut command = match pinned_cpu() {
        Some(cpu) => {
            let mut c = Command::new("taskset");
            c.args(["-c", cpu]).arg(exe);
            c
        }
        None => Command::new(exe),
    };
    let output = command
        .args(["one", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--size", size.label()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a repetition: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "repetition of {} ended with {}",
            workload.name(),
            output.status
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .last()
        .ok_or_else(|| "repetition printed nothing".to_string())?;
    Rep::from_json(&json::parse(line)?).ok_or_else(|| "repetition result is incomplete".to_string())
}

/// The repetitions of one workload and what they agree on.
#[derive(Debug, Clone)]
pub struct RunSet {
    /// Measured repetitions (the warm-up is not kept).
    pub reps: Vec<Rep>,
}

impl RunSet {
    /// One discarded warm-up, then repetitions until `measure` has
    /// passed and at least [`MIN_REPS`] are in. With `single`, one
    /// repetition and no warm-up (`--quick`).
    ///
    /// # Errors
    /// When a repetition cannot be run.
    pub fn measure(
        workload: Workload,
        seed: u64,
        size: &Size,
        measure: Duration,
        single: bool,
    ) -> Result<RunSet, String> {
        let mut reps = Vec::new();
        if single {
            reps.push(spawn_rep(workload, seed, size, false)?);
        } else {
            spawn_rep(workload, seed, size, false)?;
            let start = Instant::now();
            while reps.len() < MIN_REPS || start.elapsed() < measure {
                reps.push(spawn_rep(workload, seed, size, false)?);
            }
        }
        Ok(RunSet { reps })
    }

    /// Output checks made, over all repetitions.
    pub fn attempted(&self) -> u64 {
        self.reps.iter().map(|r| r.attempted).sum()
    }

    /// Output checks failed, plus one for every repetition whose exact
    /// counts differ from the first's: same seed, same inputs, so the
    /// counts must repeat.
    pub fn failed(&self) -> u64 {
        let drifted = self
            .reps
            .iter()
            .skip(1)
            .filter(|r| Some(&r.counts) != self.reps.first().map(|f| &f.counts))
            .count() as u64;
        self.reps.iter().map(|r| r.failed).sum::<u64>() + drifted
    }

    /// Per end-to-end metric, its samples over the repetitions.
    pub fn samples(&self) -> Vec<(&'static str, &'static str, Vec<f64>)> {
        END_TO_END
            .iter()
            .enumerate()
            .map(|(i, (name, unit, _, _))| {
                let values = self.reps.iter().map(|r| end_to_end_of(r)[i]).collect();
                (*name, *unit, values)
            })
            .collect()
    }

    /// The exact counts of the first repetition.
    pub fn counts(&self) -> BTreeMap<String, u64> {
        self.reps
            .first()
            .map(|r| r.counts.clone())
            .unwrap_or_default()
    }
}

fn metrics_json(rows: impl Iterator<Item = (&'static str, &'static str, f64)>) -> Value {
    rows.map(|(name, unit, value)| {
        (
            name.to_string(),
            Value::obj().with("value", value).with("unit", unit),
        )
    })
    .collect()
}

/// The driver's result object: `correct`, `attempted`, `failed`,
/// `metrics`.
fn result_line(attempted: u64, failed: u64, metrics: Value) -> String {
    Value::obj()
        .with("correct", failed == 0)
        .with("attempted", attempted)
        .with("failed", failed)
        .with("metrics", metrics)
        .compact()
}

/// `--trace 0`: measures one workload for `seconds` and returns the
/// result line with the median of every end-to-end metric.
///
/// # Errors
/// When a repetition cannot be run.
pub fn driver_untraced(workload: Workload, seed: u64, seconds: u64) -> Result<String, String> {
    let set = RunSet::measure(
        workload,
        seed,
        &Size::FULL,
        Duration::from_secs(seconds),
        false,
    )?;
    let rows = set.samples().into_iter().map(|(name, unit, values)| {
        let median = Summary::of(&values).map_or(0.0, |s| s.median);
        (name, unit, median)
    });
    Ok(result_line(
        set.attempted(),
        set.failed(),
        metrics_json(rows),
    ))
}

/// One untraced and one traced repetition of a workload: the traced
/// one's rows and spans, with `telemetry.overhead_pct` — how much
/// longer the operation took with the registry on and spans recorded.
pub struct Traced {
    /// Per-layer rows.
    pub layers: Layers,
    /// Harness spans of the traced repetition.
    pub spans: Vec<Span>,
    /// Wall of the operation, untraced and traced, seconds.
    pub walls: (f64, f64),
    /// Output checks made and failed, over both repetitions.
    pub checks: (u64, u64),
}

/// Runs the traced pair for one workload.
///
/// # Errors
/// When a repetition cannot be run.
pub fn trace_workload(workload: Workload, seed: u64, size: &Size) -> Result<Traced, String> {
    let plain = spawn_rep(workload, seed, size, false)?;
    let traced = spawn_rep(workload, seed, size, true)?;
    let mut layers = traced.layers;
    layers.insert(
        "telemetry.overhead_pct".into(),
        (traced.wall_s - plain.wall_s) / plain.wall_s * 100.0,
    );
    let drifted = u64::from(plain.counts != traced.counts);
    Ok(Traced {
        layers,
        spans: traced.spans,
        walls: (plain.wall_s, traced.wall_s),
        checks: (
            plain.attempted + traced.attempted,
            plain.failed + traced.failed + drifted,
        ),
    })
}

/// `--trace 1`: the result line with every per-layer row.
///
/// # Errors
/// When a repetition cannot be run.
pub fn driver_traced(workload: Workload, seed: u64) -> Result<String, String> {
    let t = trace_workload(workload, seed, &Size::FULL)?;
    print_self_times(workload, &t);
    let rows = layers::complete(&t.layers).into_iter();
    Ok(result_line(t.checks.0, t.checks.1, metrics_json(rows)))
}

fn print_self_times(workload: Workload, t: &Traced) {
    eprintln!(
        "{}: operation {:.3} s untraced, {:.3} s traced",
        workload.name(),
        t.walls.0,
        t.walls.1
    );
    for (name, ns) in trace::self_times_ns(&t.spans) {
        eprintln!("  self {:>12.3} ms  {name}", ns as f64 / 1e6);
    }
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Where and on what the numbers were taken.
pub fn environment() -> Value {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let nproc = cpuinfo
        .lines()
        .filter(|l| l.starts_with("processor"))
        .count();
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".to_string());
    Value::obj()
        .with("nproc", nproc)
        .with(
            "available_parallelism",
            std::thread::available_parallelism().map_or(0, usize::from),
        )
        .with("kernel", kernel)
        .with("rustc", command_line("rustc", &["--version"]))
        .with("git_commit", command_line("git", &["rev-parse", "HEAD"]))
        .with(
            "pinning",
            pinned_cpu().map_or("none (no taskset)".to_string(), |cpu| {
                format!("each repetition under taskset -c {cpu}")
            }),
        )
        .with("network", "loopback, not a real link")
        .with("load_generator", "one process, one driver thread")
}

/// Reads the counts pinned for `(seed, size)` in `expected.json`, if
/// that file pins any.
fn pinned_counts(path: &str, seed: u64, size: &Size) -> Option<Value> {
    let doc = json::parse(&std::fs::read_to_string(path).ok()?).ok()?;
    if doc.get("seed")?.as_u64()? != seed {
        return None;
    }
    doc.get(size.label()).cloned()
}

/// The pinned counts of `workload` that `counts` does not repeat, as
/// messages.
fn count_drift(pinned: &Value, workload: Workload, counts: &BTreeMap<String, u64>) -> Vec<String> {
    let Some(expected) = pinned.get(workload.name()).and_then(Value::as_obj) else {
        return Vec::new();
    };
    expected
        .iter()
        .filter_map(|(name, want)| {
            let want = want.as_u64()?;
            let got = counts.get(name).copied();
            (got != Some(want))
                .then(|| format!("{}: {name} is {got:?}, pinned {want}", workload.name()))
        })
        .collect()
}

/// Options of `perf run`.
pub struct RunOptions {
    /// Workload seed.
    pub seed: u64,
    /// Measuring time per workload, seconds.
    pub seconds: u64,
    /// One repetition per workload at [`Size::QUICK`].
    pub quick: bool,
    /// Where to write the result file, if anywhere.
    pub out: Option<String>,
}

/// The counts pinned for [`DEFAULT_SEED`], relative to the repository
/// root (where `run.sh` starts the program).
const EXPECTED: &str = "benchmark/results/expected.json";

/// `perf run`: every workload, every end-to-end metric as median,
/// quartiles and n; outputs checked. Returns whether all checks passed.
///
/// # Errors
/// When a repetition cannot be run or the result file cannot be
/// written.
pub fn run(opts: &RunOptions) -> Result<bool, String> {
    let size = if opts.quick { Size::QUICK } else { Size::FULL };
    let pinned = pinned_counts(EXPECTED, opts.seed, &size);
    let env = environment();
    println!("environment: {}", env.compact());
    println!(
        "seed {}, size {}, {} per workload",
        opts.seed,
        size.label(),
        if opts.quick {
            "one repetition".to_string()
        } else {
            format!("one warm-up then {} s of repetitions", opts.seconds)
        }
    );
    let mut ok = true;
    let mut rows = Vec::new();
    for workload in Workload::ALL {
        let set = RunSet::measure(
            workload,
            opts.seed,
            &size,
            Duration::from_secs(opts.seconds),
            opts.quick,
        )?;
        println!(
            "\n{} — repetitions: {}, one operation = one {}",
            workload.name(),
            set.reps.len(),
            workload.op()
        );
        let mut metrics = Value::obj();
        for (name, unit, values) in set.samples() {
            let s = Summary::of(&values).ok_or("no repetitions")?;
            println!(
                "  {name:<26} {:>14.4} {unit:<14} q1 {:.4}  q3 {:.4}  n {}  spread {:.1} %",
                s.median,
                s.q1,
                s.q3,
                s.n,
                s.spread() * 100.0
            );
            metrics.push(
                name,
                Value::obj()
                    .with("unit", unit)
                    .with("median", s.median)
                    .with("q1", s.q1)
                    .with("q3", s.q3)
                    .with("n", s.n)
                    .with(
                        "values",
                        Value::Arr(values.iter().map(|v| (*v).into()).collect()),
                    ),
            );
        }
        let (attempted, failed) = (set.attempted(), set.failed());
        println!("  {:<26} {:>14} of {attempted} checks", "failed", failed);
        let counts = set.counts();
        for (name, count) in &counts {
            println!("  {:<26} {count:>14} (exact)", format!("count {name}"));
        }
        let drift = pinned
            .as_ref()
            .map_or_else(Vec::new, |p| count_drift(p, workload, &counts));
        for line in &drift {
            println!("  COUNT DRIFT {line}");
        }
        ok &= failed == 0 && drift.is_empty();
        rows.push(
            Value::obj()
                .with("name", workload.name())
                .with("operation", workload.op())
                .with("reps", set.reps.len())
                .with("attempted", attempted)
                .with("failed", failed)
                .with("counts", counts.into_iter().collect::<Value>())
                .with("metrics", metrics),
        );
    }
    if let Some(path) = &opts.out {
        let doc = Value::obj()
            .with("schema", "greenps-perf/1")
            .with("environment", env)
            .with("seed", opts.seed)
            .with("size", size.label())
            .with("seconds", opts.seconds)
            .with("workloads", Value::Arr(rows));
        std::fs::write(path, doc.pretty()).map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("\nwrote {path}");
    }
    println!(
        "\n{}",
        if ok {
            "all checks passed"
        } else {
            "CHECKS FAILED"
        }
    );
    Ok(ok)
}

/// `perf trace`: one traced run per workload; prints every per-layer
/// row and each span name's self time, and writes spans and rows to
/// `out`. Returns whether all checks passed.
///
/// # Errors
/// When a repetition cannot be run or `out` cannot be written.
pub fn trace_all(seed: u64, quick: bool, out: &str) -> Result<bool, String> {
    let size = if quick { Size::QUICK } else { Size::FULL };
    let mut ok = true;
    let mut runs = Vec::new();
    let mut spans = Vec::new();
    for workload in Workload::ALL {
        let t = trace_workload(workload, seed, &size)?;
        println!(
            "\n{} — operation {:.3} s untraced, {:.3} s traced",
            workload.name(),
            t.walls.0,
            t.walls.1
        );
        let rows = layers::complete(&t.layers);
        for (name, unit, value) in &rows {
            println!("  {name:<34} {value:>16.4} {unit}");
        }
        println!("  self time per span name:");
        let own = trace::self_times_ns(&t.spans);
        for (name, ns) in &own {
            println!("    {name:<32} {:>12.3} ms", *ns as f64 / 1e6);
        }
        ok &= t.checks.1 == 0;
        spans.extend(trace::spans_to_json(&t.spans, workload.name()));
        runs.push(
            Value::obj()
                .with("run", workload.name())
                .with("untraced_wall_s", t.walls.0)
                .with("traced_wall_s", t.walls.1)
                .with("attempted", t.checks.0)
                .with("failed", t.checks.1)
                .with("layers", metrics_json(rows.into_iter()))
                .with(
                    "self_ms",
                    own.into_iter()
                        .map(|(name, ns)| (name, ns as f64 / 1e6))
                        .collect::<Value>(),
                ),
        );
    }
    let doc = Value::obj()
        .with("schema", "greenps-perf-trace/1")
        .with("environment", environment())
        .with("seed", seed)
        .with("size", size.label())
        .with("runs", Value::Arr(runs))
        .with("spans", Value::Arr(spans));
    std::fs::write(out, doc.pretty()).map_err(|e| format!("cannot write {out}: {e}"))?;
    println!("\nwrote {out}");
    Ok(ok)
}

/// How a metric of result file `b` stands against `a`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Worse than the base by more than the bound.
    Worse,
    /// No worse than the base by more than the bound.
    Same,
    /// A side's own spread exceeds the bound, so the comparison decides
    /// nothing.
    Unresolved,
}

impl Verdict {
    /// The word printed.
    pub fn word(self) -> &'static str {
        match self {
            Verdict::Worse => "worse",
            Verdict::Same => "same",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges medians `a` (base) and `b` given both spreads.
pub fn verdict(a: &Summary, b: &Summary, better: &str, bound: f64) -> Verdict {
    if a.spread() > bound || b.spread() > bound {
        return Verdict::Unresolved;
    }
    let worse = if better == "higher" {
        b.median < a.median * (1.0 - bound)
    } else {
        b.median > a.median * (1.0 + bound)
    };
    if worse {
        Verdict::Worse
    } else {
        Verdict::Same
    }
}

fn summary_from_json(v: &Value) -> Option<Summary> {
    Some(Summary {
        median: v.get("median")?.as_f64()?,
        q1: v.get("q1")?.as_f64()?,
        q3: v.get("q3")?.as_f64()?,
        n: usize::try_from(v.get("n")?.as_u64()?).ok()?,
    })
}

/// `perf compare a b`: per workload and end-to-end metric both medians,
/// the ratio with its base, and the verdict. Returns the verdicts;
/// refuses result files taken with different `nproc`, seed or size.
///
/// # Errors
/// When a file cannot be read or the two were not recorded alike.
pub fn compare(path_a: &str, path_b: &str) -> Result<Vec<Verdict>, String> {
    let load = |path: &str| -> Result<Value, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (a, b) = (load(path_a)?, load(path_b)?);
    let recorded = |doc: &Value| {
        (
            doc.get("environment")
                .and_then(|e| e.get("nproc"))
                .and_then(Value::as_u64),
            doc.get("seed").and_then(Value::as_u64),
            doc.get("size").and_then(Value::as_str).map(str::to_string),
        )
    };
    if recorded(&a) != recorded(&b) || recorded(&a).0.is_none() {
        return Err(format!(
            "refusing to compare: (nproc, seed, size) is {:?} in {path_a} and {:?} in {path_b}",
            recorded(&a),
            recorded(&b)
        ));
    }
    let workloads = |doc: &Value| -> BTreeMap<String, Value> {
        doc.get("workloads")
            .and_then(Value::as_arr)
            .unwrap_or(&[])
            .iter()
            .filter_map(|w| Some((w.get("name")?.as_str()?.to_string(), w.clone())))
            .collect()
    };
    let (wa, wb) = (workloads(&a), workloads(&b));
    println!("base a = {path_a}\n     b = {path_b}");
    let mut verdicts = Vec::new();
    for workload in Workload::ALL {
        let (Some(ra), Some(rb)) = (wa.get(workload.name()), wb.get(workload.name())) else {
            return Err(format!("{} is missing from a result file", workload.name()));
        };
        println!("\n{}", workload.name());
        for (name, unit, better, bound) in END_TO_END {
            let summary = |row: &Value| {
                row.get("metrics")
                    .and_then(|m| m.get(name))
                    .and_then(summary_from_json)
                    .ok_or_else(|| format!("{}: no {name}", workload.name()))
            };
            let (sa, sb) = (summary(ra)?, summary(rb)?);
            let v = verdict(&sa, &sb, better, bound);
            println!(
                "  {name:<26} a {:>14.4}  b {:>14.4} {unit:<14} b/a {:.4} (base a)  {} (bound {:.0} %, {better} is better)",
                sa.median,
                sb.median,
                sb.median / sa.median,
                v.word(),
                bound * 100.0
            );
            verdicts.push(v);
        }
    }
    Ok(verdicts)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rep(wall_s: f64, deliveries: u64) -> Rep {
        let mut r = Rep {
            setup_s: 0.5,
            wall_s,
            cpu_s: 1.0,
            ops: 1_000,
            peak_rss_kib: 2_048,
            attempted: deliveries,
            failed: 0,
            ..Rep::default()
        };
        r.counts.insert("deliveries".into(), deliveries);
        r
    }

    #[test]
    fn end_to_end_metrics_of_a_repetition() {
        let m = end_to_end_of(&rep(2.0, 1_000));
        assert_eq!(m, [0.5, 500.0, 1_000.0, 2.0]);
    }

    #[test]
    fn drifting_counts_fail_the_run_set() {
        let steady = RunSet {
            reps: vec![rep(2.0, 1_000), rep(2.1, 1_000)],
        };
        assert_eq!((steady.attempted(), steady.failed()), (2_000, 0));
        let drifting = RunSet {
            reps: vec![rep(2.0, 1_000), rep(2.1, 999)],
        };
        assert_eq!(drifting.failed(), 1);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let rows = [("setup_s", "s", 0.8127), ("ops_per_s", "1/s", 1234.5)];
        let line = result_line(10, 0, metrics_json(rows.into_iter()));
        assert_eq!(
            line,
            r#"{"correct":true,"attempted":10,"failed":0,"metrics":{"setup_s":{"value":0.8127,"unit":"s"},"ops_per_s":{"value":1234.5,"unit":"1/s"}}}"#
        );
        assert!(result_line(10, 1, Value::obj()).starts_with(r#"{"correct":false"#));
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let s = |median: f64, iqr: f64| Summary {
            median,
            q1: median - iqr / 2.0,
            q3: median + iqr / 2.0,
            n: 5,
        };
        let base = s(100.0, 2.0);
        assert_eq!(
            verdict(&base, &s(111.0, 2.0), "lower", 0.10),
            Verdict::Worse
        );
        assert_eq!(verdict(&base, &s(109.0, 2.0), "lower", 0.10), Verdict::Same);
        assert_eq!(verdict(&base, &s(50.0, 2.0), "lower", 0.10), Verdict::Same);
        assert_eq!(
            verdict(&base, &s(89.0, 2.0), "higher", 0.10),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&base, &s(150.0, 2.0), "higher", 0.10),
            Verdict::Same
        );
        assert_eq!(
            verdict(&base, &s(150.0, 30.0), "higher", 0.10),
            Verdict::Unresolved
        );
    }

    #[test]
    fn pinned_counts_flag_a_differing_count() {
        let pinned =
            json::parse(r#"{"sim_fanout": {"deliveries": 1000, "published": 7}}"#).expect("valid");
        let set = RunSet {
            reps: vec![rep(2.0, 1_000)],
        };
        let drift = count_drift(&pinned, Workload::SimFanout, &set.counts());
        assert_eq!(drift.len(), 1, "{drift:?}");
        assert!(drift[0].contains("published"));
    }

    #[test]
    fn the_manifest_lists_what_the_program_reports() {
        let manifest = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(manifest).expect("BENCHMARK.json"))
            .expect("valid json");
        let names = |key: &str| -> Vec<String> {
            doc.get(key)
                .and_then(Value::as_arr)
                .expect("a list")
                .iter()
                .map(|m| {
                    m.get("name")
                        .and_then(Value::as_str)
                        .expect("name")
                        .to_string()
                })
                .collect()
        };
        let declared: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(names("workloads"), declared);
        assert_eq!(
            names("end_to_end"),
            END_TO_END.iter().map(|m| m.0).collect::<Vec<_>>()
        );
        assert_eq!(
            names("per_layer"),
            layers::PER_LAYER.iter().map(|m| m.0).collect::<Vec<_>>()
        );
        for (m, (_, unit, better, bound)) in doc
            .get("end_to_end")
            .and_then(Value::as_arr)
            .expect("a list")
            .iter()
            .zip(END_TO_END)
        {
            assert_eq!(m.get("unit").and_then(Value::as_str), Some(unit));
            assert_eq!(m.get("better").and_then(Value::as_str), Some(better));
            assert_eq!(m.get("bound").and_then(Value::as_f64), Some(bound));
        }
    }
}
