//! RankSQL end-to-end benchmark.
//!
//! ```text
//! ranksql-perfbench --workload <serve_point|adhoc_join|ingest_paged>
//!                   --seed <n> --seconds <s> --trace <0|1>
//!                   [--work-dir <dir>] [--trace-out <file>]
//! ```
//!
//! With `--trace 0` it sets the workload up (several times; `setup_s` is
//! the median), measures it for `--seconds`, checks every result outside
//! the timed interval and prints the end-to-end metrics.  With `--trace 1`
//! it replays every workload's operation sequence twice, untraced and then
//! with a span around every call into a layer, and prints the per-layer
//! metrics of all three workloads.  The last stdout line is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; the exit code is
//! non-zero when any check failed.

mod adhoc_join;
mod ingest_paged;
mod layers;
mod probe;
mod serve_point;
mod setup;
mod stats;
mod trace;

use std::path::PathBuf;

use stats::{result_line, MetricSet, Tally};

/// The workloads.  `BENCHMARK.json` gates the first two.  `ingest_paged`
/// is not gated: its read latencies swung by more than the gate's bound
/// between runs of the same code.  It still runs with `--workload
/// ingest_paged`, and every traced run replays it, so the storage write
/// path and the buffer pool keep their per-layer metrics.
pub const WORKLOADS: [&str; 3] = ["serve_point", "adhoc_join", "ingest_paged"];

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Scratch directory for on-disk databases (created and removed).
    pub work_dir: PathBuf,
    /// Where the traced run writes its spans.
    pub trace_out: Option<PathBuf>,
}

/// What one run reports: operations, the JSON metrics, and text lines for
/// figures that are printed but not part of the JSON result.
#[derive(Debug, Default)]
pub struct Report {
    pub tally: Tally,
    pub metrics: MetricSet,
    pub lines: Vec<String>,
}

impl Report {
    /// A text line for a figure, `n/a` when the sample is too small to
    /// report it.
    pub fn line(&mut self, name: &str, value: Option<f64>, unit: &str, samples: usize) {
        self.lines.push(match value {
            Some(v) => format!("{name} = {v:.4} {unit} (n={samples})"),
            None => format!("{name} = n/a {unit} (n={samples}: too few samples beyond it)"),
        });
    }

    /// A JSON metric that is also printed as a text line; an unreportable
    /// value is an error, since every run must report every metric.
    pub fn gated(
        &mut self,
        name: &str,
        value: Option<f64>,
        unit: &'static str,
        samples: usize,
    ) -> setup::BenchResult<()> {
        self.line(name, value, unit, samples);
        let v = value.ok_or_else(|| format!("{name}: not reportable from {samples} samples"))?;
        self.metrics.put(name, v, unit);
        Ok(())
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
        work_dir: PathBuf::from(".bench_build/perfbench-work"),
        trace_out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--work-dir" => args.work_dir = PathBuf::from(value()?),
            "--trace-out" => args.trace_out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {WORKLOADS:?}, not {:?}",
            args.workload
        ));
    }
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(args)
}

fn run(args: &Args) -> setup::BenchResult<Report> {
    // RANKSQL_VERIFY=1 turns the plan validator on inside every bind and
    // cursor open; the benchmark measures release serving, where it is off.
    if ranksql::verify::enabled() {
        return Err("RANKSQL_VERIFY enables the plan validator; unset it to benchmark".into());
    }
    setup::check_default_optimizer_config()?;
    if !args.trace {
        return match args.workload.as_str() {
            "serve_point" => serve_point::measure(args),
            "adhoc_join" => adhoc_join::measure(args),
            "ingest_paged" => ingest_paged::measure(args),
            _ => unreachable!("workload validated by parse_args"),
        };
    }
    // A traced run replays every workload, a third of `--seconds` each,
    // so that it measures every per-layer metric.
    let share = Args {
        seconds: (args.seconds / WORKLOADS.len() as u64).max(1),
        ..args.clone()
    };
    let mut report = Report::default();
    for workload in WORKLOADS {
        let trace_out = args
            .trace_out
            .as_ref()
            .map(|p| p.with_file_name(format!("{workload}-{}", file_name(p))));
        let args = Args {
            workload: workload.to_owned(),
            trace_out,
            ..share.clone()
        };
        let part = match workload {
            "serve_point" => serve_point::traced(&args),
            "adhoc_join" => adhoc_join::traced(&args),
            _ => ingest_paged::traced(&args),
        }?;
        report.tally.merge(part.tally);
        report.lines.push(format!("{workload}:"));
        report.lines.extend(part.lines);
        for m in part.metrics.iter() {
            report.metrics.put(m.name.clone(), m.value, m.unit);
        }
    }
    Ok(report)
}

fn file_name(path: &std::path::Path) -> String {
    path.file_name().map_or_else(
        || "spans.jsonl".to_owned(),
        |n| n.to_string_lossy().into_owned(),
    )
}

/// Puts the JSON metrics in catalogue order, failing if one is missing:
/// every run reports every metric of its kind.
fn in_catalogue_order(mut report: Report, trace: bool) -> setup::BenchResult<Report> {
    let names: Vec<(String, &str)> = if trace {
        layers::per_layer()
    } else {
        layers::E2E
            .iter()
            .map(|(n, u)| ((*n).to_owned(), *u))
            .collect()
    };
    let mut ordered = MetricSet::new();
    for (name, unit) in names {
        let value = report
            .metrics
            .get(&name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        ordered.put(name, value, unit);
    }
    report.metrics = ordered;
    Ok(report)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let report = match run(&args).and_then(|r| in_catalogue_order(r, args.trace)) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            std::process::exit(1);
        }
    };
    println!(
        "workload {} seed {} trace {}: attempted {} failed {}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        report.tally.attempted,
        report.tally.failed
    );
    for line in &report.lines {
        println!("  {line}");
    }
    println!("{}", result_line(report.tally, &report.metrics));
    if !report.tally.correct() {
        std::process::exit(1);
    }
}
