//! The metric catalogue: the end-to-end metrics every measured run prints
//! and the per-layer metrics every traced run prints, in the order of
//! `BENCHMARK.json`.
//!
//! Layers are named after the crates they time.  A per-layer metric is
//! named `<workload>.<layer>.<metric>` and exists only for the workloads
//! that enter that layer: the planner is not timed on `serve_point`, the
//! wire not on `adhoc_join`, inserts only on `ingest_paged`.  Every traced
//! run replays all three workloads, so it measures every metric.

use std::collections::BTreeMap;

use ranksql::PlanCacheStats;

use crate::setup::BenchResult;
use crate::stats::MetricSet;
use crate::trace::Tracer;

/// End-to-end metrics: `(name, unit)`.
pub const E2E: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("queries_per_s", "1/s"),
    ("query_p50_ms", "ms"),
    ("query_p90_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Units of the per-layer metrics other than the per-template ones.
const UNITS: &[(&str, &str)] = &[
    ("core.parse_us", "us"),
    ("core.bind_hit_us", "us"),
    ("core.plan_cache_hit_ratio", "ratio"),
    ("core.plan_cache_hits", "count"),
    ("core.plan_cache_misses", "count"),
    ("core.cursor_open_us", "us"),
    ("core.cursor_close_us", "us"),
    ("optimizer.estimator_build_ms", "ms"),
    ("optimizer.search_ms", "ms"),
    ("optimizer.plans_considered", "count"),
    ("optimizer.signatures_kept", "count"),
    ("optimizer.columnarize_us", "us"),
    ("optimizer.parallelize_us", "us"),
    ("verify.validate_us", "us"),
    ("executor.take_us", "us"),
    ("executor.fetch_more_us", "us"),
    ("storage.insert_batch_us", "us"),
    ("storage.pages_faulted_per_query", "count"),
    ("storage.blocks_pruned_per_query", "count"),
    ("storage.pool_hit_ratio", "ratio"),
    ("storage.pool_evictions", "count"),
    ("server.bind_rtt_us", "us"),
    ("server.open_rtt_us", "us"),
    ("server.fetch_rtt_us", "us"),
    ("server.fetch_more_rtt_us", "us"),
    ("server.close_rtt_us", "us"),
    ("server.insert_rtt_us", "us"),
    ("server.round_trips_per_query", "count"),
    ("server.bytes_per_row", "bytes"),
    ("server.wire_overhead_us", "us"),
    ("e2e.cold_query_p50_ms", "ms"),
    ("e2e.insert_rows_per_s", "1/s"),
    ("e2e.insert_p99_ms", "ms"),
    ("e2e.disk_bytes_per_row", "bytes"),
    ("trace.ops", "count"),
    ("trace.spans", "count"),
    ("trace.unattributed_us", "us"),
    ("trace.unattributed_share", "ratio"),
    ("trace.overhead_us", "us"),
    ("trace.overhead_share", "ratio"),
];

/// Trace bookkeeping every workload reports.
const TRACE: [&str; 6] = [
    "trace.ops",
    "trace.spans",
    "trace.unattributed_us",
    "trace.unattributed_share",
    "trace.overhead_us",
    "trace.overhead_share",
];

/// Per workload: its query templates (each with rows-examined counters)
/// and the layer metrics it measures, trace bookkeeping aside.
const WORKLOAD_LAYERS: &[(&str, &[&str], &[&str])] = &[
    (
        "serve_point",
        &["point_a", "point_b"],
        &[
            "core.bind_hit_us",
            "core.plan_cache_hit_ratio",
            "core.plan_cache_hits",
            "core.plan_cache_misses",
            "core.cursor_open_us",
            "core.cursor_close_us",
            "executor.take_us",
            "executor.fetch_more_us",
            "server.bind_rtt_us",
            "server.open_rtt_us",
            "server.fetch_rtt_us",
            "server.fetch_more_rtt_us",
            "server.close_rtt_us",
            "server.round_trips_per_query",
            "server.bytes_per_row",
            "server.wire_overhead_us",
        ],
    ),
    (
        "adhoc_join",
        &["join_plain", "join_bool", "q3"],
        &[
            "core.parse_us",
            "core.bind_hit_us",
            "core.plan_cache_hit_ratio",
            "core.plan_cache_hits",
            "core.plan_cache_misses",
            "core.cursor_open_us",
            "core.cursor_close_us",
            "optimizer.estimator_build_ms",
            "optimizer.search_ms",
            "optimizer.plans_considered",
            "optimizer.signatures_kept",
            "optimizer.columnarize_us",
            "optimizer.parallelize_us",
            "verify.validate_us",
            "executor.take_us",
            "storage.blocks_pruned_per_query",
            "e2e.cold_query_p50_ms",
        ],
    ),
    (
        "ingest_paged",
        &["read_rank", "read_scan"],
        &[
            "core.bind_hit_us",
            "core.plan_cache_hit_ratio",
            "core.plan_cache_hits",
            "core.plan_cache_misses",
            "core.cursor_open_us",
            "core.cursor_close_us",
            "executor.take_us",
            "storage.insert_batch_us",
            "storage.pages_faulted_per_query",
            "storage.blocks_pruned_per_query",
            "storage.pool_hit_ratio",
            "storage.pool_evictions",
            "server.bind_rtt_us",
            "server.open_rtt_us",
            "server.fetch_rtt_us",
            "server.close_rtt_us",
            "server.insert_rtt_us",
            "server.round_trips_per_query",
            "e2e.insert_rows_per_s",
            "e2e.insert_p99_ms",
            "e2e.disk_bytes_per_row",
        ],
    ),
];

fn unit_of(metric: &str) -> &'static str {
    if metric.starts_with("executor.tuples_scanned_per_row.")
        || metric.starts_with("executor.predicate_evals_per_row.")
    {
        return "ratio";
    }
    UNITS
        .iter()
        .find(|(n, _)| *n == metric)
        .map(|(_, u)| *u)
        .unwrap_or_else(|| panic!("{metric} has no unit in the catalogue"))
}

/// The layer metrics of one workload, unprefixed, in catalogue order.
fn workload_metrics(workload: &str) -> Vec<String> {
    let (_, templates, layers) = WORKLOAD_LAYERS
        .iter()
        .find(|(w, _, _)| *w == workload)
        .unwrap_or_else(|| panic!("unknown workload {workload}"));
    let mut out: Vec<String> = layers.iter().map(|m| (*m).to_owned()).collect();
    for t in *templates {
        out.push(format!("executor.tuples_scanned_per_row.{t}"));
    }
    for t in *templates {
        out.push(format!("executor.predicate_evals_per_row.{t}"));
    }
    out.extend(TRACE.iter().map(|m| (*m).to_owned()));
    out
}

/// Every per-layer metric, `(name, unit)`, in catalogue order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    WORKLOAD_LAYERS
        .iter()
        .flat_map(|(w, _, _)| {
            workload_metrics(w)
                .into_iter()
                .map(move |m| (format!("{w}.{m}"), unit_of(&m)))
        })
        .collect()
}

/// Spans that time one public call, the metric their median duration
/// reports, and the factor from microseconds to the metric's unit.
const SPAN_METRICS: &[(&str, &str, f64)] = &[
    ("core.parse", "core.parse_us", 1.0),
    ("core.bind", "core.bind_hit_us", 1.0),
    ("core.cursor_open", "core.cursor_open_us", 1.0),
    ("core.cursor_close", "core.cursor_close_us", 1.0),
    (
        "optimizer.estimator_build",
        "optimizer.estimator_build_ms",
        1e-3,
    ),
    ("optimizer.columnarize", "optimizer.columnarize_us", 1.0),
    ("optimizer.parallelize", "optimizer.parallelize_us", 1.0),
    ("verify.validate", "verify.validate_us", 1.0),
    ("executor.take", "executor.take_us", 1.0),
    ("executor.fetch_more", "executor.fetch_more_us", 1.0),
    ("storage.insert_batch", "storage.insert_batch_us", 1.0),
    ("server.bind_rtt", "server.bind_rtt_us", 1.0),
    ("server.open_rtt", "server.open_rtt_us", 1.0),
    ("server.fetch_rtt", "server.fetch_rtt_us", 1.0),
    ("server.fetch_more_rtt", "server.fetch_more_rtt_us", 1.0),
    ("server.close_rtt", "server.close_rtt_us", 1.0),
    ("server.insert_rtt", "server.insert_rtt_us", 1.0),
];

/// Per-layer values a traced run collected, keyed by metric name.
#[derive(Debug, Default)]
pub struct LayerValues(BTreeMap<String, f64>);

impl LayerValues {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.0.insert(name.into(), value);
    }

    /// Sets `name` when `value` is known (a median of at least one span).
    pub fn set_opt(&mut self, name: &str, value: Option<f64>) {
        if let Some(v) = value {
            self.set(name, v);
        }
    }

    /// The median duration of every span that times one call, under its
    /// metric name.
    pub fn set_span_medians(&mut self, tracer: &Tracer) {
        let durations = tracer.durations_us();
        for (span, metric, scale) in SPAN_METRICS {
            if let Some(s) = durations.get(span) {
                self.set_opt(metric, s.plain_median().map(|v| v * scale));
            }
        }
    }

    /// `core.plan_cache_*` over the interval between two snapshots of
    /// `Database::plan_cache_stats`.
    pub fn set_plan_cache(&mut self, before: PlanCacheStats, after: PlanCacheStats) {
        let (hits, misses) = (after.hits - before.hits, after.misses - before.misses);
        self.set("core.plan_cache_hits", hits as f64);
        self.set("core.plan_cache_misses", misses as f64);
        self.set(
            "core.plan_cache_hit_ratio",
            hits as f64 / (hits + misses).max(1) as f64,
        );
    }

    /// This workload's metrics, prefixed with its name, into `out`; fails
    /// on a metric it did not measure or one outside its catalogue.
    pub fn report(self, workload: &str, out: &mut MetricSet) -> BenchResult<()> {
        let names = workload_metrics(workload);
        if let Some(stray) = self.0.keys().find(|k| !names.contains(k)) {
            return Err(format!(
                "{workload} set {stray}, which is not in its catalogue"
            ));
        }
        for name in names {
            let value = self
                .0
                .get(&name)
                .ok_or_else(|| format!("{workload}: {name} was not measured"))?;
            out.put(format!("{workload}.{name}"), *value, unit_of(&name));
        }
        Ok(())
    }
}

/// Coverage and overhead of the traced replay: per operation, the
/// untraced wall time, and the traced root span with its child spans.
#[derive(Debug, Default)]
pub struct Coverage {
    untraced_us: f64,
    traced_us: f64,
    children_us: f64,
    ops: u64,
}

impl Coverage {
    /// Adds one operation: its untraced wall time and its traced root span.
    pub fn add(&mut self, untraced: std::time::Duration, tracer: &Tracer, root: usize) {
        self.untraced_us += untraced.as_secs_f64() * 1e6;
        self.traced_us += tracer.spans()[root].duration_ns() as f64 / 1e3;
        self.children_us += tracer.child_cover_ns(root) as f64 / 1e3;
        self.ops += 1;
    }

    /// `trace.*`: the untraced time the child spans do not account for,
    /// and what tracing added, per operation and as a share.
    pub fn report(&self, tracer: &Tracer, values: &mut LayerValues) {
        if self.ops == 0 {
            return;
        }
        let n = self.ops as f64;
        let unattributed = self.untraced_us - self.children_us;
        let overhead = self.traced_us - self.untraced_us;
        values.set("trace.ops", n);
        values.set("trace.spans", tracer.spans().len() as f64);
        values.set("trace.unattributed_us", unattributed / n);
        values.set("trace.unattributed_share", unattributed / self.untraced_us);
        values.set("trace.overhead_us", overhead / n);
        values.set("trace.overhead_share", overhead / self.untraced_us);
    }
}

/// Rows-examined ratios of one template.
#[derive(Debug, Default, Clone, Copy)]
pub struct TemplateCounters {
    pub rows: u64,
    pub tuples_scanned: u64,
    pub predicate_evals: u64,
}

impl TemplateCounters {
    pub fn add(&mut self, c: &crate::probe::Counters) {
        self.rows += c.rows as u64;
        self.tuples_scanned += c.tuples_scanned;
        self.predicate_evals += c.predicate_evals;
    }

    pub fn report(&self, template: &str, values: &mut LayerValues) {
        if self.rows == 0 {
            return;
        }
        let rows = self.rows as f64;
        values.set(
            format!("executor.tuples_scanned_per_row.{template}"),
            self.tuples_scanned as f64 / rows,
        );
        values.set(
            format!("executor.predicate_evals_per_row.{template}"),
            self.predicate_evals as f64 / rows,
        );
    }
}

/// Writes the spans where `--trace-out` asks, and summarises them as text:
/// per span name, count, median duration and median self time.
pub fn span_lines(tracer: &Tracer, out: Option<&std::path::Path>) -> Vec<String> {
    let mut lines = Vec::new();
    if let Some(path) = out {
        match tracer.write_jsonl(path) {
            Ok(()) => lines.push(format!("spans written to {}", path.display())),
            Err(e) => lines.push(format!("spans not written to {}: {e}", path.display())),
        }
    }
    let selfs = tracer.self_times_us();
    for (name, d) in tracer.durations_us() {
        lines.push(format!(
            "span {name}: n={} median={:.1}us self_median={:.1}us",
            d.len(),
            d.plain_median().unwrap_or(0.0),
            selfs[name].plain_median().unwrap_or(0.0)
        ));
    }
    lines
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::valid_metric_name;

    #[test]
    fn catalogue_names_are_valid_and_unique() {
        let all: Vec<String> = E2E
            .iter()
            .map(|(n, _)| (*n).to_owned())
            .chain(per_layer().into_iter().map(|(n, _)| n))
            .collect();
        for n in &all {
            assert!(valid_metric_name(n), "{n}");
        }
        let mut dedup = all.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), all.len());
        assert!(per_layer().len() <= 128);
    }

    /// `BENCHMARK.json` must list exactly the metrics the program prints.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let names_in = |section: &str| -> Vec<String> {
            let start = text.find(&format!("\"{section}\"")).expect(section);
            let body = &text[start..];
            let body = &body[..body.find(']').expect("section end")];
            body.split("\"name\": \"")
                .skip(1)
                .map(|s| s[..s.find('"').unwrap()].to_owned())
                .collect()
        };
        let e2e: Vec<String> = E2E.iter().map(|(n, _)| (*n).to_owned()).collect();
        assert_eq!(names_in("end_to_end"), e2e);
        let layers: Vec<String> = per_layer().into_iter().map(|(n, _)| n).collect();
        assert_eq!(names_in("per_layer"), layers);
        let gated = names_in("workloads");
        assert!(!gated.is_empty());
        for w in &gated {
            assert!(
                crate::WORKLOADS.contains(&w.as_str()),
                "{w} is not a workload"
            );
        }
    }
}
