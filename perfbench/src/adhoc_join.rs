//! `adhoc_join`: in-process analyst sessions of rank joins, cold and warm
//! queries mixed.
//!
//! Tables A, B and C at s = 5 000 on the columnar backend, one client
//! thread calling the `Session` API, `nproc` engine threads.  Each session
//! sends one literal-SQL join whose new literal misses the plan cache (a
//! *cold* query, planner-bound), then re-binds the `?` form of the same
//! template [`WARM_PER_SESSION`] times with fresh parameters and k (*warm*
//! queries, executor-bound).  Templates: the two-table rank join with and
//! without the Boolean filters `A.b AND B.b`, and the paper's three-table
//! Q in about one session in five.  This is the only workload that runs
//! the optimizer, `parallelize` and the exchange; it uses no wire.

use std::collections::{BTreeSet, HashMap};
use std::time::{Duration, Instant};

use ranksql::executor::oracle::oracle_top_k_over_rows;
use ranksql::optimizer::{columnarize, parallelize, CostModel};
use ranksql::verify::{validate_logical, validate_physical, ValidateOptions};
use ranksql::{
    parse_topk_query, Database, Params, PreparedQuery, RankOptimizer, RankQuery, StorageBackend,
    Tuple,
};

use crate::layers::{Coverage, LayerValues, TemplateCounters};
use crate::probe::{self, timed, Probe};
use crate::setup::{self, err, BenchResult, Deck, Rng, MODE};
use crate::stats::{peak_rss_mb, Samples, Tally};
use crate::trace::Tracer;
use crate::{Args, Report};

pub const TABLE_ROWS: usize = 5_000;
/// Warm re-binds per session.
pub const WARM_PER_SESSION: usize = 8;
const KS: [usize; 3] = [1, 10, 100];
/// Filter thresholds on `A.jc2` (500 distinct values at s = 5 000): the
/// literal keeps 50 % to 100 % of A.
const THRESHOLD_LO: i64 = 250;
const THRESHOLD_HI: i64 = 500;
/// Warm queries the timed interval needs for a reportable p90.
const MIN_WARM: usize = 100;
/// Cold queries the traced run's untraced pass needs for a median.
const MIN_COLD: usize = 25;

const RANK4: &str = "f1(A.p1) + f2(A.p2) + f3(B.p1) + f4(B.p2)";

struct Template {
    name: &'static str,
    tables: &'static str,
    joins: &'static str,
    order_by: &'static str,
    /// The table every equi-join touches, and for each other table its
    /// join column and the pivot's (for the oracle's decomposition).
    pivot: &'static str,
    links: &'static [(&'static str, &'static str, &'static str)],
}

const TEMPLATES: [Template; 3] = [
    Template {
        name: "join_plain",
        tables: "A, B",
        joins: "A.jc1 = B.jc1",
        order_by: RANK4,
        pivot: "B",
        links: &[("A", "A.jc1", "B.jc1")],
    },
    Template {
        name: "join_bool",
        tables: "A, B",
        joins: "A.jc1 = B.jc1 AND A.b AND B.b",
        order_by: RANK4,
        pivot: "B",
        links: &[("A", "A.jc1", "B.jc1")],
    },
    Template {
        name: "q3",
        tables: "A, B, C",
        joins: "A.jc1 = B.jc1 AND B.jc2 = C.jc2 AND A.b AND B.b",
        order_by: "f1(A.p1) + f2(A.p2) + f3(B.p1) + f4(B.p2) + f5(C.p1)",
        pivot: "B",
        links: &[("A", "A.jc1", "B.jc1"), ("C", "C.jc2", "B.jc2")],
    },
];

impl Template {
    fn sql(&self, threshold: &str, k: &str) -> String {
        format!(
            "SELECT * FROM {} WHERE {} AND A.jc2 < {threshold} ORDER BY {} LIMIT {k}",
            self.tables, self.joins, self.order_by
        )
    }
}

/// One query of a session.
#[derive(Debug, Clone, Copy)]
struct Op {
    template: usize,
    threshold: i64,
    k: usize,
    cold: bool,
}

impl Op {
    /// The warm binding of this query's `?` form.
    fn params(&self) -> Params {
        Params::new().set(0, self.threshold).k(self.k)
    }
}

/// The seeded session sequence.  Templates and k come from decks (see
/// [`setup::Deck`]), so every run has the same template and k shares;
/// cold literals are never repeated per template, so every cold query
/// misses the plan cache.
struct Sessions {
    rng: Rng,
    templates: Deck<usize>,
    ks: Deck<usize>,
    used: Vec<BTreeSet<i64>>,
}

/// Template shares: two sessions of each two-table join per Q session.
const MIX: [usize; 5] = [0, 0, 1, 1, 2];

impl Sessions {
    fn new(seed: u64) -> Self {
        Sessions {
            rng: Rng::new(seed, 0x4144_484f),
            templates: Deck::new(&MIX),
            ks: Deck::new(&KS),
            used: vec![BTreeSet::new(); TEMPLATES.len()],
        }
    }

    fn next_session(&mut self) -> BenchResult<Vec<Op>> {
        let template = self.templates.draw(&mut self.rng);
        let free = (THRESHOLD_HI - THRESHOLD_LO + 1) as u64 - self.used[template].len() as u64;
        if free == 0 {
            return Err("cold literals exhausted; lower --seconds".into());
        }
        // The n-th unused threshold, n uniform.
        let n = self.rng.below(free) as usize;
        let used = &self.used[template];
        let threshold = (THRESHOLD_LO..=THRESHOLD_HI)
            .filter(|t| !used.contains(t))
            .nth(n)
            .expect("n < free");
        self.used[template].insert(threshold);
        let mut ops = vec![Op {
            template,
            threshold,
            k: self.ks.draw(&mut self.rng),
            cold: true,
        }];
        for _ in 0..WARM_PER_SESSION {
            ops.push(Op {
                template,
                threshold: self.rng.range(THRESHOLD_LO, THRESHOLD_HI),
                k: self.ks.draw(&mut self.rng),
                cold: false,
            });
        }
        Ok(ops)
    }
}

fn threads() -> usize {
    setup::nproc()
}

fn build_database() -> BenchResult<Database> {
    let w = setup::synthetic(TABLE_ROWS)?;
    let db = setup::memory_database(threads(), StorageBackend::Columnar);
    setup::copy_tables(&w.catalog, &db, &["A", "B", "C"])?;
    db.prebuild_columnar().map_err(err("columnar build"))?;
    Ok(db)
}

fn session(db: &Database) -> ranksql::Session<'_> {
    setup::session(db, MODE, threads(), StorageBackend::Columnar)
}

/// Prepares the `?` forms and binds each once with fixed values, so the
/// cached warm plans are the same for every seed.
fn warm_up<'db>(db: &'db Database) -> BenchResult<Vec<PreparedQuery<'db>>> {
    let s = session(db);
    let prepared: Vec<PreparedQuery<'db>> = TEMPLATES
        .iter()
        .map(|t| s.prepare(&t.sql("?", "?")).map_err(err("prepare")))
        .collect::<BenchResult<_>>()?;
    for p in &prepared {
        let params = Params::new()
            .set(0, (THRESHOLD_LO + THRESHOLD_HI) / 2)
            .k(10);
        probe::inproc_query(p, params, 10, false, None)?;
    }
    Ok(prepared)
}

/// Runs one query untraced; returns its wall time, scores and whether the
/// plan cache was hit.
fn run_op(
    db: &Database,
    prepared: &[PreparedQuery<'_>],
    op: &Op,
) -> BenchResult<(Duration, Vec<f64>, bool)> {
    if op.cold {
        let start = Instant::now();
        let sql = TEMPLATES[op.template].sql(&op.threshold.to_string(), &op.k.to_string());
        let p = session(db).prepare(&sql).map_err(err("prepare"))?;
        let bound = p.bind(Params::none()).map_err(err("bind"))?;
        let mut cursor = bound.cursor().map_err(err("open"))?;
        let rows = cursor.take(op.k).map_err(err("take"))?;
        let scores = rows.iter().map(|r| cursor.score(r)).collect();
        drop(cursor);
        Ok((start.elapsed(), scores, bound.cache_hit()))
    } else {
        let out = probe::inproc_query(&prepared[op.template], op.params(), op.k, false, None)?;
        Ok((out.wall, out.scores, out.cache_hit))
    }
}

/// Reference answers from `ranksql_executor`'s naive oracle.
///
/// The oracle enumerates the full Cartesian product, which is out of
/// reach at 5 000 rows per table.  So it runs once per row of the pivot
/// table (the one every equi-join touches), over that row and the rows of
/// the other tables that join with it, after dropping rows that fail a
/// single-table predicate; those products partition the join result.  It
/// runs once per template with a threshold that keeps every row and no
/// limit; a query's answer is then the first k rows, in the oracle's
/// order, whose `A.jc2` is below the query's threshold.
struct Oracle<'db> {
    db: &'db Database,
    /// Per template: `(score, A.jc2)` of every join row, best first.
    ranked: HashMap<usize, Vec<(f64, i64)>>,
}

impl<'db> Oracle<'db> {
    fn new(db: &'db Database) -> Self {
        Oracle {
            db,
            ranked: HashMap::new(),
        }
    }

    fn top_scores(&mut self, template: usize, threshold: i64, k: usize) -> BenchResult<Vec<f64>> {
        if !self.ranked.contains_key(&template) {
            let ranked = self.rank_all(template)?;
            self.ranked.insert(template, ranked);
        }
        Ok(self.ranked[&template]
            .iter()
            .filter(|(_, jc2)| *jc2 < threshold)
            .take(k)
            .map(|(score, _)| *score)
            .collect())
    }

    fn rank_all(&self, template: usize) -> BenchResult<Vec<(f64, i64)>> {
        let t = &TEMPLATES[template];
        let every = (THRESHOLD_HI + 1).to_string();
        let query = parse_topk_query(&t.sql(&every, "1000000000")).map_err(err("oracle parse"))?;
        let catalog = self.db.catalog();
        // Rows of each table that pass its single-table predicates.
        let mut rows: HashMap<&str, (ranksql::Schema, Vec<Tuple>)> = HashMap::new();
        for name in &query.tables {
            let table = catalog.table(name).map_err(err("oracle table"))?;
            let schema = table.schema().clone();
            let local: Vec<_> = query
                .bool_predicates
                .iter()
                .filter(|p| p.relations() == [name.clone()])
                .collect();
            let mut kept = Vec::new();
            for tuple in table.scan() {
                let mut pass = true;
                for p in &local {
                    pass &= p.eval(&tuple, &schema).map_err(err("oracle filter"))?;
                }
                if pass {
                    kept.push(tuple);
                }
            }
            rows.insert(name.as_str(), (schema, kept));
        }
        let product_schema = query
            .tables
            .iter()
            .map(|n| rows[n.as_str()].0.clone())
            .reduce(|a, b| a.join(&b))
            .expect("at least one table");
        let position = |table: &str| {
            query
                .tables
                .iter()
                .position(|n| n == table)
                .ok_or_else(|| format!("{table} is not in the query"))
        };
        // Join-column value -> rows, per linked table.
        let (pivot_schema, pivot_rows) = &rows[t.pivot];
        let mut links = Vec::new();
        for (table, column, pivot_column) in t.links {
            let (schema, kept) = &rows[table];
            let col = schema.index_of_str(column).map_err(err("oracle column"))?;
            let mut by_key: HashMap<i64, Vec<Tuple>> = HashMap::new();
            for tuple in kept {
                let key = tuple.value(col).as_i64().ok_or("non-integer join key")?;
                by_key.entry(key).or_default().push(tuple.clone());
            }
            let pcol = pivot_schema
                .index_of_str(pivot_column)
                .map_err(err("oracle pivot column"))?;
            links.push((position(table)?, by_key, pcol));
        }
        let pivot_position = position(t.pivot)?;
        let mut all = Vec::new();
        let none = Vec::new();
        for p in pivot_rows {
            let mut inputs = vec![Vec::new(); query.tables.len()];
            inputs[pivot_position] = vec![p.clone()];
            for (pos, by_key, pcol) in &links {
                let key = p.value(*pcol).as_i64().ok_or("non-integer join key")?;
                inputs[*pos] = by_key.get(&key).unwrap_or(&none).clone();
            }
            if inputs.iter().all(|rows| !rows.is_empty()) {
                all.extend(
                    oracle_top_k_over_rows(&query, &product_schema, &inputs)
                        .map_err(err("oracle"))?,
                );
            }
        }
        let scoring = query.ranking.scoring().clone();
        let max_value = query.ranking.max_predicate_value();
        all.sort_by(|a, b| a.cmp_desc(b, &scoring, max_value));
        let jc2 = product_schema
            .index_of_str("A.jc2")
            .map_err(err("oracle A.jc2"))?;
        all.iter()
            .map(|r| {
                let key = r.tuple.value(jc2).as_i64().ok_or("non-integer A.jc2")?;
                Ok((query.ranking.upper_bound(&r.state).value(), key))
            })
            .collect()
    }

    /// Whether `scores` are the oracle's top `k` scores.
    fn check(&mut self, op: &Op, scores: &[f64]) -> BenchResult<bool> {
        let want = self.top_scores(op.template, op.threshold, op.k)?;
        Ok(scores_match(scores, &want))
    }
}

/// Equal length and every score within 1e-9 (sums may associate
/// differently across plans).
fn scores_match(got: &[f64], want: &[f64]) -> bool {
    got.len() == want.len() && got.iter().zip(want).all(|(g, w)| (g - w).abs() <= 1e-9)
}

pub fn measure(args: &Args) -> BenchResult<Report> {
    let mut report = Report::default();
    let mut setup_s = Samples::new();
    let mut db = None;
    for _ in 0..setup::SETUP_REPS {
        let start = Instant::now();
        let built = build_database()?;
        warm_up(&built)?;
        setup_s.push(start.elapsed().as_secs_f64());
        db = Some(built);
    }
    let db = db.expect("at least one set-up");
    let prepared = warm_up(&db)?;

    let mut sessions = Sessions::new(args.seed);
    let (mut warm, mut cold) = (Samples::new(), Samples::new());
    let mut done: Vec<(Op, Vec<f64>)> = Vec::new();
    let mut tally = Tally::default();
    let start = Instant::now();
    let target = Duration::from_secs(args.seconds);
    while (start.elapsed() < target || warm.len() < MIN_WARM) && start.elapsed() < setup::MAX_RUN {
        for op in sessions.next_session()? {
            match run_op(&db, &prepared, &op) {
                Ok((wall, scores, hit)) => {
                    // A cold query that hit the cache measured the wrong path.
                    tally.record(hit != op.cold);
                    if op.cold {
                        cold.push(setup::ms(wall));
                    } else {
                        warm.push(setup::ms(wall));
                    }
                    done.push((op, scores));
                }
                Err(e) => {
                    eprintln!("adhoc_join: {op:?} failed: {e}");
                    tally.record(false);
                }
            }
        }
    }
    let elapsed = start.elapsed().as_secs_f64();

    // After the timed interval: every result against the oracle.
    let mut oracle = Oracle::new(&db);
    for (op, scores) in &done {
        if !oracle.check(op, scores)? {
            eprintln!("adhoc_join: {op:?} returned scores that differ from the oracle");
            tally.fail_checked();
        }
    }
    report.tally = tally;
    report.gated("setup_s", setup_s.plain_median(), "s", setup_s.len())?;
    // Pooled over the whole interval rather than the median of rounds:
    // queries come in sessions of one template, so a round of them is not
    // a like-for-like slice of the mix, while the whole run is.
    let n = done.len();
    report.gated("queries_per_s", Some(n as f64 / elapsed), "1/s", n)?;
    let n = warm.len();
    report.gated("query_p50_ms", warm.median(), "ms", n)?;
    report.gated("query_p90_ms", warm.percentile(90.0), "ms", n)?;
    report.line("query_p99_ms", warm.percentile(99.0), "ms", n);
    report.line("cold_query_p50_ms", cold.median(), "ms", cold.len());
    report.line("cold_query_p90_ms", cold.percentile(90.0), "ms", cold.len());
    let rss = peak_rss_mb().ok_or("peak RSS unavailable")?;
    report.gated("peak_rss_mb", Some(rss), "MiB", 1)?;
    Ok(report)
}

/// Per-op span data the traced cold path needs beyond the tracer.
#[derive(Default)]
struct ColdLayers {
    search_ms: Samples,
    plans_considered: Samples,
    signatures_kept: Samples,
}

/// The traced form of a cold query: each layer called in order instead of
/// one planning `bind`.  The standalone estimator build and validation are
/// recorded as spans of their own outside the operation, since the
/// untraced query does the first inside `optimize` and the second not at
/// all.
fn traced_cold(
    db: &Database,
    op: &Op,
    tracer: &mut Tracer,
    request: u64,
    layers: &mut ColdLayers,
) -> BenchResult<(usize, Vec<f64>)> {
    let config = setup::optimizer_config();
    let sql = TEMPLATES[op.template].sql(&op.threshold.to_string(), &op.k.to_string());
    let root = tracer.begin("adhoc_join.cold_query", None, request);
    let mut probe = Some(Probe {
        tracer: &mut *tracer,
        parent: root,
        request,
    });
    let query: RankQuery =
        timed(&mut probe, "core.parse", || parse_topk_query(&sql)).map_err(err("parse"))?;
    let opt_start = Instant::now();
    let optimized = timed(&mut probe, "optimizer.optimize", || {
        RankOptimizer::new(config.clone()).optimize(&query, db.catalog())
    })
    .map_err(err("optimize"))?;
    let optimize_time = opt_start.elapsed();
    let physical = timed(&mut probe, "optimizer.columnarize", || {
        columnarize(optimized.physical.clone(), &CostModel::default())
    });
    let physical = timed(&mut probe, "optimizer.parallelize", || {
        parallelize(physical, threads())
    });
    let mut cursor = timed(&mut probe, "core.cursor_open", || {
        db.cursor_for_physical(&query, physical.clone())
    })
    .map_err(err("open"))?;
    let rows = timed(&mut probe, "executor.take", || cursor.take(op.k)).map_err(err("take"))?;
    let scores = rows.iter().map(|r| cursor.score(r)).collect();
    timed(&mut probe, "core.cursor_close", || drop(cursor));
    tracer.end(root);

    let est_start = Instant::now();
    ranksql::optimizer::SamplingEstimator::build(
        &query,
        db.catalog(),
        config.sample_ratio,
        config.seed,
    )
    .map_err(err("estimator"))?;
    tracer.add("optimizer.estimator_build", None, request, est_start);
    let estimate = est_start.elapsed();
    layers
        .search_ms
        .push(setup::ms(optimize_time.saturating_sub(estimate)));
    layers
        .plans_considered
        .push(optimized.stats.plans_considered as f64);
    layers
        .signatures_kept
        .push(optimized.stats.signatures_kept as f64);

    let v_start = Instant::now();
    let opts = ValidateOptions::default();
    let mut diags = validate_logical(&optimized.plan, Some(&query.ranking), &opts);
    diags.extend(validate_physical(&physical, Some(&query.ranking), &opts));
    tracer.add("verify.validate", None, request, v_start);
    if ranksql::verify::has_errors(&diags) {
        return Err(format!(
            "validator rejected the plan of {sql}:\n{}",
            ranksql::verify::report(&diags)
        ));
    }
    Ok((root, scores))
}

pub fn traced(args: &Args) -> BenchResult<Report> {
    let mut report = Report::default();
    let db = build_database()?;
    let prepared = warm_up(&db)?;
    let mut values = LayerValues::default();

    // Untraced pass: the operation sequence as the measured run runs it,
    // for half the run and at least enough sessions for a cold median;
    // the traced pass replays it.
    let mut sessions = Sessions::new(args.seed);
    let mut ops = Vec::new();
    let (mut walls, mut cold) = (Vec::new(), Samples::new());
    let stats_before = db.plan_cache_stats();
    let start = Instant::now();
    while start.elapsed() < Duration::from_secs(args.seconds) / 2 || cold.len() < MIN_COLD {
        for op in sessions.next_session()? {
            let (wall, _, _) = run_op(&db, &prepared, &op)?;
            if op.cold {
                cold.push(setup::ms(wall));
            }
            walls.push(wall);
            ops.push(op);
        }
    }
    values.set_plan_cache(stats_before, db.plan_cache_stats());
    values.set_opt("e2e.cold_query_p50_ms", cold.median());

    // Traced pass over the same sequence.
    let mut tracer = Tracer::new();
    let mut coverage = Coverage::default();
    let mut layers = ColdLayers::default();
    let mut counters = [TemplateCounters::default(); 3];
    let (mut pruned, mut warm_ops) = (0u64, 0u64);
    let mut oracle = Oracle::new(&db);
    for (i, (op, wall)) in ops.iter().zip(&walls).enumerate() {
        let request = i as u64 + 1;
        let (root, scores) = if op.cold {
            traced_cold(&db, op, &mut tracer, request, &mut layers)?
        } else {
            let root = tracer.begin("adhoc_join.warm_query", None, request);
            let prepared = &prepared[op.template];
            let out = probe::inproc_query(
                prepared,
                op.params(),
                op.k,
                false,
                Some(Probe {
                    tracer: &mut tracer,
                    parent: root,
                    request,
                }),
            )?;
            tracer.end(root);
            let c = probe::inproc_counters(prepared, op.params(), op.k, false)?;
            counters[op.template].add(&c);
            pruned += c.blocks_pruned;
            warm_ops += 1;
            (root, out.scores)
        };
        coverage.add(*wall, &tracer, root);
        report.tally.record(oracle.check(op, &scores)?);
    }
    values.set_span_medians(&tracer);
    values.set_opt("optimizer.search_ms", layers.search_ms.plain_median());
    values.set_opt("optimizer.plans_considered", layers.plans_considered.mean());
    values.set_opt("optimizer.signatures_kept", layers.signatures_kept.mean());
    for (i, t) in TEMPLATES.iter().enumerate() {
        counters[i].report(t.name, &mut values);
    }
    values.set(
        "storage.blocks_pruned_per_query",
        pruned as f64 / warm_ops.max(1) as f64,
    );
    coverage.report(&tracer, &mut values);
    report.lines.extend(crate::layers::span_lines(
        &tracer,
        args.trace_out.as_deref(),
    ));
    values.report("adhoc_join", &mut report.metrics)?;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_wrong_row_fails_the_oracle_check() {
        let db = build_database().unwrap();
        let prepared = warm_up(&db).unwrap();
        let mut oracle = Oracle::new(&db);
        let op = Op {
            template: 1,
            threshold: 400,
            k: 10,
            cold: false,
        };
        let (_, mut scores, _) = run_op(&db, &prepared, &op).unwrap();
        assert!(
            oracle.check(&op, &scores).unwrap(),
            "engine agrees with the oracle"
        );
        scores[3] -= 0.01; // one wrong row
        let mut tally = Tally::default();
        tally.record(true);
        if !oracle.check(&op, &scores).unwrap() {
            tally.fail_checked();
        }
        assert_eq!(tally.failed, 1);
        assert!(!tally.correct());
    }

    #[test]
    fn cold_literals_never_repeat() {
        let mut s = Sessions::new(3);
        let mut seen = BTreeSet::new();
        for _ in 0..200 {
            let ops = s.next_session().unwrap();
            assert!(ops[0].cold && ops[1..].iter().all(|o| !o.cold));
            assert!(seen.insert((ops[0].template, ops[0].threshold)));
        }
    }
}
