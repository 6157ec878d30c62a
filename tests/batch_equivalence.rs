//! Batch-mode vs tuple-mode execution equivalence.
//!
//! The batched pull interface (`PhysicalOperator::next_batch`) must be a
//! pure chunking of the tuple stream batch size 1 produces: same
//! membership, same order, same scores — for every plan mode and any batch
//! size.  These properties drive randomly generated two-table workloads
//! through all five `PlanMode`s, executing each chosen physical plan once
//! tuple-at-a-time (batch size 1) and once batched, and require identical
//! ordered results; on the rank-aware modes they also require the same
//! tuples scanned and the same predicate evaluations.

use proptest::prelude::*;

use ranksql::executor::{build_operator, drain, drain_batched, ExecutionContext};
use ranksql::expr::RankPredicate;
use ranksql::{
    BoolExpr, DataType, Database, Field, PlanMode, QueryBuilder, RankQuery, Schema, Value,
};

const ALL_MODES: [PlanMode; 5] = [
    PlanMode::Canonical,
    PlanMode::Traditional,
    PlanMode::RankAware,
    PlanMode::RankAwareExhaustive,
    PlanMode::RankAwareRuleBased,
];

/// The modes whose plans are built from the incremental rank-aware
/// operators (rank-scans, µ, MPro, HRJN/NRJN).
const RANK_AWARE_MODES: [PlanMode; 3] = [
    PlanMode::RankAware,
    PlanMode::RankAwareExhaustive,
    PlanMode::RankAwareRuleBased,
];

/// A randomly generated two-table join workload.
#[derive(Debug, Clone)]
struct Workload {
    /// Rows of table R: (join column, p1 score, boolean flag).
    r_rows: Vec<(i64, f64, bool)>,
    /// Rows of table S: (join column, p2 score).
    s_rows: Vec<(i64, f64)>,
    /// Requested result size.
    k: usize,
    /// Batch size for the batched execution.
    batch_size: usize,
}

fn workload() -> impl Strategy<Value = Workload> {
    (
        proptest::collection::vec((0..6i64, 0.0..1.0f64, any::<bool>()), 1..30),
        proptest::collection::vec((0..6i64, 0.0..1.0f64), 1..30),
        1..10usize,
        1..512usize,
    )
        .prop_map(|(r_rows, s_rows, k, batch_size)| Workload {
            r_rows,
            s_rows,
            k,
            batch_size,
        })
}

fn build_database(w: &Workload) -> (Database, RankQuery) {
    let db = Database::new();
    db.create_table(
        "R",
        Schema::new(vec![
            Field::new("jc", DataType::Int64),
            Field::new("p1", DataType::Float64),
            Field::new("flag", DataType::Bool),
        ]),
    )
    .unwrap();
    db.create_table(
        "S",
        Schema::new(vec![
            Field::new("jc", DataType::Int64),
            Field::new("p2", DataType::Float64),
        ]),
    )
    .unwrap();
    for &(jc, p1, flag) in &w.r_rows {
        db.insert(
            "R",
            vec![Value::from(jc), Value::from(p1), Value::from(flag)],
        )
        .unwrap();
    }
    for &(jc, p2) in &w.s_rows {
        db.insert("S", vec![Value::from(jc), Value::from(p2)])
            .unwrap();
    }
    let query = QueryBuilder::new()
        .tables(["R", "S"])
        .filter(BoolExpr::col_eq_col("R.jc", "S.jc"))
        .rank_predicate(RankPredicate::attribute("p1", "R.p1"))
        .rank_predicate(RankPredicate::attribute("p2", "S.p2"))
        .limit(w.k)
        .build()
        .unwrap();
    (db, query)
}

/// Per-predicate evaluations since `before`, read from the query's shared
/// ranking counters.
fn evaluations_since(query: &RankQuery, before: &[u64]) -> Vec<u64> {
    query
        .ranking
        .counters()
        .snapshot()
        .iter()
        .zip(before)
        .map(|(after, before)| after - before)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, .. ProptestConfig::default() })]

    /// For every plan mode, driving the physical plan through `next_batch`
    /// (any batch size ≥ 1) yields exactly the tuple-at-a-time result:
    /// same tuples, same order, same scores.
    #[test]
    fn batch_mode_equals_tuple_mode_for_all_plan_modes(w in workload()) {
        let (db, query) = build_database(&w);
        for mode in ALL_MODES {
            let physical = db.plan(&query, mode).unwrap().physical;

            let tuple_exec = ExecutionContext::new(query.ranking.clone());
            let mut tuple_root = build_operator(&physical, db.catalog(), &tuple_exec).unwrap();
            let before = query.ranking.counters().snapshot();
            let tuple_rows = drain(tuple_root.as_mut()).unwrap();
            let tuple_evals = evaluations_since(&query, &before);

            let batch_exec =
                ExecutionContext::new(query.ranking.clone()).with_batch_size(w.batch_size);
            let mut batch_root = build_operator(&physical, db.catalog(), &batch_exec).unwrap();
            let before = query.ranking.counters().snapshot();
            let batch_rows = drain_batched(batch_root.as_mut(), w.batch_size).unwrap();
            let batch_evals = evaluations_since(&query, &before);

            prop_assert_eq!(
                tuple_rows.len(),
                batch_rows.len(),
                "mode {:?}, batch size {}: row counts differ",
                mode,
                w.batch_size
            );
            for (i, (t, b)) in tuple_rows.iter().zip(batch_rows.iter()).enumerate() {
                prop_assert_eq!(
                    t.tuple.id(),
                    b.tuple.id(),
                    "mode {:?}, batch size {}: tuple {} differs",
                    mode,
                    w.batch_size,
                    i
                );
                prop_assert_eq!(
                    query.ranking.upper_bound(&t.state),
                    query.ranking.upper_bound(&b.state),
                    "mode {:?}, batch size {}: score {} differs",
                    mode,
                    w.batch_size,
                    i
                );
            }
            // Incrementality: the batch size changes neither how much
            // input a rank-aware plan draws nor how many probes it makes.
            if RANK_AWARE_MODES.contains(&mode) {
                prop_assert_eq!(
                    tuple_exec.budget().used(),
                    batch_exec.budget().used(),
                    "mode {:?}, batch size {}: tuples scanned differ",
                    mode,
                    w.batch_size
                );
                prop_assert_eq!(
                    &tuple_evals,
                    &batch_evals,
                    "mode {:?}, batch size {}: predicate evaluations differ",
                    mode,
                    w.batch_size
                );
            }
        }
    }
}

/// `explain_analyze` reports batch statistics for operators that ran through
/// the batched pull path (the default execution path).
#[test]
fn explain_analyze_reports_batches_and_mean_fill() {
    let w = Workload {
        r_rows: (0..40).map(|i| (i % 6, (i as f64) / 40.0, true)).collect(),
        s_rows: (0..40).map(|i| (i % 6, (i as f64) / 40.0)).collect(),
        k: 5,
        batch_size: 8,
    };
    let (db, query) = build_database(&w);
    let result = db.execute_with_mode(&query, PlanMode::Canonical).unwrap();
    let analyzed = result.explain_analyze(Some(&query.ranking));
    assert!(analyzed.contains("actual_rows="), "{analyzed}");
    assert!(analyzed.contains("batches="), "{analyzed}");
    assert!(analyzed.contains("mean_batch_fill="), "{analyzed}");
}
