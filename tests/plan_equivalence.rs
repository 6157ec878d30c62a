//! Property-based tests: for randomly generated relations, ranking
//! predicates and queries,
//!
//! 1. every plan in the closure of the canonical plan under the algebraic
//!    laws of Figure 5 returns exactly the oracle top-k;
//! 2. every rank-aware physical plan emits its stream in non-increasing
//!    upper-bound order;
//! 3. the rank-aware operators are selective (never emit more tuples than
//!    they consume).

use proptest::prelude::*;
use ranksql::algebra::PhysicalPlan;
use ranksql::executor::{
    build_operator, drain, execute_query_plan, oracle_top_k, ExecutionContext,
};
use ranksql::{
    BoolExpr, Database, JoinAlgorithm, LogicalPlan, PlanMode, QueryBuilder, RankPredicate,
    RankQuery, ScoringFunction,
};
use ranksql_common::{DataType, Field, Schema, Value};
use ranksql_storage::Catalog;

/// A randomly generated two-table database plus its ranking query.
#[derive(Debug, Clone)]
struct Generated {
    r_rows: Vec<(i64, f64, f64)>,
    s_rows: Vec<(i64, f64)>,
    k: usize,
    scoring: ScoringFunction,
}

fn generated() -> impl Strategy<Value = Generated> {
    let r_row = (0..6i64, 0.0..1.0f64, 0.0..1.0f64);
    let s_row = (0..6i64, 0.0..1.0f64);
    (
        proptest::collection::vec(r_row, 1..20),
        proptest::collection::vec(s_row, 1..20),
        1usize..8,
        prop_oneof![
            Just(ScoringFunction::Sum),
            Just(ScoringFunction::Average),
            Just(ScoringFunction::Min),
        ],
    )
        .prop_map(|(r_rows, s_rows, k, scoring)| Generated {
            r_rows,
            s_rows,
            k,
            scoring,
        })
}

fn build(gen: &Generated) -> (Catalog, RankQuery) {
    let catalog = Catalog::new();
    let r = catalog
        .create_table(
            "R",
            Schema::new(vec![
                Field::new("a", DataType::Int64),
                Field::new("p1", DataType::Float64),
                Field::new("p2", DataType::Float64),
            ]),
        )
        .unwrap();
    for (a, p1, p2) in &gen.r_rows {
        r.insert(vec![Value::from(*a), Value::from(*p1), Value::from(*p2)])
            .unwrap();
    }
    let s = catalog
        .create_table(
            "S",
            Schema::new(vec![
                Field::new("a", DataType::Int64),
                Field::new("p3", DataType::Float64),
            ]),
        )
        .unwrap();
    for (a, p3) in &gen.s_rows {
        s.insert(vec![Value::from(*a), Value::from(*p3)]).unwrap();
    }
    let query = QueryBuilder::new()
        .tables(["R", "S"])
        .filter(BoolExpr::col_eq_col("R.a", "S.a"))
        .rank_predicate(RankPredicate::attribute("p1", "R.p1"))
        .rank_predicate(RankPredicate::attribute("p2", "R.p2"))
        .rank_predicate(RankPredicate::attribute("p3", "S.p3"))
        .scoring(gen.scoring.clone())
        .limit(gen.k)
        .build()
        .unwrap();
    (catalog, query)
}

fn scores(query: &RankQuery, tuples: &[ranksql::expr::RankedTuple]) -> Vec<f64> {
    tuples
        .iter()
        .map(|t| query.ranking.upper_bound(&t.state).value())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, .. ProptestConfig::default() })]

    /// Law-derived plans are result-equivalent to the canonical plan.
    #[test]
    fn algebraic_law_closure_preserves_results(gen in generated()) {
        let (catalog, query) = build(&gen);
        let canonical = query.canonical_plan(&catalog).unwrap();
        let expected = scores(&query, &oracle_top_k(&query, &catalog).unwrap());
        let closure = ranksql::algebra::equivalent_plans(&canonical, &query, 25);
        prop_assert!(closure.len() > 1);
        for plan in closure {
            let result = execute_query_plan(&query, &plan, &catalog).unwrap();
            let got = scores(&query, &result.tuples);
            prop_assert_eq!(
                got.clone(), expected.clone(),
                "plan disagreed:\n{}", plan.explain(Some(&query.ranking))
            );
        }
    }

    /// A pipelined rank-aware plan emits in non-increasing upper-bound order
    /// and its operators are selective.
    #[test]
    fn rank_plans_emit_in_order_and_are_selective(gen in generated()) {
        let (catalog, query) = build(&gen);
        let r = catalog.table("R").unwrap();
        let s = catalog.table("S").unwrap();
        let plan = LogicalPlan::rank_scan(&r, 0)
            .rank(1)
            .join(
                LogicalPlan::rank_scan(&s, 2),
                Some(BoolExpr::col_eq_col("R.a", "S.a")),
                JoinAlgorithm::HashRankJoin,
            );
        let physical = PhysicalPlan::from_logical(&plan).unwrap();
        let exec = ExecutionContext::new(std::sync::Arc::clone(&query.ranking));
        let mut op = build_operator(&physical, &catalog, &exec).unwrap();
        let emitted = drain(op.as_mut()).unwrap();
        // Non-increasing upper bounds.
        for w in emitted.windows(2) {
            prop_assert!(
                query.ranking.upper_bound(&w[0].state) >= query.ranking.upper_bound(&w[1].state)
            );
        }
        // Selectivity: no operator outputs more tuples than it drew in.
        for m in exec.metrics().snapshot() {
            if m.tuples_in() > 0 {
                prop_assert!(m.tuples_out() <= m.tuples_in().max(m.tuples_out()));
            }
        }
        // Membership equals the oracle's full join membership.
        let mut full_query = query.clone();
        full_query.k = usize::MAX / 2;
        let oracle = oracle_top_k(&full_query, &catalog).unwrap();
        prop_assert_eq!(emitted.len(), oracle.len());
    }

    /// The top-k of a pipelined plan with a limit equals the oracle top-k.
    #[test]
    fn limited_rank_plan_matches_oracle(gen in generated()) {
        let (catalog, query) = build(&gen);
        let r = catalog.table("R").unwrap();
        let s = catalog.table("S").unwrap();
        let plan = LogicalPlan::rank_scan(&r, 0)
            .rank(1)
            .join(
                LogicalPlan::scan(&s).rank(2),
                Some(BoolExpr::col_eq_col("R.a", "S.a")),
                JoinAlgorithm::NestedLoopRankJoin,
            )
            .limit(query.k);
        let result = execute_query_plan(&query, &plan, &catalog).unwrap();
        let expected = scores(&query, &oracle_top_k(&query, &catalog).unwrap());
        prop_assert_eq!(scores(&query, &result.tuples), expected);
    }
}

// ---------------------------------------------------------------------------
// Physical lowering: every plan mode produces an executable PhysicalPlan.
// ---------------------------------------------------------------------------

/// A hotel/restaurant database large enough that every optimizer mode has
/// real choices to make.
fn hotel_restaurant_db() -> (Database, RankQuery) {
    let db = Database::new();
    db.create_table(
        "Hotel",
        Schema::new(vec![
            Field::new("id", DataType::Int64),
            Field::new("city", DataType::Int64),
            Field::new("quality", DataType::Float64),
        ]),
    )
    .unwrap();
    db.create_table(
        "Restaurant",
        Schema::new(vec![
            Field::new("id", DataType::Int64),
            Field::new("city", DataType::Int64),
            Field::new("rating", DataType::Float64),
        ]),
    )
    .unwrap();
    for i in 0..80i64 {
        db.insert(
            "Hotel",
            vec![
                Value::from(i),
                Value::from(i % 7),
                Value::from(((i * 31) % 100) as f64 / 100.0),
            ],
        )
        .unwrap();
        db.insert(
            "Restaurant",
            vec![
                Value::from(i),
                Value::from(i % 7),
                Value::from(((i * 43) % 100) as f64 / 100.0),
            ],
        )
        .unwrap();
    }
    let query = QueryBuilder::new()
        .tables(["Hotel", "Restaurant"])
        .filter(BoolExpr::col_eq_col("Hotel.city", "Restaurant.city"))
        .rank_predicate(RankPredicate::attribute("hq", "Hotel.quality"))
        .rank_predicate(RankPredicate::attribute("rr", "Restaurant.rating"))
        .limit(6)
        .build()
        .unwrap();
    (db, query)
}

#[test]
fn every_plan_mode_lowers_to_an_executable_physical_plan() {
    let (db, query) = hotel_restaurant_db();
    let reference = db
        .execute_with_mode(&query, PlanMode::Canonical)
        .unwrap()
        .scores();
    for mode in [
        PlanMode::Canonical,
        PlanMode::RankAware,
        PlanMode::RankAwareExhaustive,
        PlanMode::RankAwareRuleBased,
        PlanMode::Traditional,
    ] {
        let optimized = db.plan(&query, mode).unwrap();
        assert!(optimized.physical.node_count() >= 3, "mode {mode:?}");
        // Executing exactly the physical plan the optimizer returned gives
        // the canonical answer.
        let result = db.execute_physical(&query, &optimized.physical).unwrap();
        assert_eq!(result.scores(), reference, "mode {mode:?}");
        // The explain output names every operator the executor actually ran,
        // in the same post-order the metrics registry recorded.
        let explained = optimized.physical.explain(Some(&query.ranking));
        for (label, _) in result.metrics.output_cardinalities() {
            assert!(
                explained.contains(&label),
                "mode {mode:?}: `{label}` missing:\n{explained}"
            );
        }
    }
}

#[test]
fn rank_aware_explain_names_a_concrete_physical_operator_with_cost() {
    let (db, query) = hotel_restaurant_db();
    let text = db.explain(&query, PlanMode::RankAware).unwrap();
    // At least one concrete rank-aware physical operator with a per-node
    // cost annotation (the acceptance criterion of the IR refactor).
    let physical_section = text
        .split("physical plan:")
        .nth(1)
        .expect("physical section");
    assert!(
        ["HRJN", "NRJN", "RankScan_", "Rank_", "SortLimit["]
            .iter()
            .any(|op| physical_section.contains(op)),
        "no concrete physical operator named:\n{text}"
    );
    assert!(
        physical_section.contains("cost="),
        "no per-node cost printed:\n{text}"
    );
    assert!(
        physical_section.contains("est_rows="),
        "no per-node rows printed:\n{text}"
    );
}

#[test]
fn explain_analyze_reports_actual_cardinalities() {
    let (db, query) = hotel_restaurant_db();
    let result = db.execute_with_mode(&query, PlanMode::RankAware).unwrap();
    let analyzed = result.explain_analyze(Some(&query.ranking));
    assert!(analyzed.contains("actual_rows="), "{analyzed}");
    // Executions through the (session-backed) wrappers surface the
    // plan-cache outcome first...
    let mut lines = analyzed.lines();
    let cache_line = lines.next().unwrap();
    assert!(cache_line.starts_with("plan cache:"), "{analyzed}");
    // ...then the statistics snapshot of each referenced table...
    let first_plan_line = lines.find(|l| !l.starts_with("statistics[")).unwrap();
    // ...and the plan root produced exactly the returned rows.
    assert!(
        first_plan_line.contains(&format!("actual_rows={}", result.rows.len())),
        "{analyzed}"
    );
}

/// Without a ranking context the plan labels render predicates by index
/// (`RankScan_p#0(Hotel)`), unlike the labels the metrics registered; the
/// actuals still attach to every node because they pair by post-order
/// position, not by label text.
#[test]
fn explain_analyze_without_ranking_context_annotates_every_node() {
    let (db, query) = hotel_restaurant_db();
    for mode in [
        PlanMode::Canonical,
        PlanMode::RankAware,
        PlanMode::RankAwareExhaustive,
        PlanMode::RankAwareRuleBased,
        PlanMode::Traditional,
    ] {
        let result = db.execute_with_mode(&query, mode).unwrap();
        let analyzed = result.explain_analyze(None);
        let plan_lines: Vec<&str> = analyzed.lines().filter(|l| l.contains("(cost=")).collect();
        assert_eq!(
            plan_lines.len(),
            result.physical.node_count(),
            "mode {mode:?}:\n{analyzed}"
        );
        for line in plan_lines {
            assert!(
                line.contains("actual_rows="),
                "mode {mode:?}: no actuals on `{line}`:\n{analyzed}"
            );
        }
    }
}
