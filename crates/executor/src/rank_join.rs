//! Rank-aware join operators: HRJN (hash rank-join) and NRJN (nested-loop
//! rank-join), after Ilyas et al. (VLDB'03), adapted to the rank-relational
//! execution model.
//!
//! Both operators consume two *ranked* inputs (streams in non-increasing
//! upper-bound order), produce join results incrementally in non-increasing
//! upper-bound order of the combined score state, and stop drawing input as
//! soon as the requested results are guaranteed — which is what makes
//! ranking plans' cost proportional to `k`.

use std::sync::Arc;

use ranksql_common::{Result, Schema, Score, Value};
use ranksql_expr::{BoolExpr, BoundBoolExpr, RankedTuple, RankingContext, ScoreState};

use crate::fxhash::FxHashMap;

use crate::context::ExecutionContext;
use crate::join::extract_join_keys;
use crate::metrics::OperatorMetrics;
use crate::operator::{pull_one, Batch, BoxedOperator, PhysicalOperator, RankingQueue};

/// Which side to pull from next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Side {
    Left,
    Right,
}

/// State kept per input side.
struct SideState {
    input: BoxedOperator,
    /// All tuples drawn so far.
    seen: Vec<RankedTuple>,
    /// Hash table from join-key values to indices into `seen` (HRJN only).
    hash: FxHashMap<Vec<Value>, Vec<usize>>,
    /// Key column indices within this side's schema.
    key_cols: Vec<usize>,
    /// Score state of the first (best) tuple drawn.
    top_state: Option<ScoreState>,
    /// Score state of the most recently drawn tuple.
    last_state: Option<ScoreState>,
    exhausted: bool,
    ranked: bool,
    /// Reused one-tuple batch for pulling `input`.
    scratch: Batch,
}

impl SideState {
    fn new(input: BoxedOperator, key_cols: Vec<usize>) -> Self {
        let ranked = input.is_ranked();
        SideState {
            input,
            seen: Vec::new(),
            hash: FxHashMap::default(),
            key_cols,
            top_state: None,
            last_state: None,
            exhausted: false,
            ranked,
            scratch: Batch::new(),
        }
    }
}

/// A rank-aware join.  With `use_hash = true` this is HRJN: matches are found
/// by probing a symmetric pair of hash tables on the equi-join keys.  With
/// `use_hash = false` it is NRJN: every new tuple is checked against all
/// tuples seen on the other side (supporting arbitrary join conditions,
/// including rank-join predicates with no equi-key).
pub struct RankJoin {
    left: SideState,
    right: SideState,
    /// Full join condition bound against the joined schema (used by NRJN and
    /// as the residual check for HRJN).
    condition: Option<BoundBoolExpr>,
    /// Whether to probe by hash (HRJN) or scan (NRJN).
    use_hash: bool,
    schema: Schema,
    ctx: Arc<RankingContext>,
    metrics: Arc<OperatorMetrics>,
    output: RankingQueue,
    turn: Side,
}

impl RankJoin {
    /// Creates an HRJN operator.  The condition must contain at least one
    /// equi-join conjunct; remaining conjuncts are applied as a residual.
    pub fn hrjn(
        left: BoxedOperator,
        right: BoxedOperator,
        condition: Option<&BoolExpr>,
        exec: &ExecutionContext,
        label: impl Into<String>,
    ) -> Result<Self> {
        let keys = extract_join_keys(condition, left.schema(), right.schema());
        if keys.keys.is_empty() {
            return Err(ranksql_common::RankSqlError::Execution(
                "HRJN requires at least one equi-join condition (use NRJN otherwise)".into(),
            ));
        }
        Self::build(
            left,
            right,
            condition,
            keys.keys,
            true,
            exec.ranking_arc(),
            exec.register(label),
        )
    }

    /// Creates an NRJN operator (arbitrary or absent condition).
    pub fn nrjn(
        left: BoxedOperator,
        right: BoxedOperator,
        condition: Option<&BoolExpr>,
        exec: &ExecutionContext,
        label: impl Into<String>,
    ) -> Result<Self> {
        Self::build(
            left,
            right,
            condition,
            Vec::new(),
            false,
            exec.ranking_arc(),
            exec.register(label),
        )
    }

    fn build(
        left: BoxedOperator,
        right: BoxedOperator,
        condition: Option<&BoolExpr>,
        keys: Vec<(usize, usize)>,
        use_hash: bool,
        ctx: Arc<RankingContext>,
        metrics: Arc<OperatorMetrics>,
    ) -> Result<Self> {
        let schema = left.schema().join(right.schema());
        let bound_condition = condition.map(|c| c.bind(&schema)).transpose()?;
        let left_keys: Vec<usize> = keys.iter().map(|&(l, _)| l).collect();
        let right_keys: Vec<usize> = keys.iter().map(|&(_, r)| r).collect();
        Ok(RankJoin {
            left: SideState::new(left, left_keys),
            right: SideState::new(right, right_keys),
            condition: bound_condition,
            use_hash,
            schema,
            output: RankingQueue::new(Arc::clone(&ctx)),
            ctx,
            metrics,
            turn: Side::Left,
        })
    }

    /// The threshold `T`: an upper bound on the combined score of any join
    /// result not yet in the output queue.  Following HRJN, it is the better
    /// of "a future left tuple joined with the best right tuple seen" and
    /// "a future right tuple joined with the best left tuple seen".
    fn threshold(&self) -> Score {
        if self.left.exhausted && self.right.exhausted {
            return Score::new(f64::NEG_INFINITY);
        }
        // Combine a hypothetical future tuple of one side (bounded by that
        // side's last-drawn state) with the best seen tuple of the other
        // side.  Merging the actual states keeps this exact for additive
        // scoring functions and conservative for the rest (unevaluated
        // predicates are filled with the maximal value either way).
        let combine = |future_side: &SideState, other_top: &Option<ScoreState>| -> Score {
            match (&future_side.last_state, other_top) {
                (_, None) => {
                    // Nothing seen on the other side yet: no join result can
                    // be formed with it, but future results are still
                    // possible once it produces tuples; stay conservative.
                    self.ctx.initial_upper_bound()
                }
                (None, Some(_)) if future_side.exhausted => Score::new(f64::NEG_INFINITY),
                (None, Some(top)) => {
                    // Future side not yet sampled: bound by the other top
                    // alone (its own predicates unevaluated = filled max).
                    self.ctx.upper_bound(top)
                }
                (Some(last), Some(top)) => {
                    if future_side.exhausted {
                        Score::new(f64::NEG_INFINITY)
                    } else {
                        self.ctx.upper_bound(&last.merge(top))
                    }
                }
            }
        };
        let t1 = if self.left.exhausted {
            Score::new(f64::NEG_INFINITY)
        } else if !self.left.ranked {
            self.ctx.initial_upper_bound()
        } else {
            combine(&self.left, &self.right.top_state)
        };
        let t2 = if self.right.exhausted {
            Score::new(f64::NEG_INFINITY)
        } else if !self.right.ranked {
            self.ctx.initial_upper_bound()
        } else {
            combine(&self.right, &self.left.top_state)
        };
        t1.max(t2)
    }

    /// Draws one tuple from `side`, joining it against everything seen on the
    /// other side and buffering the results.
    fn advance(&mut self, side: Side) -> Result<()> {
        let (this, other) = match side {
            Side::Left => (&mut self.left, &mut self.right),
            Side::Right => (&mut self.right, &mut self.left),
        };
        match pull_one(this.input.as_mut(), &mut this.scratch)? {
            None => {
                this.exhausted = true;
            }
            Some(t) => {
                self.metrics.add_in(1);
                if this.top_state.is_none() {
                    this.top_state = Some(t.state.clone());
                }
                this.last_state = Some(t.state.clone());
                // Find partners on the other side.
                let partner_indices: Vec<usize> = if self.use_hash {
                    let key: Vec<Value> = this
                        .key_cols
                        .iter()
                        .map(|&i| t.tuple.value(i).clone())
                        .collect();
                    other.hash.get(&key).cloned().unwrap_or_default()
                } else {
                    (0..other.seen.len()).collect()
                };
                for pi in partner_indices {
                    let partner = &other.seen[pi];
                    let joined = match side {
                        Side::Left => t.join(partner),
                        Side::Right => partner.join(&t),
                    };
                    let passes = match &self.condition {
                        Some(c) => c.eval(&joined.tuple)?,
                        None => true,
                    };
                    if passes {
                        self.output.push(joined);
                    }
                }
                // Register the new tuple on its own side.
                if self.use_hash {
                    let key: Vec<Value> = this
                        .key_cols
                        .iter()
                        .map(|&i| t.tuple.value(i).clone())
                        .collect();
                    this.hash.entry(key).or_default().push(this.seen.len());
                }
                this.seen.push(t);
                self.metrics
                    .observe_buffered((self.left.seen.len() + self.right.seen.len()) as u64);
            }
        }
        Ok(())
    }

    fn pick_side(&self) -> Option<Side> {
        match (self.left.exhausted, self.right.exhausted) {
            (true, true) => None,
            (false, true) => Some(Side::Left),
            (true, false) => Some(Side::Right),
            (false, false) => Some(self.turn),
        }
    }
}

impl PhysicalOperator for RankJoin {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next_batch(&mut self, max: usize, out: &mut Batch) -> Result<usize> {
        // Rank-joins emit against the HRJN threshold one tuple at a time and
        // draw one input tuple per step, so a top-k consumer never forces
        // extra input consumption whatever `max` is.
        let mut n = 0;
        while n < max {
            let threshold = self.threshold();
            let both_done = self.left.exhausted && self.right.exhausted;
            if let Some(best) = self.output.peek_score() {
                if both_done || best >= threshold {
                    out.extend(self.output.pop());
                    n += 1;
                    continue;
                }
            } else if both_done {
                break;
            }
            if let Some(side) = self.pick_side() {
                self.advance(side)?;
                // Alternate between inputs (the paper's HRJN pulls from
                // both streams; a simple round-robin strategy suffices).
                self.turn = match self.turn {
                    Side::Left => Side::Right,
                    Side::Right => Side::Left,
                };
            }
        }
        if n > 0 {
            self.metrics.add_out(n as u64);
            self.metrics.add_batch();
        }
        Ok(n)
    }

    fn can_extend_limit(&self) -> bool {
        self.left.input.can_extend_limit() && self.right.input.can_extend_limit()
    }

    fn extend_limit(&mut self, extra: usize) -> bool {
        // HRJN/NRJN buffer every drawn tuple in their side states and the
        // output queue — nothing is discarded, so extending a top-k just
        // resumes the incremental join where it stopped.
        self.left.input.extend_limit(extra) & self.right.input.extend_limit(extra)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::ExecutionContext;
    use crate::operator::{check_rank_order, drain, take};
    use crate::scan::RankScan;
    use ranksql_common::{DataType, Field, Value};
    use ranksql_expr::{RankPredicate, ScoringFunction};
    use ranksql_storage::{ScoreIndex, Table, TableBuilder};

    /// Relation R of Figure 2(a): columns a, b and predicates p1, p2.
    fn table_r() -> Arc<Table> {
        let schema = Schema::new(vec![
            Field::new("a", DataType::Int64),
            Field::new("b", DataType::Int64),
            Field::new("p1", DataType::Float64),
            Field::new("p2", DataType::Float64),
        ])
        .qualify_all("R");
        let rows = [(1, 2, 0.9, 0.65), (2, 3, 0.8, 0.5), (3, 4, 0.7, 0.7)];
        Arc::new(
            TableBuilder::new("R", schema)
                .rows(rows.iter().map(|&(a, b, p1, p2)| {
                    vec![
                        Value::from(a),
                        Value::from(b),
                        Value::from(p1),
                        Value::from(p2),
                    ]
                }))
                .build(0)
                .unwrap(),
        )
    }

    /// Relation S of Figure 2(c): columns a, c and predicates p3, p4, p5.
    fn table_s() -> Arc<Table> {
        let schema = Schema::new(vec![
            Field::new("a", DataType::Int64),
            Field::new("c", DataType::Int64),
            Field::new("p3", DataType::Float64),
            Field::new("p4", DataType::Float64),
            Field::new("p5", DataType::Float64),
        ])
        .qualify_all("S");
        let rows = [
            (4, 3, 0.7, 0.8, 0.9),
            (1, 1, 0.9, 0.85, 0.8),
            (1, 2, 0.5, 0.45, 0.75),
            (4, 2, 0.4, 0.7, 0.95),
            (5, 1, 0.3, 0.9, 0.6),
            (2, 3, 0.25, 0.45, 0.9),
        ];
        Arc::new(
            TableBuilder::new("S", schema)
                .rows(rows.iter().map(|&(a, c, p3, p4, p5)| {
                    vec![
                        Value::from(a),
                        Value::from(c),
                        Value::from(p3),
                        Value::from(p4),
                        Value::from(p5),
                    ]
                }))
                .build(1)
                .unwrap(),
        )
    }

    /// The context of Figure 4(f): F3 = sum(p1, p2, p3, p4, p5).
    fn ctx_f3() -> Arc<RankingContext> {
        RankingContext::new(
            vec![
                RankPredicate::attribute("p1", "R.p1"),
                RankPredicate::attribute("p2", "R.p2"),
                RankPredicate::attribute("p3", "S.p3"),
                RankPredicate::attribute("p4", "S.p4"),
                RankPredicate::attribute("p5", "S.p5"),
            ],
            ScoringFunction::Sum,
        )
    }

    fn rank_scan(
        t: &Arc<Table>,
        pred: usize,
        exec: &ExecutionContext,
        name: &str,
    ) -> BoxedOperator {
        let idx = Arc::new(
            ScoreIndex::build(exec.ranking().predicate(pred), t.schema(), &t.scan()).unwrap(),
        );
        Box::new(RankScan::new(Arc::clone(t), idx, pred, exec, name).unwrap())
    }

    #[test]
    fn figure4f_join_membership_and_order() {
        // R_{p1} ⋈_{R.a=S.a} S_{p3} (Figure 4(f)): results are r1s2 (4.8)
        // and r1s3 (4.4), plus r2s6 (R.a=2 = S.a=2) which Figure 4(f) omits
        // because it only lists the top of the stream... actually R.a=2
        // matches s6 (a=2): F3 bound = 0.8+1+0.25+1+1 = 4.05.  Check the
        // full membership and ordering here.
        let r = table_r();
        let s = table_s();
        let ctx = ctx_f3();
        let exec = ExecutionContext::new(Arc::clone(&ctx));
        let cond = BoolExpr::col_eq_col("R.a", "S.a");
        let left = rank_scan(&r, 0, &exec, "rankscan_p1(R)");
        let right = rank_scan(&s, 2, &exec, "rankscan_p3(S)");
        let mut join = RankJoin::hrjn(left, right, Some(&cond), &exec, "HRJN").unwrap();
        let all = drain(&mut join).unwrap();
        assert_eq!(all.len(), 3);
        assert_eq!(check_rank_order(&all, &ctx), None);
        // Top result: r1 ⋈ s2 with bound 0.9 + 1 + 0.9 + 1 + 1 = 4.8.
        assert_eq!(ctx.upper_bound(&all[0].state), Score::new(4.8));
        assert_eq!(all[0].tuple.value(0), &Value::from(1)); // R.a
        assert_eq!(all[0].tuple.value(5), &Value::from(1)); // S.c = 1 → s2
                                                            // Second: r1 ⋈ s3 with bound 4.4.
        assert_eq!(ctx.upper_bound(&all[1].state), Score::new(4.4));
        // Third: r2 ⋈ s6 with bound 4.05.
        assert_eq!(ctx.upper_bound(&all[2].state), Score::new(4.05));
    }

    #[test]
    fn hrjn_and_nrjn_agree() {
        let r = table_r();
        let s = table_s();
        let cond = BoolExpr::col_eq_col("R.a", "S.a");
        let ctx1 = ctx_f3();
        let exec1 = ExecutionContext::new(Arc::clone(&ctx1));
        let mut hrjn = RankJoin::hrjn(
            rank_scan(&r, 0, &exec1, "l"),
            rank_scan(&s, 2, &exec1, "r"),
            Some(&cond),
            &exec1,
            "HRJN",
        )
        .unwrap();
        let ctx2 = ctx_f3();
        let exec2 = ExecutionContext::new(Arc::clone(&ctx2));
        let mut nrjn = RankJoin::nrjn(
            rank_scan(&r, 0, &exec2, "l"),
            rank_scan(&s, 2, &exec2, "r"),
            Some(&cond),
            &exec2,
            "NRJN",
        )
        .unwrap();
        let a = drain(&mut hrjn).unwrap();
        let b = drain(&mut nrjn).unwrap();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.tuple.id(), y.tuple.id());
            assert_eq!(ctx1.upper_bound(&x.state), ctx2.upper_bound(&y.state));
        }
    }

    #[test]
    fn hrjn_requires_equi_condition_nrjn_does_not() {
        let r = table_r();
        let s = table_s();
        let ctx = ctx_f3();
        let exec = ExecutionContext::new(Arc::clone(&ctx));
        let theta = BoolExpr::compare(
            ranksql_expr::ScalarExpr::col("R.a"),
            ranksql_expr::CompareOp::Lt,
            ranksql_expr::ScalarExpr::col("S.a"),
        );
        assert!(RankJoin::hrjn(
            rank_scan(&r, 0, &exec, "l"),
            rank_scan(&s, 2, &exec, "r"),
            Some(&theta),
            &exec,
            "HRJN",
        )
        .is_err());
        let mut nrjn = RankJoin::nrjn(
            rank_scan(&r, 0, &exec, "l"),
            rank_scan(&s, 2, &exec, "r"),
            Some(&theta),
            &exec,
            "NRJN",
        )
        .unwrap();
        let out = drain(&mut nrjn).unwrap();
        // R.a < S.a pairs: r1(a=1) with s1,s4 (a=4), s5 (a=5), s6 (a=2);
        // r2(a=2) with a=4,4,5; r3(a=3) with a=4,4,5 → 4 + 3 + 3 = 10.
        assert_eq!(out.len(), 10);
        assert_eq!(check_rank_order(&out, &ctx), None);
    }

    #[test]
    fn top_k_join_stops_early() {
        let r = table_r();
        let s = table_s();
        let ctx = ctx_f3();
        let exec = ExecutionContext::new(Arc::clone(&ctx));
        let cond = BoolExpr::col_eq_col("R.a", "S.a");
        let mut join = RankJoin::hrjn(
            rank_scan(&r, 0, &exec, "left_scan"),
            rank_scan(&s, 2, &exec, "right_scan"),
            Some(&cond),
            &exec,
            "HRJN",
        )
        .unwrap();
        let top = take(&mut join, 1).unwrap();
        assert_eq!(top.len(), 1);
        assert_eq!(ctx.upper_bound(&top[0].state), Score::new(4.8));
        // The join must not have consumed everything from both sides: with
        // 3 + 6 input tuples, early termination should need fewer pulls.
        let pulled: u64 = exec
            .metrics()
            .snapshot()
            .iter()
            .filter(|m| m.name().contains("scan"))
            .map(|m| m.tuples_out())
            .sum();
        assert!(
            pulled < 9,
            "HRJN pulled all {pulled} input tuples for a top-1 query"
        );
    }

    #[test]
    fn cross_rank_join_via_nrjn() {
        let r = table_r();
        let s = table_s();
        let ctx = ctx_f3();
        let exec = ExecutionContext::new(Arc::clone(&ctx));
        let mut join = RankJoin::nrjn(
            rank_scan(&r, 0, &exec, "l"),
            rank_scan(&s, 2, &exec, "r"),
            None,
            &exec,
            "NRJN",
        )
        .unwrap();
        let all = drain(&mut join).unwrap();
        assert_eq!(all.len(), 18);
        assert_eq!(check_rank_order(&all, &ctx), None);
    }

    #[test]
    fn empty_side_produces_empty_join() {
        let r = table_r();
        let ctx = ctx_f3();
        let exec = ExecutionContext::new(Arc::clone(&ctx));
        let empty_schema = Schema::new(vec![
            Field::new("a", DataType::Int64),
            Field::new("p3", DataType::Float64),
        ])
        .qualify_all("S");
        let empty = Arc::new(TableBuilder::new("S", empty_schema).build(9).unwrap());
        let idx =
            Arc::new(ScoreIndex::build(ctx.predicate(2), empty.schema(), &empty.scan()).unwrap());
        let right = Box::new(RankScan::new(Arc::clone(&empty), idx, 2, &exec, "r").unwrap());
        let cond = BoolExpr::col_eq_col("R.a", "S.a");
        let mut join = RankJoin::hrjn(
            rank_scan(&r, 0, &exec, "l"),
            right,
            Some(&cond),
            &exec,
            "HRJN",
        )
        .unwrap();
        assert!(drain(&mut join).unwrap().is_empty());
    }
}
