//! Whole-`Vec<Row>` relational operators and the state shared with the
//! streaming executor.
//!
//! [`filter`], [`project`], [`nested_loop_join`], [`cross_join`],
//! [`aggregate`], and [`limit`] are the building blocks of the reference
//! evaluator (`sql::reference`, selected by `PlanOptions::naive()`): each
//! takes and returns fully materialized rows, with no batching, no
//! strategies, and no profiling, so the oracle the planned pipeline is
//! compared against stays small enough to check by reading.
//! [`GroupState`], [`TopN`], and [`sort_by_keys`] are shared with the
//! production executor (`sql::physical`), which feeds them batch by batch.

use crate::error::{DbError, DbResult};
use crate::expr::Expr;
use crate::colbatch::ColumnBatch;
use crate::row::Row;
use crate::value::Value;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::OnceLock;

/// Rows dropped by [`filter`] predicates, workspace-wide.
pub(crate) fn rows_filtered() -> &'static obs::Counter {
    static C: OnceLock<obs::Counter> = OnceLock::new();
    C.get_or_init(|| obs::counter("stardb.exec.rows_filtered"))
}

/// Row pairs a join operator examined (the nested-loop cost driver).
pub(crate) fn join_pairs() -> &'static obs::Counter {
    static C: OnceLock<obs::Counter> = OnceLock::new();
    C.get_or_init(|| obs::counter("stardb.exec.join_pairs_examined"))
}

/// Rows produced by hash joins — the equi-join's output cardinality,
/// reported alongside the pair counter to show how much probing the hash
/// table saved.
pub(crate) fn hash_join_rows() -> &'static obs::Counter {
    static C: OnceLock<obs::Counter> = OnceLock::new();
    C.get_or_init(|| obs::counter("stardb.exec.hash_join_rows"))
}

/// Keep rows matching `pred`.
pub fn filter(rows: Vec<Row>, pred: &Expr) -> DbResult<Vec<Row>> {
    let before = rows.len();
    let mut out = Vec::new();
    for row in rows {
        if pred.matches(&row)? {
            out.push(row);
        }
    }
    rows_filtered().add((before - out.len()) as u64);
    Ok(out)
}

/// Evaluate `exprs` for each row (SELECT list).
pub fn project(rows: &[Row], exprs: &[Expr]) -> DbResult<Vec<Row>> {
    rows.iter()
        .map(|row| {
            exprs
                .iter()
                .map(|e| e.eval(row))
                .collect::<DbResult<Vec<Value>>>()
                .map(Row)
        })
        .collect()
}

/// Concatenated arity of a joined row (0 + 0 for two empty inputs, where
/// no row is ever built).
fn joined_arity(left: &[Row], right: &[Row]) -> usize {
    left.first().map_or(0, Row::arity) + right.first().map_or(0, Row::arity)
}

/// Nested-loop inner join: concatenated rows where `on` holds. `on` sees
/// the concatenated row (left columns first).
///
/// One scratch row is reused across all pairs; only pairs that pass the
/// predicate pay a clone, and that clone is sized to the exact joined
/// arity — the straightforward clone-extend-wrap per probe pair costs two
/// allocations per *examined* pair, which dominates selective joins.
pub fn nested_loop_join(left: &[Row], right: &[Row], on: &Expr) -> DbResult<Vec<Row>> {
    join_pairs().add((left.len() * right.len()) as u64);
    let mut out = Vec::new();
    let mut scratch = Row(Vec::with_capacity(joined_arity(left, right)));
    for l in left {
        for r in right {
            scratch.0.clear();
            scratch.0.extend_from_slice(&l.0);
            scratch.0.extend_from_slice(&r.0);
            if on.matches(&scratch)? {
                out.push(Row(scratch.0.clone()));
            }
        }
    }
    Ok(out)
}

/// CROSS JOIN (the paper's `Galaxy CROSS JOIN Kcorr` filter step).
pub fn cross_join(left: &[Row], right: &[Row]) -> Vec<Row> {
    join_pairs().add((left.len() * right.len()) as u64);
    let arity = joined_arity(left, right);
    let mut out = Vec::with_capacity(left.len() * right.len());
    for l in left {
        for r in right {
            let mut joined = Vec::with_capacity(arity);
            joined.extend_from_slice(&l.0);
            joined.extend_from_slice(&r.0);
            out.push(Row(joined));
        }
    }
    out
}

/// Stable sort by `(column, descending)` keys (SQL `ORDER BY`).
pub fn sort_by_keys(mut rows: Vec<Row>, keys: &[(usize, bool)]) -> Vec<Row> {
    rows.sort_by(|a, b| cmp_rows(a, b, keys));
    rows
}

fn cmp_rows(a: &Row, b: &Row, keys: &[(usize, bool)]) -> Ordering {
    for &(c, desc) in keys {
        let ord = a[c].total_cmp(&b[c]);
        let ord = if desc { ord.reverse() } else { ord };
        match ord {
            Ordering::Equal => continue,
            ord => return ord,
        }
    }
    Ordering::Equal
}

/// First `n` rows (SQL `TOP n`).
pub fn limit(mut rows: Vec<Row>, n: usize) -> Vec<Row> {
    rows.truncate(n);
    rows
}

/// Bounded top-N accumulator: the `ORDER BY … LIMIT n` short-circuit.
///
/// Keeps the `n` best rows seen so far in a max-heap keyed by the sort
/// keys plus arrival order, so the result — including how ties are broken
/// — is exactly what a stable sort followed by `truncate(n)` produces,
/// without ever buffering more than `n` rows.
pub struct TopN {
    keys: Vec<(usize, bool)>,
    n: usize,
    heap: BinaryHeap<TopNEntry>,
    seq: u64,
    evictions: u64,
}

/// Heap entry carrying its extracted `(key value, descending)` pairs and
/// arrival sequence, so the max-heap's `Ord` bound is self-contained and
/// the ranking is exactly [`cmp_rows`] — including across numeric types,
/// where the key codec's byte order diverges (it groups by type tag,
/// `total_cmp` compares numerically).
struct TopNEntry {
    keys: Vec<(Value, bool)>,
    seq: u64,
    row: Row,
}

impl TopNEntry {
    fn rank(&self, other: &Self) -> Ordering {
        for ((a, desc), (b, _)) in self.keys.iter().zip(&other.keys) {
            let ord = a.total_cmp(b);
            let ord = if *desc { ord.reverse() } else { ord };
            if ord != Ordering::Equal {
                return ord;
            }
        }
        self.seq.cmp(&other.seq)
    }
}

impl PartialEq for TopNEntry {
    fn eq(&self, other: &Self) -> bool {
        self.rank(other) == Ordering::Equal
    }
}
impl Eq for TopNEntry {}
impl PartialOrd for TopNEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for TopNEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        self.rank(other)
    }
}

impl TopN {
    /// A top-N accumulator over `(column, descending)` sort keys.
    pub fn new(keys: Vec<(usize, bool)>, n: usize) -> Self {
        TopN { keys, n, heap: BinaryHeap::new(), seq: 0, evictions: 0 }
    }

    /// Offer one row; kept only if it ranks among the best `n` so far.
    /// Equal keys rank by arrival order — the stability guarantee.
    pub fn push(&mut self, row: Row) {
        if self.n == 0 {
            return;
        }
        let seq = self.seq;
        self.seq += 1;
        if self.heap.len() >= self.n {
            // Rank the candidate against the current worst by *reference*
            // before paying the key clones. Key ties lose: the candidate's
            // larger arrival sequence ranks it after the incumbent.
            let keeps = self.heap.peek().is_some_and(|worst| {
                self.keys
                    .iter()
                    .zip(&worst.keys)
                    .find_map(|(&(c, desc), (wv, _))| {
                        let ord = row[c].total_cmp(wv);
                        let ord = if desc { ord.reverse() } else { ord };
                        (ord != Ordering::Equal).then_some(ord)
                    })
                    .is_some_and(|ord| ord == Ordering::Less)
            });
            if !keeps {
                return;
            }
            self.heap.pop();
            self.evictions += 1;
        }
        let keys = self.keys.iter().map(|&(c, desc)| (row[c].clone(), desc)).collect();
        self.heap.push(TopNEntry { keys, seq, row });
    }

    /// Rows that entered the heap and were later displaced by a better
    /// row — the work the bounded heap does beyond a plain `take(n)`.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// The best `n` rows in sort order (ties keep arrival order, exactly
    /// as a stable sort followed by `truncate(n)` would).
    pub fn finish(self) -> Vec<Row> {
        self.heap.into_sorted_vec().into_iter().map(|e| e.row).collect()
    }
}

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Agg {
    /// `COUNT(*)`.
    Count,
    /// `MIN(expr)`.
    Min,
    /// `MAX(expr)`.
    Max,
    /// `SUM(expr)`.
    Sum,
    /// `AVG(expr)`.
    Avg,
}

/// One aggregate specification: the function and its argument (ignored for
/// `Count`).
pub struct AggSpec {
    /// Aggregate function.
    pub agg: Agg,
    /// Argument expression (use `Expr::lit(0)` for COUNT).
    pub arg: Expr,
}

/// GROUP BY `group_col` (pass `None` for a single global group), computing
/// `aggs`. Output rows are `[group_key?, agg_0, agg_1, ...]`, ordered by
/// group key.
pub fn aggregate(rows: &[Row], group_col: Option<usize>, aggs: &[AggSpec]) -> DbResult<Vec<Row>> {
    let mut state = GroupState::new(group_col, aggs);
    for row in rows {
        state.update(row)?;
    }
    state.finish()
}

/// One aggregate's running state. MIN/MAX track the actual `Value` under
/// total order (so integer columns stay integers and text is comparable);
/// SUM keeps an exact `i128` alongside the float accumulator and reports
/// `BIGINT` when every input was an integer — type fidelity the old
/// everything-through-`f64` accumulator silently lost.
struct Acc {
    count: u64,
    seen: u64,
    min: Option<Value>,
    max: Option<Value>,
    fsum: f64,
    isum: i128,
    ints_only: bool,
}

impl Acc {
    fn new() -> Self {
        Acc { count: 0, seen: 0, min: None, max: None, fsum: 0.0, isum: 0, ints_only: true }
    }
}

/// Incremental grouped-aggregation state: the streaming executor feeds it
/// one batch at a time and materializes only the group table, never the
/// input. [`aggregate`] is the fold-it-all-at-once convenience wrapper.
pub struct GroupState<'a> {
    group_col: Option<usize>,
    aggs: &'a [AggSpec],
    // Group keys are compared via total order; a Vec keeps groups sorted.
    groups: Vec<(Option<Value>, Vec<Acc>)>,
}

impl<'a> GroupState<'a> {
    /// Empty state for `GROUP BY group_col` (`None` = one global group).
    pub fn new(group_col: Option<usize>, aggs: &'a [AggSpec]) -> Self {
        GroupState { group_col, aggs, groups: Vec::new() }
    }

    /// Resolve (inserting if new) the group index for `key`.
    fn group_idx(&mut self, key: Option<Value>) -> usize {
        match self.groups.binary_search_by(|(k, _)| cmp_opt(k, &key)) {
            Ok(i) => i,
            Err(i) => {
                self.groups.insert(i, (key, self.aggs.iter().map(|_| Acc::new()).collect()));
                i
            }
        }
    }

    /// Fold one input row into its group.
    pub fn update(&mut self, row: &Row) -> DbResult<()> {
        let key = self.group_col.map(|c| row[c].clone());
        let idx = self.group_idx(key);
        for (spec, acc) in self.aggs.iter().zip(&mut self.groups[idx].1) {
            acc.count += 1;
            if spec.agg == Agg::Count {
                continue;
            }
            let v = spec.arg.eval(row)?;
            if !v.is_null() {
                fold_value(spec.agg, acc, v)?;
            }
        }
        Ok(())
    }

    /// Fold a whole column-major batch, accumulating columnwise: group
    /// indices are resolved once per row up front (two passes, so
    /// mid-batch group inserts cannot shift already-resolved indices),
    /// then each aggregate sweeps its argument column in a tight loop,
    /// touching the null bitmap instead of matching `Value::Null`. The
    /// per-(group, aggregate) value sequences are exactly those of
    /// row-at-a-time [`GroupState::update`], so float accumulation order
    /// — and therefore every emitted bit — is identical.
    pub fn update_columns(&mut self, batch: &ColumnBatch) -> DbResult<()> {
        let n = batch.len();
        if n == 0 {
            return Ok(());
        }
        let mut idxs: Vec<u32> = Vec::with_capacity(n);
        match self.group_col {
            None => {
                let g = self.group_idx(None) as u32;
                idxs.resize(n, g);
            }
            Some(c) => {
                for i in 0..n {
                    self.group_idx(Some(batch.value(c, i)));
                }
                for i in 0..n {
                    let key = Some(batch.value(c, i));
                    let g = self
                        .groups
                        .binary_search_by(|(k, _)| cmp_opt(k, &key))
                        .expect("inserted in first pass");
                    idxs.push(g as u32);
                }
            }
        }
        for (s, spec) in self.aggs.iter().enumerate() {
            for &g in &idxs {
                self.groups[g as usize].1[s].count += 1;
            }
            if spec.agg == Agg::Count {
                continue;
            }
            match &spec.arg {
                // The common shape: aggregate over a plain column.
                Expr::Col(c) => {
                    let col = batch.col(*c);
                    match (spec.agg, &col.data) {
                        // SUM/AVG over numeric buffers accumulate without
                        // materializing a single `Value`.
                        (Agg::Sum | Agg::Avg, crate::colbatch::ColumnData::BigInt(vals)) => {
                            for (i, &g) in idxs.iter().enumerate() {
                                if !col.is_null(i) {
                                    let acc = &mut self.groups[g as usize].1[s];
                                    acc.seen += 1;
                                    acc.fsum += vals[i] as f64;
                                    acc.isum += i128::from(vals[i]);
                                }
                            }
                        }
                        (Agg::Sum | Agg::Avg, crate::colbatch::ColumnData::Int(vals)) => {
                            for (i, &g) in idxs.iter().enumerate() {
                                if !col.is_null(i) {
                                    let acc = &mut self.groups[g as usize].1[s];
                                    acc.seen += 1;
                                    acc.fsum += f64::from(vals[i]);
                                    acc.isum += i128::from(vals[i]);
                                }
                            }
                        }
                        (Agg::Sum | Agg::Avg, crate::colbatch::ColumnData::Real(vals)) => {
                            for (i, &g) in idxs.iter().enumerate() {
                                if !col.is_null(i) {
                                    let acc = &mut self.groups[g as usize].1[s];
                                    acc.seen += 1;
                                    acc.fsum += f64::from(vals[i]);
                                    acc.ints_only = false;
                                }
                            }
                        }
                        (Agg::Sum | Agg::Avg, crate::colbatch::ColumnData::Float(vals)) => {
                            for (i, &g) in idxs.iter().enumerate() {
                                if !col.is_null(i) {
                                    let acc = &mut self.groups[g as usize].1[s];
                                    acc.seen += 1;
                                    acc.fsum += vals[i];
                                    acc.ints_only = false;
                                }
                            }
                        }
                        // MIN/MAX (any type) and SUM over text (a type
                        // error, reported exactly as the row path reports
                        // it) go through the shared fold.
                        _ => {
                            for (i, &g) in idxs.iter().enumerate() {
                                if !col.is_null(i) {
                                    fold_value(
                                        spec.agg,
                                        &mut self.groups[g as usize].1[s],
                                        col.value(i),
                                    )?;
                                }
                            }
                        }
                    }
                }
                // Computed arguments: evaluate on a reused scratch row.
                arg => {
                    let mut scratch = Row(Vec::with_capacity(batch.num_cols()));
                    for (i, &g) in idxs.iter().enumerate() {
                        batch.read_row_into(i, &mut scratch.0);
                        let v = arg.eval(&scratch)?;
                        if !v.is_null() {
                            fold_value(spec.agg, &mut self.groups[g as usize].1[s], v)?;
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Emit one `[group_key?, agg_0, ...]` row per group, ordered by key.
    pub fn finish(self) -> DbResult<Vec<Row>> {
        self.groups
            .into_iter()
            .map(|(key, accs)| {
                let mut out: Vec<Value> = Vec::new();
                if let Some(k) = key {
                    out.push(k);
                }
                for (spec, acc) in self.aggs.iter().zip(accs) {
                    out.push(finish_one(spec.agg, acc)?);
                }
                Ok(Row(out))
            })
            .collect()
    }
}

/// Fold one non-NULL value into an accumulator (shared by the row-at-a-
/// time and columnar update paths, so their semantics cannot drift).
fn fold_value(agg: Agg, acc: &mut Acc, v: Value) -> DbResult<()> {
    acc.seen += 1;
    match agg {
        Agg::Min => {
            if acc.min.as_ref().is_none_or(|m| v.total_cmp(m) == Ordering::Less) {
                acc.min = Some(v);
            }
        }
        Agg::Max => {
            if acc.max.as_ref().is_none_or(|m| v.total_cmp(m) == Ordering::Greater) {
                acc.max = Some(v);
            }
        }
        Agg::Sum | Agg::Avg => {
            acc.fsum += v.as_f64()?;
            match v {
                Value::Int(i) => acc.isum += i128::from(i),
                Value::BigInt(i) => acc.isum += i128::from(i),
                _ => acc.ints_only = false,
            }
        }
        Agg::Count => unreachable!("COUNT never folds values"),
    }
    Ok(())
}

fn finish_one(agg: Agg, acc: Acc) -> DbResult<Value> {
    if agg == Agg::Count {
        return Ok(Value::BigInt(acc.count as i64));
    }
    // SQL: aggregates over no non-NULL input are NULL.
    if acc.seen == 0 {
        return Ok(Value::Null);
    }
    Ok(match agg {
        Agg::Count => unreachable!("handled above"),
        Agg::Min => acc.min.expect("seen > 0 implies a min"),
        Agg::Max => acc.max.expect("seen > 0 implies a max"),
        Agg::Sum if acc.ints_only => {
            let s = i64::try_from(acc.isum)
                .map_err(|_| DbError::TypeError("SUM overflows BIGINT".into()))?;
            Value::BigInt(s)
        }
        Agg::Sum => Value::Float(acc.fsum),
        // For all-integer input, divide the exact integer sum to avoid
        // inheriting the float accumulator's rounding.
        Agg::Avg if acc.ints_only => Value::Float(acc.isum as f64 / acc.seen as f64),
        Agg::Avg => Value::Float(acc.fsum / acc.seen as f64),
    })
}

fn cmp_opt(a: &Option<Value>, b: &Option<Value>) -> Ordering {
    match (a, b) {
        (None, None) => Ordering::Equal,
        (None, Some(_)) => Ordering::Less,
        (Some(_), None) => Ordering::Greater,
        (Some(x), Some(y)) => x.total_cmp(y),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::BinOp;

    fn rows() -> Vec<Row> {
        (0..10)
            .map(|i| Row(vec![Value::Int(i), Value::Float(f64::from(i) * 1.5), Value::Int(i % 3)]))
            .collect()
    }

    #[test]
    fn filter_keeps_matches() {
        let pred = Expr::Col(0).bin(BinOp::Ge, Expr::lit(7i32));
        let out = filter(rows(), &pred).unwrap();
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn project_evaluates_select_list() {
        let out = project(&rows(), &[Expr::Col(1).bin(BinOp::Mul, Expr::lit(2.0))]).unwrap();
        assert_eq!(out[3].f64(0).unwrap(), 9.0);
        assert_eq!(out[0].arity(), 1);
    }

    #[test]
    fn join_matches_on_predicate() {
        let left = rows();
        let right = vec![Row(vec![Value::Int(2)]), Row(vec![Value::Int(5)])];
        // left.col2 == right.col0 (concatenated index 3).
        let on = Expr::Col(2).bin(BinOp::Eq, Expr::Col(3));
        let out = nested_loop_join(&left, &right, &on).unwrap();
        // col2 = i % 3 in {2, 5}: only 2 matches (i = 2, 5, 8).
        assert_eq!(out.len(), 3);
        assert!(out.iter().all(|r| r.arity() == 4));
    }

    #[test]
    fn cross_join_cardinality() {
        let out = cross_join(&rows(), &rows());
        assert_eq!(out.len(), 100);
        assert_eq!(out[0].arity(), 6);
    }

    #[test]
    fn sort_and_limit() {
        let mut r = rows();
        r.reverse();
        let sorted = sort_by_keys(r, &[(2, false), (0, false)]);
        assert_eq!(sorted[0][2], Value::Int(0));
        assert_eq!(sorted[0][0], Value::Int(0));
        let top = limit(sorted, 4);
        assert_eq!(top.len(), 4);
    }

    #[test]
    fn global_aggregates() {
        let out = aggregate(
            &rows(),
            None,
            &[
                AggSpec { agg: Agg::Count, arg: Expr::lit(0i32) },
                AggSpec { agg: Agg::Min, arg: Expr::Col(1) },
                AggSpec { agg: Agg::Max, arg: Expr::Col(1) },
                AggSpec { agg: Agg::Avg, arg: Expr::Col(0) },
            ],
        )
        .unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0][0], Value::BigInt(10));
        assert_eq!(out[0].f64(1).unwrap(), 0.0);
        assert_eq!(out[0].f64(2).unwrap(), 13.5);
        assert_eq!(out[0].f64(3).unwrap(), 4.5);
    }

    #[test]
    fn grouped_count() {
        let out = aggregate(
            &rows(),
            Some(2),
            &[AggSpec { agg: Agg::Count, arg: Expr::lit(0i32) }],
        )
        .unwrap();
        // Groups 0,1,2 with counts 4,3,3.
        assert_eq!(out.len(), 3);
        assert_eq!(out[0][0], Value::Int(0));
        assert_eq!(out[0][1], Value::BigInt(4));
        assert_eq!(out[1][1], Value::BigInt(3));
    }

    #[test]
    fn aggregate_of_empty_input() {
        let out = aggregate(&[], None, &[AggSpec { agg: Agg::Count, arg: Expr::lit(0i32) }])
            .unwrap();
        assert!(out.is_empty(), "no rows means no groups, as in SQL GROUP BY");
    }

    #[test]
    fn min_of_all_null_group_is_null() {
        let rows = vec![Row(vec![Value::Int(1), Value::Null])];
        let out = aggregate(&rows, None, &[AggSpec { agg: Agg::Min, arg: Expr::Col(1) }]).unwrap();
        assert!(out[0][0].is_null(), "MIN over all-NULL input is NULL in SQL");
    }

    #[test]
    fn avg_ignores_nulls() {
        let rows = vec![
            Row(vec![Value::Float(2.0)]),
            Row(vec![Value::Null]),
            Row(vec![Value::Float(4.0)]),
        ];
        let out = aggregate(&rows, None, &[AggSpec { agg: Agg::Avg, arg: Expr::Col(0) }]).unwrap();
        assert_eq!(out[0].f64(0).unwrap(), 3.0);
    }

    /// Deterministic pseudo-property sweep (the proptest version lives in
    /// `tests/prop_sql_topn.rs`): many seeded row sets with heavy ties and
    /// NULLs, every (keys, n) combination checked against stable
    /// sort-then-truncate.
    #[test]
    fn top_n_heap_sweeps_identical_to_sort_truncate() {
        let mut state = 0x2545F4914F6CDD1Du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for trial in 0..50 {
            let len = (next() % 70) as usize;
            let data: Vec<Row> = (0..len)
                .map(|_| {
                    let mut v = |m: u64| -> Value {
                        match next() % m {
                            0 => Value::Null,
                            k => Value::BigInt((k % 5) as i64 - 2),
                        }
                    };
                    Row(vec![v(6), v(4), Value::Float((next() % 3) as f64 / 2.0)])
                })
                .collect();
            let keys: Vec<(usize, bool)> = match trial % 4 {
                0 => vec![(0, false)],
                1 => vec![(0, true)],
                2 => vec![(1, false), (2, true)],
                _ => vec![(2, true), (0, false), (1, true)],
            };
            for n in [0, 1, 3, len / 2, len, len + 5] {
                let mut heap = TopN::new(keys.clone(), n);
                for r in data.clone() {
                    heap.push(r);
                }
                let got = heap.finish();
                let mut want = sort_by_keys(data.clone(), &keys);
                want.truncate(n);
                assert_eq!(got, want, "trial {trial}, n={n}, keys {keys:?}");
            }
        }
    }
}
