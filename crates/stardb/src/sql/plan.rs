//! Query planning: bound AST → logical plan → physical `SelectPlan`.
//!
//! Planning runs in three stages, replacing the old fixed materialized
//! pipeline:
//!
//! 1. **Logical plan** — name resolution binds the AST into positional
//!    expressions organized as relational nodes: base-table scans, the
//!    join list with bound ON predicates, the bound WHERE filter, the
//!    projection/aggregation shape, distinct, sort keys, and limit.
//! 2. **Planner rewrites** — the WHERE and ON conjunctions are split into
//!    conjuncts; single-table conjuncts are pushed below the joins onto
//!    their base table; sargable conjuncts (`=`, `<`, `<=`, `>`, `>=`,
//!    `BETWEEN` against constants) bound a B-tree range over the clustered
//!    key or a secondary index; each join picks hash or nested-loop from
//!    the conjuncts that cross it; `ORDER BY … LIMIT n` becomes a bounded
//!    top-N heap.
//! 3. **Physical plan** — the resulting [`SelectPlan`] is both what
//!    [`super::physical`] executes and what EXPLAIN renders, so the plan
//!    you read is — by construction — the plan that runs.
//!
//! Sargability rules: a conjunct bounds a column when it compares a bare
//! column reference against an expression with no column references
//! (folded to a constant at plan time), the comparison is one of
//! `= < <= > >= BETWEEN`, and the constant coerces losslessly into the
//! column's key encoding family (integer bounds on integer columns are
//! snapped inward from fractional constants; text columns accept only text
//! constants). Pushed conjuncts are *always* kept in the scan's residual
//! predicate — extracted bounds only narrow the B-tree range, so coercion
//! edge cases and NULL ordering (NULL sorts first in the key encoding)
//! can never change results, only how many rows are examined.
//!
//! One more fact is computed once per scan from the bound statement:
//! `ScanNode::needed`, the table columns anything at or above the scan
//! reads. Every scan decodes those and nothing else; an index range scan
//! additionally evaluates, on the index entry and before any row is read,
//! the pushed conjuncts that reference only entry columns, and reads no
//! row at all when the entry holds every needed column.

use super::ast::{
    AggFunc, ColRef, Select, SelectItem, SqlBinOp, SqlExpr,
};
use super::physical::{OpProfile, PlanProfile};
use crate::colbatch::VPredicate;
use crate::db::Database;
use crate::error::{DbError, DbResult};
use crate::exec;
use crate::expr::{BinOp, Expr, Func};
use crate::row::Row;
use crate::schema::Schema;
use crate::value::{DataType, Value};
use std::cmp::Ordering;
use std::collections::HashMap;

/// Which evaluator runs a SELECT: a two-state selector, not a set of
/// planner switches. [`PlanOptions::default`] is the planner with every
/// rewrite plus the one (columnar) executor — what every production
/// caller passes. [`PlanOptions::naive`] is the reference evaluator
/// ([`super::reference`]) that the identity tests compare the planned
/// pipeline against. EXPLAIN ignores the selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PlanOptions {
    pub(super) reference: bool,
}

impl PlanOptions {
    /// The planner-free reference evaluator: full scans, nested-loop joins
    /// in FROM order, one WHERE filter above the joins, full sort +
    /// truncate — straight-line over materialized rows.
    pub fn naive() -> Self {
        PlanOptions { reference: true }
    }
}

// ---- binding (shared with the DML paths in `engine`) -----------------------

/// Name-resolution scope: `(alias, column, position)` triples over the
/// (possibly joined) input row.
pub(super) struct Scope {
    pub(super) entries: Vec<(String, String, usize)>,
}

impl Scope {
    pub(super) fn empty() -> Scope {
        Scope { entries: Vec::new() }
    }

    pub(super) fn from_table(alias: &str, schema: &Schema) -> Scope {
        Scope {
            entries: schema
                .columns()
                .iter()
                .enumerate()
                .map(|(i, c)| (alias.to_ascii_lowercase(), c.name.to_ascii_lowercase(), i))
                .collect(),
        }
    }

    pub(super) fn join(mut self, alias: &str, schema: &Schema) -> Scope {
        let base = self.entries.len();
        self.entries.extend(schema.columns().iter().enumerate().map(|(i, c)| {
            (alias.to_ascii_lowercase(), c.name.to_ascii_lowercase(), base + i)
        }));
        self
    }

    pub(super) fn resolve(&self, col: &ColRef) -> DbResult<usize> {
        let want_col = col.column.to_ascii_lowercase();
        let want_tbl = col.table.as_ref().map(|t| t.to_ascii_lowercase());
        let matches: Vec<usize> = self
            .entries
            .iter()
            .filter(|(tbl, c, _)| {
                c == &want_col && want_tbl.as_ref().is_none_or(|w| w == tbl)
            })
            .map(|&(_, _, i)| i)
            .collect();
        match matches.as_slice() {
            [one] => Ok(*one),
            [] => Err(DbError::NoSuchColumn(display_col(col))),
            _ => Err(DbError::TypeError(format!("ambiguous column {}", display_col(col)))),
        }
    }
}

pub(super) fn display_col(c: &ColRef) -> String {
    match &c.table {
        Some(t) => format!("{t}.{}", c.column),
        None => c.column.clone(),
    }
}

/// Bind a scalar SQL expression (no aggregates allowed).
pub(super) fn bind(expr: &SqlExpr, scope: &Scope) -> DbResult<Expr> {
    Ok(match expr {
        SqlExpr::Col(c) => Expr::Col(scope.resolve(c)?),
        SqlExpr::Null => Expr::Lit(Value::Null),
        SqlExpr::Number(n) => Expr::Lit(Value::Float(*n)),
        SqlExpr::Integer(i) => Expr::Lit(Value::BigInt(*i)),
        SqlExpr::Str(s) => Expr::Lit(Value::Text(s.clone())),
        SqlExpr::Neg(e) => Expr::Bin(
            BinOp::Sub,
            Box::new(Expr::Lit(Value::Float(0.0))),
            Box::new(bind(e, scope)?),
        ),
        SqlExpr::Bin { op, left, right } => Expr::Bin(
            bin_op(*op),
            Box::new(bind(left, scope)?),
            Box::new(bind(right, scope)?),
        ),
        SqlExpr::Between { expr, lo, hi } => Expr::Between(
            Box::new(bind(expr, scope)?),
            Box::new(bind(lo, scope)?),
            Box::new(bind(hi, scope)?),
        ),
        SqlExpr::IsNull { expr, negated } => {
            let is_null = Expr::IsNull(Box::new(bind(expr, scope)?));
            if *negated {
                Expr::Not(Box::new(is_null))
            } else {
                is_null
            }
        }
        SqlExpr::Not(e) => Expr::Not(Box::new(bind(e, scope)?)),
        SqlExpr::Func { name, args } => {
            let unary = |f: Func, args: &[SqlExpr]| -> DbResult<Expr> {
                if args.len() != 1 {
                    return Err(DbError::TypeError(format!("{name} takes one argument")));
                }
                Ok(Expr::Call(f, Box::new(bind(&args[0], scope)?)))
            };
            match name.as_str() {
                "ABS" => unary(Func::Abs, args)?,
                "LOG" => unary(Func::Log, args)?,
                "FLOOR" => unary(Func::Floor, args)?,
                "SQRT" => unary(Func::Sqrt, args)?,
                "POWER" => {
                    if args.len() != 2 {
                        return Err(DbError::TypeError("POWER takes two arguments".into()));
                    }
                    Expr::Power(
                        Box::new(bind(&args[0], scope)?),
                        Box::new(bind(&args[1], scope)?),
                    )
                }
                other => return Err(DbError::TypeError(format!("unknown function {other}"))),
            }
        }
        SqlExpr::Agg { .. } => {
            return Err(DbError::TypeError(
                "aggregate not allowed here (only in the SELECT list)".into(),
            ))
        }
    })
}

pub(super) fn bin_op(op: SqlBinOp) -> BinOp {
    match op {
        SqlBinOp::Add => BinOp::Add,
        SqlBinOp::Sub => BinOp::Sub,
        SqlBinOp::Mul => BinOp::Mul,
        SqlBinOp::Div => BinOp::Div,
        SqlBinOp::Eq => BinOp::Eq,
        SqlBinOp::Ne => BinOp::Ne,
        SqlBinOp::Lt => BinOp::Lt,
        SqlBinOp::Le => BinOp::Le,
        SqlBinOp::Gt => BinOp::Gt,
        SqlBinOp::Ge => BinOp::Ge,
        SqlBinOp::And => BinOp::And,
        SqlBinOp::Or => BinOp::Or,
    }
}

fn agg_of(func: &AggFunc) -> exec::Agg {
    match func {
        AggFunc::Count => exec::Agg::Count,
        AggFunc::Min => exec::Agg::Min,
        AggFunc::Max => exec::Agg::Max,
        AggFunc::Sum => exec::Agg::Sum,
        AggFunc::Avg => exec::Agg::Avg,
    }
}

fn output_name(expr: &SqlExpr, alias: &Option<String>) -> String {
    if let Some(a) = alias {
        return a.clone();
    }
    match expr {
        SqlExpr::Col(c) => c.column.clone(),
        SqlExpr::Agg { func, .. } => format!("{func:?}").to_ascii_lowercase(),
        _ => "expr".to_owned(),
    }
}

fn dedup_names(names: &mut [String]) {
    for i in 0..names.len() {
        let mut n = 1;
        for j in 0..i {
            if names[j].eq_ignore_ascii_case(&names[i]) {
                n += 1;
            }
        }
        if n > 1 {
            names[i] = format!("{}_{n}", names[i]);
        }
    }
}

// ---- physical plan ----------------------------------------------------------

/// Physical access path for one base table.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Access {
    /// Scan every stored row.
    Full,
    /// B-tree range over the clustered key between two key prefixes
    /// (inclusive, prefix semantics as in `Database::range_scan_prefix_raw`).
    ClusteredRange {
        /// Low key prefix.
        lo: Vec<Value>,
        /// High key prefix (admits every extension).
        hi: Vec<Value>,
        /// Leading key columns the range bounds.
        bounded: usize,
    },
    /// B-tree range over a secondary index. An entry holds the index
    /// columns and the clustering key (`Database::index_entry_cols`).
    Index {
        /// Index name.
        name: String,
        /// Low index-key prefix.
        lo: Vec<Value>,
        /// High index-key prefix.
        hi: Vec<Value>,
        /// Leading index columns the range bounds.
        bounded: usize,
        /// Conjunction of the pushed conjuncts that reference only entry
        /// columns: evaluated on the entry, before any row is read (and,
        /// as part of `ScanNode::pred`, again on every row that is).
        key_pred: Option<Expr>,
        /// Number of conjuncts in `key_pred`.
        key_pred_count: usize,
        /// Every needed column is an entry column: the entries are the
        /// answer and no row is read.
        covered: bool,
    },
}

/// One base-table scan with its pushed-down residual predicate.
#[derive(Debug, Clone)]
pub(crate) struct ScanNode {
    pub table: String,
    pub alias: String,
    pub clustered: bool,
    pub access: Access,
    /// Conjunction of every pushed conjunct, over table-local positions.
    /// Always re-checked per row — the access-path bounds only narrow the
    /// B-tree range.
    pub pred: Option<Expr>,
    /// Number of pushed conjuncts (drives `stardb.plan.pushed_predicates`).
    pub pred_count: usize,
    /// `needed[c]`: something at or above this scan reads table column `c`
    /// — a pushed conjunct, a join key or predicate, a filter, the
    /// projection (hidden ORDER BY keys included), an aggregate argument or
    /// the group key. The scan decodes these columns and leaves the rest
    /// absent (`crate::colbatch`).
    pub needed: Vec<bool>,
    pub table_rows: u64,
    pub est_rows: u64,
}

/// The recognized zone-join band shape: an equi-band on an integer zone
/// column (`b.zoneid BETWEEN a.zoneid - dz AND a.zoneid + dz`) plus a
/// float RA window (`b.ra BETWEEN a.ra - w AND a.ra + w`). Left columns
/// are global (concatenated) positions; right columns are local to the
/// right table, matching the drained build side.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ZoneJoinSpec {
    /// Probe-side zone column, global position.
    pub left_zone: usize,
    /// Build-side zone column, right-local position.
    pub right_zone: usize,
    /// Zone half-band Δz (build rows within ±Δz zones qualify).
    pub dz: i64,
    /// Probe-side RA column, global position.
    pub left_ra: usize,
    /// Build-side RA column, right-local position.
    pub right_ra: usize,
    /// RA half-window in degrees.
    pub ra_w: f64,
}

/// How a join combines its inputs.
#[derive(Debug, Clone)]
pub(crate) enum JoinStrategy {
    /// Hash build on the right input, probe with the left.
    /// `right_col` is local to the right table.
    Hash { left_col: usize, right_col: usize },
    /// Nested loop over a bound predicate (concatenated positions).
    NestedLoop { on: Expr },
    /// Zone join: probe a [`crate::zonemap::ZoneMap`] of the right input
    /// for the zone-band × RA-window candidates, then re-evaluate the
    /// *full* original conjunction `on` (bands included) on each — a
    /// strict candidate-pruning of the nested loop, byte-identical output.
    /// `on` is compiled here, against the joined row, so EXPLAIN can say
    /// whether it runs as column kernels.
    Zone { spec: ZoneJoinSpec, on: VPredicate },
    /// No join predicate at all.
    Cross,
}

/// One join step: the right input scan, the strategy, and any residual
/// predicate applied to the concatenated rows after the join.
#[derive(Debug, Clone)]
pub(crate) struct JoinNode {
    pub right: ScanNode,
    pub strategy: JoinStrategy,
    pub post: Option<Expr>,
    pub post_count: usize,
}

/// Output slot of an aggregate SELECT list.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Slot {
    GroupKey,
    Agg(usize),
}

/// Projection or aggregation shape above the joined input.
pub(crate) enum OutputShape {
    /// Plain projection. The last `hidden` expressions are ORDER BY keys
    /// that did not survive projection; a `Cut` operator drops them after
    /// the sort.
    Plain { exprs: Vec<Expr>, hidden: usize },
    /// Sorted-group aggregation (see `exec::GroupState`).
    Aggregate {
        group_pos: Option<usize>,
        group_label: Option<String>,
        specs: Vec<exec::AggSpec>,
        slots: Vec<Slot>,
        /// Bound against the aggregate layout `[key?, agg0, ...]`.
        having: Option<Expr>,
    },
}

/// A planned SELECT: the one object both the streaming executor runs and
/// EXPLAIN renders, so the displayed plan cannot drift from the executed
/// one.
pub struct SelectPlan {
    /// Output column names (deduplicated for display).
    pub columns: Vec<String>,
    pub(crate) scan: ScanNode,
    pub(crate) joins: Vec<JoinNode>,
    /// Residual WHERE filter above the joins (constant-only conjuncts).
    pub(crate) filter: Option<Expr>,
    pub(crate) filter_count: usize,
    pub(crate) shape: OutputShape,
    pub(crate) distinct: bool,
    /// `(position, descending)` over the shape's output (incl. hidden).
    pub(crate) sort: Vec<(usize, bool)>,
    pub(crate) use_top_n: bool,
    pub(crate) limit: Option<usize>,
}

// ---- planning ---------------------------------------------------------------

/// One FROM/JOIN table resolved against the catalog.
pub(super) struct TableCtx {
    pub(super) name: String,
    alias: String,
    offset: usize,
    clustered: bool,
}

/// Stage 1 of planning: a SELECT with every name resolved to a position
/// and nothing rewritten. This is all the reference evaluator
/// ([`super::reference`]) takes from the planner.
pub(super) struct BoundSelect {
    /// The FROM table, then each JOIN table, in FROM order.
    pub(super) tables: Vec<TableCtx>,
    /// Column types of the concatenated row.
    dtypes: Vec<DataType>,
    /// One bound ON per join (`None` for CROSS), each over the
    /// concatenated columns of the tables joined so far.
    pub(super) ons: Vec<Option<Expr>>,
    /// The whole bound WHERE.
    pub(super) filter: Option<Expr>,
    /// Output column names (deduplicated for display).
    pub(super) columns: Vec<String>,
    pub(super) shape: OutputShape,
    /// `(position, descending)` over the shape's output (incl. hidden).
    pub(super) sort: Vec<(usize, bool)>,
}

/// Bind a SELECT's names against the catalog (stage 1).
pub(super) fn bind_select(db: &Database, s: &Select) -> DbResult<BoundSelect> {
    // ---- stage 1: logical plan (bind names, organize nodes) ----
    let from_schema = db.schema_of(&s.from.table)?;
    let mut dtypes: Vec<DataType> = from_schema.columns().iter().map(|c| c.dtype).collect();
    let mut scope = Scope::from_table(&s.from.alias, from_schema);
    let mut tables = vec![TableCtx {
        name: s.from.table.clone(),
        alias: s.from.alias.clone(),
        offset: 0,
        clustered: db.clustered_key_cols(&s.from.table).is_ok(),
    }];
    // Bound ON predicates, each over the scope of the tables joined so far.
    let mut ons: Vec<Option<Expr>> = Vec::new();
    for j in &s.joins {
        let right_schema = db.schema_of(&j.table.table)?;
        let offset = dtypes.len();
        dtypes.extend(right_schema.columns().iter().map(|c| c.dtype));
        scope = scope.join(&j.table.alias, right_schema);
        tables.push(TableCtx {
            name: j.table.table.clone(),
            alias: j.table.alias.clone(),
            offset,
            clustered: db.clustered_key_cols(&j.table.table).is_ok(),
        });
        ons.push(j.on.as_ref().map(|on| bind(on, &scope)).transpose()?);
    }
    let filter = s.filter.as_ref().map(|f| bind(f, &scope)).transpose()?;

    // ---- output shape and sort keys ----
    let has_agg = s.items.iter().any(|i| {
        matches!(i, SelectItem::Expr { expr: SqlExpr::Agg { .. }, .. })
    });
    if s.having.is_some() && !(has_agg || s.group_by.is_some()) {
        return Err(DbError::TypeError("HAVING requires GROUP BY or aggregates".into()));
    }
    let aggregated = has_agg || s.group_by.is_some();
    let (mut columns, mut shape) = if aggregated {
        plan_aggregate_shape(s, &scope)?
    } else {
        plan_plain_shape(s, &scope)?
    };

    // ORDER BY: prefer output columns (aliases); for plain selects a key
    // that did not survive projection is appended as a hidden projection
    // column and cut after the sort.
    let mut sort: Vec<(usize, bool)> = Vec::new();
    for item in &s.order_by {
        let name = display_col(&item.col).to_ascii_lowercase();
        let bare = item.col.column.to_ascii_lowercase();
        let pos = columns.iter().position(|c| {
            let cl = c.to_ascii_lowercase();
            cl == name || cl == bare
        });
        let pos = match (pos, &mut shape) {
            (Some(p), _) => p,
            (None, OutputShape::Plain { exprs, hidden }) => {
                if s.distinct {
                    return Err(DbError::TypeError(format!(
                        "ORDER BY column {} must appear in the SELECT list when \
                         SELECT DISTINCT is used",
                        display_col(&item.col)
                    )));
                }
                exprs.push(Expr::Col(scope.resolve(&item.col)?));
                *hidden += 1;
                exprs.len() - 1
            }
            (None, OutputShape::Aggregate { .. }) => {
                return Err(DbError::TypeError(format!(
                    "ORDER BY column {} must appear in the SELECT list",
                    display_col(&item.col)
                )))
            }
        };
        sort.push((pos, item.desc));
    }
    dedup_names(&mut columns);
    Ok(BoundSelect { tables, dtypes, ons, filter, columns, shape, sort })
}

/// Build the physical plan for a SELECT: bind, then always apply every
/// rewrite (stages 2 and 3).
pub(crate) fn plan_select(db: &Database, s: &Select) -> DbResult<SelectPlan> {
    let BoundSelect { tables, dtypes, ons, filter: where_bound, columns, shape, sort } =
        bind_select(db, s)?;

    // Every column the statement reads, over the concatenated row. HAVING
    // and the sort keys address the shape's output, not table columns.
    let mut read = vec![false; dtypes.len()];
    let mut mark = |e: &Expr| e.for_each_col(&mut |c| read[c] = true);
    where_bound.iter().chain(ons.iter().flatten()).for_each(&mut mark);
    match &shape {
        OutputShape::Plain { exprs, .. } => exprs.iter().for_each(&mut mark),
        OutputShape::Aggregate { group_pos, specs, .. } => {
            specs.iter().for_each(|spec| mark(&spec.arg));
            if let Some(g) = *group_pos {
                read[g] = true;
            }
        }
    }

    // ---- stage 2: planner rewrites ----
    // Conjuncts pushed to each table, re-based to table-local positions.
    let mut local: Vec<Vec<Expr>> = tables.iter().map(|_| Vec::new()).collect();
    // Conjuncts evaluated at join k (cross-table, over global positions).
    let mut at_join: Vec<Vec<Expr>> = ons.iter().map(|_| Vec::new()).collect();
    // Conjuncts with no column references.
    let mut residual: Vec<Expr> = Vec::new();

    let table_of = |col: usize| -> usize {
        tables.iter().rposition(|t| col >= t.offset).expect("col within scope")
    };
    let mut place = |conjunct: Expr| {
        let refs = conjunct.col_refs();
        let Some(&max_ref) = refs.last() else {
            residual.push(conjunct);
            return;
        };
        let last_table = table_of(max_ref);
        if table_of(refs[0]) == last_table {
            // Every reference lands in one table: push below the joins.
            // Safe for inner joins — filtering a base table early removes
            // only joined rows the predicate would have removed anyway.
            let off = tables[last_table].offset;
            local[last_table].push(conjunct.map_cols(&|c| c - off));
        } else {
            // Evaluated at the first join where every referenced table is
            // in scope (join k joins table k+1).
            at_join[last_table - 1].push(conjunct);
        }
    };
    for bound in where_bound.into_iter().chain(ons.into_iter().flatten()) {
        for c in bound.split_conjuncts() {
            place(c);
        }
    }

    // Join strategy: the zone-band shape beats everything (it prunes with
    // both bands at once); otherwise pick one well-typed cross-boundary
    // equality as a hash key; everything else stays as the nested-loop
    // predicate.
    let mut join_nodes: Vec<(JoinStrategy, Option<Expr>, usize)> = Vec::new();
    for (k, conjuncts) in at_join.into_iter().enumerate() {
        let right_off = tables[k + 1].offset;
        if let Some(spec) = zone_join_spec(&conjuncts, right_off, &dtypes) {
            let on = Expr::join_conjuncts(conjuncts).expect("zone join has conjuncts");
            let on = VPredicate::compile(&on, &dtypes);
            join_nodes.push((JoinStrategy::Zone { spec, on }, None, 0));
            continue;
        }
        let mut hash: Option<(usize, usize)> = None;
        let mut rest: Vec<Expr> = Vec::new();
        for c in conjuncts {
            if hash.is_none() {
                if let Some(key) = hash_key(&c, right_off, &dtypes) {
                    hash = Some(key);
                    continue;
                }
            }
            rest.push(c);
        }
        let count = rest.len();
        let node = match hash {
            Some((l, r)) => (
                JoinStrategy::Hash { left_col: l, right_col: r - right_off },
                Expr::join_conjuncts(rest),
                count,
            ),
            None => match Expr::join_conjuncts(rest) {
                Some(on) => (JoinStrategy::NestedLoop { on }, None, 0),
                None => (JoinStrategy::Cross, None, 0),
            },
        };
        join_nodes.push(node);
    }

    // Access paths: sargable bounds narrow a B-tree range per table.
    let mut scans: Vec<ScanNode> = Vec::new();
    for (i, (t, conjuncts)) in tables.iter().zip(local).enumerate() {
        let end = tables.get(i + 1).map_or(read.len(), |next| next.offset);
        scans.push(plan_scan(db, t, conjuncts, read[t.offset..end].to_vec())?);
    }
    let mut scans = scans.into_iter();
    let scan = scans.next().expect("FROM table");
    let joins: Vec<JoinNode> = scans
        .zip(join_nodes)
        .map(|(right, (strategy, post, post_count))| JoinNode {
            right,
            strategy,
            post,
            post_count,
        })
        .collect();

    let filter_count = residual.len();
    let filter = Expr::join_conjuncts(residual);
    let use_top_n = !sort.is_empty() && s.limit.is_some();
    Ok(SelectPlan {
        columns,
        scan,
        joins,
        filter,
        filter_count,
        shape,
        distinct: s.distinct,
        sort,
        use_top_n,
        limit: s.limit,
    })
}

/// Detect a hashable equi-join conjunct: `a.x = b.y` with the two columns
/// on opposite sides of the join boundary and sharing an *exact-equality*
/// type (integer or text), so hashing the key encoding agrees bit-for-bit
/// with the `=` predicate. Float keys stay on the nested loop: `-0.0 = 0.0`
/// is true for the predicate but the two encode differently. Returns
/// global positions `(left_col, right_col)`.
fn hash_key(conjunct: &Expr, right_off: usize, dtypes: &[DataType]) -> Option<(usize, usize)> {
    let Expr::Bin(BinOp::Eq, a, b) = conjunct else { return None };
    let (&Expr::Col(ia), &Expr::Col(ib)) = (a.as_ref(), b.as_ref()) else { return None };
    let (l, r) = match (ia < right_off, ib < right_off) {
        (true, false) => (ia, ib),
        (false, true) => (ib, ia),
        _ => return None,
    };
    let hashable = dtypes[l] == dtypes[r]
        && matches!(dtypes[l], DataType::BigInt | DataType::Int | DataType::Text);
    hashable.then_some((l, r))
}

/// Detect a symmetric band conjunct `right_col BETWEEN left_col - w AND
/// left_col + w` across the join boundary, with the same literal width on
/// both bounds. Returns `(left_col, right_col, width)` in global
/// positions.
fn band_conjunct(c: &Expr, right_off: usize) -> Option<(usize, usize, Value)> {
    let Expr::Between(v, lo, hi) = c else { return None };
    let &Expr::Col(rc) = v.as_ref() else { return None };
    if rc < right_off {
        return None;
    }
    let Expr::Bin(BinOp::Sub, ll, lw) = lo.as_ref() else { return None };
    let Expr::Bin(BinOp::Add, hl, hw) = hi.as_ref() else { return None };
    let (&Expr::Col(lc), Expr::Lit(wl)) = (ll.as_ref(), lw.as_ref()) else { return None };
    let (&Expr::Col(hc), Expr::Lit(wh)) = (hl.as_ref(), hw.as_ref()) else { return None };
    if lc != hc || lc >= right_off || wl != wh {
        return None;
    }
    Some((lc, rc, wl.clone()))
}

/// Recognize the zone-join shape among one join's conjuncts: an integer
/// zone band plus a float RA band (see [`ZoneJoinSpec`]). Any further
/// conjuncts (the great-circle distance residual) stay in the re-evaluated
/// conjunction, so the recognition only has to find the two prunable
/// bands.
fn zone_join_spec(
    conjuncts: &[Expr],
    right_off: usize,
    dtypes: &[DataType],
) -> Option<ZoneJoinSpec> {
    let mut zone: Option<(usize, usize, i64)> = None;
    let mut ra: Option<(usize, usize, f64)> = None;
    for c in conjuncts {
        let Some((l, r, w)) = band_conjunct(c, right_off) else { continue };
        let int_cols = matches!(dtypes[l], DataType::Int | DataType::BigInt)
            && matches!(dtypes[r], DataType::Int | DataType::BigInt);
        let float_cols = matches!(dtypes[l], DataType::Float | DataType::Real)
            && matches!(dtypes[r], DataType::Float | DataType::Real);
        if zone.is_none() && int_cols {
            let dz = match w {
                Value::Int(i) => i64::from(i),
                Value::BigInt(i) => i,
                _ => continue,
            };
            if dz >= 0 {
                zone = Some((l, r, dz));
                continue;
            }
        }
        if ra.is_none() && float_cols {
            let wv = match w {
                Value::Float(f) => f,
                Value::Real(f) => f64::from(f),
                Value::Int(i) => f64::from(i),
                Value::BigInt(i) => i as f64,
                _ => continue,
            };
            if wv.is_finite() && wv >= 0.0 {
                ra = Some((l, r, wv));
            }
        }
    }
    let ((lz, rz, dz), (lr, rr, ra_w)) = (zone?, ra?);
    Some(ZoneJoinSpec {
        left_zone: lz,
        right_zone: rz - right_off,
        dz,
        left_ra: lr,
        right_ra: rr - right_off,
        ra_w,
    })
}

/// Inclusive bounds a table's pushed conjuncts put on one column.
#[derive(Default, Clone)]
struct ColBounds {
    lo: Option<Value>,
    hi: Option<Value>,
}

impl ColBounds {
    fn tighten_lo(&mut self, v: Value) {
        if self.lo.as_ref().is_none_or(|old| v.total_cmp(old) == Ordering::Greater) {
            self.lo = Some(v);
        }
    }
    fn tighten_hi(&mut self, v: Value) {
        if self.hi.as_ref().is_none_or(|old| v.total_cmp(old) == Ordering::Less) {
            self.hi = Some(v);
        }
    }
}

/// Choose the access path for one base table from its pushed conjuncts.
fn plan_scan(
    db: &Database,
    t: &TableCtx,
    conjuncts: Vec<Expr>,
    needed: Vec<bool>,
) -> DbResult<ScanNode> {
    let pred_count = conjuncts.len();
    let stats = db.table_stats(&t.name)?;
    let mut access = Access::Full;
    let mut bounded = 0usize;
    if t.clustered && !conjuncts.is_empty() {
        let schema = db.schema_of(&t.name)?;
        let bounds = extract_bounds(&conjuncts, schema);
        if !bounds.is_empty() {
            // Candidate orders: the clustered key first, then each
            // secondary index in creation order — ties keep the earlier
            // candidate, so plan choice is deterministic.
            let key_cols = db.clustered_key_cols(&t.name)?;
            if let Some((lo, hi, n)) = prefix_range(&key_cols, &bounds) {
                access = Access::ClusteredRange { lo, hi, bounded: n };
                bounded = n;
            }
            for index in db.index_names(&t.name)? {
                let cols = db.index_key_cols(&t.name, &index)?;
                if let Some((lo, hi, n)) = prefix_range(&cols, &bounds) {
                    if n > bounded {
                        let entry = db.index_entry_cols(&t.name, &index)?;
                        let on_key: Vec<Expr> = conjuncts
                            .iter()
                            .filter(|c| c.col_refs().iter().all(|col| entry.contains(col)))
                            .cloned()
                            .collect();
                        let covered = (0..needed.len()).all(|c| !needed[c] || entry.contains(&c));
                        // A pushed conjunct's columns are needed columns.
                        debug_assert!(!covered || on_key.len() == conjuncts.len());
                        access = Access::Index {
                            name: index,
                            lo,
                            hi,
                            bounded: n,
                            key_pred_count: on_key.len(),
                            key_pred: Expr::join_conjuncts(on_key),
                            covered,
                        };
                        bounded = n;
                    }
                }
            }
        }
    }
    let est_rows = stats.estimate_scan(bounded, pred_count.saturating_sub(bounded));
    Ok(ScanNode {
        table: t.name.clone(),
        alias: t.alias.clone(),
        clustered: t.clustered,
        access,
        pred: Expr::join_conjuncts(conjuncts),
        pred_count,
        needed,
        table_rows: stats.rows,
        est_rows,
    })
}

/// Per-column inclusive bounds from a table's pushed conjuncts (local
/// positions). Only constant comparisons against bare columns qualify, and
/// each bound is coerced into the column's key-encoding family — or
/// dropped, leaving the conjunct to the residual predicate.
fn extract_bounds(conjuncts: &[Expr], schema: &Schema) -> HashMap<usize, ColBounds> {
    let mut bounds: HashMap<usize, ColBounds> = HashMap::new();
    for c in conjuncts {
        let Some((col, lo, hi)) = conjunct_interval(c) else { continue };
        let dtype = schema.columns()[col].dtype;
        let slot = bounds.entry(col).or_default();
        if let Some(v) = lo.and_then(|v| coerce_bound(&v, dtype, true)) {
            slot.tighten_lo(v);
        }
        if let Some(v) = hi.and_then(|v| coerce_bound(&v, dtype, false)) {
            slot.tighten_hi(v);
        }
    }
    bounds.retain(|_, b| b.lo.is_some() || b.hi.is_some());
    bounds
}

/// `(column, lo, hi)` interval of one conjunct, if it is sargable.
fn conjunct_interval(c: &Expr) -> Option<(usize, Option<Value>, Option<Value>)> {
    match c {
        Expr::Bin(op, a, b) => {
            // Normalize to column-on-the-left, flipping the comparison.
            let (col, konst, op) = match (a.as_ref(), b.as_ref()) {
                (&Expr::Col(i), k) if k.col_refs().is_empty() => (i, k, *op),
                (k, &Expr::Col(i)) if k.col_refs().is_empty() => (i, k, flip(*op)?),
                _ => return None,
            };
            let v = konst.eval(&Row(vec![])).ok()?;
            if v.is_null() {
                return None;
            }
            match op {
                BinOp::Eq => Some((col, Some(v.clone()), Some(v))),
                BinOp::Lt | BinOp::Le => Some((col, None, Some(v))),
                BinOp::Gt | BinOp::Ge => Some((col, Some(v), None)),
                _ => None,
            }
        }
        Expr::Between(e, lo, hi) => {
            let &Expr::Col(i) = e.as_ref() else { return None };
            if !lo.col_refs().is_empty() || !hi.col_refs().is_empty() {
                return None;
            }
            let lo = lo.eval(&Row(vec![])).ok().filter(|v| !v.is_null());
            let hi = hi.eval(&Row(vec![])).ok().filter(|v| !v.is_null());
            if lo.is_none() && hi.is_none() {
                return None;
            }
            Some((i, lo, hi))
        }
        _ => None,
    }
}

fn flip(op: BinOp) -> Option<BinOp> {
    Some(match op {
        BinOp::Eq => BinOp::Eq,
        BinOp::Lt => BinOp::Gt,
        BinOp::Le => BinOp::Ge,
        BinOp::Gt => BinOp::Lt,
        BinOp::Ge => BinOp::Le,
        _ => return None,
    })
}

/// Coerce a constant bound into `dtype`'s key-encoding family, or `None`
/// when no lossless range bound exists (the residual predicate still
/// applies the exact comparison). Strict bounds (`<`, `>`) are widened to
/// inclusive ones — again, the residual predicate re-tightens.
fn coerce_bound(v: &Value, dtype: DataType, is_lo: bool) -> Option<Value> {
    match dtype {
        DataType::Int | DataType::BigInt => match v {
            Value::Int(i) => Some(Value::BigInt(i64::from(*i))),
            Value::BigInt(i) => Some(Value::BigInt(*i)),
            Value::Real(f) => int_bound(f64::from(*f), is_lo),
            Value::Float(f) => int_bound(*f, is_lo),
            _ => None,
        },
        DataType::Real | DataType::Float => match v {
            Value::Int(_) | Value::BigInt(_) | Value::Real(_) | Value::Float(_) => {
                let f = v.as_f64().ok()?;
                // The comparison holds -0.0 equal to 0.0; the key codec
                // orders it first. A zero bound must admit both.
                let zero = if is_lo { -0.0 } else { 0.0 };
                Some(Value::Float(if f == 0.0 { zero } else { f }))
            }
            _ => None,
        },
        DataType::Text => match v {
            Value::Text(_) => Some(v.clone()),
            _ => None,
        },
    }
}

/// Snap a float bound inward onto the integers; out-of-range bounds are
/// unusable (the scan falls back to the residual predicate).
fn int_bound(f: f64, is_lo: bool) -> Option<Value> {
    let snapped = if is_lo { f.ceil() } else { f.floor() };
    if !snapped.is_finite() || snapped < i64::MIN as f64 || snapped > i64::MAX as f64 {
        return None;
    }
    Some(Value::BigInt(snapped as i64))
}

/// Build inclusive lo/hi key prefixes over `key_cols` from per-column
/// bounds: equality bounds extend the prefix, the first non-equality bound
/// ends it. Returns `None` when the leading key column is unbounded.
fn prefix_range(
    key_cols: &[usize],
    bounds: &HashMap<usize, ColBounds>,
) -> Option<(Vec<Value>, Vec<Value>, usize)> {
    let mut lo: Vec<Value> = Vec::new();
    let mut hi: Vec<Value> = Vec::new();
    let mut bounded = 0usize;
    for &col in key_cols {
        let Some(b) = bounds.get(&col) else { break };
        bounded += 1;
        match (&b.lo, &b.hi) {
            (Some(l), Some(h)) if l.total_cmp(h) == Ordering::Equal => {
                // Point bound: extend both prefixes and keep going.
                lo.push(l.clone());
                hi.push(h.clone());
            }
            (l, h) => {
                if let Some(l) = l {
                    lo.push(l.clone());
                }
                if let Some(h) = h {
                    hi.push(h.clone());
                }
                break;
            }
        }
    }
    (bounded > 0).then_some((lo, hi, bounded))
}

fn plan_plain_shape(s: &Select, scope: &Scope) -> DbResult<(Vec<String>, OutputShape)> {
    let mut columns = Vec::new();
    let mut exprs = Vec::new();
    for item in &s.items {
        match item {
            SelectItem::Wildcard => {
                for (_, col, pos) in &scope.entries {
                    columns.push(col.clone());
                    exprs.push(Expr::Col(*pos));
                }
            }
            SelectItem::Expr { expr, alias } => {
                columns.push(output_name(expr, alias));
                exprs.push(bind(expr, scope)?);
            }
        }
    }
    Ok((columns, OutputShape::Plain { exprs, hidden: 0 }))
}

fn plan_aggregate_shape(s: &Select, scope: &Scope) -> DbResult<(Vec<String>, OutputShape)> {
    let group_pos = s.group_by.as_ref().map(|c| scope.resolve(c)).transpose()?;
    let mut columns = Vec::new();
    let mut slots = Vec::new();
    let mut specs: Vec<exec::AggSpec> = Vec::new();
    for item in &s.items {
        match item {
            SelectItem::Wildcard => {
                return Err(DbError::TypeError("SELECT * cannot be aggregated".into()))
            }
            SelectItem::Expr { expr, alias } => {
                columns.push(output_name(expr, alias));
                match expr {
                    SqlExpr::Agg { func, arg } => {
                        let arg = match arg {
                            Some(e) => bind(e, scope)?,
                            None => Expr::lit(0i32),
                        };
                        slots.push(Slot::Agg(specs.len()));
                        specs.push(exec::AggSpec { agg: agg_of(func), arg });
                    }
                    SqlExpr::Col(c) => {
                        let pos = scope.resolve(c)?;
                        if group_pos != Some(pos) {
                            return Err(DbError::TypeError(format!(
                                "column {} must appear in GROUP BY",
                                display_col(c)
                            )));
                        }
                        slots.push(Slot::GroupKey);
                    }
                    _ => {
                        return Err(DbError::TypeError(
                            "SELECT list with aggregates may only contain aggregates and the \
                             GROUP BY column"
                                .into(),
                        ))
                    }
                }
            }
        }
    }
    let having = s
        .having
        .as_ref()
        .map(|h| bind_having(h, scope, group_pos, &mut specs))
        .transpose()?;
    Ok((
        columns,
        OutputShape::Aggregate {
            group_pos,
            group_label: s.group_by.as_ref().map(display_col),
            specs,
            slots,
            having,
        },
    ))
}

/// Bind a HAVING predicate against the aggregate output layout
/// `[group_key?, agg0, agg1, ...]`: aggregate calls become references to
/// (possibly newly appended hidden) aggregate slots; a bare column
/// reference must be the GROUP BY column and becomes slot 0.
fn bind_having(
    expr: &SqlExpr,
    scope: &Scope,
    group_pos: Option<usize>,
    specs: &mut Vec<exec::AggSpec>,
) -> DbResult<Expr> {
    let key_offset = usize::from(group_pos.is_some());
    Ok(match expr {
        SqlExpr::Agg { func, arg } => {
            let bound_arg = match arg {
                Some(e) => bind(e, scope)?,
                None => Expr::lit(0i32),
            };
            let slot = specs.len();
            specs.push(exec::AggSpec { agg: agg_of(func), arg: bound_arg });
            Expr::Col(key_offset + slot)
        }
        SqlExpr::Col(c) => {
            let pos = scope.resolve(c)?;
            if group_pos != Some(pos) {
                return Err(DbError::TypeError(format!(
                    "HAVING column {} must be the GROUP BY column or an aggregate",
                    display_col(c)
                )));
            }
            Expr::Col(0)
        }
        SqlExpr::Null => Expr::Lit(Value::Null),
        SqlExpr::Number(n) => Expr::Lit(Value::Float(*n)),
        SqlExpr::Integer(i) => Expr::Lit(Value::BigInt(*i)),
        SqlExpr::Str(t) => Expr::Lit(Value::Text(t.clone())),
        SqlExpr::Neg(e) => Expr::Bin(
            BinOp::Sub,
            Box::new(Expr::Lit(Value::Float(0.0))),
            Box::new(bind_having(e, scope, group_pos, specs)?),
        ),
        SqlExpr::Bin { op, left, right } => Expr::Bin(
            bin_op(*op),
            Box::new(bind_having(left, scope, group_pos, specs)?),
            Box::new(bind_having(right, scope, group_pos, specs)?),
        ),
        SqlExpr::Between { expr, lo, hi } => Expr::Between(
            Box::new(bind_having(expr, scope, group_pos, specs)?),
            Box::new(bind_having(lo, scope, group_pos, specs)?),
            Box::new(bind_having(hi, scope, group_pos, specs)?),
        ),
        SqlExpr::IsNull { expr, negated } => {
            let inner = Expr::IsNull(Box::new(bind_having(expr, scope, group_pos, specs)?));
            if *negated {
                Expr::Not(Box::new(inner))
            } else {
                inner
            }
        }
        SqlExpr::Not(e) => Expr::Not(Box::new(bind_having(e, scope, group_pos, specs)?)),
        SqlExpr::Func { .. } => {
            return Err(DbError::TypeError(
                "scalar functions over aggregates are not supported in HAVING".into(),
            ))
        }
    })
}

// ---- EXPLAIN rendering ------------------------------------------------------

fn plural(n: usize) -> &'static str {
    if n == 1 {
        "predicate"
    } else {
        "predicates"
    }
}

fn scan_line(s: &ScanNode) -> String {
    let order = if s.clustered { "clustered order" } else { "heap order" };
    let read = s.needed.iter().filter(|&&n| n).count();
    let cols = s.needed.len();
    match &s.access {
        Access::Full => {
            if s.pred_count == 0 {
                format!(
                    "scan {} AS {} ({} rows, {order}, reads {read} of {cols} cols)",
                    s.table, s.alias, s.table_rows
                )
            } else {
                format!(
                    "scan {} AS {} ({} rows, {order}, reads {read} of {cols} cols, \
                     pushed WHERE: {} {}, est {} rows)",
                    s.table,
                    s.alias,
                    s.table_rows,
                    s.pred_count,
                    plural(s.pred_count),
                    s.est_rows
                )
            }
        }
        Access::ClusteredRange { bounded, .. } => format!(
            "clustered index range scan {} AS {} ({bounded} key cols bounded, \
             reads {read} of {cols} cols, pushed WHERE: {} {}, est {} of {} rows)",
            s.table,
            s.alias,
            s.pred_count,
            plural(s.pred_count),
            s.est_rows,
            s.table_rows
        ),
        Access::Index { name, bounded, key_pred_count, covered, .. } => {
            let rows = if *covered {
                "index-only".to_owned()
            } else {
                format!("lookup {read} of {cols} cols")
            };
            format!(
                "index range scan {} AS {} via {name} ({bounded} key cols bounded, \
                 {key_pred_count} of {} {} on key, {rows}, est {} of {} rows)",
                s.table,
                s.alias,
                s.pred_count,
                plural(s.pred_count),
                s.est_rows,
                s.table_rows
            )
        }
    }
}

/// Append an operator's ANALYZE annotation when profiling supplied one.
fn annotated(line: String, prof: Option<&OpProfile>) -> String {
    match prof {
        Some(p) => format!("{line}  {}", p.render()),
        None => line,
    }
}

impl SelectPlan {
    /// Render the plan as EXPLAIN lines, leaf-first in pipeline order.
    /// This renders the *same object* the executor runs — operator choice,
    /// indexes, pushed predicates, and row estimates included.
    pub(crate) fn render(&self) -> Vec<String> {
        self.render_lines(None)
    }

    /// Render the `EXPLAIN ANALYZE` tree: the exact lines of [`render`],
    /// each annotated with the matching operator's observed
    /// `(actual: rows=… batches=… time=…)`. `prof` must come from running
    /// this very plan ([`super::physical::run_profiled`]), which is the
    /// only way one is ever produced — so annotation and execution cannot
    /// drift.
    ///
    /// [`render`]: SelectPlan::render
    pub(crate) fn render_analyze(&self, prof: &PlanProfile) -> Vec<String> {
        self.render_lines(Some(prof))
    }

    /// Shared renderer: one line per operator, in pipeline order, with
    /// optional profile annotations zipped node-for-node against the plan
    /// shape. Both render paths go through here, so ANALYZE output always
    /// `starts_with` the plain EXPLAIN output line for line.
    fn render_lines(&self, prof: Option<&PlanProfile>) -> Vec<String> {
        let mut out = vec![annotated(scan_line(&self.scan), prof.map(|p| &p.scan))];
        for (i, j) in self.joins.iter().enumerate() {
            let jp = prof.and_then(|p| p.joins.get(i));
            let r = &j.right;
            out.push(annotated(
                match &j.strategy {
                    JoinStrategy::Cross => {
                        format!("cross join {} ({} rows)", r.table, r.table_rows)
                    }
                    JoinStrategy::Hash { .. } => format!(
                        "hash inner join {} AS {} ({} rows) on equality",
                        r.table, r.alias, r.table_rows
                    ),
                    JoinStrategy::NestedLoop { .. } => format!(
                        "nested-loop inner join {} AS {} ({} rows) on predicate",
                        r.table, r.alias, r.table_rows
                    ),
                    JoinStrategy::Zone { spec, on } => format!(
                        "zone join {} AS {} ({} rows) within ±{} zones, ra ±{} deg, \
                         on {} predicate",
                        r.table,
                        r.alias,
                        r.table_rows,
                        spec.dz,
                        spec.ra_w,
                        if on.is_compiled() { "compiled" } else { "interpreted" }
                    ),
                },
                jp.map(|p| &p.join),
            ));
            // A build side worth a line of its own: one that is not simply
            // the whole table, or one that may not be scanned at all.
            let zone = matches!(j.strategy, JoinStrategy::Zone { .. });
            if r.pred_count > 0 || r.access != Access::Full || zone {
                let line = format!("  └ {}", scan_line(r));
                out.push(match jp {
                    // Served from the zone-join cache: no scan ran.
                    Some(p) if p.build_cached => {
                        format!("{line}  (actual: cached rows={})", p.build.rows)
                    }
                    _ => annotated(line, jp.map(|p| &p.build)),
                });
            }
            if j.post_count > 0 {
                out.push(annotated(
                    format!(
                        "filter after join ({} residual {})",
                        j.post_count,
                        plural(j.post_count)
                    ),
                    jp.and_then(|p| p.post.as_ref()),
                ));
            }
        }
        if self.filter.is_some() {
            out.push(annotated(
                format!("filter (WHERE, {} {})", self.filter_count, plural(self.filter_count)),
                prof.and_then(|p| p.filter.as_ref()),
            ));
        }
        match &self.shape {
            OutputShape::Aggregate { group_label, having, .. } => {
                out.push(annotated(
                    match group_label {
                        Some(g) => format!("aggregate GROUP BY {g}"),
                        None => "aggregate (global)".to_owned(),
                    },
                    prof.map(|p| &p.output),
                ));
                if having.is_some() {
                    // The aggregate applies HAVING internally, so this line
                    // reports the groups it discarded rather than a second
                    // copy of the operator tally.
                    let line = "filter groups (HAVING)".to_owned();
                    out.push(match prof.and_then(|p| p.having_pruned) {
                        Some(n) => format!(
                            "{line}  (actual: rows={} groups_pruned={n})",
                            prof.map_or(0, |p| p.output.rows)
                        ),
                        None => line,
                    });
                }
            }
            OutputShape::Plain { exprs, hidden } => {
                out.push(annotated(
                    format!("project {} columns", exprs.len() - hidden),
                    prof.map(|p| &p.output),
                ));
            }
        }
        if self.distinct {
            out.push(annotated("distinct".to_owned(), prof.and_then(|p| p.distinct.as_ref())));
        }
        if self.use_top_n {
            out.push(annotated(
                format!(
                    "top-n heap (sort by {} keys, limit {})",
                    self.sort.len(),
                    self.limit.unwrap_or(0)
                ),
                prof.and_then(|p| p.top_n.as_ref()),
            ));
        } else {
            if !self.sort.is_empty() {
                out.push(annotated(
                    format!("sort by {} keys", self.sort.len()),
                    prof.and_then(|p| p.sort.as_ref()),
                ));
            }
            if let Some(n) = self.limit {
                out.push(annotated(
                    format!("limit {n}"),
                    prof.and_then(|p| p.limit.as_ref()),
                ));
            }
        }
        out
    }
}

// ---- sargable bounds at the AST level ---------------------------------------

/// The inclusive numeric interval a SELECT's WHERE clause imposes on
/// `column`, extracted from top-level AND conjuncts (`BETWEEN`, `<`, `<=`,
/// `>`, `>=`, `=` against constant numeric literals). Returns
/// `(lo, hi)` with `None` for an unbounded side, or `None` when the filter
/// places no sargable constraint on the column at all.
///
/// This is the distributed planner's shard-pruning probe: the fabric
/// intersects the interval with each shard's zone range to decide which
/// nodes a subquery must visit, so it deliberately works on the *AST*
/// (before binding) and is conservative — anything it cannot prove
/// constant-bounded simply widens the interval. Strict bounds are kept
/// inclusive; pruning only needs a superset of the touched range.
pub fn column_interval(s: &Select, column: &str) -> Option<(Option<f64>, Option<f64>)> {
    let filter = s.filter.as_ref()?;
    let mut lo: Option<f64> = None;
    let mut hi: Option<f64> = None;
    let mut found = false;
    let mut stack: Vec<&SqlExpr> = vec![filter];
    while let Some(e) = stack.pop() {
        match e {
            SqlExpr::Bin { op: SqlBinOp::And, left, right } => {
                stack.push(left);
                stack.push(right);
            }
            SqlExpr::Bin { op, left, right } => {
                let (col_side, lit_side, op) = match (is_col(left, column), is_col(right, column)) {
                    (true, _) => (left, right, *op),
                    (_, true) => (right, left, flip_sql(*op)),
                    _ => continue,
                };
                let _ = col_side;
                let Some(v) = const_num(lit_side) else { continue };
                match op {
                    SqlBinOp::Eq => {
                        tighten(&mut lo, v, true);
                        tighten(&mut hi, v, false);
                        found = true;
                    }
                    SqlBinOp::Lt | SqlBinOp::Le => {
                        tighten(&mut hi, v, false);
                        found = true;
                    }
                    SqlBinOp::Gt | SqlBinOp::Ge => {
                        tighten(&mut lo, v, true);
                        found = true;
                    }
                    _ => {}
                }
            }
            SqlExpr::Between { expr, lo: l, hi: h } => {
                if !is_col(expr, column) {
                    continue;
                }
                if let Some(v) = const_num(l) {
                    tighten(&mut lo, v, true);
                    found = true;
                }
                if let Some(v) = const_num(h) {
                    tighten(&mut hi, v, false);
                    found = true;
                }
            }
            _ => {}
        }
    }
    found.then_some((lo, hi))
}

/// The ±Δzone half-band a query's zone-join conjunct imposes between two
/// references to `column`, extracted from the WHERE clause and every JOIN
/// ON clause at the AST level: `x.column BETWEEN y.column - dz AND
/// y.column + dz` with the same non-negative integer literal on both
/// bounds. Returns `dz`, or `None` when no such conjunct exists.
///
/// Like [`column_interval`], this is a distributed-planner probe: the
/// fabric compares the band against its co-partitioned halo width to
/// decide whether a cross-match can run shard-local.
pub fn zone_band_halo(s: &Select, column: &str) -> Option<i64> {
    let mut stack: Vec<&SqlExpr> = Vec::new();
    if let Some(f) = s.filter.as_ref() {
        stack.push(f);
    }
    for j in &s.joins {
        if let Some(on) = j.on.as_ref() {
            stack.push(on);
        }
    }
    while let Some(e) = stack.pop() {
        match e {
            SqlExpr::Bin { op: SqlBinOp::And, left, right } => {
                stack.push(left);
                stack.push(right);
            }
            SqlExpr::Between { expr, lo, hi } => {
                if !is_col(expr, column) {
                    continue;
                }
                let band = |bound: &SqlExpr, sub: bool| -> Option<i64> {
                    let SqlExpr::Bin { op, left, right } = bound else { return None };
                    let want = if sub { SqlBinOp::Sub } else { SqlBinOp::Add };
                    if *op != want || !is_col(left, column) {
                        return None;
                    }
                    match right.as_ref() {
                        SqlExpr::Integer(i) if *i >= 0 => Some(*i),
                        _ => None,
                    }
                };
                if let (Some(a), Some(b)) = (band(lo, true), band(hi, false)) {
                    if a == b {
                        return Some(a);
                    }
                }
            }
            _ => {}
        }
    }
    None
}

fn is_col(e: &SqlExpr, column: &str) -> bool {
    matches!(e, SqlExpr::Col(c) if c.column.eq_ignore_ascii_case(column))
}

fn const_num(e: &SqlExpr) -> Option<f64> {
    match e {
        SqlExpr::Number(f) => Some(*f),
        SqlExpr::Integer(i) => Some(*i as f64),
        SqlExpr::Neg(inner) => const_num(inner).map(|v| -v),
        _ => None,
    }
}

fn tighten(slot: &mut Option<f64>, v: f64, is_lo: bool) {
    *slot = Some(match *slot {
        None => v,
        Some(cur) if is_lo => cur.max(v),
        Some(cur) => cur.min(v),
    });
}

fn flip_sql(op: SqlBinOp) -> SqlBinOp {
    match op {
        SqlBinOp::Lt => SqlBinOp::Gt,
        SqlBinOp::Le => SqlBinOp::Ge,
        SqlBinOp::Gt => SqlBinOp::Lt,
        SqlBinOp::Ge => SqlBinOp::Le,
        other => other,
    }
}
