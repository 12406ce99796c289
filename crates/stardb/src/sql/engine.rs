//! Statement dispatch: SELECTs go through the query planner
//! ([`super::plan`]) and the streaming executor ([`super::physical`]) —
//! or, under [`PlanOptions::naive`], through the reference evaluator
//! ([`super::reference`]); DML and DDL bind and run directly.
//!
//! EXPLAIN renders the *same* [`super::plan::SelectPlan`] object the
//! executor runs, so the displayed plan — join strategy, chosen index,
//! pushed predicates, row estimates — cannot drift from execution.
//! `EXPLAIN ANALYZE` goes one step further: it executes that object and
//! annotates each rendered line with the observed per-operator profile.
//!
//! While telemetry is enabled ([`obs::enabled`]), every SELECT runs
//! profiled: its per-operator stats feed the `stardb.op.*` counters, its
//! wall time feeds the `stardb.query.latency_ns` histogram, and the full
//! [`QueryProfile`] is retained on the database for
//! [`Database::last_profile`]. With telemetry disabled, SELECTs take the
//! unprofiled path — no clock reads, no profile allocations.

use super::ast::*;
use super::physical::{self, QueryProfile};
use super::plan::{self, bind, PlanOptions, Scope};
use super::reference;
use crate::db::Database;
use crate::error::{DbError, DbResult};
use crate::row::Row;
use crate::schema::{Column, Schema};
use crate::value::{DataType, Value};
use std::sync::OnceLock;

/// Result of executing one statement.
#[derive(Debug, Clone, PartialEq)]
pub enum SqlOutput {
    /// A result set.
    Rows {
        /// Output column names.
        columns: Vec<String>,
        /// Result rows.
        rows: Vec<Row>,
    },
    /// Rows affected by INSERT/DELETE/TRUNCATE.
    Affected(u64),
    /// DDL completed.
    Done,
}

impl SqlOutput {
    /// The result set, or an error for non-SELECT outputs.
    pub fn rows(self) -> DbResult<(Vec<String>, Vec<Row>)> {
        match self {
            SqlOutput::Rows { columns, rows } => Ok((columns, rows)),
            other => Err(DbError::TypeError(format!("expected a result set, got {other:?}"))),
        }
    }
}

/// Parse and execute one SQL statement against `db` through the planner
/// and the production executor.
pub fn execute(db: &mut Database, sql: &str) -> DbResult<SqlOutput> {
    execute_with(db, sql, &PlanOptions::default())
}

/// Parse and execute one SQL statement, choosing the SELECT evaluator.
/// Only SELECT honors `opts`: `PlanOptions::naive()` routes it to the
/// reference evaluator used by the identity tests. EXPLAIN always renders
/// (and ANALYZE runs) the production plan; DML and DDL are unaffected.
pub fn execute_with(db: &mut Database, sql: &str, opts: &PlanOptions) -> DbResult<SqlOutput> {
    match super::parser::parse(sql)? {
        Stmt::Select(s) => run_select(db, &s, opts),
        Stmt::Explain { select, analyze } => explain_select(db, &select, analyze),
        Stmt::Insert { table, columns, rows } => run_insert(db, &table, columns, rows),
        Stmt::CreateTable { table, columns, primary_key } => {
            run_create(db, &table, columns, primary_key)
        }
        Stmt::DropTable { table } => {
            db.drop_table(&table)?;
            Ok(SqlOutput::Done)
        }
        Stmt::CreateIndex { index, table, columns } => {
            let cols: Vec<&str> = columns.iter().map(String::as_str).collect();
            db.create_index(&table, &index, &cols)?;
            Ok(SqlOutput::Done)
        }
        Stmt::DropIndex { index, table } => {
            db.drop_index(&table, &index)?;
            Ok(SqlOutput::Done)
        }
        Stmt::Truncate { table } => {
            db.truncate(&table)?;
            Ok(SqlOutput::Done)
        }
        Stmt::Update { table, assignments, filter } => {
            run_update(db, &table, assignments, filter)
        }
        Stmt::Delete { table, filter } => run_delete(db, &table, filter),
    }
}

// ---- SELECT -----------------------------------------------------------------

/// Per-query end-to-end latency (plan + execute), in nanoseconds.
/// Registered lazily on the first profiled SELECT; recording is a no-op
/// while telemetry is disabled.
fn query_latency() -> &'static obs::Histogram {
    static H: OnceLock<obs::Histogram> = OnceLock::new();
    H.get_or_init(|| obs::histogram("stardb.query.latency_ns"))
}

fn run_select(db: &Database, s: &Select, opts: &PlanOptions) -> DbResult<SqlOutput> {
    if opts.reference {
        // The oracle never profiles; clear any stale profile so callers
        // can't misattribute.
        db.set_last_profile(None);
        let (columns, rows) = reference::run_select(db, s)?;
        return Ok(SqlOutput::Rows { columns, rows });
    }
    let sel_plan = plan::plan_select(db, s)?;
    let rows = if obs::enabled() {
        let (rows, prof) = physical::run_profiled(db, &sel_plan)?;
        query_latency().record(prof.wall_ns);
        db.set_last_profile(Some(QueryProfile {
            lines: sel_plan.render_analyze(&prof),
            plan: prof,
        }));
        rows
    } else {
        // The unprofiled path: no clock reads, no profile allocations —
        // and any stale profile is cleared so callers can't misattribute.
        db.set_last_profile(None);
        physical::run(db, &sel_plan)?
    };
    Ok(SqlOutput::Rows { columns: sel_plan.columns, rows })
}

fn explain_select(db: &Database, s: &Select, analyze: bool) -> DbResult<SqlOutput> {
    let sel_plan = plan::plan_select(db, s)?;
    let lines = if analyze {
        // Execute the very plan object we are about to render — ANALYZE
        // profiles regardless of the telemetry switch, since it was asked
        // for explicitly.
        let (_, prof) = physical::run_profiled(db, &sel_plan)?;
        query_latency().record(prof.wall_ns);
        let lines = sel_plan.render_analyze(&prof);
        db.set_last_profile(Some(QueryProfile { lines: lines.clone(), plan: prof }));
        lines
    } else {
        sel_plan.render()
    };
    Ok(SqlOutput::Rows {
        columns: vec!["plan".to_owned()],
        rows: lines.into_iter().map(|p| Row(vec![Value::Text(p)])).collect(),
    })
}

// ---- INSERT / DELETE / CREATE ------------------------------------------------

/// Evaluate a literal expression (no column references).
fn literal(expr: &SqlExpr) -> DbResult<Value> {
    let bound = bind(expr, &Scope::empty())?;
    bound.eval(&Row(vec![]))
}

/// Coerce a literal to a column type (SQL implicit conversion for the
/// numeric family; NULL passes through).
fn coerce(v: Value, dtype: DataType) -> DbResult<Value> {
    if v.is_null() {
        return Ok(Value::Null);
    }
    Ok(match (dtype, &v) {
        (DataType::BigInt, _) => Value::BigInt(as_int(&v)?),
        (DataType::Int, _) => Value::Int(as_int(&v)? as i32),
        (DataType::Real, _) => Value::Real(v.as_f64()? as f32),
        (DataType::Float, _) => Value::Float(v.as_f64()?),
        (DataType::Text, Value::Text(_)) => v,
        (DataType::Text, other) => {
            return Err(DbError::TypeError(format!("cannot store {other} in a text column")))
        }
    })
}

fn as_int(v: &Value) -> DbResult<i64> {
    match v {
        Value::BigInt(i) => Ok(*i),
        Value::Int(i) => Ok(i64::from(*i)),
        Value::Real(f) if f.fract() == 0.0 => Ok(*f as i64),
        Value::Float(f) if f.fract() == 0.0 => Ok(*f as i64),
        other => Err(DbError::TypeError(format!("cannot store {other} in an integer column"))),
    }
}

fn run_insert(
    db: &mut Database,
    table: &str,
    columns: Option<Vec<String>>,
    rows: Vec<Vec<SqlExpr>>,
) -> DbResult<SqlOutput> {
    let schema = db.schema_of(table)?.clone();
    // Map each provided position to a schema position.
    let targets: Vec<usize> = match &columns {
        None => (0..schema.arity()).collect(),
        Some(cols) => cols.iter().map(|c| schema.col(c)).collect::<DbResult<_>>()?,
    };
    let mut n = 0;
    for row_exprs in rows {
        if row_exprs.len() != targets.len() {
            return Err(DbError::SchemaMismatch(format!(
                "INSERT provides {} values for {} columns",
                row_exprs.len(),
                targets.len()
            )));
        }
        let mut values = vec![Value::Null; schema.arity()];
        for (expr, &pos) in row_exprs.iter().zip(&targets) {
            values[pos] = coerce(literal(expr)?, schema.columns()[pos].dtype)?;
        }
        db.insert(table, Row(values))?;
        n += 1;
    }
    Ok(SqlOutput::Affected(n))
}

fn run_delete(db: &mut Database, table: &str, filter: Option<SqlExpr>) -> DbResult<SqlOutput> {
    let schema = db.schema_of(table)?.clone();
    if filter.is_none() {
        let n = db.row_count(table)?;
        db.truncate(table)?;
        return Ok(SqlOutput::Affected(n));
    }
    let scope = Scope::from_table(table, &schema);
    let pred = bind(&filter.expect("checked"), &scope)?;
    // Collect matching rows, then delete by clustered key.
    let mut matching = Vec::new();
    db.scan_with(table, |row| {
        if pred.matches(row)? {
            matching.push(row.clone());
        }
        Ok(true)
    })?;
    let key_cols = db.clustered_key_cols(table)?;
    let mut n = 0;
    for row in matching {
        let key: Vec<Value> = key_cols.iter().map(|&i| row[i].clone()).collect();
        if db.delete_by_key(table, &key)? {
            n += 1;
        }
    }
    Ok(SqlOutput::Affected(n))
}

fn run_update(
    db: &mut Database,
    table: &str,
    assignments: Vec<(String, SqlExpr)>,
    filter: Option<SqlExpr>,
) -> DbResult<SqlOutput> {
    let schema = db.schema_of(table)?.clone();
    let key_cols = db.clustered_key_cols(table)?;
    let scope = Scope::from_table(table, &schema);
    let mut assign_plan = Vec::with_capacity(assignments.len());
    for (col, expr) in &assignments {
        let pos = schema.col(col)?;
        if key_cols.contains(&pos) {
            return Err(DbError::TypeError(format!(
                "cannot assign clustered key column {col}"
            )));
        }
        assign_plan.push((pos, bind(expr, &scope)?));
    }
    let pred = filter.map(|f| bind(&f, &scope)).transpose()?;
    // Collect matching rows, then rewrite in place (delete + reinsert under
    // the same key, which also maintains secondary indexes).
    let mut matching = Vec::new();
    db.scan_with(table, |row| {
        let keep = match &pred {
            None => true,
            Some(p) => p.matches(row)?,
        };
        if keep {
            matching.push(row.clone());
        }
        Ok(true)
    })?;
    let mut n = 0;
    for row in matching {
        let mut new_row = row.clone();
        for (pos, expr) in &assign_plan {
            new_row.0[*pos] = coerce(expr.eval(&row)?, schema.columns()[*pos].dtype)?;
        }
        let key: Vec<Value> = key_cols.iter().map(|&i| row[i].clone()).collect();
        db.delete_by_key(table, &key)?;
        db.insert(table, new_row)?;
        n += 1;
    }
    Ok(SqlOutput::Affected(n))
}

fn run_create(
    db: &mut Database,
    table: &str,
    columns: Vec<ColumnDef>,
    primary_key: Option<Vec<String>>,
) -> DbResult<SqlOutput> {
    let cols: Vec<Column> = columns
        .iter()
        .map(|c| {
            let pk_col = primary_key
                .as_ref()
                .is_some_and(|pk| pk.iter().any(|p| p.eq_ignore_ascii_case(&c.name)));
            if c.not_null || pk_col {
                Column::new(&c.name, c.dtype)
            } else {
                Column::nullable(&c.name, c.dtype)
            }
        })
        .collect();
    let schema = Schema::new(cols);
    match primary_key {
        Some(pk) => {
            let pk_refs: Vec<&str> = pk.iter().map(String::as_str).collect();
            db.create_clustered_table(table, schema, &pk_refs)?;
        }
        None => db.create_table(table, schema)?,
    }
    Ok(SqlOutput::Done)
}
