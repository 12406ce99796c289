//! The reference evaluator behind [`super::PlanOptions::naive`]: the
//! smallest SELECT implementation that can serve as a test oracle.
//!
//! Straight-line over fully materialized `Vec<Row>`s: full scan of every
//! FROM table → nested-loop / cross joins in FROM order → the whole WHERE
//! → projection or aggregation (+ HAVING) → DISTINCT → stable sort →
//! LIMIT → hidden-column cut. No streaming, no profiling, no strategies,
//! no planner counters.
//!
//! **Sharing contract.** It shares with the production path only what
//! defines the language — the parser, the binder
//! ([`super::plan::bind_select`], stage 1 of planning, before any
//! rewrite), and `Expr::eval` — plus the whole-`Vec<Row>` functions of
//! [`crate::exec`] (of which production uses only the stable sort and,
//! through its own columnar entry point, the aggregate accumulator). It
//! must not use the planner rewrites, the physical operators, column
//! batches, predicate kernels, zone maps, batched scans, or the top-N
//! heap: a bug in any of those cannot also be in the oracle, so
//! "planned ≡ reference" checks them.

use super::ast::Select;
use super::plan::{bind_select, BoundSelect, OutputShape, Slot};
use crate::db::Database;
use crate::error::DbResult;
use crate::exec;
use crate::row::Row;
use crate::value::Value;
use std::collections::HashSet;

/// Evaluate a SELECT, returning `(column names, rows)`.
pub(super) fn run_select(db: &Database, s: &Select) -> DbResult<(Vec<String>, Vec<Row>)> {
    let BoundSelect { tables, ons, filter, columns, shape, sort, .. } = bind_select(db, s)?;
    let mut tables = tables.iter();
    let mut rows = db.scan(&tables.next().expect("FROM table").name)?;
    for (table, on) in tables.zip(&ons) {
        let right = db.scan(&table.name)?;
        rows = match on {
            Some(on) => exec::nested_loop_join(&rows, &right, on)?,
            None => exec::cross_join(&rows, &right),
        };
    }
    if let Some(pred) = &filter {
        rows = exec::filter(rows, pred)?;
    }
    let mut rows = match &shape {
        // `exprs` ends with the hidden ORDER BY keys, cut after the sort.
        OutputShape::Plain { exprs, .. } => exec::project(&rows, exprs)?,
        OutputShape::Aggregate { group_pos, specs, slots, having, .. } => {
            let mut groups = exec::aggregate(&rows, *group_pos, specs)?;
            if groups.is_empty() && group_pos.is_none() {
                // A global aggregate over zero rows still yields one row:
                // COUNT is 0, everything else is NULL.
                let blank = specs.iter().map(|spec| match spec.agg {
                    exec::Agg::Count => Value::BigInt(0),
                    _ => Value::Null,
                });
                groups.push(Row(blank.collect()));
            }
            if let Some(having) = having {
                groups = exec::filter(groups, having)?;
            }
            // Group rows are `[key?, agg0, ...]`; the SELECT list picks from them.
            let key_offset = usize::from(group_pos.is_some());
            let pick = |g: &Row, slot: &Slot| match slot {
                Slot::GroupKey => g[0].clone(),
                Slot::Agg(i) => g[key_offset + i].clone(),
            };
            groups.iter().map(|g| Row(slots.iter().map(|slot| pick(g, slot)).collect())).collect()
        }
    };
    if s.distinct {
        let mut seen = HashSet::new();
        rows.retain(|row| seen.insert(row.encode()));
    }
    rows = exec::sort_by_keys(rows, &sort);
    if let Some(n) = s.limit {
        rows = exec::limit(rows, n);
    }
    for row in &mut rows {
        row.0.truncate(columns.len());
    }
    Ok((columns, rows))
}

#[cfg(test)]
mod tests {
    use crate::db::{Database, DbConfig};
    use crate::sql::{execute_with, PlanOptions};

    fn explain(d: &mut Database, sql: &str, opts: &PlanOptions) -> Vec<String> {
        let (_, rows) = execute_with(d, &format!("EXPLAIN {sql}"), opts).unwrap().rows().unwrap();
        rows.iter().map(|r| r[0].as_str().unwrap().to_owned()).collect()
    }

    /// The oracle is independent by construction: a `naive()` SELECT moves
    /// no planner, column-kernel, or zone-join counter and leaves no
    /// profile — while EXPLAIN under `naive()` still shows production.
    #[test]
    fn naive_select_touches_no_planner_path_or_column_kernel() {
        obs::set_enabled(true);
        let mut d = Database::new(DbConfig::in_memory());
        for t in ["A", "B"] {
            d.execute_sql(&format!(
                "CREATE TABLE {t} (id BIGINT PRIMARY KEY, zoneid INT NOT NULL, ra FLOAT NOT NULL)"
            ))
            .unwrap();
            d.execute_sql(&format!(
                "INSERT INTO {t} VALUES (1, 10, 180.0), (2, 11, 180.001), (3, 40, 20.0)"
            ))
            .unwrap();
        }
        // Exercises every production path the oracle must stay out of:
        // index range scan, pushdown, zone join, top-N.
        let sql = "SELECT a.id, b.id FROM A a JOIN B b \
                   ON b.zoneid BETWEEN a.zoneid - 1 AND a.zoneid + 1 \
                   AND b.ra BETWEEN a.ra - 0.01 AND a.ra + 0.01 \
                   WHERE a.id < 3 ORDER BY a.id, b.id LIMIT 3";
        // Run the planned path first so every counter family is registered
        // and a profile exists to be cleared.
        let planned = d.execute_sql(sql).unwrap().rows().unwrap();
        assert!(d.last_profile().is_some());
        let watched = || -> Vec<(String, u64)> {
            let mut counters = obs::MetricsSnapshot::capture().counters;
            counters.retain(|name, _| {
                ["stardb.plan.", "stardb.op.vector.", "stardb.op.zonejoin."]
                    .iter()
                    .any(|family| name.starts_with(family))
            });
            counters.into_iter().collect()
        };
        assert_eq!(watched().len(), 13, "counter families not all registered: {:?}", watched());
        // Counters are process-global and only grow, and other tests run
        // concurrently: one attempt with no movement proves the reference
        // moves none, while a reference that moved one would on every attempt.
        let quiet = (0..50).any(|_| {
            let before = watched();
            let naive = execute_with(&mut d, sql, &PlanOptions::naive()).unwrap().rows().unwrap();
            assert_eq!(naive, planned);
            assert!(d.last_profile().is_none());
            watched() == before
        });
        assert!(quiet, "the reference evaluator moved a planner or column-kernel counter");
        assert_eq!(planned.1.len(), 3);

        let production = explain(&mut d, sql, &PlanOptions::default());
        assert_eq!(explain(&mut d, sql, &PlanOptions::naive()), production);
        assert!(production[0].contains("clustered index range scan A"), "{production:?}");
        assert!(production.iter().any(|l| l.contains("zone join B")), "{production:?}");
        assert!(production.iter().any(|l| l.contains("top-n heap")), "{production:?}");
    }
}
