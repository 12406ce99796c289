//! End-to-end SQL tests against a live database.

use super::engine::SqlOutput;
use crate::db::{Database, DbConfig};
use crate::error::DbError;
use crate::row::Row;
use crate::value::Value;

fn db() -> Database {
    let mut d = Database::new(DbConfig::in_memory());
    d.execute_sql(
        "CREATE TABLE Galaxy (objid BIGINT PRIMARY KEY, ra FLOAT NOT NULL, \
         dec FLOAT NOT NULL, i REAL, name VARCHAR(20))",
    )
    .unwrap();
    d.execute_sql(
        "INSERT INTO Galaxy VALUES \
         (1, 180.1, 0.5, 17.5, 'a'), \
         (2, 180.9, -0.5, 18.5, 'b'), \
         (3, 181.5, 0.1, 19.5, NULL), \
         (4, 182.0, 1.5, 20.5, 'd'), \
         (5, 183.0, 2.5, 21.0, 'e')",
    )
    .unwrap();
    d
}

fn rows(d: &mut Database, sql: &str) -> (Vec<String>, Vec<Row>) {
    d.execute_sql(sql).unwrap().rows().unwrap()
}

#[test]
fn select_star_and_column_order() {
    let mut d = db();
    let (cols, rs) = rows(&mut d, "SELECT * FROM Galaxy");
    assert_eq!(cols, vec!["objid", "ra", "dec", "i", "name"]);
    assert_eq!(rs.len(), 5);
    // Clustered order by objid.
    assert_eq!(rs[0].i64(0).unwrap(), 1);
}

#[test]
fn where_between_like_the_paper() {
    let mut d = db();
    let (_, rs) = rows(
        &mut d,
        "SELECT objid FROM Galaxy WHERE ra BETWEEN 180.5 AND 182.0 AND dec BETWEEN -1 AND 1",
    );
    let ids: Vec<i64> = rs.iter().map(|r| r.i64(0).unwrap()).collect();
    assert_eq!(ids, vec![2, 3]);
}

#[test]
fn expressions_aliases_and_functions() {
    let mut d = db();
    let (cols, rs) = rows(
        &mut d,
        "SELECT objid, POWER(i - 17.5, 2) AS dev, ABS(dec) FROM Galaxy WHERE objid <= 2",
    );
    assert_eq!(cols[1], "dev");
    assert_eq!(rs[0].f64(1).unwrap(), 0.0);
    assert_eq!(rs[1].f64(1).unwrap(), 1.0);
    assert_eq!(rs[0].f64(2).unwrap(), 0.5);
}

#[test]
fn order_by_desc_and_limit_and_top() {
    let mut d = db();
    let (_, rs) = rows(&mut d, "SELECT objid, i FROM Galaxy ORDER BY i DESC LIMIT 2");
    let ids: Vec<i64> = rs.iter().map(|r| r.i64(0).unwrap()).collect();
    assert_eq!(ids, vec![5, 4]);
    let (_, rs) = rows(&mut d, "SELECT TOP 1 objid FROM Galaxy ORDER BY ra DESC");
    assert_eq!(rs[0].i64(0).unwrap(), 5);
}

#[test]
fn is_null_and_text_compare() {
    let mut d = db();
    let (_, rs) = rows(&mut d, "SELECT objid FROM Galaxy WHERE name IS NULL");
    assert_eq!(rs.len(), 1);
    assert_eq!(rs[0].i64(0).unwrap(), 3);
    let (_, rs) = rows(&mut d, "SELECT objid FROM Galaxy WHERE name = 'b'");
    assert_eq!(rs[0].i64(0).unwrap(), 2);
    let (_, rs) = rows(&mut d, "SELECT objid FROM Galaxy WHERE name IS NOT NULL");
    assert_eq!(rs.len(), 4);
}

#[test]
fn global_aggregates() {
    let mut d = db();
    let (cols, rs) =
        rows(&mut d, "SELECT COUNT(*) AS n, MIN(i), MAX(i), AVG(ra) FROM Galaxy");
    assert_eq!(cols[0], "n");
    assert_eq!(rs[0][0], Value::BigInt(5));
    assert_eq!(rs[0].f64(1).unwrap(), 17.5);
    assert_eq!(rs[0].f64(2).unwrap(), 21.0);
    assert!((rs[0].f64(3).unwrap() - 181.5).abs() < 1e-9);
}

#[test]
fn aggregate_over_empty_input_is_one_row() {
    let mut d = db();
    let (_, rs) = rows(&mut d, "SELECT COUNT(*), MAX(i) FROM Galaxy WHERE ra > 999");
    assert_eq!(rs.len(), 1);
    assert_eq!(rs[0][0], Value::BigInt(0));
    assert!(rs[0][1].is_null());
}

#[test]
fn group_by_with_order() {
    let mut d = db();
    d.execute_sql("CREATE TABLE Obs (id BIGINT PRIMARY KEY, zone INT NOT NULL, mag FLOAT)")
        .unwrap();
    d.execute_sql(
        "INSERT INTO Obs VALUES (1, 10, 17.0), (2, 10, 18.0), (3, 11, 19.0), \
         (4, 12, 20.0), (5, 12, 21.0), (6, 12, 22.0)",
    )
    .unwrap();
    let (cols, rs) = rows(
        &mut d,
        "SELECT zone, COUNT(*) AS n, AVG(mag) AS m FROM Obs GROUP BY zone ORDER BY n DESC",
    );
    assert_eq!(cols, vec!["zone", "n", "m"]);
    assert_eq!(rs[0][0], Value::Int(12));
    assert_eq!(rs[0][1], Value::BigInt(3));
    assert_eq!(rs[0].f64(2).unwrap(), 21.0);
    assert_eq!(rs.len(), 3);
}

#[test]
fn inner_join_with_qualifiers() {
    let mut d = db();
    d.execute_sql("CREATE TABLE Kcorr (zid INT PRIMARY KEY, ilim FLOAT)").unwrap();
    d.execute_sql("INSERT INTO Kcorr VALUES (1, 18.0), (2, 20.0)").unwrap();
    let (_, rs) = rows(
        &mut d,
        "SELECT g.objid, k.zid FROM Galaxy g JOIN Kcorr k ON g.i <= k.ilim ORDER BY g.objid, k.zid",
    );
    // i <= 18: objid 1 matches both zids; objid 2 matches zid 2 only (18.5
    // <= 20); objid 3 (19.5) matches zid 2; others exceed 20.
    let pairs: Vec<(i64, i64)> =
        rs.iter().map(|r| (r.i64(0).unwrap(), r.i64(1).unwrap())).collect();
    assert_eq!(pairs, vec![(1, 1), (1, 2), (2, 2), (3, 2)]);
}

#[test]
fn cross_join_cardinality() {
    let mut d = db();
    d.execute_sql("CREATE TABLE Two (x INT PRIMARY KEY)").unwrap();
    d.execute_sql("INSERT INTO Two VALUES (1), (2)").unwrap();
    let (_, rs) = rows(&mut d, "SELECT COUNT(*) FROM Galaxy CROSS JOIN Two");
    assert_eq!(rs[0][0], Value::BigInt(10));
}

#[test]
fn equi_join_takes_the_hash_path() {
    let mut d = db();
    d.execute_sql("CREATE TABLE Label (objid BIGINT PRIMARY KEY, tag VARCHAR(8))").unwrap();
    d.execute_sql("INSERT INTO Label VALUES (2, 'two'), (3, 'three'), (9, 'none')").unwrap();
    let (_, plan) = rows(
        &mut d,
        "EXPLAIN SELECT g.objid, l.tag FROM Galaxy g JOIN Label l ON g.objid = l.objid",
    );
    let steps: Vec<String> = plan.iter().map(|r| r[0].as_str().unwrap().to_owned()).collect();
    assert!(
        steps.iter().any(|s| s.contains("hash inner join Label")),
        "expected a hash join step, got {steps:?}"
    );
    let (_, rs) = rows(
        &mut d,
        "SELECT g.objid, l.tag FROM Galaxy g JOIN Label l ON g.objid = l.objid \
         ORDER BY g.objid",
    );
    let pairs: Vec<(i64, String)> =
        rs.iter().map(|r| (r.i64(0).unwrap(), r[1].as_str().unwrap().to_owned())).collect();
    assert_eq!(pairs, vec![(2, "two".to_owned()), (3, "three".to_owned())]);
}

#[test]
fn equi_join_on_nullable_text_skips_nulls() {
    let mut d = db();
    d.execute_sql("CREATE TABLE Names (id BIGINT PRIMARY KEY, name VARCHAR(20))").unwrap();
    // One NULL on each side: NULL = NULL must not match, same as the
    // nested-loop predicate's three-valued logic.
    d.execute_sql("INSERT INTO Names VALUES (1, 'a'), (2, NULL), (3, 'e')").unwrap();
    let (_, rs) = rows(
        &mut d,
        "SELECT g.objid, n.id FROM Galaxy g JOIN Names n ON g.name = n.name \
         ORDER BY g.objid",
    );
    let pairs: Vec<(i64, i64)> =
        rs.iter().map(|r| (r.i64(0).unwrap(), r.i64(1).unwrap())).collect();
    assert_eq!(pairs, vec![(1, 1), (5, 3)]);
}

#[test]
fn cross_type_equality_stays_on_the_nested_loop() {
    let mut d = db();
    // INT vs BIGINT: the predicate coerces numerically, the key encoding
    // does not — so this must not take the hash path.
    d.execute_sql("CREATE TABLE Small (zone INT PRIMARY KEY, tag VARCHAR(8))").unwrap();
    d.execute_sql("INSERT INTO Small VALUES (1, 'one'), (2, 'two')").unwrap();
    let (_, plan) = rows(
        &mut d,
        "EXPLAIN SELECT g.objid FROM Galaxy g JOIN Small s ON g.objid = s.zone",
    );
    let steps: Vec<String> = plan.iter().map(|r| r[0].as_str().unwrap().to_owned()).collect();
    assert!(
        steps.iter().any(|s| s.contains("nested-loop inner join Small")),
        "cross-type equality must stay nested-loop, got {steps:?}"
    );
    let (_, rs) = rows(
        &mut d,
        "SELECT g.objid, s.tag FROM Galaxy g JOIN Small s ON g.objid = s.zone \
         ORDER BY g.objid",
    );
    assert_eq!(rs.len(), 2);
    assert_eq!(rs[0].i64(0).unwrap(), 1);
    assert_eq!(rs[1].i64(0).unwrap(), 2);
}

#[test]
fn ambiguous_and_missing_columns_error() {
    let mut d = db();
    d.execute_sql("CREATE TABLE G2 (objid BIGINT PRIMARY KEY, extra FLOAT)").unwrap();
    d.execute_sql("INSERT INTO G2 VALUES (1, 0.0)").unwrap();
    let err = d
        .execute_sql("SELECT objid FROM Galaxy g JOIN G2 h ON g.objid = h.objid")
        .unwrap_err();
    assert!(matches!(err, DbError::TypeError(m) if m.contains("ambiguous")));
    let err = d.execute_sql("SELECT nope FROM Galaxy").unwrap_err();
    assert!(matches!(err, DbError::NoSuchColumn(_)));
}

#[test]
fn insert_with_column_list_and_nulls() {
    let mut d = db();
    d.execute_sql("INSERT INTO Galaxy (objid, ra, dec) VALUES (10, 179.0, -2.0)").unwrap();
    let (_, rs) = rows(&mut d, "SELECT i, name FROM Galaxy WHERE objid = 10");
    assert!(rs[0][0].is_null() && rs[0][1].is_null());
    // NOT NULL violation surfaces.
    let err = d.execute_sql("INSERT INTO Galaxy (objid) VALUES (11)").unwrap_err();
    assert!(matches!(err, DbError::SchemaMismatch(_)));
}

#[test]
fn insert_coerces_numeric_families() {
    let mut d = db();
    // Integer literal into FLOAT column; float into REAL; int into BIGINT.
    d.execute_sql("INSERT INTO Galaxy VALUES (20, 180, 1, 19, 'z')").unwrap();
    let (_, rs) = rows(&mut d, "SELECT ra, i FROM Galaxy WHERE objid = 20");
    assert_eq!(rs[0].f64(0).unwrap(), 180.0);
    assert_eq!(rs[0].f64(1).unwrap(), 19.0);
    // Fractional into integer column fails.
    d.execute_sql("CREATE TABLE Ints (x INT PRIMARY KEY)").unwrap();
    assert!(d.execute_sql("INSERT INTO Ints VALUES (1.5)").is_err());
}

#[test]
fn duplicate_pk_via_sql() {
    let mut d = db();
    let err = d
        .execute_sql("INSERT INTO Galaxy VALUES (1, 0, 0, 0, 'dup')")
        .unwrap_err();
    assert!(matches!(err, DbError::DuplicateKey(_)));
}

#[test]
fn delete_where_and_full_delete() {
    let mut d = db();
    let out = d.execute_sql("DELETE FROM Galaxy WHERE i > 20").unwrap();
    assert_eq!(out, SqlOutput::Affected(2));
    assert_eq!(d.row_count("Galaxy").unwrap(), 3);
    let out = d.execute_sql("DELETE FROM Galaxy").unwrap();
    assert_eq!(out, SqlOutput::Affected(3));
    assert_eq!(d.row_count("Galaxy").unwrap(), 0);
}

#[test]
fn update_rows() {
    let mut d = db();
    let out = d
        .execute_sql("UPDATE Galaxy SET i = i + 1, name = 'bumped' WHERE dec > 0")
        .unwrap();
    assert_eq!(out, SqlOutput::Affected(4));
    let (_, rs) = rows(&mut d, "SELECT objid, i, name FROM Galaxy WHERE name = 'bumped'");
    assert_eq!(rs.len(), 4);
    // i bumped by one for objid 1 (17.5 -> 18.5).
    let row1 = rs.iter().find(|r| r.i64(0).unwrap() == 1).unwrap();
    assert_eq!(row1.f64(1).unwrap(), 18.5);
    // Unfiltered UPDATE touches every row.
    let out = d.execute_sql("UPDATE Galaxy SET name = NULL").unwrap();
    assert_eq!(out, SqlOutput::Affected(5));
    let (_, rs) = rows(&mut d, "SELECT COUNT(*) FROM Galaxy WHERE name IS NULL");
    assert_eq!(rs[0][0], Value::BigInt(5));
    // Key columns are protected.
    let err = d.execute_sql("UPDATE Galaxy SET objid = 99").unwrap_err();
    assert!(matches!(err, DbError::TypeError(m) if m.contains("key column")));
}

#[test]
fn truncate_and_drop() {
    let mut d = db();
    d.execute_sql("TRUNCATE TABLE Galaxy").unwrap();
    assert_eq!(d.row_count("Galaxy").unwrap(), 0);
    d.execute_sql("DROP TABLE Galaxy").unwrap();
    assert!(!d.has_table("Galaxy"));
}

#[test]
fn create_heap_table_without_pk() {
    let mut d = db();
    d.execute_sql("CREATE TABLE Log (msg TEXT)").unwrap();
    d.execute_sql("INSERT INTO Log VALUES ('hello')").unwrap();
    let (_, rs) = rows(&mut d, "SELECT msg FROM Log");
    assert_eq!(rs[0][0], Value::Text("hello".into()));
    // DELETE needs a clustered key.
    assert!(d.execute_sql("DELETE FROM Log WHERE msg = 'hello'").is_err());
}

#[test]
fn arithmetic_and_three_valued_logic() {
    let mut d = db();
    let (_, rs) = rows(
        &mut d,
        "SELECT objid FROM Galaxy WHERE (i - 17.5) / 2 < 1 OR name = 'nobody'",
    );
    let ids: Vec<i64> = rs.iter().map(|r| r.i64(0).unwrap()).collect();
    assert_eq!(ids, vec![1, 2]);
    // NULL name comparisons exclude row 3 from = and <> alike.
    let (_, rs) = rows(&mut d, "SELECT objid FROM Galaxy WHERE name <> 'a'");
    let ids: Vec<i64> = rs.iter().map(|r| r.i64(0).unwrap()).collect();
    assert_eq!(ids, vec![2, 4, 5]);
}

#[test]
fn order_by_hidden_key_sorts_plain_selects() {
    // SQL permits ordering by a column that is not projected.
    let mut d = db();
    let (_, rs) = rows(&mut d, "SELECT objid FROM Galaxy ORDER BY i DESC");
    let ids: Vec<i64> = rs.iter().map(|r| r.i64(0).unwrap()).collect();
    assert_eq!(ids, vec![5, 4, 3, 2, 1]);
}

#[test]
fn order_by_in_aggregates_requires_projection() {
    let mut d = db();
    let err = d
        .execute_sql("SELECT COUNT(*) FROM Galaxy GROUP BY dec ORDER BY i")
        .unwrap_err();
    assert!(matches!(err, DbError::TypeError(m) if m.contains("ORDER BY")));
}

#[test]
fn aggregates_rejected_in_where() {
    let mut d = db();
    let err = d.execute_sql("SELECT objid FROM Galaxy WHERE COUNT(*) > 1").unwrap_err();
    assert!(matches!(err, DbError::TypeError(m) if m.contains("aggregate")));
}

#[test]
fn distinct_dedups_rows() {
    let mut d = db();
    d.execute_sql("CREATE TABLE Pairs (id BIGINT PRIMARY KEY, tag INT)").unwrap();
    d.execute_sql("INSERT INTO Pairs VALUES (1, 7), (2, 7), (3, 8), (4, 7)").unwrap();
    let (_, rs) = rows(&mut d, "SELECT DISTINCT tag FROM Pairs ORDER BY tag");
    let tags: Vec<i64> = rs.iter().map(|r| r.i64(0).unwrap()).collect();
    assert_eq!(tags, vec![7, 8]);
}

#[test]
fn having_filters_groups() {
    let mut d = db();
    d.execute_sql("CREATE TABLE Obs (id BIGINT PRIMARY KEY, zone INT NOT NULL, mag FLOAT)")
        .unwrap();
    d.execute_sql(
        "INSERT INTO Obs VALUES (1, 10, 17.0), (2, 10, 18.0), (3, 11, 19.0),          (4, 12, 20.0), (5, 12, 21.0), (6, 12, 22.0)",
    )
    .unwrap();
    // Only groups with >= 2 rows and bright enough minimum survive.
    let (_, rs) = rows(
        &mut d,
        "SELECT zone, COUNT(*) AS n FROM Obs GROUP BY zone          HAVING COUNT(*) >= 2 AND MIN(mag) < 20.5 ORDER BY zone",
    );
    let zones: Vec<i64> = rs.iter().map(|r| r.i64(0).unwrap()).collect();
    assert_eq!(zones, vec![10, 12]);
    // HAVING referencing the group key works too.
    let (_, rs) = rows(
        &mut d,
        "SELECT zone, COUNT(*) FROM Obs GROUP BY zone HAVING zone > 10 ORDER BY zone",
    );
    assert_eq!(rs.len(), 2);
    // HAVING without grouping is rejected.
    assert!(d.execute_sql("SELECT zone FROM Obs HAVING zone > 1").is_err());
}

#[test]
fn explain_describes_the_pipeline() {
    let mut d = db();
    d.execute_sql("CREATE TABLE Kcorr (zid INT PRIMARY KEY, ilim FLOAT)").unwrap();
    let (cols, rs) = rows(
        &mut d,
        "EXPLAIN SELECT g.objid, COUNT(*) FROM Galaxy g JOIN Kcorr k ON g.i <= k.ilim          WHERE g.ra > 180 GROUP BY g.objid ORDER BY objid LIMIT 3",
    );
    assert_eq!(cols, vec!["plan"]);
    let steps: Vec<String> =
        rs.iter().map(|r| r[0].as_str().unwrap().to_owned()).collect();
    assert!(steps[0].contains("scan Galaxy") && steps[0].contains("clustered"));
    assert!(steps.iter().any(|s| s.contains("nested-loop inner join Kcorr")));
    assert!(steps.iter().any(|s| s.contains("WHERE")));
    assert!(steps.iter().any(|s| s.contains("GROUP BY")));
    assert!(steps.iter().any(|s| s.contains("limit 3")));
}

#[test]
fn the_appendix_header_query_runs() {
    // The paper's Figure 4 query shape, verbatim modulo schema size.
    let mut d = db();
    let (_, rs) = rows(
        &mut d,
        "SELECT objid, ra, dec FROM Galaxy \
         WHERE ra BETWEEN 172.5 AND 184.5 AND dec BETWEEN -2.5 AND 4.5 \
         ORDER BY objid",
    );
    assert_eq!(rs.len(), 5);
}

// ---- planner: access paths, pushdown, and plan/execution identity ----------

use super::plan::PlanOptions;

fn explain(d: &mut Database, sql: &str) -> Vec<String> {
    let (_, rs) = rows(d, sql);
    rs.iter().map(|r| r[0].as_str().unwrap().to_owned()).collect()
}

#[test]
fn sargable_pk_predicate_becomes_clustered_range_scan() {
    let mut d = db();
    let steps = explain(&mut d, "EXPLAIN SELECT objid FROM Galaxy WHERE objid BETWEEN 2 AND 4");
    assert!(
        steps[0].contains("clustered index range scan Galaxy"),
        "expected a clustered range scan, got: {}",
        steps[0]
    );
    let (_, rs) = rows(&mut d, "SELECT objid FROM Galaxy WHERE objid BETWEEN 2 AND 4");
    let ids: Vec<i64> = rs.iter().map(|r| r.i64(0).unwrap()).collect();
    assert_eq!(ids, vec![2, 3, 4]);
}

#[test]
fn secondary_index_predicate_becomes_index_range_scan() {
    obs::set_enabled(true);
    let mut d = db();
    d.execute_sql("CREATE INDEX idx_ra ON Galaxy (ra)").unwrap();
    let steps =
        explain(&mut d, "EXPLAIN SELECT objid FROM Galaxy WHERE ra BETWEEN 180.5 AND 182.0");
    assert!(
        steps[0].contains("index range scan Galaxy") && steps[0].contains("via idx_ra"),
        "expected a secondary index range scan, got: {}",
        steps[0]
    );
    // The same plan object executes: the index-scan counter moves and the
    // result set matches the full-scan reference evaluator.
    let scans_before = obs::counter("stardb.plan.index_scans").get();
    let (_, rs) = rows(&mut d, "SELECT objid FROM Galaxy WHERE ra BETWEEN 180.5 AND 182.0");
    assert!(obs::counter("stardb.plan.index_scans").get() > scans_before);
    let ids: Vec<i64> = rs.iter().map(|r| r.i64(0).unwrap()).collect();
    assert_eq!(ids, vec![2, 3, 4]);
    let naive = super::engine::execute_with(
        &mut d,
        "SELECT objid FROM Galaxy WHERE ra BETWEEN 180.5 AND 182.0",
        &PlanOptions::naive(),
    )
    .unwrap()
    .rows()
    .unwrap()
    .1;
    let naive_ids: Vec<i64> = naive.iter().map(|r| r.i64(0).unwrap()).collect();
    assert_eq!(ids, naive_ids);
}

#[test]
fn index_range_scan_examines_fewer_rows_than_full_scan() {
    obs::set_enabled(true);
    let mut d = db();
    d.execute_sql("CREATE INDEX idx_ra ON Galaxy (ra)").unwrap();
    // ra > 182.5 matches only objid 5; the index admits 1 of 5 rows while
    // the reference evaluator scans all 5 and filters 4 above the scan.
    let pruned_before = obs::counter("stardb.plan.rows_pruned").get();
    let (_, rs) = rows(&mut d, "SELECT objid FROM Galaxy WHERE ra > 182.5");
    assert_eq!(rs.len(), 1);
    let pruned_indexed = obs::counter("stardb.plan.rows_pruned").get() - pruned_before;
    let pruned_before = obs::counter("stardb.plan.rows_pruned").get();
    super::engine::execute_with(
        &mut d,
        "SELECT objid FROM Galaxy WHERE ra > 182.5",
        &PlanOptions::naive(),
    )
    .unwrap();
    let pruned_naive = obs::counter("stardb.plan.rows_pruned").get() - pruned_before;
    // The reference evaluator has no pushed predicates, so it prunes
    // nothing; the planned path prunes at most the strict-bound edge rows.
    assert_eq!(pruned_naive, 0);
    assert!(pruned_indexed <= 1, "index admitted too many rows: {pruned_indexed}");
}

#[test]
fn index_scan_filters_on_the_key_and_reads_rows_only_when_it_must() {
    obs::set_enabled(true);
    let mut d = db();
    d.execute_sql("CREATE INDEX idx_radec ON Galaxy (ra, dec)").unwrap();
    let key_pruned = obs::counter("stardb.plan.index_key_pruned");
    let lookups = obs::counter("stardb.plan.index_lookups");
    let (kp0, lk0) = (key_pruned.get(), lookups.get());
    // The ra range admits entries 2..=5; dec sits in the key too and
    // rejects 2 and 5 there, so two rows are read for `i`, none discarded.
    let window = "ra BETWEEN 180.5 AND 183 AND dec BETWEEN 0 AND 2";
    let analyze = |d: &mut Database, select: &str| {
        explain(d, &format!("EXPLAIN ANALYZE SELECT {select} FROM Galaxy WHERE {window}"))
    };
    let steps = analyze(&mut d, "objid, i");
    assert!(steps[0].contains("2 of 2 predicates on key, lookup 4 of 5 cols"), "{}", steps[0]);
    assert!(steps[0].contains("rows=2 "), "{}", steps[0]);
    assert!(steps[0].contains("pruned=0 entries=4 key_pruned=2 lookups=2)"), "{}", steps[0]);
    // The process-wide counters saw at least this statement.
    assert!(key_pruned.get() - kp0 >= 2 && lookups.get() - lk0 >= 2);
    // Nothing the entry lacks is read: the entries are the answer.
    let steps = analyze(&mut d, "objid, dec");
    assert!(steps[0].contains("2 of 2 predicates on key, index-only"), "{}", steps[0]);
    assert!(steps[0].contains("pruned=0 entries=4 key_pruned=2 lookups=0)"), "{}", steps[0]);
    let (_, rs) = rows(&mut d, &format!("SELECT objid, dec FROM Galaxy WHERE {window}"));
    assert_eq!(rs, vec![
        Row(vec![Value::BigInt(3), Value::Float(0.1)]),
        Row(vec![Value::BigInt(4), Value::Float(1.5)]),
    ]);
    // A conjunct on a column outside the entry waits for the row: every
    // key survivor is read, and `pruned` counts the rows it then rejects.
    let steps = explain(
        &mut d,
        &format!("EXPLAIN ANALYZE SELECT objid FROM Galaxy WHERE {window} AND i > 20"),
    );
    assert!(steps[0].contains("2 of 3 predicates on key, lookup 4 of 5 cols"), "{}", steps[0]);
    assert!(steps[0].contains("pruned=1 entries=4 key_pruned=2 lookups=2)"), "{}", steps[0]);
}

#[test]
fn predicates_push_below_joins() {
    let mut d = db();
    d.execute_sql("CREATE TABLE Label (objid BIGINT PRIMARY KEY, tag VARCHAR(8))").unwrap();
    d.execute_sql("INSERT INTO Label VALUES (1,'x'), (2,'y'), (3,'z')").unwrap();
    let steps = explain(
        &mut d,
        "EXPLAIN SELECT g.objid FROM Galaxy g JOIN Label l ON g.objid = l.objid \
         WHERE g.ra > 180.5 AND l.tag = 'y'",
    );
    assert!(steps[0].contains("pushed WHERE: 1 predicate"), "left push missing: {}", steps[0]);
    assert!(steps.iter().any(|s| s.contains("hash inner join Label")));
    // The right-side residual predicate shows up as the join's input scan.
    assert!(
        steps.iter().any(|s| s.contains("scan Label") && s.contains("pushed WHERE")),
        "right push missing: {steps:?}"
    );
    let (_, rs) = rows(
        &mut d,
        "SELECT g.objid FROM Galaxy g JOIN Label l ON g.objid = l.objid \
         WHERE g.ra > 180.5 AND l.tag = 'y'",
    );
    assert_eq!(rs.len(), 1);
    assert_eq!(rs[0].i64(0).unwrap(), 2);
}

#[test]
fn where_equality_across_tables_takes_the_hash_path() {
    // FROM a, b WHERE a.x = b.y — the equality lives in WHERE, not ON, and
    // the planner still hashes it (the old dispatcher could not).
    let mut d = db();
    d.execute_sql("CREATE TABLE Label (objid BIGINT PRIMARY KEY, tag VARCHAR(8))").unwrap();
    d.execute_sql("INSERT INTO Label VALUES (1,'x'), (2,'y')").unwrap();
    let steps = explain(
        &mut d,
        "EXPLAIN SELECT g.objid, l.tag FROM Galaxy g CROSS JOIN Label l \
         WHERE g.objid = l.objid",
    );
    assert!(
        steps.iter().any(|s| s.contains("hash inner join Label")),
        "WHERE equality should hash: {steps:?}"
    );
    let (_, rs) = rows(
        &mut d,
        "SELECT g.objid, l.tag FROM Galaxy g CROSS JOIN Label l WHERE g.objid = l.objid",
    );
    assert_eq!(rs.len(), 2);
}

#[test]
fn explain_and_execution_share_the_plan() {
    // The drift guard: what EXPLAIN claims is what runs. Hash-join output
    // counters only move if the executor actually took the hash path the
    // EXPLAIN printed.
    obs::set_enabled(true);
    let mut d = db();
    d.execute_sql("CREATE TABLE Label (objid BIGINT PRIMARY KEY, tag VARCHAR(8))").unwrap();
    d.execute_sql("INSERT INTO Label VALUES (1,'x'), (2,'y'), (3,'z')").unwrap();
    let q = "SELECT g.objid FROM Galaxy g JOIN Label l ON g.objid = l.objid";
    let steps = explain(&mut d, &format!("EXPLAIN {q}"));
    assert!(steps.iter().any(|s| s.contains("hash inner join Label")));
    let hash_before = obs::counter("stardb.exec.hash_join_rows").get();
    let (_, rs) = rows(&mut d, q);
    assert_eq!(rs.len(), 3);
    assert!(
        obs::counter("stardb.exec.hash_join_rows").get() >= hash_before + 3,
        "explained hash join did not execute as a hash join"
    );
}

#[test]
fn reference_evaluator_agrees_with_the_planned_pipeline() {
    let mut d = db();
    d.execute_sql("CREATE INDEX idx_ra ON Galaxy (ra)").unwrap();
    let q = "SELECT objid FROM Galaxy WHERE ra BETWEEN 180.5 AND 182.0 ORDER BY objid LIMIT 2";
    let planned = d.execute_sql(q).unwrap().rows().unwrap().1;
    let naive = super::engine::execute_with(&mut d, q, &PlanOptions::naive())
        .unwrap()
        .rows()
        .unwrap()
        .1;
    assert_eq!(planned, naive);
    let steps = explain(&mut d, &format!("EXPLAIN {q}"));
    assert!(steps[0].contains("index range scan"));
    assert!(steps.iter().any(|s| s.contains("top-n heap")));
}

/// A window wide enough that one left batch meets more candidate pairs
/// than the zone join gathers at once: the pairs come out in several
/// flushes, in the nested loop's order all the same — also under an ON the
/// kernels refuse, which the same route interprets.
#[test]
fn zone_join_flushes_candidates_in_nested_loop_order() {
    let mut d = Database::new(DbConfig::in_memory());
    for t in ["A", "B"] {
        d.execute_sql(&format!(
            "CREATE TABLE {t} (id BIGINT PRIMARY KEY, zoneid INT NOT NULL, ra FLOAT, \
             tag VARCHAR(4))"
        ))
        .unwrap();
        for id in 0..150 {
            let ra = if id % 50 == 7 { "NULL".to_owned() } else { format!("{}.5", id % 90) };
            let (zone, tag) = (id % 3, id % 4);
            d.execute_sql(&format!("INSERT INTO {t} VALUES ({id}, {zone}, {ra}, 't{tag}')"))
                .unwrap();
        }
    }
    for (cut, compiled) in [("a.ra + b.ra > 60", true), ("a.tag <> b.tag", false)] {
        let q = format!(
            "SELECT a.id, b.id FROM A a JOIN B b ON b.zoneid BETWEEN a.zoneid - 2 AND a.zoneid + 2 \
             AND b.ra BETWEEN a.ra - 100 AND a.ra + 100 AND {cut}"
        );
        let analyzed = explain(&mut d, &format!("EXPLAIN ANALYZE {q}"));
        let on = if compiled { "on compiled predicate" } else { "on interpreted predicate" };
        assert!(analyzed[1].contains(on), "{analyzed:?}");
        assert!(analyzed[1].contains("pairs=21609"), "147 × 147 non-NULL RAs: {analyzed:?}");
        let planned = d.execute_sql(&q).unwrap().rows().unwrap().1;
        let naive = super::engine::execute_with(&mut d, &q, &PlanOptions::naive())
            .unwrap()
            .rows()
            .unwrap()
            .1;
        assert!(planned.len() > 8192 && planned == naive, "{} pairs", planned.len());
    }
}

// ---- aggregate type fidelity ------------------------------------------------

#[test]
fn integer_aggregates_stay_integer_typed() {
    let mut d = db();
    d.execute_sql("CREATE TABLE T (id BIGINT PRIMARY KEY, v INT)").unwrap();
    d.execute_sql("INSERT INTO T VALUES (1, 10), (2, 3), (3, -4)").unwrap();
    let (_, rs) = rows(&mut d, "SELECT SUM(v), MIN(v), MAX(v), AVG(v) FROM T");
    assert_eq!(rs[0][0], Value::BigInt(9));
    assert_eq!(rs[0][1], Value::Int(-4));
    assert_eq!(rs[0][2], Value::Int(10));
    // AVG is a ratio and stays floating point even over integers.
    assert_eq!(rs[0][3], Value::Float(3.0));
}

#[test]
fn bigint_sum_is_exact_beyond_f64_precision() {
    // 2^60 + 3 - 2^60 == 3 exactly in i128 accumulation; an f64
    // accumulator loses the 3 entirely (2^60 absorbs it) and returns 0.
    let mut d = db();
    d.execute_sql("CREATE TABLE T (id BIGINT PRIMARY KEY, v BIGINT)").unwrap();
    d.execute_sql(
        "INSERT INTO T VALUES (1, 1152921504606846976), (2, 3), (3, -1152921504606846976)",
    )
    .unwrap();
    let (_, rs) = rows(&mut d, "SELECT SUM(v) FROM T");
    assert_eq!(rs[0][0], Value::BigInt(3), "integer SUM must not round through f64");
}

#[test]
fn sum_overflow_is_an_error_not_a_wrap() {
    let mut d = db();
    d.execute_sql("CREATE TABLE T (id BIGINT PRIMARY KEY, v BIGINT)").unwrap();
    d.execute_sql(
        "INSERT INTO T VALUES (1, 9223372036854775807), (2, 9223372036854775807)",
    )
    .unwrap();
    let err = d.execute_sql("SELECT SUM(v) FROM T").unwrap_err();
    assert!(err.to_string().contains("SUM overflows"), "got: {err}");
}

#[test]
fn all_null_groups_aggregate_to_null() {
    let mut d = db();
    d.execute_sql("CREATE TABLE T (id BIGINT PRIMARY KEY, g INT NOT NULL, v BIGINT)")
        .unwrap();
    d.execute_sql(
        "INSERT INTO T VALUES (1, 1, NULL), (2, 1, NULL), (3, 2, 7)",
    )
    .unwrap();
    let (_, rs) =
        rows(&mut d, "SELECT g, SUM(v), MIN(v), MAX(v), AVG(v), COUNT(*) FROM T GROUP BY g");
    assert_eq!(rs.len(), 2);
    // Group 1 is all NULL: every aggregate but COUNT is NULL.
    assert_eq!(rs[0][0], Value::Int(1));
    assert!(rs[0][1].is_null() && rs[0][2].is_null() && rs[0][3].is_null());
    assert!(rs[0][4].is_null());
    assert_eq!(rs[0][5], Value::BigInt(2));
    // Group 2 keeps integer types.
    assert_eq!(rs[1][1], Value::BigInt(7));
    assert_eq!(rs[1][2], Value::BigInt(7));
}

// ---- top-n heap vs sort-then-truncate ---------------------------------------

#[test]
fn top_n_matches_sort_then_truncate_including_ties() {
    let mut d = db();
    d.execute_sql("CREATE TABLE T (id BIGINT PRIMARY KEY, k INT NOT NULL, v FLOAT)").unwrap();
    // Heavy ties on k so stability matters: ids within equal k must come
    // out in the same (insertion/clustered) order both ways.
    let mut stmt = String::from("INSERT INTO T VALUES ");
    for id in 0..60 {
        if id > 0 {
            stmt.push_str(", ");
        }
        stmt.push_str(&format!("({id}, {}, {}.5)", id % 5, id % 7));
    }
    d.execute_sql(&stmt).unwrap();
    for q in [
        "SELECT id, k FROM T ORDER BY k LIMIT 7",
        "SELECT id, k FROM T ORDER BY k DESC LIMIT 9",
        "SELECT id, k, v FROM T ORDER BY k, v DESC LIMIT 13",
        "SELECT id, k FROM T ORDER BY k LIMIT 100",
        "SELECT id, k FROM T ORDER BY k DESC LIMIT 1",
    ] {
        let planned = d.execute_sql(q).unwrap().rows().unwrap().1;
        let naive = super::engine::execute_with(&mut d, q, &PlanOptions::naive())
            .unwrap()
            .rows()
            .unwrap()
            .1;
        assert_eq!(planned, naive, "top-n diverged from sort+truncate for {q}");
    }
}

#[test]
fn distinct_with_unprojected_order_key_errors() {
    let mut d = db();
    let err = d
        .execute_sql("SELECT DISTINCT name FROM Galaxy ORDER BY ra")
        .unwrap_err();
    assert!(err.to_string().contains("ORDER BY"), "got: {err}");
}
