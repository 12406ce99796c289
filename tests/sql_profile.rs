//! EXPLAIN ANALYZE integration: the profile annotations on an executed
//! plan report *true* cardinalities (the `rows=` of the output operator
//! equals the statement's actual result count), the ANALYZE tree is the
//! EXPLAIN tree line-for-line (same plan object — annotations append,
//! never rewrite), and disabling telemetry yields byte-identical results
//! with no profile retained.

mod common;

use common::{corpus, corpus_db};
use stardb::Database;
use std::sync::Mutex;

/// These tests flip process-global telemetry state; serialize them.
static GUARD: Mutex<()> = Mutex::new(());

fn plan_lines(d: &mut Database, sql: &str) -> Vec<String> {
    let (_, rs) = d.execute_sql(sql).unwrap().rows().unwrap();
    rs.iter().map(|r| r[0].as_str().unwrap().to_owned()).collect()
}

/// Pull `rows=N` out of an annotated plan line.
fn actual_rows(line: &str) -> u64 {
    let at = line.find("rows=").unwrap_or_else(|| panic!("no rows= in {line:?}"));
    line[at + 5..]
        .split(|c: char| !c.is_ascii_digit())
        .next()
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("bad rows= in {line:?}"))
}

/// ANALYZE executes for real: the output operator's observed cardinality
/// is the statement's result count, for every corpus query.
#[test]
fn analyze_row_counts_match_actual_cardinalities() {
    let _g = GUARD.lock().unwrap_or_else(|p| p.into_inner());
    obs::set_enabled(true);
    let mut d = corpus_db();
    for (sql, _) in corpus() {
        let (_, rows) =
            d.execute_sql(&sql).unwrap_or_else(|e| panic!("{sql}: {e}")).rows().unwrap();
        let analyzed = plan_lines(&mut d, &format!("EXPLAIN ANALYZE {sql}"));
        let last = analyzed.last().expect("plan has lines");
        assert_eq!(
            actual_rows(last),
            rows.len() as u64,
            "{sql}: output operator must report the result cardinality: {last:?}"
        );
        for line in &analyzed {
            assert!(line.contains("(actual:"), "{sql}: every line carries its profile: {line:?}");
        }
    }
}

/// The ANALYZE tree is the EXPLAIN tree: same line count, and every
/// ANALYZE line extends the corresponding EXPLAIN line verbatim. Rendering
/// and execution share one plan object, so the trees cannot diverge.
#[test]
fn analyze_tree_matches_explain_line_for_line() {
    let _g = GUARD.lock().unwrap_or_else(|p| p.into_inner());
    obs::set_enabled(true);
    let mut d = corpus_db();
    for (sql, _) in corpus() {
        let plain = plan_lines(&mut d, &format!("EXPLAIN {sql}"));
        let analyzed = plan_lines(&mut d, &format!("EXPLAIN ANALYZE {sql}"));
        assert_eq!(plain.len(), analyzed.len(), "{sql}: tree shapes differ");
        for (p, a) in plain.iter().zip(&analyzed) {
            assert!(
                a.starts_with(p.as_str()),
                "{sql}: ANALYZE must extend the EXPLAIN line\n  explain: {p}\n  analyze: {a}"
            );
        }
    }
}

/// `Database::last_profile` holds the profile of the most recent SELECT,
/// and its line rendering matches what EXPLAIN ANALYZE would print
/// (modulo timings): same shape, same row counts.
#[test]
fn last_profile_mirrors_the_statement_that_ran() {
    let _g = GUARD.lock().unwrap_or_else(|p| p.into_inner());
    obs::set_enabled(true);
    let mut d = corpus_db();
    let sql = "SELECT objid FROM Galaxy WHERE objid BETWEEN 10 AND 40";
    let (_, rows) = d.execute_sql(sql).unwrap().rows().unwrap();
    let prof = d.last_profile().expect("profiled SELECT retains its profile");
    assert_eq!(prof.plan.rows_out, rows.len() as u64);
    assert!(prof.plan.wall_ns > 0, "monotonic clock must have advanced");
    let last = prof.lines.last().expect("rendered lines");
    assert_eq!(actual_rows(last), rows.len() as u64);
    // A following DML statement does not disturb the retained profile…
    d.execute_sql("INSERT INTO Label VALUES (97, 0)").unwrap();
    assert!(d.last_profile().is_some());
    // …but the next SELECT replaces it.
    d.execute_sql("SELECT COUNT(*) FROM Label").unwrap();
    let next = d.last_profile().expect("replaced");
    assert_eq!(next.plan.rows_out, 1);
}

/// A join drains its build side inside the pull that brings its first left
/// row, so its inclusive time holds the drain; `stardb.op.hash_join.ns` is
/// still the join's own time — inclusive minus its input's, minus the
/// drain's, which `stardb.op.scan.ns` already counts.
#[test]
fn join_self_time_leaves_out_its_build_side_drain() {
    let _g = GUARD.lock().unwrap_or_else(|p| p.into_inner());
    obs::set_enabled(true);
    let mut d = corpus_db();
    let (join_ns, scan_ns) =
        (obs::counter("stardb.op.hash_join.ns"), obs::counter("stardb.op.scan.ns"));
    let before = (join_ns.get(), scan_ns.get());
    d.execute_sql("SELECT g.objid, m.v_int FROM Galaxy g JOIN Mixed m ON g.objid = m.k_big")
        .unwrap();
    let plan = d.last_profile().expect("profiled").plan;
    let join = &plan.joins[0];
    assert!(join.hashed && !join.build_cached);
    assert!(join.build.rows == 220 && join.build.time_ns > 0, "{:?}", join.build);
    assert!(join.join.time_ns > plan.scan.time_ns + join.build.time_ns, "{join:?}");
    assert_eq!(
        join_ns.get() - before.0,
        join.join.time_ns - plan.scan.time_ns - join.build.time_ns
    );
    assert_eq!(scan_ns.get() - before.1, plan.scan.time_ns + join.build.time_ns);
    assert!(
        plan.scan.time_ns + join.build.time_ns + (join_ns.get() - before.0) <= plan.wall_ns,
        "self times add up to no more than the run"
    );
}

/// Turning telemetry off removes profiling entirely: results stay
/// byte-identical, no profile is retained, and the op counters do not
/// move. EXPLAIN ANALYZE still profiles — it was asked for explicitly.
#[test]
fn disabled_profiling_is_byte_identical_and_allocation_free() {
    let _g = GUARD.lock().unwrap_or_else(|p| p.into_inner());
    obs::set_enabled(true);
    let mut d = corpus_db();
    let mut instrumented = Vec::new();
    for (sql, _) in corpus() {
        instrumented.push(d.execute_sql(&sql).unwrap().rows().unwrap());
    }
    let scan_rows = obs::counter("stardb.op.scan.rows").get();

    obs::set_enabled(false);
    for ((sql, _), enabled_out) in corpus().iter().zip(&instrumented) {
        let out = d.execute_sql(sql).unwrap().rows().unwrap();
        assert_eq!(&out, enabled_out, "profiling must never influence results: {sql}");
        assert!(
            d.last_profile().is_none(),
            "disabled runs must not allocate profiles: {sql}"
        );
    }
    assert_eq!(
        obs::counter("stardb.op.scan.rows").get(),
        scan_rows,
        "disabled runs must not move op counters"
    );

    // ANALYZE is an explicit request: it profiles even while disabled.
    let lines = plan_lines(&mut d, "EXPLAIN ANALYZE SELECT objid FROM Galaxy WHERE objid < 50");
    assert!(lines.iter().all(|l| l.contains("(actual:")), "{lines:?}");
    assert!(d.last_profile().is_some());
    obs::set_enabled(true);
}
