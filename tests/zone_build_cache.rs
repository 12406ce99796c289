//! The zone join's cached build side: a warm cross-match scans its inner
//! table zero times and still answers from the table as it is *now* —
//! never a stale entry, never one missing a column a later statement reads,
//! never one a pushed predicate thinned — and a join whose outer side is
//! empty reads (and caches) no inner side at all, which is what the
//! fabric's coordinator sees on every statement. Scans are counted through
//! `obs`, so the tests read process-global counters and run one at a time.

use distfab::{DistCluster, DistConfig};
use maxbcg::xmatch::{create_survey_table, load_survey, XmatchObj, XmatchSpec};
use skycore::{UnitVec, ZoneScheme};
use stardb::sql::execute_with;
use stardb::{Database, DbConfig, PlanOptions, Row};
use std::sync::Mutex;

static GUARD: Mutex<()> = Mutex::new(());

fn scheme() -> ZoneScheme {
    ZoneScheme::with_height(0.5)
}

fn spec() -> XmatchSpec {
    XmatchSpec::new(0.1, scheme(), 5.0)
}

/// 48 objects on a diagonal, 0.01° from their re-observations.
fn survey1() -> Vec<XmatchObj> {
    (0..48).map(|i| (i, 10.0 + 0.2 * i as f64, -4.4 + i as f64 * 8.8 / 48.0)).collect()
}

fn surveys() -> Database {
    let mut db = Database::new(DbConfig::in_memory());
    create_survey_table(&mut db, "Survey1").unwrap();
    create_survey_table(&mut db, "Survey2").unwrap();
    let a = survey1();
    let b: Vec<XmatchObj> = a.iter().map(|&(id, ra, dec)| (100 + id, ra + 0.01, dec)).collect();
    load_survey(&mut db, "Survey1", &a, &scheme(), 0.0).unwrap();
    load_survey(&mut db, "Survey2", &b, &scheme(), spec().margin_deg()).unwrap();
    db
}

fn full_scans() -> u64 {
    obs::counter("stardb.plan.full_scans").get()
}

/// Run `sql` planned, check it against the reference evaluator (a plain
/// nested loop over full scans, through no cache), and return the rows
/// with the full table scans the planned run opened.
fn planned(db: &mut Database, sql: &str) -> (Vec<Row>, u64) {
    let before = full_scans();
    let (_, rows) = db.execute_sql(sql).unwrap().rows().unwrap();
    let scans = full_scans() - before;
    let (_, naive) = execute_with(db, sql, &PlanOptions::naive()).unwrap().rows().unwrap();
    assert_eq!(rows, naive, "planned ≠ reference: {sql}");
    (rows, scans)
}

fn pairs(rows: &[Row]) -> Vec<(i64, i64)> {
    rows.iter().map(|r| (r.i64(0).unwrap(), r.i64(1).unwrap())).collect()
}

/// XMatch, change `Survey2`, XMatch again: the answer follows the table.
#[test]
fn a_cached_build_side_is_never_stale() {
    let _g = GUARD.lock().unwrap_or_else(|p| p.into_inner());
    obs::set_enabled(true);
    let mut db = surveys();
    let xmatch = spec().sql("Survey1", "Survey2", None);

    let (cold, scans) = planned(&mut db, &xmatch);
    assert_eq!((cold.len(), scans), (48, 2), "cold: both surveys are scanned");
    let (warm, scans) = planned(&mut db, &xmatch);
    assert_eq!((&warm, scans), (&cold, 1), "warm: only Survey1 is scanned");
    let analyze = format!("EXPLAIN ANALYZE {xmatch}");
    let (_, analyzed) = db.execute_sql(&analyze).unwrap().rows().unwrap();
    let build = analyzed[2][0].as_str().unwrap();
    assert!(build.contains("scan Survey2 AS b"), "{build}");
    assert!(build.ends_with("(actual: cached rows=48)"), "{build}");

    // A second re-observation of object 7, 0.02° off: one more pair.
    let (_, ra, dec) = survey1()[7];
    let v = UnitVec::from_radec(ra + 0.02, dec);
    db.execute_sql(&format!(
        "INSERT INTO Survey2 VALUES ({}, {}, 999, {dec}, {}, {}, {})",
        scheme().zone_of(dec),
        ra + 0.02,
        v.x,
        v.y,
        v.z
    ))
    .unwrap();
    let (grown, scans) = planned(&mut db, &xmatch);
    assert_eq!(scans, 2, "the entry was built at another version: rebuilt");
    assert_eq!(grown.len(), 49);
    assert!(pairs(&grown).contains(&(7, 999)));

    db.execute_sql("DELETE FROM Survey2 WHERE objid = 107").unwrap();
    let (shrunk, scans) = planned(&mut db, &xmatch);
    assert_eq!((shrunk.len(), scans), (48, 2));
    assert!(!pairs(&shrunk).contains(&(7, 107)) && pairs(&shrunk).contains(&(7, 999)));
    assert_eq!(planned(&mut db, &xmatch), (shrunk, 1), "and warm again");
}

/// A statement that reads a build-side column the entry lacks gets an entry
/// that holds it — and so does every statement after, whichever it is.
#[test]
fn a_cached_build_side_grows_to_the_columns_statements_read() {
    let _g = GUARD.lock().unwrap_or_else(|p| p.into_inner());
    obs::set_enabled(true);
    let mut db = surveys();
    let join = "FROM Survey1 a JOIN Survey2 b \
                ON b.zoneid BETWEEN a.zoneid - 1 AND a.zoneid + 1 \
                AND b.ra BETWEEN a.ra - 0.05 AND a.ra + 0.05";
    let count = format!("SELECT COUNT(*) {join}");
    let wide = format!("SELECT a.objid, b.objid, b.dec, b.cz {join} ORDER BY a.objid, b.objid");

    let (n, scans) = planned(&mut db, &count);
    assert_eq!((n[0].i64(0).unwrap(), scans), (48, 2), "cold: zoneid and ra of Survey2");
    let (rows, scans) = planned(&mut db, &wide);
    assert_eq!(scans, 2, "objid, dec and cz are not in the entry: rebuilt");
    assert_eq!(rows.len(), 48);
    for row in &rows {
        let (_, _, dec) = survey1()[row.i64(0).unwrap() as usize];
        assert_eq!((row.f64(2).unwrap(), row.f64(3).unwrap()), (dec, dec.to_radians().sin()));
    }
    assert_eq!(planned(&mut db, &count).1, 1, "the wider entry serves the narrower statement");
    assert_eq!(planned(&mut db, &wide), (rows, 1));
}

/// Only a full unfiltered scan is the table: a build side with a pushed
/// predicate, or read through a key range, is drained every time and
/// leaves nothing behind.
#[test]
fn a_filtered_or_ranged_build_side_is_not_cached() {
    let _g = GUARD.lock().unwrap_or_else(|p| p.into_inner());
    obs::set_enabled(true);
    let mut db = surveys();
    let xmatch = spec().sql("Survey1", "Survey2", None);
    let with = |pred: &str| xmatch.replace(" ORDER BY", &format!(" AND {pred} ORDER BY"));
    let index_scans = || obs::counter("stardb.plan.index_scans").get();

    // `objid` alone bounds no prefix of the key (zoneid, ra, objid).
    let filtered = with("b.objid < 120");
    for _ in 0..2 {
        let (rows, scans) = planned(&mut db, &filtered);
        assert_eq!((rows.len(), scans), (20, 2), "pushed predicate: scanned every time");
    }
    let ranged = with("b.zoneid BETWEEN 175 AND 180");
    for _ in 0..2 {
        let before = index_scans();
        let (rows, scans) = planned(&mut db, &ranged);
        assert!(!rows.is_empty() && rows.len() < 48);
        assert_eq!((scans, index_scans() - before), (1, 1), "key range: read every time");
    }
    assert_eq!(planned(&mut db, &xmatch).1, 2, "neither left an entry for the plain statement");
}

/// No outer row, no inner work: nothing scanned, nothing cached — on one
/// engine, and at the coordinator of a fabric, whose shard-table slice is
/// empty by construction. A warm fabric XMatch therefore scans each shard's
/// `Survey1` and the coordinator's empty one, and reads the pages a scan of
/// `Survey1` reads.
#[test]
fn an_empty_outer_side_builds_nothing() {
    let _g = GUARD.lock().unwrap_or_else(|p| p.into_inner());
    obs::set_enabled(true);
    let mut db = surveys();
    let xmatch = spec().sql("Survey1", "Survey2", None);
    let (none, scans) = planned(&mut db, &spec().sql("Survey1", "Survey2", Some((9_000, 9_001))));
    assert_eq!((none.len(), scans), (0, 0), "Survey1 by key range, Survey2 not at all");
    let (all, scans) = planned(&mut db, &xmatch);
    assert_eq!((all.len(), scans), (48, 2), "and no entry was cached");

    let logical_reads = || obs::counter("stardb.buffer.logical_reads").get();
    for nodes in [1, 2, 4] {
        let mut cfg = DistConfig::new(nodes, "Survey1", "dec", -4.5, 4.5)
            .with_co_shard("Survey2", "zoneid", spec().dzone());
        cfg.scheme = scheme();
        let fabric = DistCluster::build(&db, cfg).unwrap();
        let run = |sql: &str| {
            let (scans, reads) = (full_scans(), logical_reads());
            let (_, rows) = fabric.execute_sql(sql).unwrap().rows().unwrap();
            (rows, full_scans() - scans, logical_reads() - reads)
        };
        let (cold, scans, _) = run(&xmatch);
        assert_eq!(pairs(&cold), pairs(&all), "{nodes} nodes");
        assert_eq!(scans, 2 * nodes as u64 + 1, "cold: both surveys per shard, one empty Survey1");
        let (warm, scans, reads) = run(&xmatch);
        assert_eq!((&warm, scans), (&cold, nodes as u64 + 1), "warm, {nodes} nodes");
        // The same scans and nothing else: a merge-mode read of Survey1.
        let (_, scans, scan_reads) = run("SELECT objid FROM Survey1 ORDER BY objid");
        assert_eq!((scans, reads), (nodes as u64 + 1, scan_reads), "{nodes} nodes");
    }
}
