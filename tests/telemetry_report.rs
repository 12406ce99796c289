//! Telemetry integration: the unified run report actually observes a
//! pipeline run (every counter the ISSUE's taxonomy requires is present,
//! spans nest under the run), the report round-trips through its canonical
//! JSON byte-for-byte, and — the non-negotiable property — telemetry never
//! influences results: a run with collection disabled produces a catalog
//! identical to an instrumented run.

use maxbcg::{IterationMode, MaxBcgConfig, MaxBcgDb};
use skycore::kcorr::KcorrTable;
use skycore::types::{Candidate, Cluster, ClusterMember};
use skycore::SkyRegion;
use skysim::{Sky, SkyConfig};
use stardb::{
    Column, DataType, Database, DbConfig, FsyncPolicy, Row, Schema, Value, WalConfig,
};
use std::sync::Mutex;

/// These tests flip and reset process-global telemetry state; serialize
/// them so the harness's parallel threads cannot interleave.
static GUARD: Mutex<()> = Mutex::new(());

fn tiny_run(label: &str) -> (Vec<Candidate>, Vec<Cluster>, Vec<ClusterMember>) {
    tiny_run_with(label, 1)
}

fn tiny_run_with(
    label: &str,
    workers: usize,
) -> (Vec<Candidate>, Vec<Cluster>, Vec<ClusterMember>) {
    let config = MaxBcgConfig { iteration: IterationMode::Cursor, workers, ..Default::default() };
    let kcorr = KcorrTable::generate(config.kcorr);
    let import = SkyRegion::new(180.0, 181.0, -0.5, 0.5);
    let sky = Sky::generate(import, &SkyConfig::scaled(0.05), &kcorr, 2005);
    let mut db = MaxBcgDb::new(config).expect("schema");
    db.run(label, &sky, &import, &import.shrunk(0.25)).expect("pipeline");
    // One planned region query so the stardb.plan.* access-path counters
    // register alongside the pipeline's storage counters.
    maxbcg::region_query::ensure_region_index(db.db_mut()).expect("region index");
    maxbcg::region_query::count_in_region(db.db_mut(), &import.shrunk(0.25)).expect("count");
    let mut members = db.members().expect("members");
    members.sort_by_key(|m| (m.cluster_objid, m.galaxy_objid));
    // A small durable round so the stardb.wal.* / stardb.mvcc.* counters
    // register alongside the in-memory pipeline's (the catalog tuple
    // returned below is untouched by it).
    durable_exercise(label, FsyncPolicy::Commit);
    // And a small scatter–gather round (with an always-crash first attempt
    // so failover retries register) for the stardb.dist.* family.
    dist_exercise();
    // And a small cross-survey zone join, single-node then co-sharded,
    // for the stardb.op.zonejoin.* and maxbcg.xmatch.* families.
    xmatch_exercise();
    (db.candidates().expect("candidates"), db.clusters().expect("clusters"), members)
}

/// Exercise the cross-survey zone join end to end: a planned single-node
/// xmatch (zone-join operator counters, xmatch pipeline counters), then
/// the same surveys re-sharded over a 2-node co-partitioned fabric whose
/// boundary halo duplicates move `stardb.op.zonejoin.halo_rows`.
fn xmatch_exercise() {
    use distfab::{DistCluster, DistConfig};
    use maxbcg::xmatch::{create_survey_table, load_survey, run_xmatch, XmatchSpec};
    use skycore::ZoneScheme;
    let scheme = ZoneScheme::with_height(0.5);
    let spec = XmatchSpec::new(0.1, scheme, 5.0);
    let mut db = Database::new(DbConfig::in_memory());
    create_survey_table(&mut db, "Survey1").unwrap();
    create_survey_table(&mut db, "Survey2").unwrap();
    let a: Vec<(i64, f64, f64)> =
        (0..48).map(|i| (i, 10.0 + 0.2 * i as f64, -4.4 + i as f64 * 8.8 / 48.0)).collect();
    let b: Vec<(i64, f64, f64)> =
        a.iter().map(|&(id, ra, dec)| (100 + id, ra + 0.01, dec)).collect();
    load_survey(&mut db, "Survey1", &a, &scheme, 0.0).unwrap();
    load_survey(&mut db, "Survey2", &b, &scheme, spec.margin_deg()).unwrap();
    let pairs =
        run_xmatch(&mut db, &spec, "Survey1", "Survey2", 1, &stardb::PlanOptions::default())
            .unwrap();
    assert_eq!(pairs.len(), 48, "xmatch exercise must pair every object");
    let mut cfg = DistConfig::new(2, "Survey1", "dec", -4.5, 4.5)
        .with_co_shard("Survey2", "zoneid", spec.dzone());
    cfg.scheme = scheme;
    let fab = DistCluster::build(&db, cfg).expect("co-sharded fabric");
    fab.execute_sql(&spec.sql("Survey1", "Survey2", None)).expect("co-sharded xmatch");
}

/// Exercise the distributed fabric end to end: a zone-pruned merge gather
/// and a partial-aggregate gather across 4 simulated nodes, under a fault
/// plan that crashes every first attempt so the retry path counts too.
fn dist_exercise() {
    use distfab::{DistCluster, DistConfig};
    use gridsim::{FaultConfig, FaultPlan};
    let mut db = Database::new(DbConfig::in_memory());
    db.create_clustered_table(
        "G",
        Schema::new(vec![
            Column::new("objid", DataType::BigInt),
            Column::new("dec", DataType::Float),
        ]),
        &["objid"],
    )
    .unwrap();
    let rows: Vec<Row> = (0..64)
        .map(|i| Row(vec![Value::BigInt(i), Value::Float(-5.0 + i as f64 * 10.0 / 64.0)]))
        .collect();
    db.insert_rows("G", rows).unwrap();
    let fab = DistCluster::build(
        &db,
        DistConfig::new(4, "G", "dec", -5.0, 5.0)
            .with_faults(FaultPlan::new(FaultConfig::always(5, 1))),
    )
    .expect("fabric");
    fab.execute_sql("SELECT objid, dec FROM G WHERE dec BETWEEN -1.0 AND 0.0 ORDER BY objid")
        .expect("pruned gather");
    fab.execute_sql("SELECT COUNT(*) FROM G").expect("aggregate gather");
}

/// Exercise the durability path end to end: commits through the WAL, a
/// pinned snapshot riding over a concurrent commit (copy-on-write), a
/// garbage log tail (torn-record detection), and a recovery reopen.
/// Returns the `stardb.wal.fsyncs` its three data commits spent under
/// `fsync`.
fn durable_exercise(label: &str, fsync: FsyncPolicy) -> u64 {
    let dir =
        std::env::temp_dir().join(format!("stardb-telemetry-{label}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let schema = Schema::new(vec![
        Column::new("objid", DataType::BigInt),
        Column::new("v", DataType::Float),
    ]);
    let put = |db: &mut Database, range: std::ops::Range<i64>| {
        for i in range {
            db.insert("t", Row(vec![Value::BigInt(i), Value::Float(i as f64)])).unwrap();
        }
        db.commit().unwrap();
    };
    let wal = WalConfig { fsync, ..WalConfig::default() };
    let fsyncs = obs::counter("stardb.wal.fsyncs");
    let fsyncs_spent = {
        let mut db = Database::open(&dir, DbConfig::tiny(64), wal).expect("open durable");
        db.create_clustered_table("t", schema, &["objid"]).unwrap();
        let fsyncs_before = fsyncs.get();
        put(&mut db, 0..32);
        let snap = db.snapshot();
        put(&mut db, 32..64); // copy-on-write under the pin
        assert_eq!(snap.row_count("t").unwrap(), 32, "pinned snapshot moved");
        drop(snap);
        put(&mut db, 64..96); // watermark advance reclaims the versions
        let spent = fsyncs.get() - fsyncs_before;
        drop(db); // no close(): the log must carry the state to recovery
        spent
    };
    // Garbage tail: recovery must detect it by checksum and truncate.
    use std::io::Write as _;
    let log = dir.join("wal").join("wal.000000.log");
    let mut f = std::fs::OpenOptions::new().append(true).open(&log).expect("wal segment");
    f.write_all(&[0xAB; 48]).unwrap();
    drop(f);
    let db = Database::open(&dir, DbConfig::tiny(64), wal).expect("recovery");
    assert_eq!(db.row_count("t").unwrap(), 96, "recovery lost committed rows");
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
    fsyncs_spent
}

/// Counters the acceptance criteria name: buffer hit/miss and page I/O
/// from the storage engine, the SQL planner's access-path tallies,
/// per-task elapsed from the pipeline, plus the spatial-join and
/// early-filter counters of the MaxBCG layer.
const REQUIRED_COUNTERS: &[&str] = &[
    "stardb.buffer.logical_reads",
    "stardb.buffer.hits",
    "stardb.buffer.misses",
    "stardb.buffer.physical_reads",
    "stardb.buffer.physical_writes",
    "stardb.btree.seeks",
    "stardb.plan.index_scans",
    "stardb.plan.full_scans",
    "stardb.plan.pushed_predicates",
    "stardb.plan.rows_pruned",
    "stardb.plan.index_key_pruned",
    "stardb.plan.index_lookups",
    "maxbcg.pipeline.runs",
    "maxbcg.task.spZone.elapsed_ns",
    "maxbcg.task.fBCGCandidate.elapsed_ns",
    "maxbcg.task.fIsCluster.elapsed_ns",
    "maxbcg.candidate.evaluated",
    "maxbcg.neighbors.searches",
    "maxbcg.neighbors.pairs_examined",
    "maxbcg.catalog.galaxies",
    "maxbcg.zonecache.builds",
    "maxbcg.zonecache.hits",
    "stardb.wal.appends",
    "stardb.wal.fsyncs",
    "stardb.wal.recoveries",
    "stardb.wal.torn_pages",
    "stardb.mvcc.snapshots",
    "stardb.mvcc.cow_pages",
    "stardb.mvcc.gc_reclaimed",
    "stardb.op.scan.rows",
    "stardb.op.scan.ns",
    "stardb.op.filter.rows",
    "stardb.op.filter.ns",
    "stardb.op.hash_join.rows",
    "stardb.op.hash_join.ns",
    "stardb.op.topn.rows",
    "stardb.op.topn.ns",
    "stardb.op.limit.rows",
    "stardb.op.limit.ns",
    "stardb.op.vector.batches",
    "stardb.op.vector.selectivity_pct",
    "stardb.op.vector.materialized_rows",
    "stardb.op.zonejoin.probes",
    "stardb.op.zonejoin.pairs_examined",
    "stardb.op.zonejoin.pairs_matched",
    "stardb.op.zonejoin.halo_rows",
    "maxbcg.xmatch.runs",
    "maxbcg.xmatch.stripes",
    "maxbcg.xmatch.margin_rows",
    "maxbcg.xmatch.pairs",
    "stardb.dist.subqueries",
    "stardb.dist.shards_pruned",
    "stardb.dist.rows_shipped",
    "stardb.dist.bytes_shipped",
    "stardb.dist.retries",
];

#[test]
fn table1_run_report_is_complete_and_round_trips() {
    let _g = GUARD.lock().unwrap();
    obs::set_enabled(true);
    obs::reset();
    tiny_run("telemetry-itest");

    let report = obs::RunReport::capture("telemetry_itest")
        .with_seed(2005)
        .with_config("scale", 0.05);
    assert_eq!(
        report.missing_counters(REQUIRED_COUNTERS),
        Vec::<String>::new(),
        "every acceptance counter must be present"
    );
    assert!(report.counters["stardb.buffer.logical_reads"] > 0);
    assert_eq!(
        report.counters["stardb.buffer.logical_reads"],
        report.counters["stardb.buffer.hits"] + report.counters["stardb.buffer.misses"],
        "every logical read is a hit or a miss"
    );
    assert_eq!(report.counters["maxbcg.pipeline.runs"], 1);
    // The durability round really exercised the WAL and MVCC paths.
    assert!(report.counters["stardb.wal.appends"] > 0);
    assert!(report.counters["stardb.wal.fsyncs"] > 0);
    assert!(report.counters["stardb.wal.recoveries"] >= 1);
    assert!(report.counters["stardb.wal.torn_pages"] >= 1);
    assert!(report.counters["stardb.mvcc.snapshots"] >= 1);
    assert!(report.counters["stardb.mvcc.cow_pages"] > 0);
    // The profiled region query moved the per-operator family and the
    // query-latency histogram; commits moved WAL commit latency.
    assert!(report.counters["stardb.op.scan.rows"] > 0);
    assert!(report.counters["stardb.op.scan.ns"] > 0);
    let lat = &report.histograms["stardb.query.latency_ns"];
    assert!(lat.count > 0, "profiled SELECTs must record latency");
    assert!(lat.p50 <= lat.p95 && lat.p95 <= lat.p99, "percentiles must be ordered");
    assert!(lat.p99 <= lat.max);
    assert!(report.histograms["stardb.wal.commit_latency_ns"].count > 0);
    // The scatter–gather round moved the distributed-exchange family:
    // subqueries fanned out, a shard was pruned, rows and bytes crossed
    // the wire, the crash plan cost retries, and every gather recorded
    // its end-to-end latency.
    assert!(report.counters["stardb.dist.subqueries"] > 0);
    assert!(report.counters["stardb.dist.shards_pruned"] > 0);
    assert!(report.counters["stardb.dist.rows_shipped"] > 0);
    assert!(report.counters["stardb.dist.bytes_shipped"] > 0);
    assert!(report.counters["stardb.dist.retries"] > 0);
    assert!(report.histograms["stardb.dist.gather_latency_ns"].count > 0);
    // The cross-survey round moved the zone-join operator family: probes
    // walked the zone map, candidate pairs were examined and matched, and
    // the co-partitioned rebuild shipped halo duplicates.
    assert!(report.counters["stardb.op.zonejoin.probes"] > 0);
    assert!(report.counters["stardb.op.zonejoin.pairs_examined"] > 0);
    assert!(report.counters["stardb.op.zonejoin.pairs_matched"] > 0);
    assert!(report.counters["stardb.op.zonejoin.halo_rows"] > 0);
    assert!(report.counters["maxbcg.xmatch.runs"] >= 1);
    assert!(report.counters["maxbcg.xmatch.pairs"] >= 48);

    // Spans: the run is a root span, the Table 1 tasks nest under it.
    let root = report
        .spans
        .iter()
        .find(|s| s.name == "telemetry-itest")
        .expect("pipeline root span");
    assert_eq!(root.depth, 0);
    for task in ["spZone", "fBCGCandidate", "fIsCluster"] {
        let s = report
            .spans
            .iter()
            .find(|s| s.name == task)
            .unwrap_or_else(|| panic!("span for {task}"));
        assert!(s.depth > 0, "{task} must nest under the run");
        assert!(s.path.starts_with("telemetry-itest/"), "path was {}", s.path);
        assert!(s.start_ns >= root.start_ns);
        assert!(s.start_ns + s.dur_ns <= root.start_ns + root.dur_ns);
    }

    // Canonical JSON round-trip: parse back equal, re-serialize identical.
    let json = report.to_canonical_json();
    let back = obs::RunReport::from_json(&json).expect("parses");
    assert_eq!(report, back);
    assert_eq!(json, back.to_canonical_json());

    // The fsync policy is honoured: `Commit` pays at least one fsync per
    // commit, `Never` not a single one.
    assert!(durable_exercise("fsync-commit", FsyncPolicy::Commit) >= 3);
    assert_eq!(durable_exercise("fsync-never", FsyncPolicy::Never), 0);
    obs::reset();
}

/// Audit: the REQUIRED_COUNTERS list cannot silently fall behind the
/// engine. Every counter the run actually registers under the planner,
/// WAL, per-operator, and distributed-exchange namespaces must be
/// asserted above — adding a new `stardb.plan.*` / `stardb.wal.*` /
/// `stardb.op.*` / `stardb.dist.*` counter without extending the
/// acceptance list fails this test.
#[test]
fn required_counters_cover_every_registered_plan_wal_op_counter() {
    let _g = GUARD.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    obs::set_enabled(true);
    obs::reset();
    tiny_run("counter-audit");
    let report = obs::RunReport::capture("counter_audit");
    let missing: Vec<&String> = report
        .counters
        .keys()
        .filter(|name| {
            ["stardb.plan.", "stardb.wal.", "stardb.op.", "stardb.dist."]
                .iter()
                .any(|p| name.starts_with(p))
        })
        .filter(|name| !REQUIRED_COUNTERS.contains(&name.as_str()))
        .collect();
    assert_eq!(
        missing,
        Vec::<&String>::new(),
        "registered counters absent from REQUIRED_COUNTERS"
    );
    obs::reset();
}

#[test]
fn disabled_telemetry_run_is_byte_identical_and_silent() {
    let _g = GUARD.lock().unwrap();
    obs::set_enabled(true);
    obs::reset();
    let instrumented = tiny_run("enabled-run");
    let reads_after_instrumented = obs::counter("stardb.buffer.logical_reads").get();
    assert!(reads_after_instrumented > 0);

    obs::set_enabled(false);
    let dark = tiny_run("disabled-run");
    let dark_parallel = tiny_run_with("disabled-parallel-run", 2);
    obs::set_enabled(true);

    assert_eq!(instrumented, dark, "telemetry must never influence the catalog");
    assert_eq!(
        instrumented, dark_parallel,
        "telemetry must never influence the catalog, worker pools included"
    );
    assert_eq!(
        obs::counter("stardb.buffer.logical_reads").get(),
        reads_after_instrumented,
        "a disabled run must not move counters"
    );
    assert!(
        !obs::spans_snapshot().iter().any(|s| s.name == "disabled-run"),
        "a disabled run must not record spans"
    );
    obs::reset();
}

#[test]
fn worker_pools_record_contention_telemetry() {
    // Poison-tolerant: a failure in a sibling test must not cascade here.
    let _g = GUARD.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    obs::set_enabled(true);
    obs::reset();
    let seq = tiny_run("pool-seq");
    assert_eq!(obs::counter("maxbcg.parallel.pools").get(), 0, "sequential runs never fan out");
    let par = tiny_run_with("pool-par", 2);
    assert_eq!(par, seq, "fan-out changed the catalog");
    // Candidates, clusters, and members each ran one pool.
    assert_eq!(obs::counter("maxbcg.parallel.pools").get(), 3);
    assert!(obs::counter("maxbcg.parallel.stripes").get() > 0);
    obs::reset();
}
