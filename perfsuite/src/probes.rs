//! Layer probes of the traced run: each a direct call into one public
//! function of one layer, over a scratch table of the run's own galaxies,
//! after the timed work — never inside an end-to-end interval. They are
//! the same on every workload, so a layer's unit cost can be read beside
//! whichever workload's numbers moved.

use crate::harness::{timed, Config, Rng, Run};
use crate::stats::median;
use crate::trace::span;
use gridsim::{db_cluster, GridCluster, RoutedJob};
use maxbcg::import::galaxy_row;
use skycore::types::Galaxy;
use skycore::ZoneScheme;
use skysim::Sky;
use stardb::buffer::{BufferPool, DiskProfile};
use stardb::dist::{canonical_keys, decode_wire_stream, infer_wire_dtypes, merge_streams};
use stardb::store::{MemStore, PageStore};
use stardb::{
    BinOp, ColumnBatch, ColumnHashTable, Database, DbConfig, Expr, Row, VPredicate, Value, ZoneMap,
};
use std::sync::Arc;

/// Median wall of `reps` repetitions of `f`, seconds.
fn median_of<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let walls: Vec<f64> = (0..reps).map(|_| timed(&mut f).1).collect();
    median(&walls)
}

/// Run every probe over the first galaxies of `sky`.
pub fn run(cfg: &Config, sky: &Sky, run: &mut Run) {
    let _probes = span("perfsuite", "probes", 0);
    let n = sky.galaxies.len().min(cfg.size(50_000, 2_000));
    let galaxies = &sky.galaxies[..n];
    let mut rng = Rng::new(cfg.seed ^ 0x70726f6265);

    let db = btree_probes(galaxies, &mut rng, run);
    let batches = colbatch_probes(&db, galaxies, run);
    dist_probes(&db, &batches, run);
    buffer_probe(cfg, run);
    zonemap_probes(galaxies, &mut rng, run);
    gridsim_probe(run);
}

/// Sorted bulk insert into a scratch table (returned for the other
/// probes), warm point reads, and the raw leaf walk.
fn btree_probes(galaxies: &[Galaxy], rng: &mut Rng, run: &mut Run) -> Database {
    let n = galaxies.len() as f64;
    let mut db = Database::new(DbConfig::in_memory());
    db.create_clustered_table("Galaxy", maxbcg::schema::galaxy_schema(), &["objid"])
        .expect("scratch schema");
    let rows: Vec<Row> = galaxies.iter().map(galaxy_row).collect();
    let inserted = {
        let _s = span("stardb.btree", "insert_rows", 0);
        timed(|| db.insert_rows("Galaxy", rows))
    };
    run.op(inserted.0.is_ok(), || {
        format!("btree probe insert: {:?}", inserted.0)
    });
    run.layer("stardb.btree.insert_rows_per_s", n / inserted.1);

    let keys: Vec<i64> = (0..galaxies.len())
        .map(|_| galaxies[rng.below(galaxies.len())].objid)
        .collect();
    let get_all = || {
        keys.iter()
            .filter(|&&k| matches!(db.get("Galaxy", &[Value::BigInt(k)]), Ok(Some(_))))
            .count()
    };
    get_all();
    let (found, wall) = {
        let _s = span("stardb.btree", "get", 0);
        timed(get_all)
    };
    run.op(found == keys.len(), || {
        format!("btree probe: {found} of {} keys found", keys.len())
    });
    run.layer("stardb.btree.get_us", wall * 1e6 / n);

    let _s = span("stardb.btree", "scan_raw", 0);
    let walk_s = median_of(5, || {
        let mut bytes = 0usize;
        db.scan_raw("Galaxy", |p| {
            bytes += p.len();
            true
        })
        .map(|()| bytes)
    });
    run.layer("stardb.btree.scan_raw_rows_per_s", n / walk_s);
    db
}

/// Columnar decode, vectorized select, the hash join's two halves, and
/// the wire decode the fabric's gather leans on.
fn colbatch_probes(db: &Database, galaxies: &[Galaxy], run: &mut Run) -> Vec<ColumnBatch> {
    let n = galaxies.len() as f64;
    let mut batches = Vec::new();
    let fetch_s = {
        let _s = span("stardb.colbatch", "fetch_columns", 0);
        median_of(5, || {
            batches.clear();
            let mut scan = db.batch_scan("Galaxy").expect("batch scan");
            while let Some(chunk) = scan.fetch_columns(db, 1024).expect("fetch_columns") {
                batches.push(chunk.batch);
            }
        })
    };
    run.op(
        batches.iter().map(ColumnBatch::len).sum::<usize>() == galaxies.len(),
        || "fetch_columns lost rows".to_owned(),
    );
    run.layer("stardb.colbatch.fetch_columns_rows_per_s", n / fetch_s);

    let schema = db.schema_of("Galaxy").expect("schema").clone();
    let pred = Expr::col(&schema, "i")
        .expect("column i")
        .bin(BinOp::Lt, Expr::lit(19.5));
    let dtypes = batches.first().map(ColumnBatch::dtypes).unwrap_or_default();
    let compiled = VPredicate::compile(&pred, &dtypes);
    run.op(compiled.is_compiled(), || {
        "`i < 19.5` did not compile to a kernel".to_owned()
    });
    let select_s = {
        let _s = span("stardb.colbatch", "select", 0);
        median_of(5, || {
            batches
                .iter()
                .map(|b| compiled.select(b).map_or(0, |s| s.len()))
                .sum::<usize>()
        })
    };
    run.layer("stardb.colbatch.select_rows_per_s", n / select_s);

    // Build on a fifth of the table, probe with all of it.
    let build_side: Vec<ColumnBatch> = batches.iter().step_by(5).cloned().collect();
    let build_rows: usize = build_side.iter().map(ColumnBatch::len).sum();
    let merged = build_side
        .iter()
        .skip(1)
        .fold(build_side[0].clone(), |mut all, b| {
            all.extend_from(b).expect("same schema");
            all
        });
    let build_s = {
        let _s = span("stardb.colbatch", "hash_build", 0);
        median_of(5, || {
            ColumnHashTable::build(merged.clone(), 0).map(|t| t.build_rows())
        })
    };
    // `merged.clone()` is inside the timed closure: take its cost out.
    let clone_s = median_of(5, || merged.clone().len());
    run.layer(
        "stardb.colbatch.hash_build_rows_per_s",
        build_rows as f64 / (build_s - clone_s).max(1e-9),
    );
    let table = ColumnHashTable::build(merged, 0).expect("hash build");
    let (matched, probe_s) = {
        let _s = span("stardb.colbatch", "hash_probe", 0);
        let mut matched = 0;
        let wall = median_of(5, || {
            matched = batches
                .iter()
                .map(|b| table.probe(b, 0).map_or(0, |out| out.len()))
                .sum::<usize>()
        });
        (matched, wall)
    };
    run.op(matched == build_rows, || {
        format!("hash probe matched {matched} of {build_rows} build rows")
    });
    run.layer("stardb.colbatch.hash_probe_rows_per_s", n / probe_s);
    batches
}

/// The wire codec and the gather merge over the scratch table's rows,
/// split into four streams as four shards would ship them.
fn dist_probes(db: &Database, batches: &[ColumnBatch], run: &mut Run) {
    let mut payloads: Vec<Vec<u8>> = Vec::new();
    db.scan_raw("Galaxy", |p| {
        payloads.push(p.to_vec());
        true
    })
    .expect("scan_raw");
    let n = payloads.len() as f64;
    let width = batches.first().map_or(0, ColumnBatch::num_cols);
    let dtypes = infer_wire_dtypes(&payloads, width).expect("wire dtypes");
    let push_s = {
        let _s = span("stardb.colbatch", "push_wire", 0);
        median_of(5, || {
            let mut batch = ColumnBatch::with_capacity(&dtypes, payloads.len());
            payloads
                .iter()
                .filter(|p| batch.push_wire(p).is_ok())
                .count()
        })
    };
    run.layer("stardb.colbatch.push_wire_rows_per_s", n / push_s);

    let quarter = payloads.len().div_ceil(4).max(1);
    let decode = || -> Vec<Vec<ColumnBatch>> {
        payloads
            .chunks(quarter)
            .map(|c| decode_wire_stream(c, &dtypes, 1024).expect("decode"))
            .collect()
    };
    let decode_s = {
        let _s = span("stardb.dist", "decode_wire_stream", 0);
        median_of(5, decode)
    };
    let streams = decode();
    let keys = canonical_keys(width, &[]);
    let merge_s = {
        let _s = span("stardb.dist", "merge_streams", 0);
        median_of(3, || merge_streams(&streams, &keys).len())
    };
    run.layer("stardb.dist.decode_wire_rows_per_s", n / decode_s);
    run.layer("stardb.dist.merge_rows_per_s", n / merge_s);
}

/// `BufferPool::with_page` over resident pages.
fn buffer_probe(cfg: &Config, run: &mut Run) {
    let pages = cfg.size(4096, 256);
    let store = Arc::new(MemStore::new());
    let pool = BufferPool::new(
        store as Arc<dyn PageStore>,
        pages * 2,
        DiskProfile::instant(),
    );
    let ids: Vec<_> = (0..pages)
        .map(|_| pool.allocate().expect("allocate"))
        .collect();
    let touch = || {
        ids.iter()
            .map(|&id| pool.with_page(id, |p| u64::from(p[0])).expect("with_page"))
            .sum::<u64>()
    };
    touch();
    let _s = span("stardb.buffer", "with_page", 0);
    run.layer(
        "stardb.buffer.with_page_ns",
        median_of(9, touch) * 1e9 / pages as f64,
    );
}

/// `ZoneMap::from_batch` over the galaxies zoned at 30″ (the shape of a
/// survey table), then seeded probes with a 1″ window.
fn zonemap_probes(galaxies: &[Galaxy], rng: &mut Rng, run: &mut Run) {
    let scheme = ZoneScheme::with_height(30.0 / 3600.0);
    let rows: Vec<Row> = galaxies
        .iter()
        .map(|g| Row(vec![Value::Int(scheme.zone_of(g.dec)), Value::Float(g.ra)]))
        .collect();
    let batch = ColumnBatch::from_rows(&[stardb::DataType::Int, stardb::DataType::Float], &rows)
        .expect("zone batch");
    let (map, build_s) = {
        let _s = span("stardb.zonemap", "from_batch", 0);
        timed(|| ZoneMap::from_batch(&batch, 0, 1, 0))
    };
    run.layer("stardb.zonemap.build_s", build_s);

    let at: Vec<(i64, f64)> = (0..galaxies.len())
        .map(|_| &galaxies[rng.below(galaxies.len())])
        .map(|g| (i64::from(scheme.zone_of(g.dec)), g.ra))
        .collect();
    let w = 1.0 / 3600.0;
    let mut out = Vec::new();
    let _s = span("stardb.zonemap", "probe", 0);
    let (hits, wall) = timed(|| {
        at.iter()
            .map(|&(z, ra)| {
                out.clear();
                map.probe(z - 1, z + 1, ra - w, ra + w, &mut out)
            })
            .sum::<usize>()
    });
    run.op(hits >= at.len() && map.len() == galaxies.len(), || {
        format!("{} self-probes hit {hits} entries", at.len())
    });
    run.layer("stardb.zonemap.probe_ns", wall * 1e9 / at.len() as f64);
}

/// `run_routed` with four no-op jobs on a four-node cluster.
fn gridsim_probe(run: &mut Run) {
    let cluster = GridCluster::new(db_cluster(4));
    let jobs = || -> Vec<RoutedJob<usize>> {
        (0..4)
            .map(|i| RoutedJob {
                name: format!("probe.s{i}"),
                ram_mb: 256,
                home: i,
                payload: i,
            })
            .collect()
    };
    let _s = span("gridsim", "run_routed", 0);
    let wall = median_of(51, || {
        cluster
            .run_routed(jobs(), |&i, _| Ok::<usize, String>(i))
            .0
            .len()
    });
    run.layer("gridsim.scatter_overhead_us", wall * 1e6);
}
