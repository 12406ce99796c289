//! `fIsCluster` and `spMakeClusters`: decide which candidates are the
//! centers of their clusters.
//!
//! A candidate is a cluster center when it carries the maximum likelihood
//! among all candidates within `radius(z)` degrees and `|Δz| <= 0.05` —
//! found, as in the paper, by running the zone neighborhood search over the
//! galaxy Zone table and joining the hits against `Candidates`: a probe of
//! the candidate list `spMakeClusters` holds, not a point read per hit.

use crate::neighbors::visit_nearby_with;
use crate::zone_cache::ZoneSnapshot;
use skycore::bcg::{self, BcgParams};
use skycore::kcorr::KcorrTable;
use skycore::types::Candidate;
use skycore::ZoneScheme;
use stardb::{Database, DbResult, Row, Value};

/// Decode a `Candidates`/`Clusters` row.
pub fn candidate_from_row(row: &Row) -> DbResult<Candidate> {
    Ok(Candidate {
        objid: row.i64(0)?,
        ra: row.f64(1)?,
        dec: row.f64(2)?,
        z: row.f64(3)?,
        i: row.f64(4)?,
        ngal: row.i64(5)? as i32,
        chi2: row.f64(6)?,
    })
}

/// Encode a candidate as a table row.
pub fn candidate_row(c: &Candidate) -> Row {
    Row(vec![
        Value::BigInt(c.objid),
        Value::Float(c.ra),
        Value::Float(c.dec),
        Value::Float(c.z),
        Value::Real(c.i as f32),
        Value::Int(c.ngal),
        Value::Float(c.chi2),
    ])
}

/// `fIsCluster`: is this candidate the best in its neighborhood?
///
/// `candidates` is the whole `Candidates` table in its clustered (objid)
/// order — the build side of the appendix's `JOIN Candidates`, probed by
/// binary search: most neighbor *galaxies* are not candidates, and the
/// caller already holds the list.
///
/// `snap` is the optional zone snapshot; fresh → columnar search, stale or
/// `None` → clustered-index scan, identical answers either way.
pub fn f_is_cluster(
    db: &Database,
    snap: Option<&ZoneSnapshot>,
    kcorr: &KcorrTable,
    scheme: &ZoneScheme,
    params: &BcgParams,
    candidates: &[Candidate],
    c: &Candidate,
) -> DbResult<bool> {
    let rad = kcorr.nearest(c.z).radius;
    let mut best = f64::NEG_INFINITY;
    visit_nearby_with(db, snap, scheme, c.ra, c.dec, rad, |hit| {
        if let Ok(at) = candidates.binary_search_by_key(&hit.objid, |n| n.objid) {
            let n = &candidates[at];
            if (n.z - c.z).abs() <= params.z_window {
                best = best.max(n.chi2);
            }
        }
        true
    })?;
    Ok(bcg::is_cluster_center(c.chi2, best, params))
}

/// `spMakeClusters`: truncate `Clusters` and insert every candidate for
/// which `fIsCluster` returns 1. Returns the number of clusters.
///
/// `workers > 1` evaluates `fIsCluster` on a zone-striped worker pool
/// (`fIsCluster` only reads `Zone` and the candidate list, which the
/// workers share by reference); survivors are re-sorted by objid before
/// insertion so the `Clusters` table is byte-identical at any worker count.
pub fn sp_make_clusters(
    db: &mut Database,
    snap: Option<&ZoneSnapshot>,
    kcorr: &KcorrTable,
    scheme: &ZoneScheme,
    params: &BcgParams,
    workers: usize,
) -> DbResult<u64> {
    db.truncate("Clusters")?;
    // Materialize the candidate list first (the scan must not alias the
    // inserts); candidate counts are ~3% of galaxies, so this is small.
    // The scan is in clustered-key order, which is the objid order
    // `f_is_cluster` probes by; a row that does not decode fails the task.
    let mut candidates = Vec::new();
    db.scan_with("Candidates", |row| {
        candidates.push(candidate_from_row(row)?);
        Ok(true)
    })?;
    let mut keep: Vec<Candidate> = if workers <= 1 {
        let mut out = Vec::new();
        for c in &candidates {
            if f_is_cluster(db, snap, kcorr, scheme, params, &candidates, c)? {
                out.push(*c);
            }
        }
        out
    } else {
        let reader = db.reader();
        let stripes =
            crate::parallel::zone_stripes(candidates.clone(), |c| scheme.zone_of(c.dec), workers);
        crate::parallel::map_stripes(workers, stripes, |c| {
            Ok(f_is_cluster(&reader, snap, kcorr, scheme, params, &candidates, c)?.then_some(*c))
        })?
        .into_iter()
        .flatten()
        .flatten()
        .collect()
    };
    keep.sort_by_key(|c| c.objid);
    let mut n = 0;
    let mut keep = keep.into_iter();
    loop {
        let batch: Vec<_> =
            keep.by_ref().take(crate::parallel::INSERT_BATCH).map(|c| candidate_row(&c)).collect();
        if batch.is_empty() {
            break;
        }
        n += db.insert_rows("Clusters", batch)?;
    }
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::import::sp_import_galaxy;
    use crate::schema::create_schema;
    use crate::zone_task::sp_zone;
    use skycore::kcorr::KcorrConfig;
    use skycore::SkyRegion;
    use stardb::DbConfig;

    /// A hand-built Candidates table: one dominant candidate and one
    /// nearby weaker one at the same redshift, plus a distant candidate.
    fn setup() -> (Database, KcorrTable, ZoneScheme, Vec<Candidate>) {
        let kcorr = KcorrTable::generate(KcorrConfig::sql());
        let mut db = Database::new(DbConfig::in_memory());
        create_schema(&mut db, &kcorr).unwrap();
        let (scheme, candidates) = populate(&mut db, &kcorr);
        (db, kcorr, scheme, candidates)
    }

    /// Fill an empty MaxBCG schema with the three-candidate scene.
    fn populate(db: &mut Database, kcorr: &KcorrTable) -> (ZoneScheme, Vec<Candidate>) {
        // Galaxies backing the zone table: the three candidates.
        let k = kcorr.nearest(0.2);
        let mk = |objid: i64, ra: f64, dec: f64| {
            skycore::Galaxy::with_derived_errors(objid, ra, dec, k.i, k.gr, k.ri)
        };
        let sky = skysim::Sky {
            region: SkyRegion::new(179.0, 182.0, -1.0, 1.0),
            galaxies: vec![mk(1, 180.5, 0.0), mk(2, 180.52, 0.01), mk(3, 181.5, 0.5)],
            truth: vec![],
        };
        sp_import_galaxy(db, &sky, &sky.region.clone()).unwrap();
        let scheme = ZoneScheme::default();
        sp_zone(db, &scheme).unwrap();
        let candidates = vec![
            Candidate { objid: 1, ra: 180.5, dec: 0.0, z: 0.2, i: k.i, ngal: 10, chi2: 2.0 },
            Candidate { objid: 2, ra: 180.52, dec: 0.01, z: 0.2, i: k.i, ngal: 4, chi2: 1.0 },
            Candidate { objid: 3, ra: 181.5, dec: 0.5, z: 0.2, i: k.i, ngal: 5, chi2: 1.5 },
        ];
        for c in &candidates {
            db.insert("Candidates", candidate_row(c)).unwrap();
        }
        (scheme, candidates)
    }

    #[test]
    fn dominant_candidate_wins_weaker_neighbor_loses() {
        let (db, kcorr, scheme, cands) = setup();
        let p = BcgParams::default();
        assert!(f_is_cluster(&db, None, &kcorr, &scheme, &p, &cands, &cands[0]).unwrap());
        assert!(!f_is_cluster(&db, None, &kcorr, &scheme, &p, &cands, &cands[1]).unwrap());
        // The distant candidate has no competition.
        assert!(f_is_cluster(&db, None, &kcorr, &scheme, &p, &cands, &cands[2]).unwrap());
    }

    #[test]
    fn different_redshift_slices_do_not_compete() {
        let (mut db, kcorr, scheme, mut cands) = setup();
        let p = BcgParams::default();
        // Move the weaker neighbor far in redshift: it now wins its own slice.
        db.delete_by_key("Candidates", &[Value::BigInt(2)]).unwrap();
        cands[1].z = 0.30;
        db.insert("Candidates", candidate_row(&cands[1])).unwrap();
        assert!(f_is_cluster(&db, None, &kcorr, &scheme, &p, &cands, &cands[1]).unwrap());
        // And through the procedure, which reads the list from the table.
        assert_eq!(sp_make_clusters(&mut db, None, &kcorr, &scheme, &p, 1).unwrap(), 3);
    }

    /// The join `f_is_cluster` used to run, kept as the reference: one
    /// `Candidates` point read per neighbor galaxy.
    fn via_candidates_join(
        db: &Database,
        kcorr: &KcorrTable,
        scheme: &ZoneScheme,
        p: &BcgParams,
        c: &Candidate,
    ) -> bool {
        let rad = kcorr.nearest(c.z).radius;
        let mut best = f64::NEG_INFINITY;
        for n in crate::neighbors::nearby_obj_eq_zd(db, scheme, c.ra, c.dec, rad).unwrap() {
            if let Some(row) = db.get("Candidates", &[Value::BigInt(n.objid)]).unwrap() {
                let n = candidate_from_row(&row).unwrap();
                if (n.z - c.z).abs() <= p.z_window {
                    best = best.max(n.chi2);
                }
            }
        }
        bcg::is_cluster_center(c.chi2, best, p)
    }

    #[test]
    fn probing_the_list_agrees_with_the_candidates_join_and_reads_no_candidates_page() {
        let (run, kcorr) = crate::pipeline::test_run(606);
        let (db, scheme, p) = (run.db(), *run.scheme(), BcgParams::default());
        let cands = run.candidates().unwrap();
        assert!(cands.len() > 30, "need candidates that compete, got {}", cands.len());
        let snap = run.zone_snapshot().expect("zone cache on by default");
        let reads = || db.io_stats().logical_reads;
        let (mut won, mut lost) = (0, 0);
        for c in &cands {
            let want = via_candidates_join(db, &kcorr, &scheme, &p, c);
            // Fresh snapshot: nothing is read from the pool at all.
            let before = reads();
            let got = f_is_cluster(db, Some(snap), &kcorr, &scheme, &p, &cands, c).unwrap();
            assert_eq!(reads(), before, "objid {} touched the pool", c.objid);
            assert_eq!(got, want, "objid {}", c.objid);
            // B-tree path: exactly the pages of the bare zone search.
            let rad = kcorr.nearest(c.z).radius;
            let before = reads();
            crate::neighbors::visit_nearby(db, &scheme, c.ra, c.dec, rad, |_| true).unwrap();
            let search_only = reads() - before;
            let before = reads();
            let got = f_is_cluster(db, None, &kcorr, &scheme, &p, &cands, c).unwrap();
            assert_eq!(reads() - before, search_only, "objid {} read beyond Zone", c.objid);
            assert_eq!(got, want, "objid {}", c.objid);
            if want {
                won += 1;
            } else {
                lost += 1;
            }
        }
        assert!(won > 0 && lost > 0, "both outcomes must occur: {won} won, {lost} lost");
        assert_eq!(won, run.clusters().unwrap().len());
    }

    #[test]
    fn a_candidates_row_that_does_not_decode_fails_the_task() {
        // The appendix DDL leaves z and chi2 nullable. A candidate without
        // a likelihood must stop spMakeClusters, not quietly stop competing
        // and change which clusters win.
        let kcorr = KcorrTable::generate(KcorrConfig::sql());
        let mut db = Database::new(DbConfig::in_memory());
        crate::script::create_schema_from_script(&mut db).unwrap();
        let (scheme, cands) = populate(&mut db, &kcorr);
        let p = BcgParams::default();
        assert_eq!(sp_make_clusters(&mut db, None, &kcorr, &scheme, &p, 1).unwrap(), 2);
        let mut bad = candidate_row(&cands[1]);
        bad.0[0] = Value::BigInt(4);
        bad.0[6] = Value::Null;
        db.insert("Candidates", bad).unwrap();
        for workers in [1, 2] {
            match sp_make_clusters(&mut db, None, &kcorr, &scheme, &p, workers) {
                Err(stardb::DbError::TypeError(msg)) => assert!(msg.contains("NULL"), "{msg}"),
                other => panic!("workers={workers}: expected a TypeError, got {other:?}"),
            }
        }
    }

    #[test]
    fn sp_make_clusters_fills_table() {
        let (mut db, kcorr, scheme, _) = setup();
        let p = BcgParams::default();
        let n = sp_make_clusters(&mut db, None, &kcorr, &scheme, &p, 1).unwrap();
        assert_eq!(n, 2);
        assert_eq!(db.row_count("Clusters").unwrap(), 2);
        let ids: Vec<i64> = db
            .scan("Clusters")
            .unwrap()
            .iter()
            .map(|r| r.i64(0).unwrap())
            .collect();
        assert_eq!(ids, vec![1, 3]);
    }

    #[test]
    fn rerun_is_idempotent() {
        let (mut db, kcorr, scheme, _) = setup();
        let p = BcgParams::default();
        let a = sp_make_clusters(&mut db, None, &kcorr, &scheme, &p, 1).unwrap();
        let b = sp_make_clusters(&mut db, None, &kcorr, &scheme, &p, 1).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn worker_pool_matches_sequential_table() {
        let (mut db, kcorr, scheme, _) = setup();
        let p = BcgParams::default();
        let n1 = sp_make_clusters(&mut db, None, &kcorr, &scheme, &p, 1).unwrap();
        let seq = db.scan("Clusters").unwrap();
        for workers in [2, 4] {
            let n = sp_make_clusters(&mut db, None, &kcorr, &scheme, &p, workers).unwrap();
            assert_eq!(n, n1, "workers={workers}");
            assert_eq!(db.scan("Clusters").unwrap(), seq, "workers={workers}");
        }
    }
}
