//! `fGetClusterGalaxiesMetric` and `spMakeGalaxiesMetric`: retrieve the
//! galaxies belonging to each cluster — everything within
//! `radius(z) * r200(ngal)` degrees of the BCG that sits inside the
//! magnitude and ridge-line color windows at the cluster redshift.

use crate::cluster::candidate_from_row;
use crate::neighbors::visit_nearby_with;
use crate::zone_cache::ZoneSnapshot;
use skycore::bcg::{self, BcgParams};
use skycore::kcorr::KcorrTable;
use skycore::types::{Cluster, ClusterMember};
use skycore::ZoneScheme;
use stardb::{Database, DbResult, Row, Value};

/// `fGetClusterGalaxiesMetric` for one cluster: the BCG itself (distance
/// 0) plus every admitted member.
///
/// `snap` is the optional zone snapshot; fresh → columnar search, stale or
/// `None` → clustered-index scan, identical answers either way.
pub fn f_get_cluster_galaxies(
    db: &Database,
    snap: Option<&ZoneSnapshot>,
    kcorr: &KcorrTable,
    scheme: &ZoneScheme,
    params: &BcgParams,
    cluster: &Cluster,
) -> DbResult<Vec<ClusterMember>> {
    let k = kcorr.nearest(cluster.z);
    let w = bcg::member_windows(k, cluster.i, f64::from(cluster.ngal), params);
    // Insert the central galaxy first, as the SQL does.
    let mut members = vec![ClusterMember {
        cluster_objid: cluster.objid,
        galaxy_objid: cluster.objid,
        distance: 0.0,
    }];
    visit_nearby_with(db, snap, scheme, cluster.ra, cluster.dec, w.radius_deg, |hit| {
        if hit.objid != cluster.objid && w.admits(&hit.friend()) {
            members.push(ClusterMember {
                cluster_objid: cluster.objid,
                galaxy_objid: hit.objid,
                distance: hit.distance,
            });
        }
        true
    })?;
    Ok(members)
}

/// `spMakeGalaxiesMetric`: loop over `Clusters` (a cursor in the paper)
/// filling `ClusterGalaxiesMetric`. Returns the number of membership rows.
///
/// `workers > 1` expands clusters on a zone-striped worker pool
/// (`fGetClusterGalaxiesMetric` only reads `Zone`). The
/// metric table is a heap whose scan order is insertion order, so the
/// per-cluster groups are merged back into cluster-objid order — the
/// sequential insertion order, `Clusters` being objid-clustered — before
/// writing; within a group the BCG-first visit order is already
/// deterministic.
pub fn sp_make_galaxies_metric(
    db: &mut Database,
    snap: Option<&ZoneSnapshot>,
    kcorr: &KcorrTable,
    scheme: &ZoneScheme,
    params: &BcgParams,
    workers: usize,
) -> DbResult<u64> {
    db.truncate("ClusterGalaxiesMetric")?;
    let mut clusters = Vec::new();
    db.scan_with("Clusters", |row| {
        clusters.push(candidate_from_row(row)?);
        Ok(true)
    })?;
    let groups: Vec<Vec<ClusterMember>> = if workers <= 1 {
        let mut out = Vec::with_capacity(clusters.len());
        for cluster in &clusters {
            out.push(f_get_cluster_galaxies(db, snap, kcorr, scheme, params, cluster)?);
        }
        out
    } else {
        let reader = db.reader();
        let stripes = crate::parallel::zone_stripes(clusters, |c| scheme.zone_of(c.dec), workers);
        let mut groups: Vec<Vec<ClusterMember>> =
            crate::parallel::map_stripes(workers, stripes, |cluster| {
                f_get_cluster_galaxies(&reader, snap, kcorr, scheme, params, cluster)
            })?
            .into_iter()
            .flatten()
            .collect();
        // Every group leads with its BCG row, so the key always exists.
        groups.sort_by_key(|ms| ms.first().map(|m| m.cluster_objid));
        groups
    };
    let mut n = 0;
    let mut rows = groups.into_iter().flatten().map(|m| {
        Row(vec![
            Value::BigInt(m.cluster_objid),
            Value::BigInt(m.galaxy_objid),
            Value::Float(m.distance),
        ])
    });
    loop {
        let batch: Vec<Row> = rows.by_ref().take(crate::parallel::INSERT_BATCH).collect();
        if batch.is_empty() {
            break;
        }
        n += db.insert_rows("ClusterGalaxiesMetric", batch)?;
    }
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::candidate_row;
    use crate::import::{galaxy_from_row, sp_import_galaxy};
    use crate::neighbors::nearby_obj_eq_zd;
    use crate::schema::create_schema;
    use crate::zone_task::sp_zone;
    use skycore::kcorr::KcorrConfig;
    use skycore::types::{Candidate, Friend};
    use skycore::{Galaxy, SkyRegion};
    use stardb::DbConfig;

    /// One cluster of known membership: BCG + 5 on-ridge members inside
    /// the metric radius + contaminants (too blue / too bright / too far).
    fn setup() -> (Database, KcorrTable, ZoneScheme, Cluster) {
        let kcorr = KcorrTable::generate(KcorrConfig::sql());
        let mut db = Database::new(DbConfig::in_memory());
        create_schema(&mut db, &kcorr).unwrap();
        let k = kcorr.nearest(0.15);
        let ngal = 6.0;
        let rad = k.radius * bcg::r200_mpc(ngal);
        let mut galaxies = vec![Galaxy::with_derived_errors(1, 180.0, 0.0, k.i, k.gr, k.ri)];
        for j in 0..5i64 {
            let ang = j as f64 * std::f64::consts::TAU / 5.0;
            galaxies.push(Galaxy::with_derived_errors(
                10 + j,
                180.0 + 0.6 * rad * ang.cos(),
                0.6 * rad * ang.sin(),
                k.i + 1.0,
                k.gr,
                k.ri,
            ));
        }
        // Contaminants: wrong color, brighter than BCG, outside radius.
        galaxies.push(Galaxy::with_derived_errors(20, 180.01, 0.01, k.i + 1.0, k.gr - 0.5, k.ri));
        galaxies.push(Galaxy::with_derived_errors(21, 180.02, 0.0, k.i - 1.0, k.gr, k.ri));
        galaxies.push(Galaxy::with_derived_errors(22, 180.0 + 3.0 * rad, 0.0, k.i + 1.0, k.gr, k.ri));
        let sky = skysim::Sky {
            region: SkyRegion::new(179.0, 181.0, -1.0, 1.0),
            galaxies,
            truth: vec![],
        };
        sp_import_galaxy(&mut db, &sky, &sky.region.clone()).unwrap();
        let scheme = ZoneScheme::default();
        sp_zone(&mut db, &scheme).unwrap();
        let cluster =
            Candidate { objid: 1, ra: 180.0, dec: 0.0, z: 0.15, i: k.i, ngal: 6, chi2: 1.0 };
        db.insert("Clusters", candidate_row(&cluster)).unwrap();
        (db, kcorr, scheme, cluster)
    }

    /// The join this function used to run, kept as the reference: one
    /// `Galaxy` point read per neighbor for its photometry.
    fn via_galaxy_join(
        db: &Database,
        kcorr: &KcorrTable,
        scheme: &ZoneScheme,
        p: &BcgParams,
        c: &Cluster,
    ) -> Vec<ClusterMember> {
        let w = bcg::member_windows(kcorr.nearest(c.z), c.i, f64::from(c.ngal), p);
        let member = |galaxy_objid, distance| ClusterMember {
            cluster_objid: c.objid,
            galaxy_objid,
            distance,
        };
        let mut out = vec![member(c.objid, 0.0)];
        let hits = nearby_obj_eq_zd(db, scheme, c.ra, c.dec, w.radius_deg).unwrap();
        for n in hits.iter().filter(|n| n.objid != c.objid) {
            let row = db.get("Galaxy", &[Value::BigInt(n.objid)]).unwrap().unwrap();
            let g = galaxy_from_row(&row).unwrap();
            let (objid, distance) = (n.objid, n.distance);
            if w.admits(&Friend { objid, distance, i: g.i, gr: g.gr, ri: g.ri }) {
                out.push(member(objid, distance));
            }
        }
        out
    }

    #[test]
    fn covered_read_agrees_with_the_galaxy_join_on_every_path() {
        let (mut run, kcorr) = crate::pipeline::test_run(707);
        let (scheme, p) = (*run.scheme(), BcgParams::default());
        let clusters = run.clusters().unwrap();
        assert!(clusters.len() > 5, "need clusters to compare, got {}", clusters.len());
        let joined: Vec<Vec<ClusterMember>> =
            clusters.iter().map(|c| via_galaxy_join(run.db(), &kcorr, &scheme, &p, c)).collect();
        assert!(joined.iter().any(|ms| ms.len() > 3), "need clusters with members");
        // Concatenated in Clusters order, the reference is the table the
        // procedure wrote.
        assert_eq!(joined.concat(), run.members().unwrap());
        let snap = run.zone_snapshot().expect("zone cache on by default").clone();
        let agree = |db: &Database, snap: Option<&ZoneSnapshot>, what: &str| {
            let reads = db.io_stats().logical_reads;
            for (c, want) in clusters.iter().zip(&joined) {
                let got = f_get_cluster_galaxies(db, snap, &kcorr, &scheme, &p, c).unwrap();
                assert_eq!(&got, want, "{what}: cluster {}", c.objid);
            }
            db.io_stats().logical_reads - reads
        };
        assert!(agree(run.db(), None, "no snapshot") > 0);
        assert_eq!(agree(run.db(), Some(&snap), "fresh snapshot"), 0, "fresh snapshot read pages");
        run.make_zone().unwrap();
        assert!(!snap.is_fresh(run.db()));
        assert!(agree(run.db(), Some(&snap), "stale snapshot") > 0);
    }

    #[test]
    fn members_are_exactly_the_injected_ones() {
        let (db, kcorr, scheme, cluster) = setup();
        let p = BcgParams::default();
        let members = f_get_cluster_galaxies(&db, None, &kcorr, &scheme, &p, &cluster).unwrap();
        let mut ids: Vec<i64> = members.iter().map(|m| m.galaxy_objid).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![1, 10, 11, 12, 13, 14]);
    }

    #[test]
    fn bcg_row_comes_first_with_distance_zero() {
        let (db, kcorr, scheme, cluster) = setup();
        let p = BcgParams::default();
        let members = f_get_cluster_galaxies(&db, None, &kcorr, &scheme, &p, &cluster).unwrap();
        assert_eq!(members[0].galaxy_objid, 1);
        assert_eq!(members[0].distance, 0.0);
        assert!(members[1..].iter().all(|m| m.distance > 0.0));
    }

    #[test]
    fn metric_table_filled_by_procedure() {
        let (mut db, kcorr, scheme, _) = setup();
        let p = BcgParams::default();
        let n = sp_make_galaxies_metric(&mut db, None, &kcorr, &scheme, &p, 1).unwrap();
        assert_eq!(n, 6);
        assert_eq!(db.row_count("ClusterGalaxiesMetric").unwrap(), 6);
        // Re-running truncates and refills.
        let n2 = sp_make_galaxies_metric(&mut db, None, &kcorr, &scheme, &p, 1).unwrap();
        assert_eq!(n2, 6);
        assert_eq!(db.row_count("ClusterGalaxiesMetric").unwrap(), 6);
    }

    #[test]
    fn worker_pool_matches_sequential_table() {
        let (mut db, kcorr, scheme, _) = setup();
        let p = BcgParams::default();
        let n1 = sp_make_galaxies_metric(&mut db, None, &kcorr, &scheme, &p, 1).unwrap();
        let seq = db.scan("ClusterGalaxiesMetric").unwrap();
        for workers in [2, 4] {
            let n = sp_make_galaxies_metric(&mut db, None, &kcorr, &scheme, &p, workers).unwrap();
            assert_eq!(n, n1, "workers={workers}");
            assert_eq!(db.scan("ClusterGalaxiesMetric").unwrap(), seq, "workers={workers}");
        }
    }
}
