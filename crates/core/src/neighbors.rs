//! `fGetNearbyObjEqZd`: the zone-indexed neighborhood search.
//!
//! A line-by-line port of the paper's table-valued function: loop over the
//! zones a search circle overlaps, cut on right ascension inside each zone
//! with the per-zone narrowing factor `@x`, then keep objects whose squared
//! chord distance beats `4 sin²(r/2)`. The range scans run against the
//! `(zoneid, ra, objid)` clustered index — "this pure SQL approach avoids
//! the cost of using expensive calls to the external C-HTM libraries".

use crate::zone_cache::{zobs, ZoneSnapshot};
use crate::zone_task::zone_entry_from_payload;
use skycore::angle::{chord2_of_deg, deg_of_chord_approx};
use skycore::types::Friend;
use skycore::{ra_intervals, UnitVec, ZoneScheme};
use stardb::{Database, DbError, DbResult, Value};
use std::sync::OnceLock;

struct NeighborObs {
    searches: obs::Counter,
    zones_scanned: obs::Counter,
    pairs_examined: obs::Counter,
    pairs_per_zone: obs::Histogram,
}

/// Pair-examination accounting for the zone join. `pairs_examined` counts
/// rows the RA range scan surfaced (before the dec/chord cut);
/// `pairs_per_zone` is its per-zone-stripe distribution, the quantity the
/// zone-height tuning in the paper's tech report optimizes.
fn nobs() -> &'static NeighborObs {
    static N: OnceLock<NeighborObs> = OnceLock::new();
    N.get_or_init(|| NeighborObs {
        searches: obs::counter("maxbcg.neighbors.searches"),
        zones_scanned: obs::counter("maxbcg.neighbors.zones_scanned"),
        pairs_examined: obs::counter("maxbcg.neighbors.pairs_examined"),
        pairs_per_zone: obs::histogram("maxbcg.neighbors.pairs_per_zone"),
    })
}

/// One neighbor hit: object id and angular distance in degrees (the
/// paper's chord/d2r convention).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Neighbor {
    /// Object id from the Zone table.
    pub objid: i64,
    /// Angular distance to the query point, degrees.
    pub distance: f64,
}

/// One hit as the walker hands it to a visitor: everything the `Zone` row
/// holds about the neighbor that a predicate downstream of the search
/// reads, so no visitor joins back to `Galaxy`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ZoneHit {
    /// Object id from the Zone table.
    pub objid: i64,
    /// Angular distance to the query point, degrees.
    pub distance: f64,
    /// Declination of the hit, degrees.
    pub dec: f64,
    /// i-band magnitude, the `real` bits `Galaxy` stores.
    pub i: f32,
    /// g-r color, as stored.
    pub gr: f32,
    /// r-i color, as stored.
    pub ri: f32,
}

impl ZoneHit {
    /// The hit as the likelihood code's neighbor type. `f64::from` of the
    /// stored `real` is what decoding the `Galaxy` row yields, bit for bit.
    #[inline]
    pub fn friend(&self) -> Friend {
        Friend {
            objid: self.objid,
            distance: self.distance,
            i: f64::from(self.i),
            gr: f64::from(self.gr),
            ri: f64::from(self.ri),
        }
    }
}

/// Find every Zone-table object within `r` degrees of `(ra, dec)`.
/// The result includes the query object itself when it is in the table
/// (distance 0), exactly as the SQL function does — callers exclude self
/// where the paper's SQL has `n.objid != @objid`.
pub fn nearby_obj_eq_zd(
    db: &Database,
    scheme: &ZoneScheme,
    ra: f64,
    dec: f64,
    r: f64,
) -> DbResult<Vec<Neighbor>> {
    let mut out = Vec::new();
    visit_nearby(db, scheme, ra, dec, r, |hit| {
        out.push(Neighbor { objid: hit.objid, distance: hit.distance });
        true
    })?;
    Ok(out)
}

/// Visitor-form of [`nearby_obj_eq_zd`] for hot loops: called with each
/// [`ZoneHit`]; return `false` to stop.
///
/// `visit` runs inside the index scan, under the latch contract of
/// [`Database::scan_with`]: it must not call back into the database. It
/// has no reason to — `Zone` covers the neighbor predicates, so the
/// `JOIN Galaxy` of the paper's functions is answered from the hit.
pub fn visit_nearby(
    db: &Database,
    scheme: &ZoneScheme,
    ra: f64,
    dec: f64,
    r: f64,
    visit: impl FnMut(&ZoneHit) -> bool,
) -> DbResult<()> {
    visit_nearby_with(db, None, scheme, ra, dec, r, visit)
}

/// [`visit_nearby`] with an optional [`ZoneSnapshot`]: a fresh snapshot is
/// served from its struct-of-arrays buckets (binary-searched RA window,
/// contiguous column slices, no latches, no payload decode); a stale or
/// absent one falls back to the clustered-index scan. Both paths surface
/// the same rows in the same order and feed the same stored unit vectors
/// to the same chord arithmetic, so results are bit-identical — the
/// snapshot changes cost, never answers.
pub fn visit_nearby_with(
    db: &Database,
    snap: Option<&ZoneSnapshot>,
    scheme: &ZoneScheme,
    ra: f64,
    dec: f64,
    r: f64,
    mut visit: impl FnMut(&ZoneHit) -> bool,
) -> DbResult<()> {
    // Resolve the path once per search: the epoch read and the scans below
    // share one `&Database` borrow, so freshness cannot change mid-search.
    let snap = match snap {
        Some(s) if s.is_fresh(db) => {
            zobs().hits.incr();
            Some(s)
        }
        Some(_) => {
            zobs().fallbacks.incr();
            None
        }
        None => None,
    };
    let center = UnitVec::from_radec(ra, dec);
    let r2 = chord2_of_deg(r);
    let (zone_min, zone_max) = scheme.zone_range(dec, r);
    let (dec_lo, dec_hi) = (dec - r, dec + r);
    nobs().searches.incr();
    // The paper's WHERE clause — dec window plus exact chord cut — on one
    // row of either source; survivors go to the visitor. Returns whether
    // to keep going.
    let mut offer = |objid: i64, d: f64, pos: UnitVec, i: f32, gr: f32, ri: f32| -> bool {
        if d >= dec_lo && d <= dec_hi {
            let c2 = center.chord2(&pos);
            if c2 < r2 {
                let distance = deg_of_chord_approx(c2.sqrt());
                return visit(&ZoneHit { objid, distance, dec: d, i, gr, ri });
            }
        }
        true
    };
    for zone in zone_min..=zone_max {
        let x = scheme.ra_half_window(dec, r, zone);
        let (intervals, n_intervals) = ra_intervals(ra, x);
        let mut scanned: u64 = 0;
        // Cleared once the visitor asks to stop.
        let mut more = true;
        for &(ra_lo, ra_hi) in &intervals[..n_intervals] {
            if !more {
                break;
            }
            match snap {
                Some(s) => {
                    let b = s.bucket(zone);
                    let (start, end) = b.ra_window(ra_lo, ra_hi);
                    scanned += (end - start) as u64;
                    more = (start..end).all(|k| {
                        let pos = UnitVec { x: b.cx[k], y: b.cy[k], z: b.cz[k] };
                        offer(b.objid[k], b.dec[k], pos, b.i[k], b.gr[k], b.ri[k])
                    });
                }
                None => {
                    let lo = [Value::Int(zone), Value::Float(ra_lo)];
                    let hi = [Value::Int(zone), Value::Float(ra_hi)];
                    let mut bad: Option<DbError> = None;
                    db.range_scan_prefix_raw("Zone", &lo, &hi, |payload| {
                        scanned += 1;
                        match zone_entry_from_payload(payload) {
                            Ok(e) => more = offer(e.objid, e.dec, e.pos, e.i, e.gr, e.ri),
                            Err(e) => bad = Some(e),
                        }
                        more && bad.is_none()
                    })?;
                    if let Some(e) = bad {
                        return Err(e);
                    }
                }
            }
        }
        nobs().zones_scanned.incr();
        nobs().pairs_examined.add(scanned);
        nobs().pairs_per_zone.record(scanned);
        if !more {
            return Ok(());
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::import::sp_import_galaxy;
    use crate::schema::create_schema;
    use crate::zone_task::sp_zone;
    use skycore::kcorr::{KcorrConfig, KcorrTable};
    use skycore::SkyRegion;
    use skysim::{Sky, SkyConfig};
    use stardb::DbConfig;

    fn setup(seed: u64) -> (Database, Sky, ZoneScheme) {
        let kcorr = KcorrTable::generate(KcorrConfig::sql());
        let mut db = Database::new(DbConfig::in_memory());
        create_schema(&mut db, &kcorr).unwrap();
        let region = SkyRegion::new(180.0, 181.0, -0.5, 0.5);
        let sky = Sky::generate(region, &SkyConfig::scaled(0.15), &kcorr, seed);
        sp_import_galaxy(&mut db, &sky, &region).unwrap();
        let scheme = ZoneScheme::default();
        sp_zone(&mut db, &scheme).unwrap();
        (db, sky, scheme)
    }

    fn brute_force(sky: &Sky, ra: f64, dec: f64, r: f64) -> Vec<i64> {
        let center = UnitVec::from_radec(ra, dec);
        let r2 = chord2_of_deg(r);
        let mut ids: Vec<i64> = sky
            .galaxies
            .iter()
            .filter(|g| center.chord2(&g.unit_vec()) < r2)
            .map(|g| g.objid)
            .collect();
        ids.sort_unstable();
        ids
    }

    #[test]
    fn matches_brute_force_at_several_radii() {
        let (db, sky, scheme) = setup(31);
        for &(ra, dec, r) in &[
            (180.5, 0.0, 0.5),
            (180.2, 0.3, 0.25),
            (180.9, -0.4, 0.1),
            (180.5, 0.45, 0.3), // circle sticks out of the populated region
        ] {
            let mut got: Vec<i64> = nearby_obj_eq_zd(&db, &scheme, ra, dec, r)
                .unwrap()
                .into_iter()
                .map(|n| n.objid)
                .collect();
            got.sort_unstable();
            assert_eq!(got, brute_force(&sky, ra, dec, r), "at ({ra},{dec},{r})");
        }
    }

    #[test]
    fn includes_self_at_distance_zero() {
        let (db, sky, scheme) = setup(32);
        let g = &sky.galaxies[sky.galaxies.len() / 2];
        let hits = nearby_obj_eq_zd(&db, &scheme, g.ra, g.dec, 0.05).unwrap();
        let me = hits.iter().find(|n| n.objid == g.objid).expect("self must be found");
        assert!(me.distance < 1e-9);
    }

    #[test]
    fn distances_match_chord_convention() {
        let (db, sky, scheme) = setup(33);
        let g = &sky.galaxies[0];
        let center = UnitVec::from_radec(g.ra, g.dec);
        for n in nearby_obj_eq_zd(&db, &scheme, g.ra, g.dec, 0.3).unwrap() {
            let other = sky.galaxies.iter().find(|x| x.objid == n.objid).unwrap();
            let expect = center.sep_deg_approx(&other.unit_vec());
            assert!((n.distance - expect).abs() < 1e-12);
        }
    }

    #[test]
    fn empty_region_returns_nothing() {
        let (db, _, scheme) = setup(34);
        // Far away from the populated window.
        let hits = nearby_obj_eq_zd(&db, &scheme, 10.0, 45.0, 0.5).unwrap();
        assert!(hits.is_empty());
    }

    #[test]
    fn early_stop_via_visitor() {
        let (db, _, scheme) = setup(35);
        let snap = ZoneSnapshot::build(&db).unwrap();
        for snap in [None, Some(&snap)] {
            let mut n = 0;
            visit_nearby_with(&db, snap, &scheme, 180.5, 0.0, 0.5, |_| {
                n += 1;
                n < 5
            })
            .unwrap();
            assert_eq!(n, 5, "snapshot: {}", snap.is_some());
        }
    }

    #[test]
    fn a_zone_row_that_does_not_decode_fails_the_search() {
        // Appendix DDL: Zone's non-key columns are nullable, so the table
        // can hold a row the fixed layout cannot. The B-tree path must
        // report it, not panic under the latch or skip it.
        let mut db = Database::new(DbConfig::in_memory());
        crate::script::create_schema_from_script(&mut db).unwrap();
        let scheme = ZoneScheme::default();
        let row = |objid: i64, ra: f64, gr: Value| {
            let v = UnitVec::from_radec(ra, 0.0);
            stardb::Row(vec![
                Value::Int(scheme.zone_of(0.0)),
                Value::Float(ra),
                Value::BigInt(objid),
                Value::Float(0.0),
                Value::Float(v.x),
                Value::Float(v.y),
                Value::Float(v.z),
                Value::Real(17.0),
                gr,
                Value::Real(0.5),
            ])
        };
        db.insert("Zone", row(1, 180.0, Value::Real(1.0))).unwrap();
        assert_eq!(nearby_obj_eq_zd(&db, &scheme, 180.0, 0.0, 0.1).unwrap().len(), 1);
        db.insert("Zone", row(2, 180.01, Value::Null)).unwrap();
        match nearby_obj_eq_zd(&db, &scheme, 180.0, 0.0, 0.1) {
            Err(stardb::DbError::Corrupt(msg)) => assert!(msg.contains("70 bytes"), "{msg}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
        // A search whose windows never reach the bad row is unaffected.
        assert!(nearby_obj_eq_zd(&db, &scheme, 200.0, 0.0, 0.1).unwrap().is_empty());
    }

    /// Every field of a hit, floats as bits.
    fn hit_bits(h: &ZoneHit) -> (i64, u64, u64, [u32; 3]) {
        let photometry = [h.i.to_bits(), h.gr.to_bits(), h.ri.to_bits()];
        (h.objid, h.distance.to_bits(), h.dec.to_bits(), photometry)
    }

    /// Dual-path harness: run a search on the B-tree path and on a fresh
    /// snapshot, assert the *ordered* hit streams — photometry included —
    /// are bit-identical, and return the sorted ids for brute-force
    /// comparison.
    fn both_paths(
        db: &Database,
        snap: &ZoneSnapshot,
        scheme: &ZoneScheme,
        ra: f64,
        dec: f64,
        r: f64,
    ) -> Vec<i64> {
        let mut btree = Vec::new();
        visit_nearby_with(db, None, scheme, ra, dec, r, |hit| {
            btree.push(hit_bits(hit));
            true
        })
        .unwrap();
        let mut soa = Vec::new();
        let pool_reads = db.io_stats().logical_reads;
        visit_nearby_with(db, Some(snap), scheme, ra, dec, r, |hit| {
            soa.push(hit_bits(hit));
            true
        })
        .unwrap();
        // No page access means no latch to wait on, at any worker count.
        assert_eq!(
            db.io_stats().logical_reads,
            pool_reads,
            "a fresh snapshot must serve the search without touching the buffer pool"
        );
        assert_eq!(btree, soa, "paths diverged at ({ra},{dec},{r})");
        let mut ids: Vec<i64> = soa.into_iter().map(|h| h.0).collect();
        ids.sort_unstable();
        ids
    }

    #[test]
    fn snapshot_path_matches_btree_and_brute_force() {
        let (db, sky, scheme) = setup(41);
        let snap = ZoneSnapshot::build(&db).unwrap();
        for &(ra, dec, r) in &[
            (180.5, 0.0, 0.5),
            (180.2, 0.3, 0.25),
            (180.9, -0.4, 0.1),
            (180.5, 0.45, 0.3),
            (180.0, 0.0, 0.02), // window pokes past the populated edge
        ] {
            assert_eq!(
                both_paths(&db, &snap, &scheme, ra, dec, r),
                brute_force(&sky, ra, dec, r),
                "at ({ra},{dec},{r})"
            );
        }
    }

    /// Hand-built sky at chosen positions (the generator only fills
    /// axis-aligned boxes; wrap and pole coverage needs exact placement).
    fn setup_at(positions: &[(f64, f64)]) -> (Database, Sky, ZoneScheme) {
        let kcorr = KcorrTable::generate(KcorrConfig::sql());
        let mut db = Database::new(DbConfig::in_memory());
        create_schema(&mut db, &kcorr).unwrap();
        let region = SkyRegion::new(0.0, 360.0, -90.0, 90.0);
        let galaxies = positions
            .iter()
            .enumerate()
            .map(|(i, &(ra, dec))| {
                skycore::types::Galaxy::with_derived_errors(i as i64 + 1, ra, dec, 17.5, 1.1, 0.5)
            })
            .collect();
        let sky = Sky { region, galaxies, truth: Vec::new() };
        sp_import_galaxy(&mut db, &sky, &region).unwrap();
        let scheme = ZoneScheme::default();
        sp_zone(&mut db, &scheme).unwrap();
        (db, sky, scheme)
    }

    #[test]
    fn circles_crossing_the_ra_wrap_find_far_side_neighbors() {
        let (db, sky, scheme) = setup_at(&[
            (359.62, 0.01),
            (359.80, -0.05),
            (359.95, 0.02),
            (359.999, 0.0),
            (0.001, 0.0),
            (0.05, -0.03),
            (0.30, 0.04),
            (0.65, 0.0),
            (180.0, 0.0), // far control, must never appear
        ]);
        let snap = ZoneSnapshot::build(&db).unwrap();
        for &(ra, dec, r) in &[
            (0.05, 0.0, 0.5),   // center just east of the seam
            (359.9, 0.0, 0.5),  // center just west of the seam
            (0.0, 0.0, 0.4),    // center exactly on the seam
            (359.99, 0.02, 0.05),
        ] {
            let got = both_paths(&db, &snap, &scheme, ra, dec, r);
            assert_eq!(got, brute_force(&sky, ra, dec, r), "at ({ra},{dec},{r})");
            assert!(!got.is_empty(), "wrap search at ({ra},{dec},{r}) found nothing");
            assert!(!got.contains(&9), "far control leaked in at ({ra},{dec},{r})");
        }
        // Sanity: at least one query must actually straddle the seam.
        let straddles = both_paths(&db, &snap, &scheme, 0.05, 0.0, 0.5);
        assert!(straddles.contains(&2) && straddles.contains(&7));
    }

    #[test]
    fn centers_within_r_of_the_poles_match_brute_force() {
        let (db, sky, scheme) = setup_at(&[
            (0.0, 89.96),
            (45.0, 89.97),
            (90.0, 89.99),
            (180.0, 89.95),
            (270.0, 89.98),
            (359.0, 89.999),
            (10.0, -89.97),
            (200.0, -89.99),
            (0.0, 89.0), // just outside a 0.1-degree polar cap
        ]);
        let snap = ZoneSnapshot::build(&db).unwrap();
        for &(ra, dec, r) in &[
            (0.0, 89.98, 0.1),    // cap contains the north pole
            (120.0, 89.97, 0.08), // wide in RA but not over the pole
            (200.0, -89.98, 0.1), // south polar cap
            (350.0, 89.999, 0.05),
        ] {
            let got = both_paths(&db, &snap, &scheme, ra, dec, r);
            assert_eq!(got, brute_force(&sky, ra, dec, r), "at ({ra},{dec},{r})");
        }
        // The polar caps really do capture objects all around in RA.
        let cap = both_paths(&db, &snap, &scheme, 0.0, 89.98, 0.1);
        assert!(cap.len() >= 4, "polar cap found only {cap:?}");
    }

    #[test]
    fn radius_larger_than_zone_height_matches_brute_force() {
        // Coarse 1-degree zones, 2.5-degree search radius: the circle spans
        // several whole zones and the central zone's widest RA extent is
        // interior, not at an edge.
        let kcorr = KcorrTable::generate(KcorrConfig::sql());
        let mut db = Database::new(DbConfig::in_memory());
        create_schema(&mut db, &kcorr).unwrap();
        let region = SkyRegion::new(178.0, 184.0, -3.0, 3.0);
        let sky = Sky::generate(region, &SkyConfig::scaled(0.05), &kcorr, 44);
        sp_import_galaxy(&mut db, &sky, &region).unwrap();
        let coarse = ZoneScheme::with_height(1.0);
        sp_zone(&mut db, &coarse).unwrap();
        let snap = ZoneSnapshot::build(&db).unwrap();
        for &(ra, dec, r) in &[(181.0, 0.3, 2.5), (180.0, -1.2, 1.7)] {
            let got = both_paths(&db, &snap, &coarse, ra, dec, r);
            assert_eq!(got, brute_force(&sky, ra, dec, r), "at ({ra},{dec},{r})");
            assert!(!got.is_empty());
        }
    }

    #[test]
    fn stale_snapshot_falls_back_to_the_btree_path() {
        let (mut db, sky, scheme) = setup(45);
        let snap = ZoneSnapshot::build(&db).unwrap();
        let hits_0 = zobs().hits.get();
        let falls_0 = zobs().fallbacks.get();

        // Fresh: the columnar path serves the search. (Counters are
        // process-global and sibling tests run concurrently, so assert
        // monotonic movement, not exact deltas.)
        let fresh = both_paths(&db, &snap, &scheme, 180.5, 0.0, 0.3);
        assert!(zobs().hits.get() > hits_0, "fresh search must count a hit");

        // Mutate Zone after the build: the same snapshot must now be
        // bypassed, and results must still be correct (the table was
        // rebuilt with identical content, only its epoch moved).
        sp_zone(&mut db, &scheme).unwrap();
        let mut stale: Vec<i64> = Vec::new();
        visit_nearby_with(&db, Some(&snap), &scheme, 180.5, 0.0, 0.3, |hit| {
            stale.push(hit.objid);
            true
        })
        .unwrap();
        assert!(zobs().fallbacks.get() > falls_0, "stale search must count a fallback");
        stale.sort_unstable();
        assert_eq!(stale, fresh);
        assert_eq!(stale, brute_force(&sky, 180.5, 0.0, 0.3));
    }

    #[test]
    fn coarse_zones_also_correct() {
        // The search must be zone-height independent (the paper tried
        // several heights in the zone-index tech report).
        let kcorr = KcorrTable::generate(KcorrConfig::sql());
        let mut db = Database::new(DbConfig::in_memory());
        create_schema(&mut db, &kcorr).unwrap();
        let region = SkyRegion::new(180.0, 181.0, -0.5, 0.5);
        let sky = Sky::generate(region, &SkyConfig::scaled(0.1), &kcorr, 36);
        sp_import_galaxy(&mut db, &sky, &region).unwrap();
        let coarse = ZoneScheme::with_height(0.25);
        sp_zone(&mut db, &coarse).unwrap();
        let mut got: Vec<i64> = nearby_obj_eq_zd(&db, &coarse, 180.5, 0.0, 0.4)
            .unwrap()
            .into_iter()
            .map(|n| n.objid)
            .collect();
        got.sort_unstable();
        assert_eq!(got, brute_force(&sky, 180.5, 0.0, 0.4));
    }
}
