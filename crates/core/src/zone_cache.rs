//! Columnar zone-snapshot cache: the Zone table as an immutable
//! struct-of-arrays index.
//!
//! The zone join is the pipeline's hottest loop, and on the B-tree path
//! every probe pays a tree descent, buffer-pool latch traffic, and a
//! per-row payload decode — costs the worker pools of the partitioned
//! runs multiply. After `sp_zone` rebuilds the Zone table, the pipeline
//! materializes it once into a [`ZoneSnapshot`]: per-zone buckets of
//! RA-sorted columns `(ra, objid, dec, cx, cy, cz, i, gr, ri)` behind a
//! dense per-zone offset table — every column of the table, so the
//! snapshot is covering for the neighbor predicate exactly as the table
//! is. The neighbor kernel then binary-searches the RA window inside a
//! bucket and runs the dec-window + chord² cut over contiguous slices,
//! entirely off the buffer pool.
//!
//! Correctness is by construction, not by trust: the snapshot records the
//! Zone table's mutation epoch at build time, and the kernel compares it
//! against the live epoch on every search — a stale or absent snapshot
//! falls back to the clustered-index scan, which remains the source of
//! truth. Rows enter the snapshot via `scan_raw` in clustered-key order
//! `(zoneid, ra, objid)`, so the columnar path surfaces the same rows in
//! the same order and feeds the same chord arithmetic the same stored
//! unit vectors: results are bit-identical on either path.

use crate::zone_task::zone_entry_from_payload;
use stardb::{Database, DbError, DbResult};
use std::sync::OnceLock;
use std::time::Instant;

pub(crate) struct ZoneCacheObs {
    pub builds: obs::Counter,
    pub hits: obs::Counter,
    pub fallbacks: obs::Counter,
    pub build_us: obs::Histogram,
    pub bytes: obs::Gauge,
}

/// Cache accounting: `builds`/`build_us`/`bytes` describe snapshot
/// construction; `hits` counts searches served columnar and `fallbacks`
/// counts searches that detected a stale or missing snapshot and took the
/// B-tree path instead. Recovery drills assert `fallbacks > 0` whenever a
/// fault rebuilt the Zone table under a live snapshot.
pub(crate) fn zobs() -> &'static ZoneCacheObs {
    static Z: OnceLock<ZoneCacheObs> = OnceLock::new();
    Z.get_or_init(|| ZoneCacheObs {
        builds: obs::counter("maxbcg.zonecache.builds"),
        hits: obs::counter("maxbcg.zonecache.hits"),
        fallbacks: obs::counter("maxbcg.zonecache.fallbacks"),
        build_us: obs::histogram("maxbcg.zonecache.build_us"),
        bytes: obs::gauge("maxbcg.zonecache.bytes"),
    })
}

/// Immutable struct-of-arrays image of the Zone table.
///
/// Columns are parallel arrays in clustered-key order; `offsets` maps zone
/// `zone_min + i` to its half-open row range `offsets[i]..offsets[i + 1]`,
/// so a zone lookup is one subtraction and two loads. The snapshot is
/// `Send + Sync` by construction (all fields immutable after build) and is
/// shared across worker pools behind an `Arc`.
#[derive(Debug, Clone, PartialEq)]
pub struct ZoneSnapshot {
    epoch: u64,
    zone_min: i32,
    /// Dense per-zone start offsets plus one trailing sentinel.
    offsets: Vec<u32>,
    ra: Vec<f64>,
    objid: Vec<i64>,
    dec: Vec<f64>,
    cx: Vec<f64>,
    cy: Vec<f64>,
    cz: Vec<f64>,
    i: Vec<f32>,
    gr: Vec<f32>,
    ri: Vec<f32>,
}

/// Borrowed column slices for one zone, RA-ascending (ties in objid order,
/// exactly like the clustered index).
#[derive(Debug, Clone, Copy)]
pub struct ZoneBucket<'a> {
    /// Right ascension, degrees, ascending.
    pub ra: &'a [f64],
    /// Object ids, parallel to `ra`.
    pub objid: &'a [i64],
    /// Declination, degrees, parallel to `ra`.
    pub dec: &'a [f64],
    /// Unit-vector x, parallel to `ra`.
    pub cx: &'a [f64],
    /// Unit-vector y, parallel to `ra`.
    pub cy: &'a [f64],
    /// Unit-vector z, parallel to `ra`.
    pub cz: &'a [f64],
    /// i-band magnitude as stored (`real`), parallel to `ra`.
    pub i: &'a [f32],
    /// g-r color as stored, parallel to `ra`.
    pub gr: &'a [f32],
    /// r-i color as stored, parallel to `ra`.
    pub ri: &'a [f32],
}

impl<'a> ZoneBucket<'a> {
    /// Row range with `lo <= ra <= hi` — both ends inclusive, matching the
    /// B-tree prefix scan whose upper bound admits every objid extension
    /// of the `(zone, hi)` prefix.
    pub fn ra_window(&self, lo: f64, hi: f64) -> (usize, usize) {
        let start = self.ra.partition_point(|&v| v < lo);
        let end = self.ra.partition_point(|&v| v <= hi);
        (start, end.max(start))
    }

    /// Number of rows in the bucket.
    pub fn len(&self) -> usize {
        self.ra.len()
    }

    /// True when the zone holds no rows.
    pub fn is_empty(&self) -> bool {
        self.ra.is_empty()
    }
}

impl ZoneSnapshot {
    /// Materialize the Zone table. Runs one full clustered scan via
    /// `scan_raw` (key order, raw payloads) and decodes each row exactly
    /// once; a row that does not decode fails the build with its
    /// [`DbError::Corrupt`]. The version is read under the same shared
    /// borrow as the scan, so no mutation can slip between the two. Using
    /// `table_version`
    /// (commit epoch while clean, mutation epoch while dirty) instead of
    /// the raw mutation epoch means a snapshot built from committed state
    /// stays fresh until the next commit that actually touches Zone.
    pub fn build(db: &Database) -> DbResult<ZoneSnapshot> {
        let t0 = Instant::now();
        // Sized once from the table's row count: nine columns growing by
        // doubling would copy every row twice over on the way up.
        let n = db.row_count("Zone")? as usize;
        let mut snap = ZoneSnapshot {
            epoch: db.table_version("Zone")?,
            zone_min: 0,
            offsets: Vec::new(),
            ra: Vec::with_capacity(n),
            objid: Vec::with_capacity(n),
            dec: Vec::with_capacity(n),
            cx: Vec::with_capacity(n),
            cy: Vec::with_capacity(n),
            cz: Vec::with_capacity(n),
            i: Vec::with_capacity(n),
            gr: Vec::with_capacity(n),
            ri: Vec::with_capacity(n),
        };
        let mut last_zone: Option<i32> = None;
        let mut bad: Option<DbError> = None;
        db.scan_raw("Zone", |payload| {
            let e = match zone_entry_from_payload(payload) {
                Ok(e) => e,
                Err(err) => {
                    bad = Some(err);
                    return false;
                }
            };
            let at = snap.ra.len() as u32;
            match last_zone {
                None => {
                    snap.zone_min = e.zoneid;
                    snap.offsets.push(at);
                }
                Some(prev) => {
                    // Clustered order guarantees non-decreasing zones; open
                    // a start offset for each skipped (empty) zone too.
                    debug_assert!(e.zoneid >= prev, "scan_raw out of zone order");
                    for _ in prev..e.zoneid {
                        snap.offsets.push(at);
                    }
                }
            }
            last_zone = Some(e.zoneid);
            snap.ra.push(e.ra);
            snap.objid.push(e.objid);
            snap.dec.push(e.dec);
            snap.cx.push(e.pos.x);
            snap.cy.push(e.pos.y);
            snap.cz.push(e.pos.z);
            snap.i.push(e.i);
            snap.gr.push(e.gr);
            snap.ri.push(e.ri);
            true
        })?;
        if let Some(err) = bad {
            return Err(err);
        }
        snap.offsets.push(snap.ra.len() as u32);
        let z = zobs();
        z.builds.incr();
        z.build_us.record(t0.elapsed().as_micros() as u64);
        z.bytes.set(snap.bytes() as i64);
        Ok(snap)
    }

    /// Zone-table version (commit epoch) this snapshot was built at.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// True when the live Zone table still matches this snapshot.
    pub fn is_fresh(&self, db: &Database) -> bool {
        db.table_version("Zone").is_ok_and(|e| e == self.epoch)
    }

    /// Total rows materialized.
    pub fn rows(&self) -> usize {
        self.ra.len()
    }

    /// Heap footprint of the column arrays and offset table.
    pub fn bytes(&self) -> usize {
        self.offsets.len() * 4 + self.ra.len() * (8 * 6 + 4 * 3)
    }

    /// Column slices for `zone`; empty bucket when the zone holds no rows
    /// (including zones outside the materialized range).
    pub fn bucket(&self, zone: i32) -> ZoneBucket<'_> {
        let idx = i64::from(zone) - i64::from(self.zone_min);
        if idx < 0 || idx as usize + 1 >= self.offsets.len() {
            return ZoneBucket {
                ra: &[],
                objid: &[],
                dec: &[],
                cx: &[],
                cy: &[],
                cz: &[],
                i: &[],
                gr: &[],
                ri: &[],
            };
        }
        let a = self.offsets[idx as usize] as usize;
        let b = self.offsets[idx as usize + 1] as usize;
        ZoneBucket {
            ra: &self.ra[a..b],
            objid: &self.objid[a..b],
            dec: &self.dec[a..b],
            cx: &self.cx[a..b],
            cy: &self.cy[a..b],
            cz: &self.cz[a..b],
            i: &self.i[a..b],
            gr: &self.gr[a..b],
            ri: &self.ri[a..b],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::import::sp_import_galaxy;
    use crate::schema::create_schema;
    use crate::zone_task::{sp_zone, ZoneEntry};
    use skycore::kcorr::{KcorrConfig, KcorrTable};
    use skycore::{SkyRegion, ZoneScheme};
    use skysim::{Sky, SkyConfig};
    use stardb::{DbConfig, Value};

    fn setup(seed: u64) -> (Database, ZoneScheme) {
        let kcorr = KcorrTable::generate(KcorrConfig::sql());
        let mut db = Database::new(DbConfig::in_memory());
        create_schema(&mut db, &kcorr).unwrap();
        let region = SkyRegion::new(180.0, 181.0, -0.5, 0.5);
        let sky = Sky::generate(region, &SkyConfig::scaled(0.1), &kcorr, seed);
        sp_import_galaxy(&mut db, &sky, &region).unwrap();
        let scheme = ZoneScheme::default();
        sp_zone(&mut db, &scheme).unwrap();
        (db, scheme)
    }

    fn zone_rows(db: &Database) -> Vec<ZoneEntry> {
        let mut rows = Vec::new();
        db.scan_raw("Zone", |p| {
            rows.push(zone_entry_from_payload(p).unwrap());
            true
        })
        .unwrap();
        rows
    }

    #[test]
    fn snapshot_mirrors_the_zone_table_exactly() {
        let (db, _) = setup(71);
        let snap = ZoneSnapshot::build(&db).unwrap();
        let rows = zone_rows(&db);
        assert!(!rows.is_empty());
        assert_eq!(snap.rows(), rows.len());
        assert_eq!(snap.epoch(), db.table_version("Zone").unwrap());
        assert!(snap.is_fresh(&db));

        // Every row appears in its zone's bucket, in table order, with
        // bit-identical columns.
        let mut walked = 0usize;
        let (zmin, zmax) = (rows[0].zoneid, rows[rows.len() - 1].zoneid);
        for zone in zmin..=zmax {
            let b = snap.bucket(zone);
            let expect: Vec<&ZoneEntry> = rows.iter().filter(|e| e.zoneid == zone).collect();
            assert_eq!(b.len(), expect.len(), "zone {zone}");
            for (i, e) in expect.iter().enumerate() {
                assert_eq!(b.ra[i].to_bits(), e.ra.to_bits());
                assert_eq!(b.objid[i], e.objid);
                assert_eq!(b.dec[i].to_bits(), e.dec.to_bits());
                assert_eq!(b.cx[i].to_bits(), e.pos.x.to_bits());
                assert_eq!(b.cy[i].to_bits(), e.pos.y.to_bits());
                assert_eq!(b.cz[i].to_bits(), e.pos.z.to_bits());
                assert_eq!(b.i[i].to_bits(), e.i.to_bits());
                assert_eq!(b.gr[i].to_bits(), e.gr.to_bits());
                assert_eq!(b.ri[i].to_bits(), e.ri.to_bits());
            }
            walked += b.len();
            // RA ascending inside the bucket.
            for w in b.ra.windows(2) {
                assert!(w[0] <= w[1]);
            }
        }
        assert_eq!(walked, rows.len(), "offset table must partition the rows");
        // Out-of-range zones resolve to empty buckets, not panics.
        assert!(snap.bucket(zmin - 3).is_empty());
        assert!(snap.bucket(zmax + 3).is_empty());
        assert!(snap.bytes() > 0);
    }

    #[test]
    fn ra_window_matches_btree_prefix_scan() {
        let (db, _) = setup(72);
        let snap = ZoneSnapshot::build(&db).unwrap();
        let rows = zone_rows(&db);
        let mid_zone = rows[rows.len() / 2].zoneid;
        for &(lo, hi) in &[(180.0, 181.0), (180.2, 180.4), (180.35, 180.35), (180.9, 180.1)] {
            let b = snap.bucket(mid_zone);
            let (s, e) = b.ra_window(lo, hi);
            let fast: Vec<i64> = b.objid[s..e].to_vec();
            let mut slow = Vec::new();
            db.range_scan_prefix_raw(
                "Zone",
                &[Value::Int(mid_zone), Value::Float(lo)],
                &[Value::Int(mid_zone), Value::Float(hi)],
                |p| {
                    slow.push(zone_entry_from_payload(p).unwrap().objid);
                    true
                },
            )
            .unwrap();
            assert_eq!(fast, slow, "window [{lo}, {hi}] in zone {mid_zone}");
        }
    }

    #[test]
    fn mutation_after_build_marks_the_snapshot_stale() {
        let (mut db, scheme) = setup(73);
        let before = zobs().builds.get();
        let snap = ZoneSnapshot::build(&db).unwrap();
        assert!(zobs().builds.get() > before, "builds counter must move");
        assert!(snap.is_fresh(&db));

        // Any Zone mutation — here the truncate inside a re-run of
        // sp_zone — must flip freshness; a rebuild catches back up.
        sp_zone(&mut db, &scheme).unwrap();
        assert!(!snap.is_fresh(&db), "stale snapshot must be detected");
        let fresh = ZoneSnapshot::build(&db).unwrap();
        assert!(fresh.is_fresh(&db));
        assert_eq!(fresh.rows(), snap.rows(), "same data, new epoch");
        assert_ne!(fresh.epoch(), snap.epoch());
    }

    #[test]
    fn empty_zone_table_builds_an_empty_snapshot() {
        let kcorr = KcorrTable::generate(KcorrConfig::sql());
        let mut db = Database::new(DbConfig::in_memory());
        create_schema(&mut db, &kcorr).unwrap();
        let snap = ZoneSnapshot::build(&db).unwrap();
        assert_eq!(snap.rows(), 0);
        assert!(snap.bucket(10800).is_empty());
        assert!(snap.is_fresh(&db));
    }

    #[test]
    fn a_zone_row_that_does_not_decode_fails_the_build() {
        // The appendix DDL leaves Zone's non-key columns nullable, so SQL
        // can store a row the fixed layout cannot hold.
        let mut db = Database::new(DbConfig::in_memory());
        crate::script::create_schema_from_script(&mut db).unwrap();
        let mut row = vec![
            Value::Int(10800),
            Value::Float(180.0),
            Value::BigInt(1),
            Value::Float(0.0),
            Value::Float(-1.0),
            Value::Float(0.0),
            Value::Float(0.0),
            Value::Real(17.0),
            Value::Real(1.0),
            Value::Real(0.5),
        ];
        db.insert("Zone", stardb::Row(row.clone())).unwrap();
        assert_eq!(ZoneSnapshot::build(&db).unwrap().rows(), 1);
        row[2] = Value::BigInt(2);
        row[8] = Value::Null;
        db.insert("Zone", stardb::Row(row)).unwrap();
        match ZoneSnapshot::build(&db) {
            Err(DbError::Corrupt(msg)) => assert!(msg.contains("70 bytes"), "{msg}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }
}
