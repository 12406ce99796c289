//! `spZone`: arrange the data in zones so neighborhood searches are
//! efficient — "this task assigns a ZoneID and creates a clustered index on
//! the data" (§2.4, Table 1's first row).

use crate::import::galaxy_from_row;
use skycore::types::Galaxy;
use skycore::{UnitVec, ZoneScheme};
use stardb::{Database, DbError, DbResult, Row, Value};

/// Rebuild the `Zone` table from `Galaxy`: one row per galaxy with its
/// zone number, unit vector and the photometry the neighbor predicates
/// filter on, clustered on `(zoneid, ra, objid)`. Returns the number of
/// zone rows written.
///
/// `i, gr, ri` are copied as the `real` bits `Galaxy` stores, which is what
/// makes `Zone` covering for `fBCGCandidate` and
/// `fGetClusterGalaxiesMetric`: they read a neighbor's photometry from the
/// hit instead of joining back to `Galaxy`. `Zone` is therefore `Galaxy`
/// as of the last `spZone` — every writer of `Galaxy` re-zones after it.
pub fn sp_zone(db: &mut Database, scheme: &ZoneScheme) -> DbResult<u64> {
    db.truncate("Zone")?;
    // Collect first: the scan borrows the database immutably while inserts
    // need it mutably — and a real engine would similarly materialize the
    // sort run before building the clustered index. The run holds compact
    // `(zoneid, Galaxy)` pairs; each `Row` exists only for its own insert.
    let mut run: Vec<(i32, Galaxy)> = Vec::with_capacity(db.row_count("Galaxy")? as usize);
    db.scan_with("Galaxy", |row| {
        let g = galaxy_from_row(row)?;
        run.push((scheme.zone_of(g.dec), g));
        Ok(true)
    })?;
    // Sort by the clustered key so the B-tree builds append-mostly, the
    // way `CREATE CLUSTERED INDEX` bulk-sorts (stable, so RA ties keep the
    // scan's objid order). `total_cmp` keeps the sort total even if a NaN
    // ra ever sneaks in.
    run.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.ra.total_cmp(&b.1.ra)));
    for (zoneid, g) in &run {
        let v = UnitVec::from_radec(g.ra, g.dec);
        db.insert(
            "Zone",
            Row(vec![
                Value::Int(*zoneid),
                Value::Float(g.ra),
                Value::BigInt(g.objid),
                Value::Float(g.dec),
                Value::Float(v.x),
                Value::Float(v.y),
                Value::Float(v.z),
                // `Galaxy` widened these from `real`; narrowing is exact.
                Value::Real(g.i as f32),
                Value::Real(g.gr as f32),
                Value::Real(g.ri as f32),
            ]),
        )?;
    }
    Ok(run.len() as u64)
}

/// `stardb` row-codec tags of the four value types a `Zone` row holds
/// (`fast_zone_decode_matches_row` holds them to what `Row::encode` writes).
const TAG_BIGINT: u8 = 1;
const TAG_INT: u8 = 2;
const TAG_REAL: u8 = 3;
const TAG_FLOAT: u8 = 4;

/// Encoded size of a `Zone` row (see [`ZoneEntry`]).
const ZONE_PAYLOAD_BYTES: usize = 74;

/// Offset and expected tag of each value in the `Zone` payload.
const ZONE_LAYOUT: [(usize, u8); 10] = [
    (0, TAG_INT),
    (5, TAG_FLOAT),
    (14, TAG_BIGINT),
    (23, TAG_FLOAT),
    (32, TAG_FLOAT),
    (41, TAG_FLOAT),
    (50, TAG_FLOAT),
    (59, TAG_REAL),
    (64, TAG_REAL),
    (69, TAG_REAL),
];

/// Fast decode of the fixed-layout `Zone` payload:
/// `[1+4 zoneid][1+8 ra][1+8 objid][1+8 dec][1+8 cx][1+8 cy][1+8 cz]`
/// `[1+4 i][1+4 gr][1+4 ri]` = 74 bytes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ZoneEntry {
    /// Zone number.
    pub zoneid: i32,
    /// Right ascension, degrees.
    pub ra: f64,
    /// Object id.
    pub objid: i64,
    /// Declination, degrees.
    pub dec: f64,
    /// Unit vector.
    pub pos: UnitVec,
    /// i-band magnitude, the `real` bits `Galaxy` stores.
    pub i: f32,
    /// g-r color, as stored.
    pub gr: f32,
    /// r-i color, as stored.
    pub ri: f32,
}

/// Decode a `Zone` row payload (see [`ZoneEntry`]). A payload of another
/// length, or with a value tag out of place (a NULL, a row of another
/// table), is [`DbError::Corrupt`] — this runs on bytes borrowed from a
/// page under the buffer-pool latch, where a panic would poison it.
#[inline]
pub fn zone_entry_from_payload(p: &[u8]) -> DbResult<ZoneEntry> {
    let Ok(a) = <&[u8; ZONE_PAYLOAD_BYTES]>::try_from(p) else {
        return Err(corrupt_zone_payload(p));
    };
    // One pass over the ten tag bytes, no branch per tag: this is the
    // per-row cost of the clustered-index neighbor search.
    if ZONE_LAYOUT.iter().fold(0, |acc, &(off, tag)| acc | (a[off] ^ tag)) != 0 {
        return Err(corrupt_zone_payload(p));
    }
    // Offsets are constants below the array length: no slice can fail.
    let f64_at = |off: usize| f64::from_le_bytes(a[off..off + 8].try_into().expect("8 bytes"));
    let f32_at = |off: usize| f32::from_le_bytes(a[off..off + 4].try_into().expect("4 bytes"));
    Ok(ZoneEntry {
        zoneid: i32::from_le_bytes(a[1..5].try_into().expect("4 bytes")),
        ra: f64_at(6),
        objid: i64::from_le_bytes(a[15..23].try_into().expect("8 bytes")),
        dec: f64_at(24),
        pos: UnitVec { x: f64_at(33), y: f64_at(42), z: f64_at(51) },
        i: f32_at(60),
        gr: f32_at(65),
        ri: f32_at(70),
    })
}

/// Name what is wrong with a payload [`zone_entry_from_payload`] refused.
#[cold]
fn corrupt_zone_payload(p: &[u8]) -> DbError {
    let what = match ZONE_LAYOUT.iter().find(|&&(off, tag)| p.get(off) != Some(&tag)) {
        Some(&(off, tag)) if p.len() == ZONE_PAYLOAD_BYTES => {
            format!("tag {} at offset {off}, expected {tag}", p[off])
        }
        _ => format!("expected {ZONE_PAYLOAD_BYTES}"),
    };
    DbError::Corrupt(format!("Zone payload of {} bytes: {what}", p.len()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::import::sp_import_galaxy;
    use crate::schema::create_schema;
    use skycore::kcorr::{KcorrConfig, KcorrTable};
    use skycore::SkyRegion;
    use skysim::{Sky, SkyConfig};
    use stardb::DbConfig;

    fn setup() -> Database {
        let kcorr = KcorrTable::generate(KcorrConfig::sql());
        let mut db = Database::new(DbConfig::in_memory());
        create_schema(&mut db, &kcorr).unwrap();
        let region = SkyRegion::new(180.0, 180.6, 0.0, 0.6);
        let sky = Sky::generate(region, &SkyConfig::test(), &kcorr, 11);
        sp_import_galaxy(&mut db, &sky, &region).unwrap();
        db
    }

    #[test]
    fn zone_rows_match_galaxy_rows() {
        let mut db = setup();
        let n = sp_zone(&mut db, &ZoneScheme::default()).unwrap();
        assert_eq!(n, db.row_count("Galaxy").unwrap());
        assert_eq!(n, db.row_count("Zone").unwrap());
    }

    #[test]
    fn zone_assignment_follows_formula() {
        let mut db = setup();
        let scheme = ZoneScheme::default();
        sp_zone(&mut db, &scheme).unwrap();
        db.scan_with("Zone", |row| {
            let zoneid = row.i64(0).unwrap() as i32;
            let dec = row.f64(3).unwrap();
            assert_eq!(zoneid, scheme.zone_of(dec));
            Ok(true)
        })
        .unwrap();
    }

    #[test]
    fn zone_table_is_ordered_by_zone_then_ra() {
        let mut db = setup();
        sp_zone(&mut db, &ZoneScheme::default()).unwrap();
        let mut last: Option<(i64, f64)> = None;
        db.scan_with("Zone", |row| {
            let key = (row.i64(0).unwrap(), row.f64(1).unwrap());
            if let Some(prev) = last {
                assert!(prev <= key, "{prev:?} > {key:?}");
            }
            last = Some(key);
            Ok(true)
        })
        .unwrap();
    }

    #[test]
    fn rezone_is_idempotent() {
        let mut db = setup();
        let scheme = ZoneScheme::default();
        let n1 = sp_zone(&mut db, &scheme).unwrap();
        let n2 = sp_zone(&mut db, &scheme).unwrap();
        assert_eq!(n1, n2);
    }

    #[test]
    fn fast_zone_decode_matches_row() {
        let mut db = setup();
        sp_zone(&mut db, &ZoneScheme::default()).unwrap();
        let rows = db.scan("Zone").unwrap();
        let row = &rows[0];
        let payload = row.encode();
        assert_eq!(payload.len(), ZONE_PAYLOAD_BYTES);
        let entry = zone_entry_from_payload(&payload).unwrap();
        assert_eq!(entry.zoneid as i64, row.i64(0).unwrap());
        assert_eq!(entry.ra, row.f64(1).unwrap());
        assert_eq!(entry.objid, row.i64(2).unwrap());
        assert_eq!(entry.dec, row.f64(3).unwrap());
        assert_eq!(entry.pos.x, row.f64(4).unwrap());
        assert_eq!(entry.pos.y, row.f64(5).unwrap());
        assert_eq!(entry.pos.z, row.f64(6).unwrap());
        assert_eq!(f64::from(entry.i), row.f64(7).unwrap());
        assert_eq!(f64::from(entry.gr), row.f64(8).unwrap());
        assert_eq!(f64::from(entry.ri), row.f64(9).unwrap());
    }

    #[test]
    fn zone_photometry_is_galaxy_photometry_bit_for_bit() {
        // The fact the kernels used to re-establish with a point read per
        // neighbor: a Zone row's (i, gr, ri) are its Galaxy row's.
        let mut db = setup();
        sp_zone(&mut db, &ZoneScheme::default()).unwrap();
        let mut checked = 0;
        let mut entries = Vec::new();
        db.scan_raw("Zone", |p| {
            entries.push(zone_entry_from_payload(p).unwrap());
            true
        })
        .unwrap();
        for e in entries {
            let g = db.get("Galaxy", &[Value::BigInt(e.objid)]).unwrap().expect("galaxy of a zone row");
            let stored = |col: usize| match g.0[col] {
                Value::Real(v) => v.to_bits(),
                ref other => panic!("Galaxy column {col} is {other:?}, not a real"),
            };
            assert_eq!(e.i.to_bits(), stored(3), "i of {}", e.objid);
            assert_eq!(e.gr.to_bits(), stored(4), "gr of {}", e.objid);
            assert_eq!(e.ri.to_bits(), stored(5), "ri of {}", e.objid);
            assert_eq!((e.ra, e.dec), (g.f64(1).unwrap(), g.f64(2).unwrap()));
            checked += 1;
        }
        assert_eq!(checked, db.row_count("Galaxy").unwrap());
    }

    #[test]
    fn malformed_zone_payloads_are_corrupt_not_panics() {
        let mut db = setup();
        sp_zone(&mut db, &ZoneScheme::default()).unwrap();
        let good = db.scan("Zone").unwrap()[0].encode();
        let corrupt = |p: &[u8]| match zone_entry_from_payload(p) {
            Err(DbError::Corrupt(msg)) => msg,
            other => panic!("expected Corrupt, got {other:?}"),
        };
        // Every truncation, the empty payload and an over-long one.
        for len in 0..good.len() {
            assert!(corrupt(&good[..len]).contains(&format!("{len} bytes")));
        }
        let mut long = good.clone();
        long.push(0);
        assert!(corrupt(&long).contains("75 bytes"));
        // The seven positional columns alone — an XMatch survey-table
        // row — are a short payload, not a panic.
        assert!(corrupt(&good[..59]).contains("59 bytes"));
        // Right length, one tag out of place: each of the ten positions.
        for &(off, tag) in &ZONE_LAYOUT {
            let mut bad = good.clone();
            bad[off] = if tag == TAG_FLOAT { TAG_REAL } else { TAG_FLOAT };
            let msg = corrupt(&bad);
            assert!(msg.contains(&format!("offset {off}")), "{msg}");
            assert!(msg.contains(&format!("expected {tag}")), "{msg}");
        }
        // A NULL where a value belongs shortens the row: caught by length.
        let mut row = db.scan("Zone").unwrap()[0].clone();
        row.0[3] = Value::Null;
        assert!(corrupt(&row.encode()).contains("66 bytes"));
    }
}
