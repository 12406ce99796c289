//! Zone maps: the build-side index of the planner's zone join.
//!
//! A [`ZoneMap`] is an immutable struct-of-arrays index over any table (or
//! drained join build side) carrying an integer zone column and a float RA
//! column: entries sorted by `(zone, ra, ordinal)` with per-zone slice
//! offsets, so a probe for `zone ∈ [zlo, zhi] ∧ ra ∈ [ra_lo, ra_hi]`
//! walks the zone band and binary-searches the RA window inside each zone
//! — the generalization of the maxbcg Zone-table snapshot cache to
//! arbitrary `(ra, dec)`-keyed tables. Maps built from a full unfiltered
//! table scan are cached per [`crate::Database`] keyed by
//! `table_version` epochs; a probe returns *candidate ordinals* (a strict
//! superset of the matching pairs), and the join re-evaluates its full
//! conjunction on each, so the map changes cost, never answers.

use crate::colbatch::ColumnBatch;
use crate::value::Value;

/// An immutable zone × RA candidate index over one row set. Ordinals
/// index the rows in their original (scan) order, so probing a map built
/// from a drained join build side yields the exact candidates the nested
/// loop would have examined, in restorable order.
#[derive(Debug, Clone)]
pub struct ZoneMap {
    /// `Database::table_version` epoch the map was built at. Table-level
    /// caches compare this against the live version on every lookup.
    epoch: u64,
    /// `(zone_col, ra_col)` the map indexes — part of the cache identity:
    /// a map built over different key columns is useless to a probe.
    cols: (usize, usize),
    /// Lowest zone holding entries (0 for an empty map).
    zone_min: i64,
    /// Per-zone slice bounds: zone `zone_min + i` owns entries
    /// `offsets[i] .. offsets[i + 1]`. Length `nzones + 1`.
    offsets: Vec<u32>,
    /// Entry RA values, ascending within each zone.
    ra: Vec<f64>,
    /// Entry ordinals in the source row set.
    ord: Vec<u32>,
}

/// Zone value of a row: integer zone columns only. Rows with NULL or
/// non-integer zones are left out of the map — a NULL zone can never
/// satisfy the zone-band BETWEEN, so dropping them keeps the candidate
/// superset property.
fn zone_of(v: &Value) -> Option<i64> {
    match v {
        Value::Int(i) => Some(i64::from(*i)),
        Value::BigInt(i) => Some(*i),
        _ => None,
    }
}

/// RA value of a row, widened exactly as the expression evaluator widens
/// (`f64::from` for REAL). NULL and NaN rows are left out: neither can
/// satisfy the RA-window BETWEEN.
fn ra_of(v: &Value) -> Option<f64> {
    let f = match v {
        Value::Float(f) => *f,
        Value::Real(f) => f64::from(*f),
        Value::Int(i) => f64::from(*i),
        Value::BigInt(i) => *i as f64,
        _ => return None,
    };
    if f.is_nan() {
        None
    } else {
        Some(f)
    }
}

impl ZoneMap {
    /// Build from `(zone, ra)` pairs in ordinal order.
    fn from_pairs(
        pairs: impl Iterator<Item = (Option<i64>, Option<f64>)>,
        cols: (usize, usize),
        epoch: u64,
    ) -> ZoneMap {
        let mut entries: Vec<(i64, f64, u32)> = pairs
            .enumerate()
            .filter_map(|(i, (z, r))| {
                let r = r?;
                if r.is_nan() {
                    return None;
                }
                Some((z?, r, i as u32))
            })
            .collect();
        // Total order: NaN RAs were excluded above.
        entries.sort_unstable_by(|a, b| {
            a.0.cmp(&b.0).then(a.1.partial_cmp(&b.1).expect("no NaN in map")).then(a.2.cmp(&b.2))
        });
        let (zone_min, zone_max) = match (entries.first(), entries.last()) {
            (Some(f), Some(l)) => (f.0, l.0),
            _ => (0, -1),
        };
        let nzones = (zone_max - zone_min + 1).max(0) as usize;
        let mut offsets = vec![0u32; nzones + 1];
        let mut ra = Vec::with_capacity(entries.len());
        let mut ord = Vec::with_capacity(entries.len());
        let mut next_zone = 0usize;
        for (i, &(z, r, o)) in entries.iter().enumerate() {
            let zi = (z - zone_min) as usize;
            while next_zone <= zi {
                offsets[next_zone] = i as u32;
                next_zone += 1;
            }
            ra.push(r);
            ord.push(o);
        }
        while next_zone <= nzones {
            offsets[next_zone] = entries.len() as u32;
            next_zone += 1;
        }
        ZoneMap { epoch, cols, zone_min, offsets, ra, ord }
    }

    /// Build from a column-major batch: `zone_col` / `ra_col` are batch
    /// column positions.
    pub fn from_batch(batch: &ColumnBatch, zone_col: usize, ra_col: usize, epoch: u64) -> ZoneMap {
        ZoneMap::from_pairs(
            (0..batch.len())
                .map(|i| (zone_of(&batch.value(zone_col, i)), ra_of(&batch.value(ra_col, i)))),
            (zone_col, ra_col),
            epoch,
        )
    }

    /// The `table_version` epoch the map was built at.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The `(zone_col, ra_col)` pair the map indexes.
    pub fn key_cols(&self) -> (usize, usize) {
        self.cols
    }

    /// Number of indexed entries (rows with a usable zone and RA).
    pub fn len(&self) -> usize {
        self.ord.len()
    }

    /// True when the map indexes no rows.
    pub fn is_empty(&self) -> bool {
        self.ord.is_empty()
    }

    /// Push the ordinals of every entry with `zone ∈ [zlo, zhi]` and
    /// `ra ∈ [ra_lo, ra_hi]` (inclusive, exactly the BETWEEN semantics)
    /// onto `out`. Ordinals arrive grouped by zone, ascending within each
    /// zone slice; callers needing global ordinal order sort afterwards.
    /// Returns the number of candidates pushed.
    pub fn probe(&self, zlo: i64, zhi: i64, ra_lo: f64, ra_hi: f64, out: &mut Vec<u32>) -> usize {
        let nzones = self.offsets.len() as i64 - 1;
        let lo = zlo.max(self.zone_min);
        let hi = zhi.min(self.zone_min + nzones - 1);
        let before = out.len();
        let mut z = lo;
        while z <= hi {
            let zi = (z - self.zone_min) as usize;
            let (s, e) = (self.offsets[zi] as usize, self.offsets[zi + 1] as usize);
            let slice = &self.ra[s..e];
            let a = s + slice.partition_point(|&r| r < ra_lo);
            let b = s + slice.partition_point(|&r| r <= ra_hi);
            out.extend_from_slice(&self.ord[a..b]);
            z += 1;
        }
        out.len() - before
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map(data: &[(i64, f64)]) -> ZoneMap {
        ZoneMap::from_pairs(data.iter().map(|&(z, r)| (Some(z), Some(r))), (0, 1), 7)
    }

    #[test]
    fn probe_returns_exactly_the_band_window_entries() {
        let m = map(&[(10, 5.0), (10, 1.0), (11, 3.0), (12, 2.0), (14, 3.0)]);
        assert_eq!(m.len(), 5);
        let mut out = Vec::new();
        let n = m.probe(10, 12, 1.5, 4.0, &mut out);
        assert_eq!(n, 2);
        out.sort_unstable();
        // zone 11 ra 3.0 is ordinal 2, zone 12 ra 2.0 is ordinal 3.
        assert_eq!(out, vec![2, 3]);
    }

    #[test]
    fn window_bounds_are_inclusive() {
        let m = map(&[(5, 1.0), (5, 2.0), (5, 3.0)]);
        let mut out = Vec::new();
        m.probe(5, 5, 1.0, 3.0, &mut out);
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn out_of_range_zones_and_empty_maps_yield_nothing() {
        let m = map(&[(5, 1.0)]);
        let mut out = Vec::new();
        assert_eq!(m.probe(6, 9, 0.0, 360.0, &mut out), 0);
        assert_eq!(m.probe(-3, 4, 0.0, 360.0, &mut out), 0);
        let empty = map(&[]);
        assert_eq!(empty.probe(i64::MIN, i64::MAX, 0.0, 360.0, &mut out), 0);
        assert!(empty.is_empty());
    }

    #[test]
    fn null_and_nan_rows_are_excluded() {
        let m = ZoneMap::from_pairs(
            vec![
                (Some(5), Some(1.0)),
                (None, Some(2.0)),
                (Some(5), None),
                (Some(5), Some(f64::NAN)),
            ]
            .into_iter(),
            (0, 1),
            0,
        );
        assert_eq!(m.len(), 1);
        let mut out = Vec::new();
        m.probe(5, 5, 0.0, 360.0, &mut out);
        assert_eq!(out, vec![0]);
    }

    #[test]
    fn batch_builder_indexes_the_named_columns() {
        use crate::row::Row;
        use crate::value::DataType;
        let rows = vec![
            Row(vec![Value::Int(12), Value::Float(30.0)]),
            Row(vec![Value::Int(10), Value::Float(20.0)]),
            Row(vec![Value::Int(10), Value::Float(10.0)]),
        ];
        let batch =
            ColumnBatch::from_rows(&[DataType::Int, DataType::Float], &rows).unwrap();
        let m = ZoneMap::from_batch(&batch, 0, 1, 3);
        let mut out = Vec::new();
        m.probe(10, 12, 0.0, 360.0, &mut out);
        assert_eq!(out, vec![2, 1, 0]);
        assert_eq!(m.epoch(), 3);
    }
}
