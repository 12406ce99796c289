//! Zone maps: the build-side index of the planner's zone join.
//!
//! A [`ZoneMap`] is an immutable struct-of-arrays index over any table (or
//! drained join build side) carrying an integer zone column and a float RA
//! column: entries sorted by `(zone, ra, ordinal)` with one slice per
//! occupied zone, so a probe for `zone ∈ [zlo, zhi] ∧ ra ∈ [ra_lo, ra_hi]`
//! finds the band's first occupied zone, walks the band and searches the RA
//! window inside each zone — the generalization of the maxbcg Zone-table
//! snapshot cache to arbitrary `(ra, dec)`-keyed tables. A probe returns
//! *candidate ordinals* (a strict superset of the matching pairs), and the
//! join re-evaluates its full conjunction on each, so the map changes cost,
//! never answers.
//!
//! A [`ZoneBuild`] is a map together with the rows its ordinals index, as
//! one column batch. Builds drained by a full unfiltered table scan are
//! cached per [`crate::Database`], keyed by `table_version` epochs, so a
//! repeated zone join scans its inner table zero times.

use crate::colbatch::ColumnBatch;

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
    /// The zones holding entries, ascending. Only these take space: two
    /// rows in zones `i32::MIN` and `i32::MAX` make a two-zone directory.
    zones: Vec<i64>,
    /// Per-zone slice bounds: zone `zones[k]` owns entries
    /// `offsets[k] .. offsets[k + 1]`. Length `zones.len() + 1`.
    offsets: Vec<u32>,
    /// Entry RA values, ascending within each zone.
    ra: Vec<f64>,
    /// Entry ordinals in the source row set.
    ord: Vec<u32>,
}

/// A zone join's build side: the drained rows (the columns the statements
/// so far read; the rest absent) and the map over them. What the
/// per-database cache holds per table.
#[derive(Debug)]
pub(crate) struct ZoneBuild {
    pub map: ZoneMap,
    pub batch: ColumnBatch,
}

/// Past the last entry of the ascending `slice` that is `<= hi`, searched
/// outward from the front: `O(log k)` for `k` such entries, where a
/// whole-slice binary search pays `O(log n)` to find a window of one or two.
fn upper_bound_from_front(slice: &[f64], hi: f64) -> usize {
    let mut reach = 1;
    while reach <= slice.len() && slice[reach - 1] <= hi {
        reach *= 2;
    }
    // `slice[reach / 2 - 1] <= hi` (or nothing is), and `slice[reach - 1]`
    // exceeds it (or is past the end).
    let from = reach / 2;
    let to = (reach - 1).min(slice.len());
    from + slice[from..to].partition_point(|&r| r <= hi)
}

impl ZoneMap {
    /// Build from `(zone, ra)` pairs in ordinal order. Rows with a NULL
    /// zone, or a NULL or NaN RA, are left out: none can satisfy the zone
    /// band or the RA window, so dropping them keeps the candidate
    /// superset property.
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
        let mut zones = Vec::new();
        let mut offsets = Vec::new();
        let mut ra = Vec::with_capacity(entries.len());
        let mut ord = Vec::with_capacity(entries.len());
        for (i, &(z, r, o)) in entries.iter().enumerate() {
            if zones.last() != Some(&z) {
                zones.push(z);
                offsets.push(i as u32);
            }
            ra.push(r);
            ord.push(o);
        }
        offsets.push(entries.len() as u32);
        ZoneMap { epoch, cols, zones, offsets, ra, ord }
    }

    /// Build from a column-major batch: `zone_col` / `ra_col` are batch
    /// column positions. Only an integer column holds zones; the RA is
    /// widened exactly as the expression evaluator widens it.
    pub fn from_batch(batch: &ColumnBatch, zone_col: usize, ra_col: usize, epoch: u64) -> ZoneMap {
        let (zone, ra) = (batch.col(zone_col), batch.col(ra_col));
        ZoneMap::from_pairs(
            (0..batch.len()).map(|i| (zone.int_at(i), ra.num_at(i))),
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
        let before = out.len();
        // Distinct ascending integers: `zones[k] >= zones[0] + k`, so the
        // band's first occupied zone sits at or before index `zlo -
        // zones[0]` — exactly there when the zones before it are
        // contiguous, which a survey's are.
        let Some(&z0) = self.zones.first() else { return 0 };
        let cap = zlo.saturating_sub(z0).clamp(0, self.zones.len() as i64) as usize;
        let first = match cap {
            0 => 0,
            _ if self.zones[cap - 1] < zlo => cap,
            _ => self.zones[..cap].partition_point(|&z| z < zlo),
        };
        for (k, _) in self.zones[first..].iter().enumerate().take_while(|&(_, &z)| z <= zhi) {
            let (s, e) = (self.offsets[first + k] as usize, self.offsets[first + k + 1] as usize);
            let a = s + self.ra[s..e].partition_point(|&r| r < ra_lo);
            let b = a + upper_bound_from_front(&self.ra[a..e], ra_hi);
            out.extend_from_slice(&self.ord[a..b]);
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

    /// Only occupied zones take space, however far apart: every band over a
    /// directory with gaps — the `i32` extremes included — finds exactly the
    /// entries a scan of the pairs finds.
    #[test]
    fn a_sparse_directory_answers_every_band() {
        let (min, max) = (i64::from(i32::MIN), i64::from(i32::MAX));
        let data: Vec<(i64, f64)> = [min, min, -7, 5, 6, 7, 9, 1000, max]
            .iter()
            .enumerate()
            .map(|(i, &z)| (z, i as f64))
            .collect();
        let m = map(&data);
        assert_eq!((m.len(), m.zones.len(), m.offsets.len()), (9, 8, 9));
        let edges = [i64::MIN, min, min + 1, -8, -7, 4, 5, 6, 8, 9, 10, 999, 1001, max, i64::MAX];
        for &zlo in &edges {
            for &zhi in &edges {
                let mut got = Vec::new();
                let n = m.probe(zlo, zhi, 0.5, 7.5, &mut got);
                got.sort_unstable();
                let want: Vec<u32> = (0..data.len() as u32)
                    .filter(|&i| {
                        let (z, r) = data[i as usize];
                        (zlo..=zhi).contains(&z) && (0.5..=7.5).contains(&r)
                    })
                    .collect();
                assert_eq!((n, &got), (want.len(), &want), "zones {zlo}..={zhi}");
            }
        }
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
        use crate::value::{DataType, Value};
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
