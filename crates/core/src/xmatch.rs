//! Cross-survey XMatch: spatial cross-matching of two `(ra, dec)` catalogs
//! as planned SQL (DESIGN.md §6j).
//!
//! Both surveys are zoned like the `Zone` table — clustered on
//! `(zoneid, ra, objid)` with precomputed unit vectors — and the match is
//! ONE declarative query: a zone-band join with a sargable RA window and
//! the exact chord² (dot-product) residual, the shape the `stardb` planner
//! recognizes and runs as a vectorized zone join. The RA 0/360 wrap is
//! handled *relationally*, with margin rows: probe-side objects within the
//! window width of the wrap are duplicated at `ra ± 360`, so one BETWEEN
//! window sees across the seam and every true pair matches exactly once.
//!
//! Determinism contract: the pair list is byte-identical across planner
//! modes (the zone join is candidate pruning over the same conjunction),
//! across worker counts (stripes partition the left survey by zone; a
//! final `(objid1, objid2)` sort erases the decomposition), and across
//! distributed node counts (the same SQL routes through `distfab`'s
//! co-partitioned shard-local join).

use skycore::angle::chord2_of_deg;
use skycore::{ShardMap, UnitVec, ZoneScheme};
use stardb::sql::execute_with;
use stardb::{Database, DbResult, PlanOptions, Row, Value};
use std::sync::OnceLock;

/// One catalog object to load: `(objid, ra_deg, dec_deg)`.
pub type XmatchObj = (i64, f64, f64);

struct XmatchObs {
    runs: obs::Counter,
    stripes: obs::Counter,
    margin_rows: obs::Counter,
    pairs: obs::Counter,
}

fn xobs() -> &'static XmatchObs {
    static X: OnceLock<XmatchObs> = OnceLock::new();
    X.get_or_init(|| XmatchObs {
        runs: obs::counter("maxbcg.xmatch.runs"),
        stripes: obs::counter("maxbcg.xmatch.stripes"),
        margin_rows: obs::counter("maxbcg.xmatch.margin_rows"),
        pairs: obs::counter("maxbcg.xmatch.pairs"),
    })
}

/// The derived constants of one cross-match: zone band, RA window, margin
/// width, and the dot-product cut, all fixed by
/// `(radius, zone scheme, max |dec|)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct XmatchSpec {
    /// Match radius, degrees. Pairs strictly closer than this match.
    pub radius_deg: f64,
    /// Zone layout both surveys were zoned with.
    pub scheme: ZoneScheme,
    /// Zone half-band: `|zone_a - zone_b| <= dz` for every true pair.
    dz: i64,
    /// RA half-window, degrees. `360` is the saturated polar fallback: the
    /// window is vacuous and the zone band + exact cut do all the work.
    ra_w: f64,
    /// `1 - 4 sin²(r/2) / 2`: pairs match iff `a·b > mindot`. Stored
    /// SQL-round-tripped so the text plan and native code compare against
    /// bit-identical constants.
    mindot: f64,
}

/// Format an `f64` for embedding in SQL text: plain decimal (the lexer
/// takes no exponents), with enough digits that values down to the 1e-9
/// slack term round-trip far below every tolerance in play.
fn fmt_f64(x: f64) -> String {
    format!("{x:.24}")
}

impl XmatchSpec {
    /// Derive the constants for matching at `radius_deg` over catalogs
    /// zoned with `scheme` whose declinations satisfy
    /// `|dec| <= max_abs_dec_deg` (over BOTH surveys).
    ///
    /// The RA window comes from the haversine identity: for separation
    /// `< r` at declinations within `D`,
    /// `sin(Δra/2) <= sin(r/2) / cos(D)`, widened by a 1.0001 factor and
    /// an additive 1e-9 against rounding — the window and band are
    /// candidate cuts, only the dot product decides, so widening is always
    /// safe. When the window saturates (polar caps, or radius comparable
    /// to the circle) it degrades to the vacuous `±360`, mirroring the
    /// zone kernel's scan-it-all fallback — and the margin drops to zero
    /// so no duplicate rows exist to double-match.
    pub fn new(radius_deg: f64, scheme: ZoneScheme, max_abs_dec_deg: f64) -> XmatchSpec {
        assert!(radius_deg > 0.0, "match radius must be positive");
        let dz = (radius_deg / scheme.height_deg).floor() as i64 + 1;
        let cos_d = max_abs_dec_deg.min(90.0).to_radians().cos();
        let s = (radius_deg.to_radians() / 2.0).sin() / cos_d.max(f64::EPSILON);
        let ra_w = if s >= 1.0 {
            360.0
        } else {
            let w = 2.0 * s.asin().to_degrees() * 1.0001 + 1e-9;
            if w >= 179.0 {
                360.0
            } else {
                w
            }
        };
        let mindot = 1.0 - chord2_of_deg(radius_deg) / 2.0;
        // Round-trip through the SQL text representation so the native
        // matcher and the parsed plan cut on the identical bit pattern.
        let mindot = fmt_f64(mindot).parse::<f64>().expect("fmt_f64 round-trips");
        let ra_w = fmt_f64(ra_w).parse::<f64>().expect("fmt_f64 round-trips");
        XmatchSpec { radius_deg, scheme, dz, ra_w, mindot }
    }

    /// The zone half-band `Δzone`.
    pub fn dzone(&self) -> i64 {
        self.dz
    }

    /// The RA half-window, degrees (`360` = saturated/vacuous).
    pub fn ra_window(&self) -> f64 {
        self.ra_w
    }

    /// The dot-product cut: pairs match iff `a·b > mindot`.
    pub fn mindot(&self) -> f64 {
        self.mindot
    }

    /// Margin width for probe-side loading: objects within this many
    /// degrees of RA 0/360 get a wrapped duplicate. Zero when the window
    /// is saturated (the vacuous window would see both copies).
    pub fn margin_deg(&self) -> f64 {
        if self.ra_w >= 180.0 {
            0.0
        } else {
            self.ra_w
        }
    }

    /// The cross-match SELECT over left survey `a_table` and probe survey
    /// `b_table`, optionally restricted to left zones
    /// `stripe = [lo, hi]` (inclusive). This is the exact textual shape
    /// the planner's zone-join recognizer matches.
    pub fn sql(&self, a_table: &str, b_table: &str, stripe: Option<(i64, i64)>) -> String {
        let stripe_pred = match stripe {
            Some((lo, hi)) => format!("a.zoneid BETWEEN {lo} AND {hi} AND "),
            None => String::new(),
        };
        format!(
            "SELECT a.objid AS objid1, b.objid AS objid2 \
             FROM {a_table} a JOIN {b_table} b \
             ON b.zoneid BETWEEN a.zoneid - {dz} AND a.zoneid + {dz} \
             WHERE {stripe_pred}b.ra BETWEEN a.ra - {w} AND a.ra + {w} \
             AND a.cx * b.cx + a.cy * b.cy + a.cz * b.cz > {mindot} \
             ORDER BY objid1, objid2",
            dz = self.dz,
            w = fmt_f64(self.ra_w),
            mindot = fmt_f64(self.mindot),
        )
    }
}

/// Create a zoned survey table (`Zone`'s positional columns: clustered on
/// `(zoneid, ra, objid)` with the precomputed unit vector).
pub fn create_survey_table(db: &mut Database, table: &str) -> DbResult<()> {
    db.create_clustered_table(table, crate::schema::survey_schema(), &["zoneid", "ra", "objid"])
}

/// Load one catalog into `table` (created by [`create_survey_table`] and
/// truncated here): zone assignment, unit vectors, and — when
/// `margin_deg > 0` — wrapped duplicates of objects within the margin of
/// RA 0/360 at `ra ± 360`, carrying the *same* objid/zone/unit vector.
///
/// Load the probe (right/inner) survey with `spec.margin_deg()`; load the
/// left survey with margin `0.0` — left-side duplicates would emit
/// duplicate output pairs. Returns `(rows, margin_rows)`.
pub fn load_survey(
    db: &mut Database,
    table: &str,
    objects: &[XmatchObj],
    scheme: &ZoneScheme,
    margin_deg: f64,
) -> DbResult<(u64, u64)> {
    db.truncate(table)?;
    let mut rows: Vec<(i32, f64, Row)> = Vec::with_capacity(objects.len());
    let mut margin_rows = 0u64;
    for &(objid, ra, dec) in objects {
        let zoneid = scheme.zone_of(dec);
        let v = UnitVec::from_radec(ra, dec);
        let mut push = |ra: f64| {
            rows.push((
                zoneid,
                ra,
                Row(vec![
                    Value::Int(zoneid),
                    Value::Float(ra),
                    Value::BigInt(objid),
                    Value::Float(dec),
                    Value::Float(v.x),
                    Value::Float(v.y),
                    Value::Float(v.z),
                ]),
            ));
        };
        push(ra);
        if margin_deg > 0.0 && ra < margin_deg {
            push(ra + 360.0);
            margin_rows += 1;
        } else if margin_deg > 0.0 && ra > 360.0 - margin_deg {
            push(ra - 360.0);
            margin_rows += 1;
        }
    }
    // Clustered-key order so the B-tree builds append-mostly.
    rows.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)));
    let n = rows.len() as u64;
    db.insert_rows(table, rows.into_iter().map(|(_, _, r)| r))?;
    xobs().margin_rows.add(margin_rows);
    Ok((n, margin_rows))
}

/// Inclusive `zoneid` span present in a survey table, or `None` when the
/// table is empty.
fn zone_span(db: &Database, table: &str) -> DbResult<Option<(i32, i32)>> {
    let mut span: Option<(i32, i32)> = None;
    db.scan_with(table, |row| {
        let z = row.i64(0).unwrap_or(0) as i32;
        span = Some(match span {
            Some((lo, hi)) => (lo.min(z), hi.max(z)),
            None => (z, z),
        });
        Ok(true)
    })?;
    Ok(span)
}

/// Run the cross-match end to end: stripe the left survey's zone span into
/// `~4 × workers` contiguous chunks (the same oversubscription discipline
/// as [`crate::parallel`]), run the striped SELECT per chunk, and merge
/// with a final `(objid1, objid2)` sort.
///
/// The engine is single-writer, so stripes execute serially here — the
/// stripe axis proves *decomposition invariance* (the same invariance the
/// distributed fabric leans on), and scale-out parallelism comes from
/// `distfab`'s co-partitioned shard-local joins over the identical SQL.
/// Output is byte-identical for every `workers` value and under both
/// `PlanOptions` evaluators (planned and the `naive()` reference).
pub fn run_xmatch(
    db: &mut Database,
    spec: &XmatchSpec,
    a_table: &str,
    b_table: &str,
    workers: usize,
    opts: &PlanOptions,
) -> DbResult<Vec<(i64, i64)>> {
    xobs().runs.incr();
    let Some((zlo, zhi)) = zone_span(db, a_table)? else {
        return Ok(Vec::new());
    };
    let span = i64::from(zhi) - i64::from(zlo) + 1;
    let n_stripes = (workers.max(1) * 4).min(span as usize);
    let map = ShardMap::from_zone_span(spec.scheme, zlo, zhi, n_stripes);
    let mut pairs: Vec<(i64, i64)> = Vec::new();
    let mut used = 0u64;
    for k in 0..map.shard_count() {
        let (lo, hi) = map.shard_zones(k);
        if lo == hi {
            continue; // empty stripe (more stripes than zones)
        }
        used += 1;
        let sql = spec.sql(a_table, b_table, Some((i64::from(lo), i64::from(hi) - 1)));
        let (_, rows) = execute_with(db, &sql, opts)?.rows()?;
        for row in rows {
            pairs.push((
                row.i64(0).expect("objid1 is BIGINT"),
                row.i64(1).expect("objid2 is BIGINT"),
            ));
        }
    }
    // The stripes partition left rows disjointly, so no pair appears
    // twice; the global sort erases the stripe decomposition.
    pairs.sort_unstable();
    xobs().stripes.add(used);
    xobs().pairs.add(pairs.len() as u64);
    Ok(pairs)
}

/// Reference matcher: O(n·m) over all pairs, cutting on the identical
/// dot-product expression in the identical association order as the SQL
/// evaluator (`(ax·bx + ay·by) + az·bz > mindot`), over the same
/// `UnitVec::from_radec` coordinates the loader stored — so its output is
/// bit-for-bit the ground truth the relational plan must reproduce.
pub fn brute_force_xmatch(
    a: &[XmatchObj],
    b: &[XmatchObj],
    spec: &XmatchSpec,
) -> Vec<(i64, i64)> {
    let bv: Vec<(i64, UnitVec)> =
        b.iter().map(|&(id, ra, dec)| (id, UnitVec::from_radec(ra, dec))).collect();
    let mindot = spec.mindot();
    let mut pairs = Vec::new();
    for &(aid, ra, dec) in a {
        let av = UnitVec::from_radec(ra, dec);
        for (bid, bv) in &bv {
            let dot = (av.x * bv.x + av.y * bv.y) + av.z * bv.z;
            if dot > mindot {
                pairs.push((aid, *bid));
            }
        }
    }
    pairs.sort_unstable();
    pairs
}

/// Expected fraction of probe objects matched when the probe survey is a
/// re-observation with per-axis Gaussian scatter `scatter_arcsec` and the
/// given completeness (the [`skysim`] second-survey model): completeness
/// times the Rayleigh CDF of the match radius.
pub fn expected_match_rate(completeness: f64, scatter_arcsec: f64, radius_deg: f64) -> f64 {
    let sigma = scatter_arcsec / 3600.0;
    completeness * (1.0 - (-radius_deg * radius_deg / (2.0 * sigma * sigma)).exp())
}

#[cfg(test)]
mod tests {
    use super::*;
    use stardb::DbConfig;

    fn setup(
        a: &[XmatchObj],
        b: &[XmatchObj],
        spec: &XmatchSpec,
    ) -> DbResult<Database> {
        let mut db = Database::new(DbConfig::in_memory());
        create_survey_table(&mut db, "Survey1")?;
        create_survey_table(&mut db, "Survey2")?;
        load_survey(&mut db, "Survey1", a, &spec.scheme, 0.0)?;
        load_survey(&mut db, "Survey2", b, &spec.scheme, spec.margin_deg())?;
        Ok(db)
    }

    #[test]
    fn sql_plan_matches_brute_force_on_a_simple_field() {
        let scheme = ZoneScheme::with_height(0.1);
        let spec = XmatchSpec::new(0.05, scheme, 5.0);
        // A tight pair, a far pair, and an isolated object.
        let a: Vec<XmatchObj> = vec![(1, 10.0, 1.0), (2, 20.0, -2.0), (3, 30.0, 0.0)];
        let b: Vec<XmatchObj> =
            vec![(101, 10.01, 1.01), (102, 20.5, -2.0), (103, 30.0, 0.049)];
        let mut db = setup(&a, &b, &spec).unwrap();
        let got = run_xmatch(&mut db, &spec, "Survey1", "Survey2", 1, &PlanOptions::default())
            .unwrap();
        let want = brute_force_xmatch(&a, &b, &spec);
        assert_eq!(got, want);
        assert_eq!(got, vec![(1, 101), (3, 103)]);
    }

    #[test]
    fn margin_rows_surface_matches_across_the_ra_wrap() {
        let scheme = ZoneScheme::with_height(0.1);
        let spec = XmatchSpec::new(0.05, scheme, 5.0);
        let a: Vec<XmatchObj> = vec![(1, 359.99, 0.0), (2, 0.01, 1.0)];
        let b: Vec<XmatchObj> = vec![(101, 0.005, 0.0), (102, 359.995, 1.0)];
        let mut db = setup(&a, &b, &spec).unwrap();
        let (_, margin) = load_survey(&mut db, "Survey2", &b, &scheme, spec.margin_deg()).unwrap();
        assert_eq!(margin, 2, "both probe objects sit inside the margin");
        let got = run_xmatch(&mut db, &spec, "Survey1", "Survey2", 1, &PlanOptions::default())
            .unwrap();
        assert_eq!(got, brute_force_xmatch(&a, &b, &spec));
        assert_eq!(got, vec![(1, 101), (2, 102)]);
    }

    #[test]
    fn saturated_window_near_the_pole_still_agrees() {
        let scheme = ZoneScheme::with_height(0.5);
        // cos(89.9°) makes the naive window huge: the spec must saturate.
        let spec = XmatchSpec::new(0.4, scheme, 89.95);
        assert_eq!(spec.ra_window(), 360.0);
        assert_eq!(spec.margin_deg(), 0.0);
        let a: Vec<XmatchObj> = vec![(1, 10.0, 89.9), (2, 200.0, 89.85)];
        // 190° of RA away at dec 89.9 is under 0.4° of arc away.
        let b: Vec<XmatchObj> = vec![(101, 200.0, 89.9), (102, 20.0, 89.2)];
        let mut db = setup(&a, &b, &spec).unwrap();
        let got = run_xmatch(&mut db, &spec, "Survey1", "Survey2", 1, &PlanOptions::default())
            .unwrap();
        let want = brute_force_xmatch(&a, &b, &spec);
        assert_eq!(got, want);
        assert!(want.contains(&(1, 101)), "cross-meridian polar pair must match");
    }

    #[test]
    fn stripe_count_does_not_change_the_answer() {
        let scheme = ZoneScheme::with_height(0.25);
        let spec = XmatchSpec::new(0.1, scheme, 3.0);
        let a: Vec<XmatchObj> = (0..40)
            .map(|i| (i, 5.0 + 0.37 * f64::from(i as i32), -2.0 + 0.11 * f64::from(i as i32)))
            .collect();
        let b: Vec<XmatchObj> = a
            .iter()
            .map(|&(id, ra, dec)| (1000 + id, ra + 0.00002, dec - 0.00003))
            .collect();
        let mut db = setup(&a, &b, &spec).unwrap();
        let one =
            run_xmatch(&mut db, &spec, "Survey1", "Survey2", 1, &PlanOptions::default()).unwrap();
        assert_eq!(one.len(), 40);
        for workers in [2usize, 4, 8, 32] {
            let w = run_xmatch(&mut db, &spec, "Survey1", "Survey2", workers, &PlanOptions::default())
                .unwrap();
            assert_eq!(w, one, "workers={workers}");
        }
        assert_eq!(one, brute_force_xmatch(&a, &b, &spec));
    }

    /// The match runs as a zone join whose whole ON — both bands and the
    /// dot-product cut — compiled to column kernels, striped or not.
    #[test]
    fn planner_runs_the_match_as_a_zone_join() {
        let scheme = ZoneScheme::with_height(0.1);
        let spec = XmatchSpec::new(0.05, scheme, 5.0);
        let a: Vec<XmatchObj> = vec![(1, 10.0, 1.0)];
        let b: Vec<XmatchObj> = vec![(101, 10.01, 1.01)];
        let mut db = setup(&a, &b, &spec).unwrap();
        for stripe in [None, Some((900, 920))] {
            let sql = format!("EXPLAIN {}", spec.sql("Survey1", "Survey2", stripe));
            let (_, rows) = execute_with(&mut db, &sql, &PlanOptions::default())
                .unwrap()
                .rows()
                .unwrap();
            let plan: Vec<String> = rows
                .into_iter()
                .filter_map(|r| match r.0.into_iter().next() {
                    Some(Value::Text(s)) => Some(s),
                    _ => None,
                })
                .collect();
            let zone_join = plan.iter().find(|l| l.contains("zone join"));
            assert!(
                zone_join.is_some_and(|l| l.ends_with("on compiled predicate")),
                "plan must show a zone join with a compiled ON: {plan:#?}"
            );
        }
    }

    #[test]
    fn expected_match_rate_has_the_right_limits() {
        // Radius far beyond the scatter: rate → completeness.
        assert!((expected_match_rate(0.9, 0.3, 1.0) - 0.9).abs() < 1e-12);
        // Radius a fraction of the scatter: rate ≈ c · r²/2σ².
        let r = expected_match_rate(1.0, 3600.0, 0.1);
        assert!((r - (1.0 - (-0.005f64).exp())).abs() < 1e-12);
        assert!(r < 0.006);
    }
}
