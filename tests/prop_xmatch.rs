//! Property tests on the cross-survey XMatch pipeline: for random catalog
//! pairs — including RA-wrap bands, polar caps, and radii larger than a
//! zone height — the planned SQL zone join must return exactly the
//! brute-force O(n·m) great-circle matcher's pairs, byte-identically
//! across the planned pipeline, the reference evaluator, and worker
//! counts.

use maxbcg::xmatch::{
    brute_force_xmatch, create_survey_table, expected_match_rate, load_survey, run_xmatch,
    XmatchObj, XmatchSpec,
};
use proptest::prelude::*;
use skycore::kcorr::{KcorrConfig, KcorrTable};
use skycore::{SkyRegion, ZoneScheme};
use skysim::{Sky, SkyConfig, SurveyConfig};
use stardb::sql::execute_with;
use stardb::{Database, DbConfig, PlanOptions, Value};

fn survey(positions: &[(f64, f64)], id_base: i64) -> Vec<XmatchObj> {
    positions
        .iter()
        .enumerate()
        .map(|(k, &(ra, dec))| (id_base + k as i64, ra, dec))
        .collect()
}

/// An in-memory database holding `a` as `Survey1` and `b` (with the
/// spec's margin duplicates) as `Survey2`.
fn surveys_db(a: &[XmatchObj], b: &[XmatchObj], spec: &XmatchSpec) -> Database {
    let mut db = Database::new(DbConfig::in_memory());
    create_survey_table(&mut db, "Survey1").unwrap();
    create_survey_table(&mut db, "Survey2").unwrap();
    load_survey(&mut db, "Survey1", a, &spec.scheme, 0.0).unwrap();
    load_survey(&mut db, "Survey2", b, &spec.scheme, spec.margin_deg()).unwrap();
    db
}

/// Load both surveys and check default ≡ `naive()` ≡ brute force across
/// stripe counts.
fn check_all_modes(
    a: &[XmatchObj],
    b: &[XmatchObj],
    radius: f64,
    zone_height: f64,
) -> Result<(), TestCaseError> {
    let scheme = ZoneScheme::with_height(zone_height);
    let max_dec = a
        .iter()
        .chain(b)
        .map(|&(_, _, d)| d.abs())
        .fold(0.0f64, f64::max);
    let spec = XmatchSpec::new(radius, scheme, max_dec);
    let mut db = surveys_db(a, b, &spec);

    let want = brute_force_xmatch(a, b, &spec);
    let planned = run_xmatch(&mut db, &spec, "Survey1", "Survey2", 1, &PlanOptions::default())
        .unwrap();
    prop_assert_eq!(&planned, &want, "planned zone join diverged from brute force");
    for workers in [1usize, 2, 5] {
        let naive =
            run_xmatch(&mut db, &spec, "Survey1", "Survey2", workers, &PlanOptions::naive())
                .unwrap();
        prop_assert_eq!(&naive, &want, "reference nested loop diverged at {} stripes", workers);
    }
    for workers in [2usize, 5] {
        let w = run_xmatch(&mut db, &spec, "Survey1", "Survey2", workers, &PlanOptions::default())
            .unwrap();
        prop_assert_eq!(&w, &want, "stripe decomposition changed the answer");
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// A mid-declination field at the default 30″ zone height.
    #[test]
    fn sql_zone_join_equals_brute_force_on_a_plain_field(
        pa in prop::collection::vec((120.0f64..124.0, -2.0f64..2.0), 10..60),
        pb in prop::collection::vec((120.0f64..124.0, -2.0f64..2.0), 10..60),
        r in 0.002f64..0.3,
    ) {
        check_all_modes(&survey(&pa, 1), &survey(&pb, 1000), r, 30.0 / 3600.0)?;
    }

    /// Catalogs straddling the RA 0/360 seam: matches must cross it.
    #[test]
    fn ra_wrap_band_matches_across_the_seam(
        pa in prop::collection::vec((-0.8f64..0.8, -1.0f64..1.0), 10..50),
        pb in prop::collection::vec((-0.8f64..0.8, -1.0f64..1.0), 10..50),
        r in 0.01f64..0.5,
    ) {
        let wrap = |ps: &[(f64, f64)]| -> Vec<(f64, f64)> {
            ps.iter().map(|&(ra, dec)| (ra.rem_euclid(360.0), dec)).collect()
        };
        check_all_modes(&survey(&wrap(&pa), 1), &survey(&wrap(&pb), 1000), r, 0.1)?;
    }

    /// Polar caps: the RA window saturates and the dot cut does the work.
    #[test]
    fn polar_caps_fall_back_to_the_saturated_window(
        pa in prop::collection::vec((0.0f64..360.0, 88.5f64..90.0), 10..40),
        pb in prop::collection::vec((0.0f64..360.0, 88.5f64..90.0), 10..40),
        r in 0.05f64..1.0,
    ) {
        check_all_modes(&survey(&pa, 1), &survey(&pb, 1000), r, 0.25)?;
    }

    /// Radius wider than a zone: the band spans several zones.
    #[test]
    fn radius_larger_than_the_zone_height(
        pa in prop::collection::vec((40.0f64..48.0, -4.0f64..4.0), 10..40),
        pb in prop::collection::vec((40.0f64..48.0, -4.0f64..4.0), 10..40),
        r in 1.0f64..2.5,
    ) {
        check_all_modes(&survey(&pa, 1), &survey(&pb, 1000), r, 1.0)?;
    }
}

#[test]
fn explain_shows_the_zone_join_operator() {
    let scheme = ZoneScheme::with_height(0.1);
    let spec = XmatchSpec::new(0.05, scheme, 5.0);
    let a: Vec<XmatchObj> = (0..20).map(|i| (i, 10.0 + 0.1 * i as f64, 1.0)).collect();
    let mut db = surveys_db(&a, &a, &spec);
    for prefix in ["EXPLAIN", "EXPLAIN ANALYZE"] {
        let sql = format!("{prefix} {}", spec.sql("Survey1", "Survey2", None));
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
        assert!(
            plan.iter().any(|l| l.contains("zone join")),
            "{prefix} must render the zone join: {plan:#?}"
        );
    }
}

/// The zone join prunes: on a spread-out catalog it must examine far
/// fewer pairs than the full cross product the nested loop walks. Read
/// from the query's own EXPLAIN ANALYZE profile (`pairs=` on the zone
/// join line), which no concurrently running test can perturb.
#[test]
fn zone_join_examines_fewer_pairs_than_the_cross_product() {
    let scheme = ZoneScheme::with_height(0.1);
    let spec = XmatchSpec::new(0.02, scheme, 3.0);
    let n = 400i64;
    let a: Vec<XmatchObj> = (0..n)
        .map(|i| (i, (0.9 * i as f64).rem_euclid(360.0), -3.0 + 6.0 * (i as f64 / n as f64)))
        .collect();
    let b: Vec<XmatchObj> =
        a.iter().map(|&(id, ra, dec)| (1000 + id, ra + 0.001, dec)).collect();
    let mut db = surveys_db(&a, &b, &spec);
    let pairs =
        run_xmatch(&mut db, &spec, "Survey1", "Survey2", 1, &PlanOptions::default()).unwrap();
    assert_eq!(pairs.len(), n as usize);

    let sql = format!("EXPLAIN ANALYZE {}", spec.sql("Survey1", "Survey2", None));
    let (_, rows) = execute_with(&mut db, &sql, &PlanOptions::default())
        .unwrap()
        .rows()
        .unwrap();
    let examined: u64 = rows
        .iter()
        .filter_map(|r| match r.0.first() {
            Some(Value::Text(s)) if s.contains("zone join") => {
                let tail = s.split(" pairs=").nth(1)?;
                tail.split_whitespace()
                    .next()?
                    .trim_end_matches(')')
                    .parse::<u64>()
                    .ok()
            }
            _ => None,
        })
        .sum();
    assert!(examined > 0, "profile lost the pairs extra");
    assert!(
        examined < (n * n) as u64 / 10,
        "zone join examined {examined} pairs, cross product is {}",
        n * n
    );
}

/// The physics behind the match radius: re-observe a `skysim` sky (90 %
/// complete, 0.3″ per-axis scatter) and the fraction of truth objects the
/// zone join pairs with their own re-observation must sit within ±0.02 of
/// the closed form `completeness · Rayleigh(r; σ)` — at 1″, where the
/// Rayleigh term saturates and completeness decides, and at 0.4″, where
/// the scatter decides.
#[test]
fn match_rate_on_a_reobserved_sky_follows_the_closed_form() {
    let region = SkyRegion::new(150.0, 158.0, 1.25, 3.75);
    let kcorr = KcorrTable::generate(KcorrConfig::default());
    let sky = Sky::generate(region, &SkyConfig::scaled(0.05), &kcorr, 2005);
    let survey = SurveyConfig::paper();
    let truth: Vec<XmatchObj> = sky.galaxies.iter().map(|g| (g.objid, g.ra, g.dec)).collect();
    let second: Vec<XmatchObj> =
        sky.second_survey(&survey, 2006).iter().map(|o| (o.objid, o.ra, o.dec)).collect();
    assert!(truth.len() >= 5000, "only {} truth objects", truth.len());

    let scheme = ZoneScheme::with_height(30.0 / 3600.0);
    for radius_arcsec in [1.0, 0.4] {
        let radius = radius_arcsec / 3600.0;
        let spec = XmatchSpec::new(radius, scheme, region.dec_max + 0.01);
        let mut db = surveys_db(&truth, &second, &spec);
        let pairs =
            run_xmatch(&mut db, &spec, "Survey1", "Survey2", 1, &PlanOptions::default()).unwrap();
        let correct = pairs.iter().filter(|&&(a, b)| a == b).count();
        let rate = correct as f64 / truth.len() as f64;
        let want = expected_match_rate(survey.completeness, survey.scatter_arcsec, radius);
        assert!(
            (rate - want).abs() <= 0.02,
            "{radius_arcsec}\": matched {rate:.4} of the truth objects, closed form {want:.4}"
        );
    }
}
