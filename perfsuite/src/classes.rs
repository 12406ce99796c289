//! The statement classes of the two session workloads, and the answer
//! each statement must give, computed straight from the generated sky in
//! plain Rust — never through `stardb`.

use crate::harness::{Digest, Rng};
use skycore::types::Galaxy;
use skycore::SkyRegion;
use stardb::{Row, Value};

/// What the harness keeps of a result set: enough to tell a right answer
/// from a wrong one without holding the rows.
#[derive(Debug, Clone, PartialEq)]
pub struct Answer {
    pub rows: u64,
    /// Digest of the first column in result order (object ids, or a count).
    pub key_digest: u64,
    /// The numeric cells of the first row (aggregates live here).
    pub head: Vec<f64>,
}

impl Answer {
    fn of(keys: impl IntoIterator<Item = i64>, head: Vec<f64>) -> Answer {
        let mut digest = Digest::default();
        let mut rows = 0;
        for k in keys {
            digest.i64(k);
            rows += 1;
        }
        Answer {
            rows,
            key_digest: digest.0,
            head,
        }
    }

    /// Summarize engine rows.
    pub fn from_rows(rows: &[Row]) -> Answer {
        let cell = |v: &Value| v.as_f64().unwrap_or(f64::NAN);
        let head = rows
            .first()
            .map(|r| r.values().iter().map(cell).collect())
            .unwrap_or_default();
        Answer::of(rows.iter().map(|r| r.i64(0).unwrap_or(i64::MIN)), head)
    }

    /// Summarize rows as the CasJobs wire renders them (decimal strings).
    pub fn from_strings(rows: &[Vec<String>]) -> Answer {
        let cell = |s: &String| s.parse::<f64>().unwrap_or(f64::NAN);
        let head = rows
            .first()
            .map(|r| r.iter().map(cell).collect())
            .unwrap_or_default();
        let key = |r: &Vec<String>| {
            r.first()
                .and_then(|s| s.parse::<i64>().ok())
                .unwrap_or(i64::MIN)
        };
        Answer::of(rows.iter().map(key), head)
    }

    /// Same rows in the same order; first-row cells equal to 1e-6
    /// relative (`REAL` columns cross the wire as shortest `f32` decimals).
    pub fn matches(&self, got: &Answer) -> bool {
        self.rows == got.rows
            && self.key_digest == got.key_digest
            && self.head.len() == got.head.len()
            && self
                .head
                .iter()
                .zip(&got.head)
                .all(|(a, b)| (a - b).abs() <= 1e-6 * a.abs().max(1.0))
    }

    /// A deliberately wrong expectation (`--break-check`).
    pub fn broken(mut self) -> Answer {
        self.rows += 1;
        self
    }
}

/// One statement and the answer the sky says it has.
pub struct Statement {
    pub sql: String,
    pub expect: Answer,
}

/// A value as the `REAL` columns of the `Galaxy` schema store it.
fn real(x: f64) -> f64 {
    f64::from(x as f32)
}

/// Four decimals, so the SQL text carries the exact bound.
fn q4(x: f64) -> f64 {
    (x * 1e4).round() / 1e4
}

/// A `w`° × `h`° window drawn inside `region`.
fn window(rng: &mut Rng, region: &SkyRegion, w: f64, h: f64) -> SkyRegion {
    let (w, h) = (q4(w.min(region.ra_span())), q4(h.min(region.dec_span())));
    let ra = q4(rng.range(region.ra_min, region.ra_max - w));
    let dec = q4(rng.range(region.dec_min, region.dec_max - h));
    SkyRegion::new(ra, ra + w, dec, dec + h)
}

/// Indices of `items` by ascending `(ra, objid)`.
fn order_by_ra<T>(items: &[T], key: impl Fn(&T) -> (f64, i64)) -> Vec<u32> {
    let mut by_ra: Vec<u32> = (0..items.len() as u32).collect();
    by_ra.sort_by(|&a, &b| {
        let (a, b) = (key(&items[a as usize]), key(&items[b as usize]));
        a.0.total_cmp(&b.0).then(a.1.cmp(&b.1))
    });
    by_ra
}

/// The five classes of `casjobs_session` over a `Galaxy` table.
pub struct GalaxyClasses {
    /// The table's rows, in objid order.
    galaxies: Vec<Galaxy>,
    by_ra: Vec<u32>,
    region: SkyRegion,
    /// Object ids of the 32 brightest, and the brightest's magnitude: the
    /// one statement of `topn` has no parameter to draw.
    brightest: (Vec<i64>, f64),
}

/// Membership of the `Bright` side table: `i < 19` as stored.
pub fn is_bright(g: &Galaxy) -> bool {
    real(g.i) < 19.0
}

impl GalaxyClasses {
    pub fn new(mut galaxies: Vec<Galaxy>, region: SkyRegion) -> GalaxyClasses {
        galaxies.sort_by_key(|g| g.objid);
        let by_ra = order_by_ra(&galaxies, |g| (g.ra, g.objid));
        let mut order: Vec<&Galaxy> = galaxies.iter().collect();
        order.sort_by(|a, b| real(a.i).total_cmp(&real(b.i)).then(a.objid.cmp(&b.objid)));
        let brightest = (
            order.iter().take(32).map(|g| g.objid).collect(),
            order.first().map_or(f64::NAN, |g| real(g.i)),
        );
        GalaxyClasses {
            galaxies,
            by_ra,
            region,
            brightest,
        }
    }

    pub fn galaxies(&self) -> &[Galaxy] {
        &self.galaxies
    }

    fn in_ra(&self, lo: f64, hi: f64) -> impl Iterator<Item = &Galaxy> {
        let a = self
            .by_ra
            .partition_point(|&i| self.galaxies[i as usize].ra < lo);
        let b = self
            .by_ra
            .partition_point(|&i| self.galaxies[i as usize].ra <= hi);
        self.by_ra[a..b].iter().map(|&i| &self.galaxies[i as usize])
    }

    /// A statement of `class`, its parameters drawn from `rng`.
    pub fn draw(&self, class: &str, rng: &mut Rng) -> Statement {
        match class {
            "fig4" => self.fig4(rng),
            "scan" => self.scan(rng),
            "agg" => self.agg(rng),
            "topn" => self.topn(),
            "join" => self.join(rng),
            other => panic!("no statement class {other}"),
        }
    }

    /// Figure 4: a 0.15° window through the `(ra, dec)` index, `ORDER BY objid`.
    fn fig4(&self, rng: &mut Rng) -> Statement {
        let w = window(rng, &self.region, 0.15, 0.15);
        let mut hits: Vec<&Galaxy> = self
            .in_ra(w.ra_min, w.ra_max)
            .filter(|g| g.dec >= w.dec_min && g.dec <= w.dec_max)
            .collect();
        hits.sort_by_key(|g| g.objid);
        let head = hits
            .first()
            .map(|g| vec![g.objid as f64, g.ra, g.dec, real(g.i)])
            .unwrap_or_default();
        Statement {
            sql: maxbcg::region_query::region_select(&w),
            expect: Answer::of(hits.iter().map(|g| g.objid), head),
        }
    }

    /// A predicate on the un-indexed `i` and `gr`: the scan + filter kernel.
    fn scan(&self, rng: &mut Rng) -> Statement {
        let t = (rng.range(18.0, 19.0) * 1e3).round() / 1e3;
        let hits: Vec<&Galaxy> = self
            .galaxies
            .iter()
            .filter(|g| real(g.i) < t && real(g.gr) > 1.4)
            .collect();
        let head = hits
            .first()
            .map(|g| vec![g.objid as f64, g.ra, g.dec, real(g.i)])
            .unwrap_or_default();
        Statement {
            sql: format!(
                "SELECT objid, ra, dec, i FROM Galaxy WHERE i < {t} AND gr > 1.4 ORDER BY objid"
            ),
            expect: Answer::of(hits.iter().map(|g| g.objid), head),
        }
    }

    /// Global `COUNT/MIN/MAX`: a full scan into three accumulators.
    fn agg(&self, rng: &mut Rng) -> Statement {
        let t = (rng.range(20.5, 21.0) * 1e3).round() / 1e3;
        let (mut n, mut min_i, mut max_ra) = (0i64, f64::INFINITY, f64::NEG_INFINITY);
        for g in self.galaxies.iter().filter(|g| real(g.i) < t) {
            n += 1;
            min_i = min_i.min(real(g.i));
            max_ra = max_ra.max(g.ra);
        }
        Statement {
            sql: format!("SELECT COUNT(*), MIN(i), MAX(ra) FROM Galaxy WHERE i < {t}"),
            expect: Answer::of([n], vec![n as f64, min_i, max_ra]),
        }
    }

    /// The 32 brightest.
    fn topn(&self) -> Statement {
        let (ids, i) = &self.brightest;
        let head = ids
            .first()
            .map(|&id| vec![id as f64, *i])
            .unwrap_or_default();
        Statement {
            sql: "SELECT objid, i FROM Galaxy ORDER BY i, objid LIMIT 32".to_owned(),
            expect: Answer::of(ids.iter().copied(), head),
        }
    }

    /// Hash join to `Bright` over an `ra` range an eighth of the region wide.
    fn join(&self, rng: &mut Rng) -> Statement {
        let w = q4(self.region.ra_span() / 8.0);
        let lo = q4(rng.range(self.region.ra_min, self.region.ra_max - w));
        let hi = lo + w;
        let n = self.in_ra(lo, hi).filter(|g| is_bright(g)).count() as i64;
        Statement {
            sql: format!(
                "SELECT COUNT(*) FROM Galaxy g JOIN Bright b ON g.objid = b.objid WHERE g.ra BETWEEN {lo} AND {hi}"
            ),
            expect: Answer::of([n], vec![n as f64]),
        }
    }
}

/// The three classes of `xmatch_fabric` over `Survey1`: the truth
/// catalogue as `(objid, ra, dec)`.
pub struct SurveyClasses<'a> {
    objects: &'a [(i64, f64, f64)],
    by_ra: Vec<u32>,
    region: SkyRegion,
}

impl<'a> SurveyClasses<'a> {
    pub fn new(objects: &'a [(i64, f64, f64)], region: SkyRegion) -> SurveyClasses<'a> {
        SurveyClasses {
            objects,
            by_ra: order_by_ra(objects, |o| (o.1, o.0)),
            region,
        }
    }

    pub fn draw(&self, class: &str, rng: &mut Rng) -> Statement {
        match class {
            "fig4" => self.fig4(rng),
            "agg" => self.agg(rng),
            "topn" => self.topn(),
            other => panic!("no fabric statement class {other}"),
        }
    }

    /// A 0.5° × 0.1° window; the declination bounds let the fabric prune
    /// to the one shard (sometimes two) that holds it.
    fn fig4(&self, rng: &mut Rng) -> Statement {
        let w = window(rng, &self.region, 0.5, 0.1);
        let a = self
            .by_ra
            .partition_point(|&i| self.objects[i as usize].1 < w.ra_min);
        let b = self
            .by_ra
            .partition_point(|&i| self.objects[i as usize].1 <= w.ra_max);
        let mut hits: Vec<&(i64, f64, f64)> = self.by_ra[a..b]
            .iter()
            .map(|&i| &self.objects[i as usize])
            .filter(|o| o.2 >= w.dec_min && o.2 <= w.dec_max)
            .collect();
        hits.sort_by_key(|o| o.0);
        let head = hits
            .first()
            .map(|o| vec![o.0 as f64, o.1, o.2])
            .unwrap_or_default();
        Statement {
            sql: format!(
                "SELECT objid, ra, dec FROM Survey1 WHERE dec BETWEEN {} AND {} AND ra BETWEEN {} AND {} ORDER BY objid",
                w.dec_min, w.dec_max, w.ra_min, w.ra_max
            ),
            expect: Answer::of(hits.iter().map(|o| o.0), head),
        }
    }

    /// Per-shard partial aggregates folded at the coordinator.
    fn agg(&self, rng: &mut Rng) -> Statement {
        let r = &self.region;
        let x = q4(rng.range(r.ra_min + r.ra_span() / 2.0, r.ra_max));
        let (mut n, mut min_ra, mut max_dec) = (0i64, f64::INFINITY, f64::NEG_INFINITY);
        for o in self.objects.iter().filter(|o| o.1 < x) {
            n += 1;
            min_ra = min_ra.min(o.1);
            max_dec = max_dec.max(o.2);
        }
        Statement {
            sql: format!("SELECT COUNT(*), MIN(ra), MAX(dec) FROM Survey1 WHERE ra < {x}"),
            expect: Answer::of([n], vec![n as f64, min_ra, max_dec]),
        }
    }

    /// Per-shard `LIMIT` push-down and a k-way merge.
    fn topn(&self) -> Statement {
        let order: Vec<&(i64, f64, f64)> = self
            .by_ra
            .iter()
            .take(32)
            .map(|&i| &self.objects[i as usize])
            .collect();
        let head = order
            .first()
            .map(|o| vec![o.0 as f64, o.1])
            .unwrap_or_default();
        Statement {
            sql: "SELECT objid, ra FROM Survey1 ORDER BY ra, objid LIMIT 32".to_owned(),
            expect: Answer::of(order.iter().map(|o| o.0), head),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn galaxy(objid: i64, ra: f64, dec: f64, i: f64, gr: f64) -> Galaxy {
        Galaxy::with_derived_errors(objid, ra, dec, i, gr, 0.4)
    }

    #[test]
    fn answers_compare_rows_order_and_first_row() {
        let a = Answer::of([1, 2, 3], vec![1.0, 18.25]);
        assert!(a.matches(&Answer::of([1, 2, 3], vec![1.0, 18.250_000_1])));
        assert!(!a.matches(&Answer::of([1, 3, 2], vec![1.0, 18.25])));
        assert!(!a.matches(&Answer::of([1, 2, 3], vec![1.0, 18.26])));
        assert!(!a.clone().broken().matches(&a));
        let wire = vec![vec!["7".to_owned(), "18.25".to_owned()]];
        assert_eq!(
            Answer::from_strings(&wire),
            Answer::of([7], vec![7.0, 18.25])
        );
    }

    #[test]
    fn galaxy_classes_answer_from_the_sky_alone() {
        let region = SkyRegion::new(10.0, 12.0, 0.0, 1.0);
        let galaxies = vec![
            galaxy(3, 10.5, 0.5, 17.0, 1.6),
            galaxy(1, 11.9, 0.9, 18.5, 1.0),
            galaxy(2, 10.1, 0.1, 21.2, 1.5),
        ];
        let classes = GalaxyClasses::new(galaxies, region);
        let mut rng = Rng::new(1);
        let topn = classes.draw("topn", &mut rng);
        assert_eq!(topn.expect, Answer::of([3, 1, 2], vec![3.0, 17.0]));
        let agg = classes.draw("agg", &mut rng);
        assert_eq!(agg.expect.head, vec![2.0, 17.0, 11.9]);
        let scan = classes.draw("scan", &mut rng);
        assert_eq!(scan.expect.rows, 1);
        assert!(scan.sql.contains("gr > 1.4"));
        let fig4 = classes.draw("fig4", &mut rng);
        assert!(fig4
            .sql
            .starts_with("SELECT objid, ra, dec, i FROM Galaxy WHERE ra BETWEEN"));
        let join = classes.draw("join", &mut rng);
        assert!(join.expect.head[0] <= 2.0);
    }
}
